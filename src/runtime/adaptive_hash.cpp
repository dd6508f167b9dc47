//===- runtime/adaptive_hash.cpp - Guarded dispatch + hot re-synthesis ----===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "runtime/adaptive_hash.h"

#include "core/inference.h"
#include "core/synthesizer.h"
#include "hashes/low_level_hash.h"
#include "support/telemetry.h"

#include <algorithm>
#include <utility>

namespace sepe {

namespace {

uint64_t fallbackHash(std::string_view Key) {
  return lowLevelHash(Key.data(), Key.size(), 0);
}

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Outcome codes carried in the adaptive.resynth.attempt span's arg.
enum class ResynthOutcome : uint64_t {
  Swapped = 0,
  SkippedCooldown,
  SkippedFewSamples,
  SkippedUnchanged,
  SynthesisFailed,
};

} // namespace

DriftProbe findDriftProbe(const KeyPattern &Pattern) {
  for (size_t I = 0; I != Pattern.minLength(); ++I)
    for (const uint8_t Candidate : {uint8_t{0xFF}, uint8_t{'X'},
                                    uint8_t{'!'}})
      if (!Pattern.byteAt(I).matches(Candidate))
        return {I, static_cast<char>(Candidate), true};
  return {};
}

AdaptiveHash::AdaptiveHash(KeyPattern Pattern, AdaptiveOptions Opts)
    : Options(Opts), Sampler(SamplerCapacity),
      InFormatSampler(SamplerCapacity, 0x1f5a),
      Detector(Opts.DriftWindow, DriftThreshold) {
  // A pattern the synthesizer rejects (e.g. all-constant) cold-starts on
  // the fallback lane like an empty one.
  SynthesizedHash Fast;
  if (!Pattern.empty())
    if (Expected<HashPlan> Plan = synthesize(Pattern, Options.Family))
      Fast = SynthesizedHash(Plan.take(), Options.Isa);
  auto G = std::make_unique<Generation>(
      GuardedHash(std::move(Fast), std::move(Pattern)), 0);
  {
    std::lock_guard<std::mutex> Lock(SwapMutex);
    publish(std::move(G));
  }
  if (Options.Background)
    Worker = std::make_unique<Resynthesizer>(
        [this] { performResynthesis(/*RespectCooldown=*/true); });
}

AdaptiveHash::~AdaptiveHash() {
  if (Worker)
    Worker->stop();
}

void AdaptiveHash::publish(std::unique_ptr<const Generation> G) {
  // Callers hold SwapMutex. Release order pairs with the acquire load
  // in active(): a reader that sees the new pointer sees the fully
  // constructed generation behind it.
  const Generation *Prev = Active.load(std::memory_order_relaxed);
  const Generation *Raw = G.get();
  Retired.push_back(std::move(G));
  Active.store(Raw, std::memory_order_release);
  SEPE_EVENT("adaptive.swap.publish", Raw->Epoch, 0);
  if (Prev != nullptr)
    SEPE_EVENT("adaptive.plan.retired", Prev->Epoch, 0);
}

void AdaptiveHash::onTripped() const {
  SEPE_EVENT("adaptive.drift.tripped", active()->Epoch,
             static_cast<uint64_t>(Detector.lastRatio() * 1e6));
  Pending.store(true, std::memory_order_release);
  if (Worker)
    Worker->trigger();
}

void AdaptiveHash::sampleInFormatBatch(const Generation *G,
                                       const std::string_view *Keys,
                                       size_t N, size_t Misses) const {
  const size_t Every = Options.QualitySampleEvery;
  if (Every == 0 || !G->Guarded.valid() || Misses >= N)
    return;
  const uint64_t Admitted = N - Misses;
  const uint64_t Before =
      InFormatTick.fetch_add(Admitted, std::memory_order_relaxed);
  // One candidate per Every-boundary this batch's admitted keys cross.
  // The candidate index walks the batch with the tick; the membership
  // check keeps guard-missed keys out of the quality reservoir without
  // paying for a per-key scan.
  for (uint64_t T = Before + (Every - Before % Every) % Every;
       T < Before + Admitted; T += Every) {
    const std::string_view Key = Keys[static_cast<size_t>(T % N)];
    if (G->Guarded.pattern().matches(Key))
      InFormatSampler.offer(Key);
  }
}

uint64_t AdaptiveHash::operator()(std::string_view Key) const {
  return route(Key).Hash;
}

void AdaptiveHash::hashBatch(const std::string_view *Keys, uint64_t *Out,
                             size_t N) const {
  guardedBatch(active(), Keys, Out, N, /*MissIdx=*/nullptr);
}

AdaptiveHash::Routed AdaptiveHash::route(std::string_view Key) const {
  const Generation *G = active();
  uint64_t H;
  if (G->Guarded.valid() && G->Guarded.admit(Key, H)) {
    maybeSampleInFormat(Key);
    if (Detector.observeClean() == DriftDetector::Window::Tripped)
      onTripped();
    return {H, G->Epoch, true};
  }
  SEPE_COUNT("adaptive.guard.miss_keys");
  Sampler.offer(Key);
  if (Detector.observeMiss() == DriftDetector::Window::Tripped)
    onTripped();
  return {fallbackHash(Key), G->Epoch, false};
}

size_t AdaptiveHash::routeBatch(const std::string_view *Keys, uint64_t *Out,
                                size_t N, uint32_t *MissIdx,
                                uint64_t &Epoch) const {
  const Generation *G = active();
  Epoch = G->Epoch;
  return guardedBatch(G, Keys, Out, N, MissIdx);
}

size_t AdaptiveHash::guardedBatch(const Generation *G,
                                  const std::string_view *Keys, uint64_t *Out,
                                  size_t N, uint32_t *MissIdx) const {
  size_t Misses = 0;
  const auto Miss = [&](size_t K) {
    Out[K] = fallbackHash(Keys[K]);
    Sampler.offer(Keys[K]);
    if (MissIdx)
      MissIdx[Misses] = static_cast<uint32_t>(K);
    ++Misses;
  };
  if (!G->Guarded.valid()) {
    // Cold start: everything takes the fallback lane and is sampled.
    for (size_t I = 0; I != N; ++I)
      Miss(I);
  } else {
    constexpr size_t Block = 1024;
    uint32_t Local[Block];
    for (size_t Base = 0; Base < N; Base += Block) {
      const size_t Count = std::min(N - Base, Block);
      const size_t M =
          G->Guarded.admitBatch(Keys + Base, Out + Base, Count, Local);
      for (size_t I = 0; I != M; ++I)
        Miss(Base + Local[I]);
    }
  }
  sampleInFormatBatch(G, Keys, N, Misses);
  SEPE_COUNT_N("adaptive.guard.pass_keys", N - Misses);
  SEPE_COUNT_N("adaptive.guard.miss_keys", Misses);
  if (Detector.observe(N, Misses) == DriftDetector::Window::Tripped) {
    SEPE_RECORD("adaptive.window.mismatch_ppm",
                static_cast<uint64_t>(Detector.lastRatio() * 1e6));
    onTripped();
  }
  return Misses;
}

uint64_t AdaptiveHash::epoch() const { return active()->Epoch; }

KeyPattern AdaptiveHash::pattern() const {
  return active()->Guarded.pattern();
}

SynthesizedHash AdaptiveHash::specialized() const {
  return active()->Guarded.hash();
}

AdaptiveHash::Snapshot AdaptiveHash::snapshot() const {
  const Generation *G = active();
  return {G->Epoch, G->Guarded.pattern(), G->Guarded.hash()};
}

bool AdaptiveHash::pumpResynthesis() {
  return performResynthesis(/*RespectCooldown=*/false);
}

bool AdaptiveHash::performResynthesis(bool RespectCooldown) {
  SEPE_SPAN("adaptive.resynth.attempt", Attempt, epoch());
  std::lock_guard<std::mutex> Lock(SwapMutex);
  Pending.store(false, std::memory_order_release);
  if (RespectCooldown) {
    const int64_t Last = LastSwapNs.load(std::memory_order_relaxed);
    const int64_t CooldownNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Options.Cooldown)
            .count();
    if (Last != 0 && nowNs() - Last < CooldownNs) {
      SEPE_COUNT("adaptive.resynthesis.skipped_cooldown");
      Attempt.setArg(static_cast<uint64_t>(ResynthOutcome::SkippedCooldown));
      return false;
    }
  }
  if (Sampler.size() < MinSamples) {
    SEPE_COUNT("adaptive.resynthesis.skipped_few_samples");
    Attempt.setArg(static_cast<uint64_t>(ResynthOutcome::SkippedFewSamples));
    return false;
  }
  const Generation *Cur = Active.load(std::memory_order_relaxed);
  const std::vector<std::string> Samples = Sampler.drain();
  const KeyPattern Sampled = inferPattern(Samples);
  // Cold start joins nothing: joining with an empty pattern would widen
  // MinLen to 0 and every position to near-top, destroying the structure
  // the samples just revealed.
  const KeyPattern &CurPattern = Cur->Guarded.pattern();
  KeyPattern Joined = (!Cur->Guarded.valid() && CurPattern.empty())
                          ? Sampled
                          : join(CurPattern, Sampled);
  if (Joined == CurPattern) {
    SEPE_COUNT("adaptive.resynthesis.skipped_unchanged");
    Attempt.setArg(static_cast<uint64_t>(ResynthOutcome::SkippedUnchanged));
    return false;
  }
  Expected<HashPlan> Plan = synthesize(Joined, Options.Family);
  if (!Plan) {
    SEPE_COUNT("adaptive.resynthesis.synthesis_failed");
    Attempt.setArg(static_cast<uint64_t>(ResynthOutcome::SynthesisFailed));
    FailedSyntheses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const uint64_t NewEpoch = Cur->Epoch + 1;
  publish(std::make_unique<Generation>(
      GuardedHash(SynthesizedHash(Plan.take(), Options.Isa),
                  std::move(Joined)),
      NewEpoch));
  Swaps.fetch_add(1, std::memory_order_relaxed);
  LastSwapNs.store(nowNs(), std::memory_order_relaxed);
  Detector.reset();
  SEPE_EVENT("adaptive.drift.reset", NewEpoch, 0);
  SEPE_COUNT("adaptive.swap");
  Attempt.setGen(NewEpoch);
  Attempt.setArg(static_cast<uint64_t>(ResynthOutcome::Swapped));
  return true;
}

} // namespace sepe
