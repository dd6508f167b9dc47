//===- perfbench/src/ladder.cpp - Single-client layer ladder -------------===//

#include "ladder.h"

#include "core/inference.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "mphf/mphf.h"
#include "support/json.h"

#include <functional>

namespace pb {

using namespace sepe;

namespace {

constexpr unsigned Reps = 9;
constexpr size_t StreamLen = 16384;
constexpr size_t Batch = 64;
/// Per-format single-key hash rung: keys per format, passes per rep.
constexpr size_t FormatKeys = 1024;
constexpr size_t FormatPasses = 16;

AdaptiveOptions replayOptions() {
  AdaptiveOptions O;
  O.Family = HashFamily::Pext;
  O.Background = false;
  return O;
}

SynthesizedHash attach(const KeyPattern &P) {
  Expected<HashPlan> Plan = synthesize(P, HashFamily::Pext);
  if (!Plan)
    Plan = synthesize(P, HashFamily::OffXor);
  return Plan ? SynthesizedHash(Plan.take()) : SynthesizedHash();
}

double msSince(int64_t T0) { return static_cast<double>(nowNs() - T0) * 1e-6; }

/// One rung: a replay of the whole stream, returning nothing; timed by
/// the caller.
struct Rung {
  const char *Metric;
  std::function<void()> Replay;
  /// Checks the replay's outputs (outside the timed region).
  std::function<void(RunResult &)> Verify;
  std::vector<double> NsPerKey;
};

} // namespace

void servingFacts(const ServingTable<uint64_t> &T,
                  std::map<std::string, double> &V) {
  const AdaptiveHash &A = T.adaptive();
  const double Passes = static_cast<double>(A.guardPasses());
  const double Misses = static_cast<double>(A.guardMisses());
  V["runtime.guard_miss_ratio"] =
      Passes + Misses > 0 ? Misses / (Passes + Misses) : 0;
  const ServingTable<uint64_t>::Stats St = T.stats();
  V["runtime.spill_keys_end"] = static_cast<double>(St.SpillSize);
  V["runtime.swaps"] = static_cast<double>(A.swaps());
  V["runtime.migrations"] = static_cast<double>(St.Migrations);
  V["runtime.swept_keys"] = static_cast<double>(St.SweptKeys);
  V["mphf.static_keys"] = static_cast<double>(St.StaticSize);
  double ReadRatio = 0, WriteRatio = 0;
  if (Expected<json::Value> Doc = json::parse(T.fastLaneContentionJson()))
    if (const json::Value *Tot = Doc->find("totals")) {
      const double SA = Tot->numberOr("shared_acquires", 0);
      const double SC = Tot->numberOr("shared_contended", 0);
      const double UA = Tot->numberOr("unique_acquires", 0);
      const double UC = Tot->numberOr("unique_contended", 0);
      ReadRatio = SA > 0 ? SC / SA : 0;
      WriteRatio = UA > 0 ? UC / UA : 0;
    }
  V["container.read_contended_ratio"] = ReadRatio;
  V["container.write_contended_ratio"] = WriteRatio;
}

void runLadder(const LadderInput &In, std::map<std::string, double> &V,
               RunResult &R, SpanRecorder *Rec, unsigned Thread) {
  const auto Check = [&R](bool Ok) {
    ++R.Attempted;
    R.Failed += Ok ? 0 : 1;
  };

  // Setup rungs: pattern inference and synthesis + attach, repeated.
  std::vector<double> InferMs, AttachMs;
  KeyPattern Pattern;
  SynthesizedHash H;
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    {
      ScopedSpan S(Rec, Thread, "ladder.inferPattern");
      const int64_t T0 = nowNs();
      Pattern = inferPattern(In.Residents);
      InferMs.push_back(msSince(T0));
    }
    ScopedSpan S(Rec, Thread, "ladder.synthesize+attach");
    const int64_t T0 = nowNs();
    H = attach(Pattern);
    AttachMs.push_back(msSince(T0));
  }
  V["core.infer_ms"] = median(InferMs);
  V["core.attach_ms"] = median(AttachMs);
  Check(H.valid() && H.plan().Bijective);
  if (!H.valid() || !H.plan().Bijective)
    return;

  // The structures each rung drives, all over the same residents.
  AdaptiveHash Adaptive(Pattern, replayOptions());
  ShardedIndexMap<uint64_t> Map(H, Pattern, 0, In.Shards);
  ServingTable<uint64_t> Table(Pattern, replayOptions(), In.Shards);
  for (size_t I = 0; I != In.Residents.size(); ++I) {
    Map.put(In.Residents[I], In.Values[I]);
    Table.put(In.Residents[I], In.Values[I]);
  }
  std::vector<std::string_view> Views(In.Residents.begin(),
                                      In.Residents.end());
  if (In.Seal)
    Check(Table.sealStatic(Views) == In.Residents.size());
  MphfBuildOptions MO;
  MO.Extract = std::make_shared<const HashPlan>(H.plan());
  std::vector<double> BuildMs;
  Mphf F;
  for (unsigned Rep = 0; Rep != 3; ++Rep) {
    ScopedSpan S(Rec, Thread, "ladder.buildMphf");
    const int64_t T0 = nowNs();
    Expected<Mphf> Built = buildMphf(Views, MO);
    BuildMs.push_back(msSince(T0));
    Check(static_cast<bool>(Built));
    if (!Built)
      return;
    F = Built.take();
  }
  V["mphf.build_ms"] = median(BuildMs);
  V["mphf.bits_per_key"] = F.plan().bitsPerKey();

  // The replayed stream: residents, plus one absent key in ten when the
  // workload looks up absent keys. Expect 0 = must miss.
  std::vector<std::string_view> Stream(StreamLen);
  std::vector<uint64_t> Expect(StreamLen);
  uint64_t Rng = In.Seed ^ 0x1add3e;
  for (size_t I = 0; I != StreamLen; ++I) {
    const uint64_t X = splitmix64(Rng);
    if (!In.Absent.empty() && X % 10 == 0) {
      Stream[I] = In.Absent[(X >> 8) % In.Absent.size()];
      Expect[I] = 0;
    } else {
      const size_t K = (X >> 8) % In.Residents.size();
      Stream[I] = In.Residents[K];
      Expect[I] = In.Values[K];
    }
  }
  std::vector<uint64_t> Out(StreamLen);
  std::vector<uint8_t> Found(StreamLen);
  uint32_t MissIdx[Batch];
  const auto VerifyLookups = [&](RunResult &Res) {
    for (size_t I = 0; I != StreamLen; ++I) {
      const bool Ok = Expect[I] ? Found[I] && Out[I] == Expect[I] : !Found[I];
      ++Res.Attempted;
      Res.Failed += Ok ? 0 : 1;
    }
  };
  const auto NoVerify = [](RunResult &) {};

  std::vector<Rung> Rungs = {
      {"core.hash_ns",
       [&] {
         for (size_t I = 0; I != StreamLen; ++I)
           Out[I] = H(Stream[I]);
       },
       NoVerify, {}},
      {"core.hash_batch_ns_per_key",
       [&] {
         for (size_t I = 0; I < StreamLen; I += Batch)
           H.hashBatch(&Stream[I], &Out[I], Batch);
       },
       NoVerify, {}},
      {"runtime.route_ns",
       [&] {
         for (size_t I = 0; I != StreamLen; ++I)
           Out[I] = Adaptive.route(Stream[I]).Hash;
       },
       NoVerify, {}},
      {"runtime.route_batch_ns_per_key",
       [&] {
         uint64_t Epoch = 0;
         for (size_t I = 0; I < StreamLen; I += Batch)
           Adaptive.routeBatch(&Stream[I], &Out[I], Batch, MissIdx, Epoch);
       },
       NoVerify, {}},
      {"container.get_ns",
       [&] {
         for (size_t I = 0; I != StreamLen; ++I)
           Found[I] = Map.get(Stream[I], Out[I]);
       },
       VerifyLookups, {}},
      {"container.get_batch_ns_per_key",
       [&] {
         for (size_t I = 0; I < StreamLen; I += Batch)
           Map.getBatch(&Stream[I], &Out[I], &Found[I], Batch);
       },
       VerifyLookups, {}},
      {"runtime.get_ns",
       [&] {
         for (size_t I = 0; I != StreamLen; ++I)
           Found[I] = Table.get(Stream[I], Out[I]);
       },
       VerifyLookups, {}},
      {"runtime.get_batch_ns_per_key",
       [&] {
         for (size_t I = 0; I < StreamLen; I += Batch)
           Table.getBatch(&Stream[I], &Out[I], &Found[I], Batch);
       },
       VerifyLookups, {}},
      {"mphf.eval_ns_per_key",
       [&] {
         for (size_t I = 0; I < StreamLen; I += Batch)
           F.evalBatch(&Stream[I], &Out[I], Batch);
       },
       [&](RunResult &Res) {
         for (size_t I = 0; I != StreamLen; ++I) {
           ++Res.Attempted;
           Res.Failed += Out[I] < F.size() ? 0 : 1;
         }
       },
       {}},
  };
  // Round-robin: every rep visits every rung, so slow drift in machine
  // speed lands on all rungs alike.
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (Rung &Rg : Rungs) {
      std::fill(Found.begin(), Found.end(), 0);
      ScopedSpan S(Rec, Thread, Rg.Metric);
      const int64_t T0 = nowNs();
      Rg.Replay();
      Rg.NsPerKey.push_back(static_cast<double>(nowNs() - T0) /
                            static_cast<double>(StreamLen));
      Rg.Verify(R);
    }
  std::map<std::string, RungStat> Stat;
  for (const Rung &Rg : Rungs) {
    Stat[Rg.Metric] = rungStat(Rg.NsPerKey);
    V[Rg.Metric] = Stat[Rg.Metric].Median;
  }
  const auto Layer = [&](const char *Name, const char *Spread,
                         const char *Upper, const char *Lower) {
    const Marginal M = marginal(Stat[Upper], Stat[Lower]);
    V[Name] = M.Cost;
    V[Spread] = M.Spread;
  };
  Layer("ladder.guard_ns", "ladder.guard_spread_ns", "runtime.route_ns",
        "core.hash_ns");
  Layer("ladder.shard_probe_ns", "ladder.shard_probe_spread_ns",
        "container.get_ns", "core.hash_ns");
  Layer("ladder.serving_ns", "ladder.serving_spread_ns", "runtime.get_ns",
        "container.get_ns");
  Layer("ladder.guard_batch_ns_per_key", "ladder.guard_batch_spread_ns",
        "runtime.route_batch_ns_per_key", "core.hash_batch_ns_per_key");
  Layer("ladder.shard_probe_batch_ns_per_key",
        "ladder.shard_probe_batch_spread_ns",
        "container.get_batch_ns_per_key", "core.hash_batch_ns_per_key");
  Layer("ladder.serving_batch_ns_per_key", "ladder.serving_batch_spread_ns",
        "runtime.get_batch_ns_per_key", "container.get_batch_ns_per_key");

  // Single-key hashing of every paper format (the long ones included).
  for (PaperKey K : AllPaperKeys) {
    KeyGenerator Gen(paperKeyFormat(K), KeyDistribution::Uniform,
                     In.Seed ^ (0xF0u + static_cast<unsigned>(K)));
    const std::vector<std::string> Keys = Gen.distinct(FormatKeys);
    const SynthesizedHash FH = attach(inferPattern(Keys));
    Check(FH.valid());
    if (!FH.valid())
      continue;
    std::vector<double> Ns;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      const int64_t T0 = nowNs();
      for (size_t P = 0; P != FormatPasses; ++P)
        for (size_t I = 0; I != Keys.size(); ++I)
          Out[I] = FH(Keys[I]);
      Ns.push_back(static_cast<double>(nowNs() - T0) /
                   static_cast<double>(FormatPasses * Keys.size()));
    }
    V[std::string("core.hash_ns.") + paperKeyName(K)] = median(Ns);
  }

  servingFacts(Table, V);
}

} // namespace pb
