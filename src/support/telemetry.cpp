//===- support/telemetry.cpp - Registry, flight recorder, exporters ------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The flight recorder: each thread lazily claims one Ring — a
// power-of-two array of seqlock slots — and is its only writer, so the
// write path is wait-free: invalidate the slot's sequence word, store
// the payload with relaxed atomics, then release-publish the sequence.
// drain() can run from any thread (or several) concurrently with the
// writers; a slot whose sequence word does not match its expected
// position before AND after the payload read was overwritten mid-read
// and is skipped, never mis-decoded. The ring registry keeps every
// Ring alive for the process lifetime, so events written by a thread
// that has since exited still appear in the next drain.
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "support/json.h"

#include <cstdio>
#include <string>

#if defined(SEPE_TELEMETRY)
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#endif

using namespace sepe;

#if defined(SEPE_TELEMETRY)

namespace {

/// Name -> metric maps. std::map because its nodes never move: the
/// references handed out by counter()/histogram()/span() must stay
/// valid for the process lifetime (instrumentation sites cache them in
/// function-local statics).
struct Registry {
  std::mutex Mutex;
  std::map<std::string, telemetry::Counter> Counters;
  std::map<std::string, telemetry::Histogram> Histograms;
  std::map<std::string, telemetry::Histogram> Spans;
};

Registry &registry() {
  static Registry R;
  return R;
}

bool envEnabled() {
  const char *Env = std::getenv("SEPE_TELEMETRY_ENABLED");
  return Env != nullptr && Env[0] != '\0' && Env[0] != '0';
}

void appendEscaped(std::string &Out, const std::string &S) {
  // Full RFC 8259 escaping (shared with the sampled-key exporters):
  // metric names are ASCII today, but the registry is open to any
  // literal an instrumentation site passes.
  Out += json::escapeString(S);
}

void appendDouble(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

/// One histogram as {"count":..,"sum":..,"max":..,"p50":..,"p90":..,
/// "p99":..,"p999":..,"buckets":[..]} — the percentiles are estimates
/// interpolated from the log2 bucket boundaries (Histogram::percentile)
/// and the bucket array is trimmed to the highest non-zero bucket (the
/// fixed 65-bucket layout is part of the schema, so readers can
/// reconstruct the ranges from the index alone).
void appendHistogram(std::string &Out, const telemetry::Histogram &H) {
  Out += "{\"count\":" + std::to_string(H.count());
  Out += ",\"sum\":" + std::to_string(H.sum());
  Out += ",\"max\":" + std::to_string(H.max());
  Out += ",\"p50\":";
  appendDouble(Out, H.percentile(0.50));
  Out += ",\"p90\":";
  appendDouble(Out, H.percentile(0.90));
  Out += ",\"p99\":";
  appendDouble(Out, H.percentile(0.99));
  Out += ",\"p999\":";
  appendDouble(Out, H.percentile(0.999));
  Out += ",\"buckets\":[";
  size_t Last = 0;
  for (size_t I = 0; I != telemetry::Histogram::NumBuckets; ++I)
    if (H.bucket(I) != 0)
      Last = I;
  for (size_t I = 0; I <= Last; ++I) {
    if (I != 0)
      Out += ',';
    Out += std::to_string(H.bucket(I));
  }
  Out += "]}";
}

void appendHistogramMap(std::string &Out, const char *Section,
                        const std::map<std::string, telemetry::Histogram> &M) {
  Out += '"';
  Out += Section;
  Out += "\":{";
  bool First = true;
  for (const auto &[Name, H] : M) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    appendEscaped(Out, Name);
    Out += "\":";
    appendHistogram(Out, H);
  }
  Out += '}';
}

} // namespace

std::atomic<bool> telemetry::detail::EnabledFlag{envEnabled()};

bool telemetry::compiledIn() { return true; }

void telemetry::setEnabled(bool On) {
  detail::EnabledFlag.store(On, std::memory_order_relaxed);
}

telemetry::Counter &telemetry::counter(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Counters[Name];
}

telemetry::Histogram &telemetry::histogram(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Histograms[Name];
}

telemetry::Histogram &telemetry::span(const char *Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Spans[Name];
}

std::string telemetry::toJson() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out = "{\"schema_version\":1,\"compiled_in\":true,";
  Out += std::string("\"enabled\":") + (enabled() ? "true" : "false") + ",";
  Out += "\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : R.Counters) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    appendEscaped(Out, Name);
    Out += "\":" + std::to_string(C.value());
  }
  Out += "},";
  appendHistogramMap(Out, "histograms", R.Histograms);
  Out += ',';
  appendHistogramMap(Out, "spans", R.Spans);
  Out += '}';
  return Out;
}

void telemetry::resetAll() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (auto &[Name, C] : R.Counters)
    C.reset();
  for (auto &[Name, H] : R.Histograms)
    H.reset();
  for (auto &[Name, H] : R.Spans)
    H.reset();
}

namespace {

/// Prometheus metric names allow [a-zA-Z_:][a-zA-Z0-9_:]*; the
/// registry's dotted paths (and any future dynamically-built name)
/// are flattened onto that alphabet and prefixed.
std::string promName(const std::string &Name, const char *Suffix = "") {
  std::string Out = "sepe_";
  for (char C : Name) {
    const bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
                    (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  Out += Suffix;
  return Out;
}

void appendPromSummary(std::string &Out, const std::string &Name,
                       const telemetry::Histogram &H) {
  Out += "# TYPE " + Name + " summary\n";
  static constexpr struct {
    const char *Label;
    double Q;
  } Quantiles[] = {
      {"0.5", 0.50}, {"0.9", 0.90}, {"0.99", 0.99}, {"0.999", 0.999}};
  for (const auto &[Label, Q] : Quantiles) {
    Out += Name + "{quantile=\"" + Label + "\"} ";
    appendDouble(Out, H.percentile(Q));
    Out += '\n';
  }
  Out += Name + "_sum " + std::to_string(H.sum()) + '\n';
  Out += Name + "_count " + std::to_string(H.count()) + '\n';
}

} // namespace

std::string telemetry::toPrometheus() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::string Out;
  for (const auto &[Name, C] : R.Counters) {
    const std::string N = promName(Name);
    Out += "# TYPE " + N + " counter\n";
    Out += N + " " + std::to_string(C.value()) + '\n';
  }
  for (const auto &[Name, H] : R.Histograms)
    appendPromSummary(Out, promName(Name), H);
  for (const auto &[Name, H] : R.Spans)
    appendPromSummary(Out, promName(Name, "_ns"), H);
  return Out;
}

// --- Flight recorder ---------------------------------------------------------

namespace {

constexpr size_t DefaultRingCapacity = 8192;
constexpr size_t MinRingCapacity = 8;

/// One recorded event, seqlock-guarded. Seq holds AbsolutePos + 1 once
/// the payload at that position is fully written, 0 while a write is
/// in flight. All words are relaxed atomics so a racing drain is
/// data-race-free; the Seq protocol makes it also tear-free.
struct alignas(64) Slot {
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> TimeNs{0};
  std::atomic<uint64_t> DurNs{0};
  std::atomic<uint64_t> Gen{0};
  std::atomic<uint64_t> Arg{0};
  std::atomic<const char *> Name{""};
  std::atomic<bool> IsSpan{false};
};

/// Single-writer ring. Written is the writer's absolute position (only
/// the owning thread advances it); ReadCursor is advanced by drains and
/// by the writer when it must drop the oldest unread slot to make room.
struct Ring {
  explicit Ring(uint32_t Tid, size_t Capacity)
      : Tid(Tid), Capacity(Capacity), Mask(Capacity - 1),
        Slots(new Slot[Capacity]) {}

  const uint32_t Tid;
  const size_t Capacity;
  const size_t Mask;
  std::unique_ptr<Slot[]> Slots;
  std::atomic<uint64_t> Written{0};
  std::atomic<uint64_t> ReadCursor{0};
  std::atomic<uint64_t> Dropped{0};
};

struct RingRegistry {
  std::mutex Mutex;
  std::vector<std::unique_ptr<Ring>> Rings;
  std::atomic<size_t> NextCapacity{DefaultRingCapacity};
};

RingRegistry &rings() {
  static RingRegistry R;
  return R;
}

Ring &myRing() {
  thread_local Ring *Mine = [] {
    RingRegistry &R = rings();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    size_t Cap = std::max(
        MinRingCapacity,
        std::bit_ceil(R.NextCapacity.load(std::memory_order_relaxed)));
    R.Rings.push_back(
        std::make_unique<Ring>(static_cast<uint32_t>(R.Rings.size()), Cap));
    return R.Rings.back().get();
  }();
  return *Mine;
}

/// Reads the unread range of \p Ring into \p Out and consumes it.
/// Slots overwritten while being read fail the before/after sequence
/// check and count as drops.
void drainRing(Ring &Ring, std::vector<telemetry::Event> &Out) {
  const uint64_t End = Ring.Written.load(std::memory_order_acquire);
  uint64_t Begin = Ring.ReadCursor.load(std::memory_order_acquire);
  // Claim [Begin, End) up front so concurrent drains partition the
  // range instead of double-reporting it.
  while (Begin < End) {
    if (Ring.ReadCursor.compare_exchange_weak(Begin, End,
                                              std::memory_order_acq_rel))
      break;
  }
  for (uint64_t Pos = Begin; Pos < End; ++Pos) {
    Slot &S = Ring.Slots[Pos & Ring.Mask];
    if (S.Seq.load(std::memory_order_acquire) != Pos + 1) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    telemetry::Event E;
    E.TimeNs = S.TimeNs.load(std::memory_order_relaxed);
    E.DurNs = S.DurNs.load(std::memory_order_relaxed);
    E.Gen = S.Gen.load(std::memory_order_relaxed);
    E.Arg = S.Arg.load(std::memory_order_relaxed);
    E.Name = S.Name.load(std::memory_order_relaxed);
    E.IsSpan = S.IsSpan.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (S.Seq.load(std::memory_order_relaxed) != Pos + 1) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      continue; // overwritten mid-read
    }
    E.Tid = Ring.Tid;
    Out.push_back(E);
  }
}

} // namespace

uint64_t telemetry::detail::nowNs() {
  // One process-local epoch so timestamps are small, positive, and
  // directly comparable across threads.
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

void telemetry::detail::writeRing(const char *Name, uint64_t TimeNs,
                                  uint64_t DurNs, uint64_t Gen, uint64_t Arg,
                                  bool IsSpan) {
  Ring &Ring = myRing();
  const uint64_t Pos = Ring.Written.load(std::memory_order_relaxed);

  // Drop-oldest: if the ring is full, push the read cursor past the
  // slot about to be overwritten. CAS because a concurrent drain may
  // advance it first — whoever wins, the slot is claimed exactly once.
  uint64_t Read = Ring.ReadCursor.load(std::memory_order_acquire);
  while (Pos - Read >= Ring.Capacity) {
    if (Ring.ReadCursor.compare_exchange_weak(Read, Read + 1,
                                              std::memory_order_acq_rel)) {
      Ring.Dropped.fetch_add(1, std::memory_order_relaxed);
      Read += 1;
    }
  }

  // Seqlock write section: invalidate the slot, then a release fence so
  // no payload store below can become visible before the invalidation
  // (a release *store* of Seq would order only what precedes it).
  Slot &S = Ring.Slots[Pos & Ring.Mask];
  S.Seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  S.TimeNs.store(TimeNs, std::memory_order_relaxed);
  S.DurNs.store(DurNs, std::memory_order_relaxed);
  S.Gen.store(Gen, std::memory_order_relaxed);
  S.Arg.store(Arg, std::memory_order_relaxed);
  S.Name.store(Name, std::memory_order_relaxed);
  S.IsSpan.store(IsSpan, std::memory_order_relaxed);
  S.Seq.store(Pos + 1, std::memory_order_release);
  Ring.Written.store(Pos + 1, std::memory_order_release);
}

std::vector<telemetry::Event> telemetry::drain() {
  std::vector<Event> Out;
  RingRegistry &R = rings();
  {
    std::lock_guard<std::mutex> Lock(R.Mutex);
    for (std::unique_ptr<Ring> &Ring : R.Rings)
      drainRing(*Ring, Out);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Event &A, const Event &B) {
                     return A.TimeNs < B.TimeNs;
                   });
  return Out;
}

uint64_t telemetry::emitted() {
  RingRegistry &R = rings();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (std::unique_ptr<Ring> &Ring : R.Rings)
    Total += Ring->Written.load(std::memory_order_relaxed);
  return Total;
}

uint64_t telemetry::dropped() {
  RingRegistry &R = rings();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (std::unique_ptr<Ring> &Ring : R.Rings)
    Total += Ring->Dropped.load(std::memory_order_relaxed);
  return Total;
}

uint64_t telemetry::occupancy() {
  RingRegistry &R = rings();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  uint64_t Total = 0;
  for (std::unique_ptr<Ring> &Ring : R.Rings) {
    const uint64_t W = Ring->Written.load(std::memory_order_acquire);
    const uint64_t C = Ring->ReadCursor.load(std::memory_order_acquire);
    Total += std::min<uint64_t>(W - C, Ring->Capacity);
  }
  return Total;
}

void telemetry::setRingCapacity(size_t Events) {
  rings().NextCapacity.store(std::max(MinRingCapacity, Events),
                             std::memory_order_relaxed);
}

#else // !SEPE_TELEMETRY

bool telemetry::compiledIn() { return false; }

std::string telemetry::toJson() {
  return "{\"schema_version\":1,\"compiled_in\":false,\"enabled\":false,"
         "\"counters\":{},\"histograms\":{},\"spans\":{}}";
}

void telemetry::resetAll() {}

std::string telemetry::toPrometheus() {
  return "# sepe telemetry compiled out (-DSEPE_TELEMETRY=OFF)\n";
}

std::vector<telemetry::Event> telemetry::drain() { return {}; }

uint64_t telemetry::emitted() { return 0; }
uint64_t telemetry::dropped() { return 0; }
uint64_t telemetry::occupancy() { return 0; }

void telemetry::setRingCapacity(size_t) {}

#endif // SEPE_TELEMETRY

// --- Chrome-trace export ----------------------------------------------------
//
// Built in both flavors: a compiled-out binary handed --trace= still
// writes the valid empty document, so downstream tooling never has to
// special-case the build.

namespace {

/// Microseconds with sub-microsecond precision, as Chrome expects.
std::string formatMicros(uint64_t Ns) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%llu.%03llu",
                static_cast<unsigned long long>(Ns / 1000),
                static_cast<unsigned long long>(Ns % 1000));
  return Buf;
}

} // namespace

bool telemetry::writeChromeTrace(const std::string &Path) {
  std::vector<Event> Events = drain();
  const uint64_t Base = Events.empty() ? 0 : Events.front().TimeNs;

  std::string Out;
  Out.reserve(128 + Events.size() * 128);
  Out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  Out += "\"generator\":\"sepe-trace\"";
  Out += ",\"compiled_in\":";
  Out += compiledIn() ? "true" : "false";
  Out += ",\"emitted\":" + std::to_string(emitted());
  Out += ",\"dropped\":" + std::to_string(dropped());
  Out += "},\"traceEvents\":[";
  bool First = true;
  for (const Event &E : Events) {
    if (!First)
      Out += ',';
    First = false;
    Out += "{\"name\":\"";
    // Names are compile-time literals today, but route them through the
    // shared escaper so the emitter can never produce invalid JSON.
    Out += json::escapeString(E.Name);
    Out += "\",\"cat\":\"sepe\",\"ph\":\"";
    Out += E.IsSpan ? 'X' : 'i';
    Out += "\",\"ts\":" + formatMicros(E.TimeNs - Base);
    if (E.IsSpan)
      Out += ",\"dur\":" + formatMicros(E.DurNs);
    else
      Out += ",\"s\":\"t\"";
    Out += ",\"pid\":1,\"tid\":" + std::to_string(E.Tid);
    Out += ",\"args\":{\"gen\":" + std::to_string(E.Gen);
    Out += ",\"arg\":" + std::to_string(E.Arg);
    Out += "}}";
  }
  Out += "]}";

  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (F == nullptr)
    return false;
  const bool Wrote = std::fwrite(Out.data(), 1, Out.size(), F) == Out.size();
  return (std::fclose(F) == 0) && Wrote;
}
