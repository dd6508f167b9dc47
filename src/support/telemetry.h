//===- support/telemetry.h - Instrumentation plane --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instrumentation plane. Two sinks share one set of names:
///
///   - the registry: atomic counters, fixed-bucket log2 histograms and
///     span (duration) histograms, reachable by name and serialized to
///     JSON and Prometheus text — "how many / how long on aggregate";
///   - the flight recorder: a per-thread ring buffer of control-plane
///     events (timestamp, thread, name, plan generation, argument and,
///     for spans, duration), exported as Chrome-trace JSON — "what
///     happened, in what order, on which thread".
///
/// Instrumentation sites use macros that cache the registry lookup in a
/// function-local static. SEPE_EVENT(NAME, GEN, ARG) adds one to
/// counter NAME and writes one instant named NAME to the calling
/// thread's ring; SEPE_SPAN(NAME) times the enclosing scope into span
/// histogram NAME and writes one span named NAME to the ring
/// (SEPE_SPAN(NAME, VAR, GEN) names the span so the site can setArg /
/// setGen before it closes). SEPE_COUNT, SEPE_COUNT_N and SEPE_RECORD
/// feed the registry only: they carry the per-key hot-path counts that
/// would flood a ring.
///
/// One plane, two gates:
///
///   - compile time: without -DSEPE_TELEMETRY the macros expand to
///     nothing (or to an empty shim object) and the metric types become
///     empty shims, so every call site compiles to zero instructions —
///     the default for release builds and the reason the batch kernels
///     and probe loops can be instrumented at all;
///   - runtime: with the plane compiled in, both sinks record only
///     while an atomic enabled flag is set (off unless setEnabled(true)
///     is called or SEPE_TELEMETRY_ENABLED is set in the environment),
///     so an instrumented binary pays one relaxed load and a
///     predictable branch per site until a caller asks for data.
///
/// Registered metrics live for the process lifetime; resetAll() zeroes
/// values but never unregisters, so cached references stay valid.
///
/// Ring memory is bounded: each thread owns a fixed-capacity ring
/// (setRingCapacity, default 8192 events) and a writer that catches up
/// to the read cursor overwrites the OLDEST unread event and counts the
/// drop — the recorder never blocks and never allocates on the write
/// path after the ring exists. Rings are seqlock-guarded slots of
/// relaxed atomics, so concurrent drain() is race-free: it merges every
/// thread's unread events into one timestamp-ordered vector and
/// consumes them. A slot overwritten mid-read is detected by its
/// sequence word and counted as dropped, never returned torn.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_TELEMETRY_H
#define SEPE_SUPPORT_TELEMETRY_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(SEPE_TELEMETRY)
#include <atomic>
#include <bit>
#endif

namespace sepe::telemetry {

/// True when the library was built with -DSEPE_TELEMETRY; lets tests
/// and tools branch on whether recorded values can be non-zero.
bool compiledIn();

/// Serializes every registered metric to one JSON object (see
/// DESIGN.md "Observability" for the schema). Always valid JSON — a
/// compiled-out build reports {"compiled_in": false, ...} with empty
/// sections, so BENCH_*.json embedding never needs to special-case.
std::string toJson();

/// Zeroes every registered counter, histogram, and span in place.
void resetAll();

/// Serializes every registered metric in Prometheus text-exposition
/// format (counters as `counter`, histograms and spans as `summary`
/// with p50/p90/p99/p99.9 quantile lines estimated from the log2
/// buckets; span names get an `_ns` unit suffix). Metric names are
/// sanitized to [a-zA-Z0-9_:] and prefixed `sepe_`. A compiled-out
/// build emits only a comment line, so scrapers see a valid page
/// either way.
std::string toPrometheus();

/// One drained flight-recorder entry. TimeNs is nanoseconds since an
/// arbitrary process-local monotonic epoch; for spans it is the START
/// of the scope and DurNs its length (instants carry DurNs == 0). Name
/// is the site's string literal — the same name its counter or span
/// histogram is registered under.
struct Event {
  uint64_t TimeNs = 0;
  uint64_t DurNs = 0;
  uint64_t Gen = 0;
  uint64_t Arg = 0;
  const char *Name = "";
  uint32_t Tid = 0;
  bool IsSpan = false;
};

/// Merges every thread's unread events into timestamp order and
/// consumes them (a second drain returns only newer events). Safe to
/// call concurrently with writers and with other drains.
std::vector<Event> drain();

/// Total events written to the rings since process start.
uint64_t emitted();
/// Events lost to ring wrap (drop-oldest) or torn-slot skips.
uint64_t dropped();
/// Events currently buffered across all rings, awaiting drain.
uint64_t occupancy();

/// Ring size (events per thread) for rings created AFTER the call;
/// existing rings keep their capacity. Rounded up to a power of two,
/// minimum 8. Intended for tests; the default is 8192.
void setRingCapacity(size_t Events);

/// Drains the recorder and writes Chrome tracing / Perfetto JSON
/// ({"traceEvents":[...]}, "ph":"X" complete events for spans,
/// "ph":"i" instants, ts/dur in microseconds relative to the first
/// event). Always writes a valid document — a compiled-out or empty
/// recorder yields an empty traceEvents array. Returns false only on
/// I/O failure.
bool writeChromeTrace(const std::string &Path);

#if defined(SEPE_TELEMETRY)

namespace detail {
/// The runtime gate. Out-of-line initialization (telemetry.cpp) seeds
/// it from the SEPE_TELEMETRY_ENABLED environment variable.
extern std::atomic<bool> EnabledFlag;
uint64_t nowNs();
/// Appends one event to the calling thread's ring.
void writeRing(const char *Name, uint64_t TimeNs, uint64_t DurNs,
               uint64_t Gen, uint64_t Arg, bool IsSpan);
} // namespace detail

inline bool enabled() {
  return detail::EnabledFlag.load(std::memory_order_relaxed);
}
void setEnabled(bool On);

/// Monotonic event count. Thread-safe; relaxed ordering is enough since
/// metrics are only read at serialization points.
class Counter {
public:
  void add(uint64_t N = 1) {
    if (enabled())
      Value.fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Fixed-bucket log2 histogram of uint64 samples: bucket 0 holds the
/// value 0, bucket i (i >= 1) the range [2^(i-1), 2^i). 65 buckets
/// cover the full domain, so record() never clamps and never allocates.
class Histogram {
public:
  static constexpr size_t NumBuckets = 65;

  static size_t bucketOf(uint64_t V) {
    return static_cast<size_t>(std::bit_width(V));
  }

  /// Lowest value bucket \p I can hold (the inclusive bucket floor).
  static uint64_t bucketFloor(size_t I) {
    return I == 0 ? 0 : uint64_t{1} << (I - 1);
  }

  void record(uint64_t V) {
    if (!enabled())
      return;
    Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    Count.fetch_add(1, std::memory_order_relaxed);
    Sum.fetch_add(V, std::memory_order_relaxed);
    uint64_t Prev = Max.load(std::memory_order_relaxed);
    while (V > Prev &&
           !Max.compare_exchange_weak(Prev, V, std::memory_order_relaxed)) {
    }
  }

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t I) const {
    return Buckets[I].load(std::memory_order_relaxed);
  }

  /// Estimated \p Q-quantile (Q in [0, 1]) from the log2 layout: walk
  /// the buckets until the cumulative count crosses Q*count, then
  /// interpolate linearly inside that bucket's [floor, next-floor)
  /// range, clamped to the observed max. An estimate — exact only at
  /// bucket boundaries — but monotone in Q and never outside
  /// [0, max()], which is all the exporters need.
  double percentile(double Q) const {
    const uint64_t N = count();
    if (N == 0)
      return 0.0;
    Q = Q < 0.0 ? 0.0 : (Q > 1.0 ? 1.0 : Q);
    const double Target = Q * static_cast<double>(N);
    const double M = static_cast<double>(max());
    double Cum = 0.0;
    for (size_t I = 0; I != NumBuckets; ++I) {
      const uint64_t B = bucket(I);
      if (B == 0)
        continue;
      Cum += static_cast<double>(B);
      if (Cum < Target)
        continue;
      const double Lo = static_cast<double>(bucketFloor(I));
      double Hi = I + 1 == NumBuckets ? M
                                      : static_cast<double>(bucketFloor(I + 1));
      if (Hi > M)
        Hi = M; // the top bucket ends at the observed max
      if (Hi < Lo)
        Hi = Lo;
      double Frac = (Target - (Cum - static_cast<double>(B))) /
                    static_cast<double>(B);
      Frac = Frac < 0.0 ? 0.0 : (Frac > 1.0 ? 1.0 : Frac);
      return Lo + Frac * (Hi - Lo);
    }
    return M;
  }

  void reset() {
    for (std::atomic<uint64_t> &B : Buckets)
      B.store(0, std::memory_order_relaxed);
    Count.store(0, std::memory_order_relaxed);
    Sum.store(0, std::memory_order_relaxed);
    Max.store(0, std::memory_order_relaxed);
  }

private:
  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

namespace detail {
/// SEPE_EVENT's body: counts one occurrence of event \p Name in
/// \p Count and writes it to the calling thread's ring as an instant.
/// The disabled path is one relaxed load and a branch; the clock is
/// never read.
inline void event(Counter &Count, const char *Name, uint64_t Gen,
                  uint64_t Arg) {
  if (!enabled())
    return;
  Count.add();
  writeRing(Name, nowNs(), 0, Gen, Arg, /*IsSpan=*/false);
}
} // namespace detail

/// Times a scope: on destruction records the elapsed nanoseconds into
/// \p Durations and writes one span named \p Name to the ring.
/// setArg/setGen attach results discovered mid-scope (entries copied,
/// code bytes, the epoch a resynthesis ended up publishing). Inactive —
/// no clock reads, no recording — when the plane is disabled at
/// construction.
class Span {
public:
  Span(Histogram &Durations, const char *Name, uint64_t Gen = 0)
      : Durations(enabled() ? &Durations : nullptr), Name(Name), Gen(Gen) {
    if (this->Durations)
      StartNs = detail::nowNs();
  }
  ~Span() {
    if (!Durations)
      return;
    const uint64_t DurNs = detail::nowNs() - StartNs;
    Durations->record(DurNs);
    detail::writeRing(Name, StartNs, DurNs, Gen, Arg, /*IsSpan=*/true);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void setArg(uint64_t A) { Arg = A; }
  void setGen(uint64_t G) { Gen = G; }

private:
  Histogram *Durations;
  const char *Name;
  uint64_t Gen;
  uint64_t Arg = 0;
  uint64_t StartNs = 0;
};

/// Registry lookups: return the metric registered under \p Name,
/// creating it on first use. References are stable for the process
/// lifetime. Names are dotted lowercase paths ("layer.object.event").
Counter &counter(const char *Name);
Histogram &histogram(const char *Name);
/// Like histogram() but serialized under "spans" with ns units.
Histogram &span(const char *Name);

#else // !SEPE_TELEMETRY

// Compiled-out shims: same API surface so non-macro callers (tests,
// tools) build unchanged; every member is an empty inline the optimizer
// deletes.

inline bool enabled() { return false; }
inline void setEnabled(bool) {}

class Counter {
public:
  void add(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void reset() {}
};

class Histogram {
public:
  static constexpr size_t NumBuckets = 65;
  static size_t bucketOf(uint64_t) { return 0; }
  static uint64_t bucketFloor(size_t) { return 0; }
  void record(uint64_t) {}
  uint64_t count() const { return 0; }
  uint64_t sum() const { return 0; }
  uint64_t max() const { return 0; }
  uint64_t bucket(size_t) const { return 0; }
  double percentile(double) const { return 0.0; }
  void reset() {}
};

class Span {
public:
  Span() = default;
  Span(Histogram &, const char *, uint64_t = 0) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  void setArg(uint64_t) {}
  void setGen(uint64_t) {}
};

inline Counter &counter(const char *) {
  static Counter Dummy;
  return Dummy;
}
inline Histogram &histogram(const char *) {
  static Histogram Dummy;
  return Dummy;
}
inline Histogram &span(const char *) {
  static Histogram Dummy;
  return Dummy;
}

#endif // SEPE_TELEMETRY

} // namespace sepe::telemetry

// --- Instrumentation-site macros -------------------------------------------
//
// NAME must be a string literal: it is the registry key (cached in a
// function-local static on first execution) and the ring entry's name.
// In compiled-out builds the macros drop their arguments unexpanded —
// GEN/ARG/V are never evaluated, so sites must not rely on their side
// effects — and a named SEPE_SPAN becomes an empty shim whose
// setArg/setGen do nothing. SEPE_TELEMETRY_ONLY(...) guards the
// occasional helper statement (a probe-length local, say) that only
// exists to feed a metric.

#define SEPE_TELEMETRY_CAT2(A, B) A##B
#define SEPE_TELEMETRY_CAT(A, B) SEPE_TELEMETRY_CAT2(A, B)

// SEPE_SPAN(NAME) declares an anonymous span at generation 0;
// SEPE_SPAN(NAME, VAR, GEN) declares it as VAR at generation GEN.
#define SEPE_SPAN(NAME, ...)                                                \
  SEPE_SPAN_DECL(NAME, __VA_OPT__(__VA_ARGS__, )                            \
                     SEPE_TELEMETRY_CAT(SepeTelemetrySiteSpan, __LINE__),   \
                 0, )

#if defined(SEPE_TELEMETRY)

#define SEPE_EVENT(NAME, GEN, ARG)                                          \
  do {                                                                      \
    static ::sepe::telemetry::Counter &SepeTelemetrySiteEvent =             \
        ::sepe::telemetry::counter(NAME);                                   \
    ::sepe::telemetry::detail::event(SepeTelemetrySiteEvent, NAME, (GEN),   \
                                     (ARG));                               \
  } while (0)

#define SEPE_COUNT_N(NAME, N)                                               \
  do {                                                                      \
    static ::sepe::telemetry::Counter &SepeTelemetrySiteCounter =           \
        ::sepe::telemetry::counter(NAME);                                   \
    SepeTelemetrySiteCounter.add(N);                                        \
  } while (0)
#define SEPE_COUNT(NAME) SEPE_COUNT_N(NAME, 1)

#define SEPE_RECORD(NAME, V)                                                \
  do {                                                                      \
    static ::sepe::telemetry::Histogram &SepeTelemetrySiteHistogram =       \
        ::sepe::telemetry::histogram(NAME);                                 \
    SepeTelemetrySiteHistogram.record(V);                                   \
  } while (0)

#define SEPE_SPAN_DECL(NAME, VAR, GEN, ...)                                 \
  static ::sepe::telemetry::Histogram &SEPE_TELEMETRY_CAT(VAR, Durations) = \
      ::sepe::telemetry::span(NAME);                                        \
  ::sepe::telemetry::Span VAR(SEPE_TELEMETRY_CAT(VAR, Durations), NAME,     \
                              (GEN))

#define SEPE_TELEMETRY_ONLY(...) __VA_ARGS__

#else // !SEPE_TELEMETRY

#define SEPE_EVENT(NAME, GEN, ARG)                                          \
  do {                                                                      \
  } while (0)
#define SEPE_COUNT_N(NAME, N)                                               \
  do {                                                                      \
  } while (0)
#define SEPE_COUNT(NAME)                                                    \
  do {                                                                      \
  } while (0)
#define SEPE_RECORD(NAME, V)                                                \
  do {                                                                      \
  } while (0)
#define SEPE_SPAN_DECL(NAME, VAR, GEN, ...)                                 \
  [[maybe_unused]] ::sepe::telemetry::Span VAR
#define SEPE_TELEMETRY_ONLY(...)

#endif // SEPE_TELEMETRY

#endif // SEPE_SUPPORT_TELEMETRY_H
