//===- tests/test_telemetry.cpp - Observability substrate -----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Runs in both build flavors: with -DSEPE_TELEMETRY=ON the full
// counter/histogram/span semantics and the flight recorder's ring
// semantics (drop-oldest wrap, cross-thread drain ordering, span
// durations, the Chrome-trace export shape) are checked, plus three
// end-to-end properties (FlatIndexMap probe accounting, executor batch
// dispatch, one record per sink for every event a serving lifecycle
// emits); without it the same binary checks that the no-op shims
// really are inert and that toJson() and writeChromeTrace() still emit
// valid minimal documents.
//
//===----------------------------------------------------------------------===//

#include "support/telemetry.h"

#include "container/flat_index_map.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "runtime/serving_table.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

using namespace sepe;

namespace {

/// Zeroes the registry, empties the rings (discarding events leaked by
/// other tests) and enables recording for one test body; restores the
/// default-off state and drains again on scope exit so no other test
/// sees the plane enabled.
struct TelemetryScope {
  TelemetryScope() {
    telemetry::resetAll();
    (void)telemetry::drain();
    telemetry::setEnabled(true);
  }
  ~TelemetryScope() {
    telemetry::setEnabled(false);
    (void)telemetry::drain();
  }
};

std::string tempPath(const char *Name) {
  return std::string(::testing::TempDir()) + Name;
}

SynthesizedHash bijectiveHash(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take());
}

TEST(TelemetryCoreTest, DisabledByDefault) {
  // Both flavors: recording must be opt-in (setEnabled or the
  // SEPE_TELEMETRY_ENABLED env var, which the test harness never sets).
  EXPECT_FALSE(telemetry::enabled());
}

TEST(TraceCoreTest, DisabledByDefault) {
  // The ring recorder has no switch of its own: it is off exactly when
  // the aggregates are, so it holds nothing until the plane is enabled.
  EXPECT_FALSE(telemetry::enabled());
  EXPECT_EQ(telemetry::occupancy(), 0u);
}

TEST(TelemetryCoreTest, CompiledOutShimsAreInert) {
  if (telemetry::compiledIn())
    GTEST_SKIP() << "built with SEPE_TELEMETRY; shims not in play";
  telemetry::setEnabled(true);
  EXPECT_FALSE(telemetry::enabled());

  telemetry::Counter &C = telemetry::counter("test.shim.counter");
  C.add(7);
  EXPECT_EQ(C.value(), 0u);

  telemetry::Histogram &H = telemetry::histogram("test.shim.histogram");
  H.record(42);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.sum(), 0u);
  EXPECT_EQ(H.max(), 0u);

  {
    telemetry::Span S(telemetry::span("test.shim.span"), "test.shim.span");
    S.setArg(64);
  }
  EXPECT_EQ(telemetry::span("test.shim.span").count(), 0u);

  const std::string Json = telemetry::toJson();
  EXPECT_NE(Json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(Json.find("\"compiled_in\":false"), std::string::npos);
  EXPECT_NE(Json.find("\"counters\":{}"), std::string::npos);
}

TEST(TraceCoreTest, CompiledOutShimsAreInert) {
  if (telemetry::compiledIn())
    GTEST_SKIP() << "built with SEPE_TELEMETRY; shims not in play";
  telemetry::setEnabled(true); // Must not stick in the OFF build.
  EXPECT_FALSE(telemetry::enabled());
  SEPE_EVENT("test.shim.event", 1, 2);
  EXPECT_EQ(telemetry::emitted(), 0u);
  EXPECT_EQ(telemetry::dropped(), 0u);
  EXPECT_TRUE(telemetry::drain().empty());
}

TEST(TraceCoreTest, DisabledEmitIsANoOp) {
  // Whether the plane is compiled out or merely runtime-disabled, an
  // event or span must not record anything in either sink.
  ASSERT_FALSE(telemetry::enabled());
  const uint64_t Before = telemetry::emitted();
  SEPE_EVENT("test.disabled.event", 7, 0);
  {
    SEPE_SPAN("test.disabled.span", S, 3);
    S.setArg(64);
  }
  EXPECT_EQ(telemetry::counter("test.disabled.event").value(), 0u);
  EXPECT_EQ(telemetry::span("test.disabled.span").count(), 0u);
  EXPECT_EQ(telemetry::emitted(), Before);
  EXPECT_EQ(telemetry::occupancy(), 0u);
  EXPECT_TRUE(telemetry::drain().empty());
}

TEST(TelemetryCoreTest, CounterGatesOnEnabledFlag) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  telemetry::Counter &C = telemetry::counter("test.counter.gate");
  C.add();
  C.add(9);
  EXPECT_EQ(C.value(), 10u);

  telemetry::setEnabled(false);
  C.add(100);
  EXPECT_EQ(C.value(), 10u) << "disabled counter must not move";

  telemetry::setEnabled(true);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(TelemetryCoreTest, HistogramBucketsAndMoments) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  using telemetry::Histogram;
  // The log2 layout: bucket 0 <- {0}, bucket i <- [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::bucketOf(0), 0u);
  EXPECT_EQ(Histogram::bucketOf(1), 1u);
  EXPECT_EQ(Histogram::bucketOf(2), 2u);
  EXPECT_EQ(Histogram::bucketOf(3), 2u);
  EXPECT_EQ(Histogram::bucketOf(4), 3u);
  EXPECT_EQ(Histogram::bucketOf(~uint64_t{0}), 64u);
  EXPECT_EQ(Histogram::bucketFloor(0), 0u);
  EXPECT_EQ(Histogram::bucketFloor(1), 1u);
  EXPECT_EQ(Histogram::bucketFloor(5), 16u);

  TelemetryScope Scope;
  telemetry::Histogram &H = telemetry::histogram("test.histogram.moments");
  for (uint64_t V : {0, 1, 2, 3, 1000})
    H.record(V);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_EQ(H.sum(), 1006u);
  EXPECT_EQ(H.max(), 1000u);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 1u);
  EXPECT_EQ(H.bucket(2), 2u);
  EXPECT_EQ(H.bucket(Histogram::bucketOf(1000)), 1u);

  telemetry::setEnabled(false);
  H.record(5);
  EXPECT_EQ(H.count(), 5u) << "disabled histogram must not move";
}

TEST(TelemetryCoreTest, PercentileInterpolatesBucketBoundaries) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  telemetry::Histogram &H = telemetry::histogram("test.percentile");
  EXPECT_EQ(H.percentile(0.50), 0.0) << "empty histogram";

  // 99 samples in [16, 32) and one at 1000: the p50 lands mid-bucket,
  // the p999 rides the outlier but clamps to the observed max.
  for (int I = 0; I != 99; ++I)
    H.record(16);
  H.record(1000);
  const double P50 = H.percentile(0.50);
  EXPECT_GE(P50, 16.0);
  EXPECT_LT(P50, 32.0);
  const double P999 = H.percentile(0.999);
  EXPECT_GT(P999, 32.0);
  EXPECT_LE(P999, 1000.0) << "clamped to max(), not the bucket ceiling";
  // Quantiles are monotone in Q.
  EXPECT_LE(H.percentile(0.50), H.percentile(0.90));
  EXPECT_LE(H.percentile(0.90), H.percentile(0.99));
  EXPECT_LE(H.percentile(0.99), H.percentile(0.999));

  // The JSON export carries the summary keys.
  const std::string Json = telemetry::toJson();
  EXPECT_NE(Json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p99\":"), std::string::npos);
  EXPECT_NE(Json.find("\"p999\":"), std::string::npos);
}

TEST(TelemetryCoreTest, PercentileEdgeCases) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;

  // Empty histogram: every quantile, including the clamped extremes,
  // is 0.0 rather than NaN or a bucket floor.
  telemetry::Histogram &Empty = telemetry::histogram("test.pct.empty");
  for (double Q : {-1.0, 0.0, 0.5, 1.0, 2.0})
    EXPECT_EQ(Empty.percentile(Q), 0.0) << "Q=" << Q;

  // Single-bucket population: all mass in [4, 8). Every quantile must
  // land inside that bucket and at or below the observed max.
  telemetry::Histogram &One = telemetry::histogram("test.pct.onebucket");
  for (int I = 0; I != 10; ++I)
    One.record(7);
  for (double Q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double P = One.percentile(Q);
    EXPECT_GE(P, 4.0) << "Q=" << Q;
    EXPECT_LE(P, 7.0) << "Q=" << Q << " must clamp to the observed max";
  }

  // Out-of-range Q clamps instead of extrapolating: below 0 behaves
  // like 0, above 1 like 1 (the observed max).
  telemetry::Histogram &Spread = telemetry::histogram("test.pct.spread");
  for (uint64_t V : {1, 10, 100, 1000})
    Spread.record(V);
  EXPECT_EQ(Spread.percentile(-0.5), Spread.percentile(0.0));
  EXPECT_EQ(Spread.percentile(1.5), Spread.percentile(1.0));
  EXPECT_LE(Spread.percentile(1.0), 1000.0);

  // Monotone ladder across buckets: p50 <= p90 <= p99 <= p999.
  EXPECT_LE(Spread.percentile(0.50), Spread.percentile(0.90));
  EXPECT_LE(Spread.percentile(0.90), Spread.percentile(0.99));
  EXPECT_LE(Spread.percentile(0.99), Spread.percentile(0.999));
}

TEST(TelemetryCoreTest, PrometheusExposition) {
  TelemetryScope Scope;
  if (!telemetry::compiledIn()) {
    // The compiled-out shim must still return a commented document.
    EXPECT_EQ(telemetry::toPrometheus().rfind("#", 0), 0u);
    return;
  }
  telemetry::counter("test.prom.counter").add(5);
  telemetry::histogram("test.prom.hist").record(32);
  telemetry::span("test.prom.span").record(1024);
  const std::string Text = telemetry::toPrometheus();
  // Names are flattened onto the Prometheus alphabet and prefixed.
  EXPECT_NE(Text.find("# TYPE sepe_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_counter 5"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE sepe_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_hist_count 1"), std::string::npos);
  EXPECT_NE(Text.find("sepe_test_prom_span_ns{quantile=\"0.5\"}"),
            std::string::npos)
      << "span histograms carry the _ns unit suffix";
}

TEST(TelemetryCoreTest, SpanRecordsOnlyWhenEnabled) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  telemetry::Histogram &Durations = telemetry::span("test.timer");
  {
    telemetry::Span T(Durations, "test.timer");
    volatile unsigned Spin = 0;
    for (unsigned I = 0; I != 1000; ++I)
      Spin = Spin + 1;
  }
  EXPECT_EQ(Durations.count(), 1u);

  telemetry::setEnabled(false);
  { telemetry::Span T(Durations, "test.timer"); }
  EXPECT_EQ(Durations.count(), 1u) << "disabled span must not record";
}

TEST(TelemetryCoreTest, MacrosFeedTheRegistryAndResetAllZeroes) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  for (int I = 0; I != 3; ++I) {
    SEPE_COUNT("test.macro.count");
    SEPE_EVENT("test.macro.event", 0, 0);
    SEPE_RECORD("test.macro.record", 16);
    SEPE_SPAN("test.macro.span");
  }
  EXPECT_EQ(telemetry::counter("test.macro.count").value(), 3u);
  EXPECT_EQ(telemetry::counter("test.macro.event").value(), 3u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").count(), 3u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").sum(), 48u);
  EXPECT_EQ(telemetry::span("test.macro.span").count(), 3u);

  const std::string Json = telemetry::toJson();
  EXPECT_NE(Json.find("\"compiled_in\":true"), std::string::npos);
  EXPECT_NE(Json.find("\"test.macro.count\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"test.macro.record\""), std::string::npos);
  EXPECT_NE(Json.find("\"test.macro.span\""), std::string::npos);

  telemetry::resetAll();
  EXPECT_EQ(telemetry::counter("test.macro.count").value(), 0u);
  EXPECT_EQ(telemetry::histogram("test.macro.record").count(), 0u);
  EXPECT_EQ(telemetry::span("test.macro.span").count(), 0u);
}

// The probe-length property: every find() — hit or miss — records
// exactly one sample in the probe-groups histogram, so its count must
// equal the hit counter plus the miss counter, and no probe can scan
// zero groups.
TEST(TelemetryFlatIndexMapTest, ProbeHistogramTotalsMatchLookups) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  const SynthesizedHash Pext = bijectiveHash(R"(\d{3}-\d{2}-\d{4})");
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0x7e1e);
  const std::vector<std::string> Pool = Gen.distinct(4096);
  const size_t Half = Pool.size() / 2;

  FlatIndexMap<uint64_t> Map(Pext, 16);
  for (size_t I = 0; I != Half; ++I)
    Map.insert(Pool[I], I);

  // Enable after the build phase so only the measured lookups count.
  TelemetryScope Scope;
  size_t Hits = 0, Misses = 0;
  for (const std::string &Key : Pool) {
    if (Map.find(Key) != nullptr)
      ++Hits;
    else
      ++Misses;
  }
  ASSERT_EQ(Hits, Half);
  ASSERT_EQ(Misses, Pool.size() - Half);

  const telemetry::Histogram &Probe =
      telemetry::histogram("flat_index_map.probe_groups.find");
  EXPECT_EQ(telemetry::counter("flat_index_map.find.hit").value(), Hits);
  EXPECT_EQ(telemetry::counter("flat_index_map.find.miss").value(), Misses);
  EXPECT_EQ(Probe.count(), Hits + Misses);
  EXPECT_EQ(Probe.bucket(0), 0u) << "a probe always scans >= 1 group";
  EXPECT_GE(Probe.sum(), Probe.count());
  EXPECT_GE(Probe.max(), 1u);
}

TEST(TelemetryDispatchTest, ForcedPathsRecordTheForcedRung) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan);

  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0xd15b);
  const std::vector<std::string> Keys = Gen.distinct(37);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Out(Views.size());

  const char *AllRungs[] = {"scalar", "interleaved", "avx2"};
  for (BatchPath Preferred :
       {BatchPath::Scalar, BatchPath::Interleaved, BatchPath::Avx2}) {
    // A forced request the host cannot honor resolves downward, so the
    // assertion targets the resolved rung — which IS the forced one
    // whenever the host supports it, and for Scalar always.
    const SynthesizedHash Forced(*Plan, IsaLevel::Native, Preferred);
    const std::string Rung = Forced.batchPathName();
    if (Preferred == BatchPath::Scalar) {
      ASSERT_EQ(Rung, "scalar");
    }

    TelemetryScope Scope;
    Forced.hashBatch(Views.data(), Out.data(), Views.size());

    const std::string CallsName = "executor.batch.calls." + Rung;
    const std::string KeysName = "executor.batch.keys." + Rung;
    EXPECT_EQ(telemetry::counter(CallsName.c_str()).value(), 1u) << Rung;
    EXPECT_EQ(telemetry::histogram(KeysName.c_str()).count(), 1u) << Rung;
    EXPECT_EQ(telemetry::histogram(KeysName.c_str()).sum(), Views.size())
        << Rung;
    EXPECT_EQ(telemetry::histogram("executor.batch.tail_keys").sum(),
              Views.size() % 4);
    for (const char *Other : AllRungs) {
      if (Rung == Other)
        continue;
      const std::string OtherName = std::string("executor.batch.calls.") +
                                    Other;
      EXPECT_EQ(telemetry::counter(OtherName.c_str()).value(), 0u)
          << "forced " << Rung << " must not touch " << Other;
    }
  }
}

TEST(TelemetryDispatchTest, SingleCallCounterMoves) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  const SynthesizedHash Hash = bijectiveHash(R"(\d{3}-\d{2}-\d{4})");
  TelemetryScope Scope;
  (void)Hash("123-45-6789");
  (void)Hash("987-65-4321");
  EXPECT_EQ(telemetry::counter("executor.single.calls").value(), 2u);
}

// --- Flight recorder ---------------------------------------------------------

TEST(TraceRingTest, EmitDrainRoundTrip) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  SEPE_EVENT("adaptive.drift.tripped", 4, 250000);
  SEPE_EVENT("adaptive.swap.publish", 5, 0);
  const std::vector<telemetry::Event> Events = telemetry::drain();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_STREQ(Events[0].Name, "adaptive.drift.tripped");
  EXPECT_EQ(Events[0].Gen, 4u);
  EXPECT_EQ(Events[0].Arg, 250000u);
  EXPECT_FALSE(Events[0].IsSpan);
  EXPECT_EQ(Events[0].DurNs, 0u);
  EXPECT_STREQ(Events[1].Name, "adaptive.swap.publish");
  EXPECT_LE(Events[0].TimeNs, Events[1].TimeNs);
  // Same thread: one ring, one tid.
  EXPECT_EQ(Events[0].Tid, Events[1].Tid);
  // Consumed: a second drain sees only newer events.
  EXPECT_TRUE(telemetry::drain().empty());
}

TEST(TraceRingTest, SpanCarriesDuration) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  {
    SEPE_SPAN("jit.compile", S, 9);
    S.setArg(128);
  }
  const std::vector<telemetry::Event> Events = telemetry::drain();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_TRUE(Events[0].IsSpan);
  EXPECT_STREQ(Events[0].Name, "jit.compile");
  EXPECT_EQ(Events[0].Gen, 9u);
  EXPECT_EQ(Events[0].Arg, 128u);
}

TEST(TraceRingTest, WrapDropsOldestAndCountsDrops) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  // A fresh thread gets a fresh ring, so the shrunken capacity applies
  // regardless of what the main thread's ring already is.
  telemetry::setRingCapacity(8);
  const uint64_t DroppedBefore = telemetry::dropped();
  std::thread Writer([] {
    telemetry::setEnabled(true);
    for (uint64_t I = 0; I != 20; ++I)
      SEPE_EVENT("test.ring.wrap", 1, I);
    telemetry::setEnabled(false);
  });
  Writer.join();
  telemetry::setRingCapacity(8192); // Restore the default for later tests.
  std::vector<telemetry::Event> Mine;
  for (const telemetry::Event &E : telemetry::drain())
    if (std::string_view(E.Name) == "test.ring.wrap" && E.Gen == 1)
      Mine.push_back(E);
  // 20 emitted into 8 slots: the 8 NEWEST survive, oldest dropped.
  ASSERT_EQ(Mine.size(), 8u);
  for (size_t I = 0; I != Mine.size(); ++I)
    EXPECT_EQ(Mine[I].Arg, 12 + I) << "expected the newest events";
  EXPECT_EQ(telemetry::dropped() - DroppedBefore, 12u);
}

TEST(TraceRingTest, MultiThreadDrainIsTimeOrdered) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  TelemetryScope Scope;
  constexpr size_t NumThreads = 4;
  constexpr uint64_t PerThread = 64;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([T] {
      for (uint64_t I = 0; I != PerThread; ++I)
        SEPE_EVENT("test.ring.multi", T, I);
    });
  for (std::thread &T : Threads)
    T.join();
  std::vector<telemetry::Event> Events;
  for (const telemetry::Event &E : telemetry::drain())
    if (std::string_view(E.Name) == "test.ring.multi")
      Events.push_back(E);
  ASSERT_EQ(Events.size(), NumThreads * PerThread);
  for (size_t I = 0; I != Events.size(); ++I) {
    if (I != 0) {
      EXPECT_LE(Events[I - 1].TimeNs, Events[I].TimeNs)
          << "drain must merge rings into time order";
    }
    ASSERT_LT(Events[I].Gen, NumThreads);
  }
  // Per-thread suborder survives the merge: each emitter's args must
  // come back ascending within its own Gen lane.
  for (size_t T = 0; T != NumThreads; ++T) {
    uint64_t Expect = 0;
    for (const telemetry::Event &E : Events) {
      if (E.Gen == T) {
        EXPECT_EQ(E.Arg, Expect++);
      }
    }
    EXPECT_EQ(Expect, PerThread);
  }
}

TEST(TraceChromeTest, GoldenShape) {
  const std::string Path = tempPath("sepe_trace_golden.json");
  uint64_t SpanCount = 0, InstantCount = 0;
  if (telemetry::compiledIn()) {
    TelemetryScope Scope;
    SEPE_EVENT("adaptive.drift.tripped", 3, 250000);
    {
      SEPE_SPAN("sharded.migrate", S, 4);
      S.setArg(17);
    }
    SEPE_EVENT("adaptive.swap.publish", 4, 0);
    SpanCount = 1;
    InstantCount = 2;
    ASSERT_TRUE(telemetry::writeChromeTrace(Path));
  } else {
    // The compiled-out document must still be a valid empty trace.
    ASSERT_TRUE(telemetry::writeChromeTrace(Path));
  }

  Expected<json::Value> Doc = json::parseFile(Path);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_EQ(Events->array().size(), SpanCount + InstantCount);

  uint64_t Spans = 0, Instants = 0;
  double LastTs = 0;
  for (const json::Value &E : Events->array()) {
    const json::Value *Ph = E.find("ph");
    const json::Value *Ts = E.find("ts");
    ASSERT_NE(Ph, nullptr);
    ASSERT_TRUE(Ph->isString());
    ASSERT_NE(Ts, nullptr);
    ASSERT_TRUE(Ts->isNumber());
    ASSERT_NE(E.find("tid"), nullptr);
    ASSERT_NE(E.find("pid"), nullptr);
    ASSERT_NE(E.find("name"), nullptr);
    EXPECT_GE(Ts->number(), LastTs) << "events must be sorted";
    LastTs = Ts->number();
    const std::string &Kind = Ph->string();
    if (Kind == "X") {
      ++Spans;
      EXPECT_NE(E.find("dur"), nullptr) << "complete events carry dur";
    } else {
      EXPECT_EQ(Kind, "i");
      ++Instants;
    }
  }
  EXPECT_EQ(Spans, SpanCount);
  EXPECT_EQ(Instants, InstantCount);
  std::remove(Path.c_str());
}

TEST(TraceChromeTest, ArgsCarryGeneration) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  const std::string Path = tempPath("sepe_trace_args.json");
  {
    TelemetryScope Scope;
    SEPE_EVENT("adaptive.swap.publish", 42, 7);
    ASSERT_TRUE(telemetry::writeChromeTrace(Path));
  }
  Expected<json::Value> Doc = json::parseFile(Path);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  const json::Value *Events = Doc->find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->array().size(), 1u);
  const json::Value &E = Events->array()[0];
  EXPECT_EQ(E.stringOr("name", ""), "adaptive.swap.publish");
  const json::Value *Args = E.find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->numberOr("gen", -1), 42.0);
  EXPECT_EQ(Args->numberOr("arg", -1), 7.0);
  std::remove(Path.c_str());
}

// One occurrence, one record per sink: a ServingTable driven through
// drift, resynthesis, fast-lane migration and a spill sweep must leave,
// for every name in the ring, as many instants as its counter and as
// many spans as its span histogram. The lifecycle names are also pinned
// to the table's own statistics, so an occurrence recorded at two sites
// (a drift trip counted by the detector and again by AdaptiveHash, say)
// fails even though each call feeds both sinks.
TEST(TelemetryPlaneTest, RingEventsMatchTheirAggregates) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Spec);
  const KeyPattern Pattern = Spec->abstract();
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 0x7e1e);
  const std::vector<std::string> InFormat = Gen.distinct(128);
  const DriftProbe Probe = findDriftProbe(Pattern);
  ASSERT_TRUE(Probe.Valid);
  std::vector<std::string> Drifted(InFormat);
  for (std::string &Key : Drifted)
    Key[Probe.Pos] = Probe.Byte;

  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.Cooldown = std::chrono::milliseconds(0);
  Options.DriftWindow = 256;

  const uint64_t DroppedBefore = telemetry::dropped();
  std::map<std::string, uint64_t> Instants, Spans;
  uint64_t Observed = 0, Swaps = 0, Migrations = 0;
  {
    TelemetryScope Scope;
    {
      ServingTable<uint64_t> Table(Pattern, Options, /*ShardCountHint=*/4);
      for (size_t I = 0; I != InFormat.size(); ++I) {
        Table.put(InFormat[I], I);
        Table.put(Drifted[I], InFormat.size() + I);
      }
      for (int Round = 0; Round != 4; ++Round)
        for (const std::string &Key : Drifted) {
          uint64_t V = 0;
          ASSERT_TRUE(Table.get(Key, V));
        }
      ASSERT_TRUE(Table.adaptive().resynthesisPending());
      ASSERT_TRUE(Table.adaptive().pumpResynthesis());
      ASSERT_TRUE(Table.maintain());
      ASSERT_EQ(Table.stats().SpillSize, 0u) << "the sweep moved every key";
      const AdaptiveHash &Adaptive = Table.adaptive();
      Observed = Adaptive.guardPasses() + Adaptive.guardMisses();
      Swaps = Adaptive.swaps();
      Migrations = Table.stats().Migrations;
    }
    for (const telemetry::Event &E : telemetry::drain())
      ++(E.IsSpan ? Spans : Instants)[E.Name];
  }
  EXPECT_EQ(telemetry::dropped(), DroppedBefore) << "run sized to fit";

  // Every window mixes half or more drifted keys, far past the 2%
  // threshold, so every window that closed tripped exactly once.
  EXPECT_EQ(Instants["adaptive.drift.tripped"], Observed / 256);
  EXPECT_EQ(Instants["adaptive.swap.publish"], Swaps + 1)
      << "construction publishes epoch 0";
  EXPECT_EQ(Instants["adaptive.drift.reset"], Swaps);
  EXPECT_EQ(Spans["adaptive.resynth.attempt"], 1u);
  EXPECT_EQ(Spans["sharded.migrate"], Migrations);
  EXPECT_EQ(Instants["sharded.migrate.publish"], Migrations);
  EXPECT_EQ(Spans["serving.spill.sweep"], 1u);
  EXPECT_GE(Swaps, 1u);
  EXPECT_GE(Migrations, 1u);

  for (const auto &[Name, N] : Instants)
    EXPECT_EQ(telemetry::counter(Name.c_str()).value(), N) << Name;
  for (const auto &[Name, N] : Spans)
    EXPECT_EQ(telemetry::span(Name.c_str()).count(), N) << Name;
}

/// Manual-pump serving options with the bijective family.
AdaptiveOptions manualPext() {
  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.Cooldown = std::chrono::milliseconds(0);
  Options.DriftWindow = 256;
  return Options;
}

/// Copies of \p Keys that \p Pattern rejects (its drift probe).
std::vector<std::string> driftedFrom(std::vector<std::string> Keys,
                                     const KeyPattern &Pattern) {
  const DriftProbe Probe = findDriftProbe(Pattern);
  EXPECT_TRUE(Probe.Valid);
  for (std::string &Key : Keys)
    Key[Probe.Pos] = Probe.Byte;
  return Keys;
}

/// Looks \p Keys up until the table's drift detector asks for a
/// resynthesis, then pumps it.
void tripAndPump(ServingTable<uint64_t> &Table,
                 const std::vector<std::string> &Keys) {
  for (int Pass = 0; !Table.adaptive().resynthesisPending(); ++Pass) {
    ASSERT_LT(Pass, 64);
    uint64_t V = 0;
    for (const std::string &Key : Keys)
      (void)Table.get(Key, V);
  }
  ASSERT_TRUE(Table.adaptive().pumpResynthesis());
}

// A lookup retries the fast lane after a spill miss only when a sweep
// can have moved its key in between. On a quiescent table no sweep
// runs, so absent keys (in-format or not, single or batched, unsealed
// or behind a sealed static lane) take no retry: before any sweep, and
// after one, with keys waiting in the spill lane.
TEST(TelemetryServingTest, AbsentKeysTakeNoRetryOnAQuiescentTable) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 0xab5e);
  const std::vector<std::string> Pool = Gen.distinct(1024);
  const std::vector<std::string> Present(Pool.begin(), Pool.begin() + 256);
  const std::vector<std::string> Spilled =
      driftedFrom(Present, Spec->abstract());
  ServingTable<uint64_t> Table(Spec->abstract(), manualPext(),
                               /*ShardCountHint=*/4);
  for (size_t I = 0; I != Present.size(); ++I) {
    ASSERT_TRUE(Table.put(Present[I], I));
    ASSERT_TRUE(Table.put(Spilled[I], I));
  }

  const auto ExpectNoRetry = [&](const char *Phase) {
    SCOPED_TRACE(Phase);
    ASSERT_NE(Table.stats().SpillSize, 0u) << "spill probes take the lock";
    std::vector<std::string> Absent(Pool.begin() + 512, Pool.end());
    const std::vector<std::string> Rejected =
        driftedFrom(Absent, Table.adaptive().pattern());
    Absent.insert(Absent.end(), Rejected.begin(), Rejected.end());
    const std::vector<std::string_view> Views(Absent.begin(), Absent.end());
    std::vector<uint64_t> Out(Views.size());
    std::vector<uint8_t> Found(Views.size());
    TelemetryScope Scope;
    for (const std::string &Key : Absent) {
      uint64_t V = 0;
      EXPECT_FALSE(Table.get(Key, V)) << Key;
    }
    EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                             Views.size()),
              0u);
    EXPECT_EQ(telemetry::counter("serving_table.get.retry").value(), 0u);
    EXPECT_EQ(telemetry::counter("serving_table.get.retry_hit").value(), 0u);
  };
  ExpectNoRetry("before any sweep");

  tripAndPump(Table, Spilled);
  ASSERT_TRUE(Table.maintain());
  ASSERT_EQ(Table.stats().SweptKeys, Spilled.size());
  const std::vector<std::string> Waiting =
      driftedFrom(std::vector<std::string>(Pool.begin() + 256,
                                           Pool.begin() + 512),
                  Table.adaptive().pattern());
  for (const std::string &Key : Waiting)
    ASSERT_TRUE(Table.put(Key, 0));
  ExpectNoRetry("after a sweep");

  const std::vector<std::string_view> Seal(Present.begin(), Present.end());
  ASSERT_EQ(Table.sealStatic(Seal), Present.size());
  ExpectNoRetry("sealed");
}

// A migration sizes each successor shard for the old table's mean shard
// load, so copying the live keys grows no shard.
TEST(TelemetryServingTest, MigrationCopiesWithoutGrowing) {
  if (!telemetry::compiledIn())
    GTEST_SKIP() << "needs -DSEPE_TELEMETRY=ON";
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  ASSERT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 0x61a5);
  const std::vector<std::string> Keys = Gen.distinct(8192);
  ServingTable<uint64_t> Table(Spec->abstract(), manualPext(),
                               /*ShardCountHint=*/8);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_TRUE(Table.put(Keys[I], I));
  // Absent drifted lookups widen the pattern; nothing waits to be swept.
  tripAndPump(Table, driftedFrom(std::vector<std::string>(
                                     Keys.begin(), Keys.begin() + 256),
                                 Spec->abstract()));
  {
    TelemetryScope Scope;
    ASSERT_TRUE(Table.maintain());
    EXPECT_EQ(Table.stats().Migrations, 1u);
    EXPECT_EQ(telemetry::counter("flat_index_map.rehash.grow").value(), 0u);
  }
  EXPECT_EQ(Table.stats().SweptKeys, 0u);
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
  }
}

} // namespace
