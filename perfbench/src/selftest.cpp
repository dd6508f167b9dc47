//===- perfbench/src/selftest.cpp - The benchmark's own tests ------------===//
///
/// \file
/// Checks the benchmark's measuring parts: histogram percentiles against
/// a sorted reference, quartiles against Python's statistics.quantiles,
/// the ladder's difference arithmetic, self-time computation, and that a
/// planted wrong value makes a run report failures.
///
//===----------------------------------------------------------------------===//

#include "histogram.h"
#include "report.h"
#include "spans.h"
#include "workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

namespace pb {
namespace {

/// Nearest-rank percentile of sorted data: the ceil(Q * n)-th smallest.
double referencePercentile(const std::vector<uint64_t> &Sorted, double Q) {
  const size_t Rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(Q * static_cast<double>(Sorted.size()))));
  return static_cast<double>(Sorted[Rank - 1]);
}

TEST(Histogram, SmallValuesAreOneNanosecondBuckets) {
  LatencyHistogram H;
  for (uint64_t V = 1; V <= 100; ++V)
    H.record(V);
  EXPECT_EQ(H.count(), 100u);
  // Below 2^SubBits a bucket is [V, V + 1); a lone sample reads as the
  // bucket's midpoint.
  EXPECT_DOUBLE_EQ(H.percentile(0.50), 50.5);
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 99.5);
  EXPECT_DOUBLE_EQ(H.percentile(1.0), 100.5);
  // Many equal samples spread over their bucket.
  LatencyHistogram Same;
  for (int I = 0; I != 1000; ++I)
    Same.record(80);
  EXPECT_GE(Same.percentile(0.25), 80.0);
  EXPECT_LT(Same.percentile(0.99), 81.0);
  EXPECT_LT(Same.percentile(0.25), Same.percentile(0.75));
}

TEST(Histogram, PercentilesMatchSortedReference) {
  std::mt19937_64 Rng(7);
  // Latency-like: log-normal body plus a rare slow tail.
  std::lognormal_distribution<double> Body(std::log(150.0), 0.4);
  std::vector<uint64_t> Values;
  LatencyHistogram H;
  for (int I = 0; I != 200000; ++I) {
    uint64_t V = static_cast<uint64_t>(Body(Rng));
    if (I % 500 == 0)
      V *= 40;
    Values.push_back(V);
    H.record(V);
  }
  std::sort(Values.begin(), Values.end());
  for (double Q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const double Ref = referencePercentile(Values, Q);
    // One bucket is at most 1/128 of its value wide.
    EXPECT_NEAR(H.percentile(Q), Ref, Ref / 128.0 + 1.0) << "Q=" << Q;
  }
}

TEST(Histogram, MergeAddsCounts) {
  LatencyHistogram A, B;
  for (uint64_t V = 1000; V != 2000; ++V)
    (V % 2 ? A : B).record(V);
  A.merge(B);
  EXPECT_EQ(A.count(), 1000u);
  EXPECT_NEAR(A.percentile(0.5), 1499.0, 1500.0 / 128.0);
}

TEST(Histogram, BucketsTileTheRange) {
  for (size_t B = 0; B + 1 < LatencyHistogram::BucketCount; ++B)
    ASSERT_EQ(LatencyHistogram::bucketLow(B) + LatencyHistogram::bucketWidth(B),
              LatencyHistogram::bucketLow(B + 1))
        << B;
  for (uint64_t V : {0ull, 127ull, 128ull, 1000ull, 123456789ull}) {
    const size_t B = LatencyHistogram::bucketOf(V);
    EXPECT_LE(LatencyHistogram::bucketLow(B), V);
    EXPECT_LT(V, LatencyHistogram::bucketLow(B) +
                     LatencyHistogram::bucketWidth(B));
  }
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> V;
  for (int I = 1; I <= 10; ++I)
    V.push_back(I);
  const Quartiles Q = quartiles(V);
  EXPECT_DOUBLE_EQ(Q.Q1, 2.75);
  EXPECT_DOUBLE_EQ(Q.Median, 5.5);
  EXPECT_DOUBLE_EQ(Q.Q3, 8.25);
  // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
  const Quartiles Q3 = quartiles({3, 1, 2});
  EXPECT_DOUBLE_EQ(Q3.Q1, 1.0);
  EXPECT_DOUBLE_EQ(Q3.Q3, 3.0);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles Q2 = quartiles({2, 1});
  EXPECT_DOUBLE_EQ(Q2.Q1, 0.75);
  EXPECT_DOUBLE_EQ(Q2.Median, 1.5);
  EXPECT_DOUBLE_EQ(Q2.Q3, 2.25);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Ladder, MarginalIsDifferenceWithQuadratureSpread) {
  const RungStat Hash = rungStat({2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0});
  const RungStat Probe = rungStat({12.0, 12.4, 11.6, 12.0, 12.8, 11.2, 12.0});
  EXPECT_DOUBLE_EQ(Hash.Median, 2.0);
  EXPECT_DOUBLE_EQ(Probe.Median, 12.0);
  const Marginal M = marginal(Probe, Hash);
  EXPECT_DOUBLE_EQ(M.Cost, 10.0);
  EXPECT_DOUBLE_EQ(M.Spread, std::hypot(Probe.Iqr, Hash.Iqr));
  // A layer that saves time shows as a negative marginal.
  EXPECT_DOUBLE_EQ(marginal(Hash, Probe).Cost, -10.0);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  std::vector<Span> S(4);
  S[0] = {"request.get", 0, -1, 1, 100, 200}; // 100 ns
  S[1] = {"ServingTable::get", 0, 0, 1, 110, 170}; // 60 ns child of 0
  S[2] = {"setup", 0, -1, 0, 300, 400};            // 100 ns
  S[3] = {"inferPattern", 0, 2, 0, 300, 310};      // 10 ns child of 2
  const std::vector<double> Self = selfTimesNs(S);
  EXPECT_DOUBLE_EQ(Self[0], 40.0);
  EXPECT_DOUBLE_EQ(Self[1], 60.0);
  EXPECT_DOUBLE_EQ(Self[2], 90.0);
  EXPECT_DOUBLE_EQ(Self[3], 10.0);
  const auto Totals = spanTotals(S);
  EXPECT_EQ(Totals.at("request.get").Count, 1u);
  EXPECT_DOUBLE_EQ(Totals.at("request.get").SelfsNs.at(0), 40.0);
}

TEST(Spans, RecorderRemapsParentsAndCountsDrops) {
  SpanRecorder Rec(2, 2);
  const int32_t A = Rec.open(1, "outer", -1, 7);
  const int32_t B = Rec.open(1, "inner", A, 7);
  Rec.close(1, B);
  Rec.close(1, A);
  EXPECT_EQ(Rec.open(1, "overflow", -1, 7), -1);
  EXPECT_EQ(Rec.dropped(), 1u);
  Rec.close(0, Rec.open(0, "first", -1, 1));
  const std::vector<Span> All = Rec.spans();
  ASSERT_EQ(All.size(), 3u);
  EXPECT_STREQ(All[0].Name, "first");
  EXPECT_EQ(All[2].Parent, 1); // "inner" points at "outer" after remap.
}

TEST(Report, ResultLineShape) {
  RunResult R;
  R.Attempted = 3;
  R.Failed = 0;
  R.add("latency_ms", 1.25, "ms");
  EXPECT_EQ(resultJson(R),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}}}");
  R.Failed = 1;
  EXPECT_NE(resultJson(R).find("\"correct\": false"), std::string::npos);
}

/// Short runs of every workload: a clean run has no failed check and
/// reports every end-to-end metric; a planted wrong value drives the
/// error rate above zero.
class WorkloadRun : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadRun, CleanRunPassesEveryCheck) {
  RunOptions O;
  O.Workload = GetParam();
  O.Seconds = 1;
  O.Seed = 3;
  const RunResult R = runWorkload(O);
  EXPECT_GT(R.Attempted, 0u);
  EXPECT_EQ(R.Failed, 0u);
  ASSERT_EQ(R.Metrics.size(), endToEndMetrics().size());
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    EXPECT_EQ(R.Metrics[I].Name, endToEndMetrics()[I].first);
    EXPECT_GT(R.Metrics[I].Value, 0) << R.Metrics[I].Name;
  }
}

TEST_P(WorkloadRun, PlantedWrongValueIsCaught) {
  RunOptions O;
  O.Workload = GetParam();
  O.Seconds = 1;
  O.Seed = 3;
  O.PlantWrongValue = true;
  const RunResult R = runWorkload(O);
  EXPECT_GT(R.Failed, 0u);
  EXPECT_FALSE(R.correct());
}

TEST_P(WorkloadRun, TracedRunReportsEveryPerLayerMetric) {
  RunOptions O;
  O.Workload = GetParam();
  O.Seconds = 1;
  O.Seed = 5;
  O.Trace = true;
  const RunResult R = runWorkload(O);
  EXPECT_EQ(R.Failed, 0u);
  ASSERT_EQ(R.Metrics.size(), perLayerMetrics().size());
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    EXPECT_EQ(R.Metrics[I].Name, perLayerMetrics()[I].first);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadRun,
                         ::testing::ValuesIn(workloadNames()));

} // namespace
} // namespace pb
