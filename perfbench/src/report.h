//===- perfbench/src/report.h - Metrics, statistics, result line -*- C++ -*-===//
///
/// \file
/// What one benchmark run reports: named metrics with units, the
/// attempted/failed check counts, and the single JSON result line. Also
/// the small statistics the runs and the ladder share (medians, Python-
/// compatible quartiles, rung differences with combined spread) and the
/// clock and RNG every workload uses.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable context (sample counts, sizes) printed before the
  /// result line.
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  bool correct() const { return Failed == 0 && Attempted != 0; }
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string resultJson(const RunResult &R);

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline uint64_t splitmix64(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

double median(std::vector<double> Values);

/// First quartile, median and third quartile, computed exactly as
/// Python's statistics.quantiles(Values, n=4) (the default "exclusive"
/// method) so spreads read the same here and in any offline check.
struct Quartiles {
  double Q1 = 0;
  double Median = 0;
  double Q3 = 0;
  double iqr() const { return Q3 - Q1; }
};
Quartiles quartiles(std::vector<double> Values);

/// One ladder rung: per-repetition cost of the same replay.
struct RungStat {
  double Median = 0;
  double Iqr = 0;
};
RungStat rungStat(const std::vector<double> &Reps);

/// The marginal cost of the layer between two rungs (Upper includes
/// everything Lower does, plus the layer), with the rungs' spreads
/// combined in quadrature.
struct Marginal {
  double Cost = 0;
  double Spread = 0;
};
Marginal marginal(const RungStat &Upper, const RungStat &Lower);

/// Peak resident set size of this process (getrusage ru_maxrss), MiB.
double peakRssMb();

} // namespace pb

#endif // PERFBENCH_REPORT_H
