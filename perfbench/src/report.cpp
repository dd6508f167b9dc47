//===- perfbench/src/report.cpp - Metrics, statistics, result line -------===//

#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace pb {

namespace {

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buffer[64];
  std::snprintf(Buffer, sizeof(Buffer), "%.10g", V);
  return Buffer;
}

} // namespace

std::string resultJson(const RunResult &R) {
  std::string Out = "{\"correct\": ";
  Out += R.correct() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(R.Attempted);
  Out += ", \"failed\": " + std::to_string(R.Failed);
  Out += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    if (I != 0)
      Out += ", ";
    Out += "\"" + M.Name + "\": {\"value\": " + number(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  return N % 2 ? Values[N / 2] : (Values[N / 2 - 1] + Values[N / 2]) / 2;
}

Quartiles quartiles(std::vector<double> Values) {
  Quartiles Q;
  const size_t N = Values.size();
  if (N == 0)
    return Q;
  std::sort(Values.begin(), Values.end());
  if (N == 1) {
    Q.Q1 = Q.Median = Q.Q3 = Values[0];
    return Q;
  }
  // statistics.quantiles, method="exclusive": m = n + 1, j = i*m // 4
  // clamped to [1, n-1], delta = i*m - 4j (negative or past 4 after a
  // clamp, which extrapolates exactly as Python does).
  const auto Cut = [&](int64_t I) {
    const int64_t Len = static_cast<int64_t>(N);
    const int64_t M = Len + 1;
    const int64_t J = std::clamp<int64_t>(I * M / 4, 1, Len - 1);
    const int64_t Delta = I * M - J * 4;
    return (Values[J - 1] * static_cast<double>(4 - Delta) +
            Values[J] * static_cast<double>(Delta)) /
           4;
  };
  Q.Q1 = Cut(1);
  Q.Median = Cut(2);
  Q.Q3 = Cut(3);
  return Q;
}

RungStat rungStat(const std::vector<double> &Reps) {
  const Quartiles Q = quartiles(Reps);
  return {median(Reps), Q.iqr()};
}

Marginal marginal(const RungStat &Upper, const RungStat &Lower) {
  return {Upper.Median - Lower.Median, std::hypot(Upper.Iqr, Lower.Iqr)};
}

double peakRssMb() {
  rusage Self{};
  if (getrusage(RUSAGE_SELF, &Self) != 0)
    return 0;
  return static_cast<double>(Self.ru_maxrss) / 1024.0;
}

} // namespace pb
