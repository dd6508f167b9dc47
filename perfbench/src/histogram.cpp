//===- perfbench/src/histogram.cpp - Fixed-size latency histogram --------===//

#include "histogram.h"

#include <algorithm>
#include <cmath>

namespace pb {

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  for (size_t B = 0; B != BucketCount; ++B)
    Counts[B] += Other.Counts[B];
  Total += Other.Total;
}

uint64_t LatencyHistogram::bucketLow(size_t B) {
  if (B < Sub)
    return B;
  const size_t Octave = (B - Sub) / Sub;
  const uint64_t Mantissa = (B - Sub) % Sub;
  return (Sub + Mantissa) << Octave;
}

uint64_t LatencyHistogram::bucketWidth(size_t B) {
  return B < Sub ? 1 : uint64_t{1} << ((B - Sub) / Sub);
}

double LatencyHistogram::percentile(double Q) const {
  if (Total == 0)
    return 0;
  // Nearest rank, 1-based: the smallest value with at least Q * Total
  // samples at or below it.
  const double Rank =
      std::max(1.0, std::ceil(Q * static_cast<double>(Total)));
  uint64_t Below = 0;
  for (size_t B = 0; B != BucketCount; ++B) {
    const uint64_t C = Counts[B];
    if (C == 0 || static_cast<double>(Below + C) < Rank) {
      Below += C;
      continue;
    }
    // Spread the bucket's C samples evenly over its width and return
    // the midpoint of the one the rank selects. In the exact range a
    // bucket is one nanosecond, [B, B + 1), and is treated the same way
    // so that medians near 100 ns keep sub-nanosecond resolution.
    const double Within = (Rank - static_cast<double>(Below) - 0.5) /
                          static_cast<double>(C);
    return static_cast<double>(bucketLow(B)) +
           Within * static_cast<double>(bucketWidth(B));
  }
  return static_cast<double>(bucketLow(BucketCount - 1));
}

} // namespace pb
