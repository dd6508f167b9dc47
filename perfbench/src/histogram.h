//===- perfbench/src/histogram.h - Fixed-size latency histogram -*- C++ -*-===//
///
/// \file
/// A log-linear latency histogram whose storage is allocated once, before
/// timing starts: recording never allocates, so the benchmark's own
/// buffers do not grow with run length and stay out of peak RSS. Values
/// below 2^SubBits are exact; above, each power-of-two octave is split
/// into 2^SubBits equal buckets, so a bucket is at most 1/128 of its value
/// wide. Percentiles interpolate inside the bucket that holds the rank.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HISTOGRAM_H
#define PERFBENCH_HISTOGRAM_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pb {

class LatencyHistogram {
public:
  static constexpr unsigned SubBits = 7;
  static constexpr uint64_t Sub = uint64_t{1} << SubBits;
  /// Octaves above the exact range; values past 2^(SubBits+Octaves) ns
  /// (~9 minutes) clamp into the last bucket.
  static constexpr unsigned Octaves = 32;
  static constexpr size_t BucketCount = Sub + Octaves * Sub;

  LatencyHistogram() : Counts(BucketCount, 0) {}

  void record(uint64_t Value) {
    ++Counts[bucketOf(Value)];
    ++Total;
  }

  void merge(const LatencyHistogram &Other);

  uint64_t count() const { return Total; }

  /// The value of nearest rank ceil(Q * count) (Q in [0, 1]), linearly
  /// interpolated inside its bucket; 0 when empty.
  double percentile(double Q) const;

  static size_t bucketOf(uint64_t Value) {
    if (Value < Sub)
      return static_cast<size_t>(Value);
    const unsigned Exp = static_cast<unsigned>(std::bit_width(Value)) - 1;
    const unsigned Octave = Exp - SubBits;
    if (Octave >= Octaves)
      return BucketCount - 1;
    const uint64_t Mantissa = (Value >> Octave) - Sub;
    return static_cast<size_t>(Sub + Octave * Sub + Mantissa);
  }

  /// Smallest value in bucket \p B, and the bucket's width.
  static uint64_t bucketLow(size_t B);
  static uint64_t bucketWidth(size_t B);

private:
  /// 32-bit counts: one segment or one run never reaches 2^32 samples.
  std::vector<uint32_t> Counts;
  uint64_t Total = 0;
};

} // namespace pb

#endif // PERFBENCH_HISTOGRAM_H
