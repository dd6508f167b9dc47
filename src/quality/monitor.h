//===- quality/monitor.h - Live distribution-quality monitor ---*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sampled collision / occupancy-skew estimator over the adaptive
/// runtime. AdaptiveHash keeps a second reservoir of *admitted*
/// (in-format) keys (AdaptiveOptions::QualitySampleEvery); each pump()
/// takes a tear-free plan snapshot, re-hashes the reservoir under it,
/// and derives container-perspective statistics: exact duplicate
/// hashes among distinct sampled keys, max-over-mean occupancy of 64
/// Fibonacci-scrambled buckets (the same mix FlatIndexMap probes
/// with), and the chi-square of that occupancy. Results are stamped
/// with the plan generation and published to the process-global live
/// stats slot (Prometheus `sepe_quality_*`, the `/quality` endpoint)
/// and the telemetry plane (histograms plus a quality.live.sample
/// event) — so a plan whose distribution degrades under drift is
/// visible before the drift detector trips.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_QUALITY_MONITOR_H
#define SEPE_QUALITY_MONITOR_H

#include "quality/live_stats.h"
#include "runtime/adaptive_hash.h"

#include <mutex>

namespace sepe {
namespace quality {

class QualityMonitor {
public:
  /// \p Hash must outlive the monitor. Enable in-format sampling on
  /// the hash (AdaptiveOptions::QualitySampleEvery) or every pump will
  /// come back empty.
  explicit QualityMonitor(const AdaptiveHash &Hash) : Hash(Hash) {}

  /// Recomputes statistics from the current reservoir snapshot and
  /// publishes them. Returns the sample; Valid is false when fewer
  /// than \p MinKeys distinct keys have been sampled or no specialized
  /// plan is live. Cheap enough for a maintenance-thread cadence: one
  /// guarded hash per sampled key plus a 64-bucket pass.
  LiveQualitySample pump(size_t MinKeys = 16);

  /// Most recent pump() result (whether or not it was Valid).
  LiveQualitySample latest() const;

private:
  const AdaptiveHash &Hash;
  mutable std::mutex Mutex;
  LiveQualitySample Latest;
  uint64_t Seq = 0;
};

} // namespace quality
} // namespace sepe

#endif // SEPE_QUALITY_MONITOR_H
