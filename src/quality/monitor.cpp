//===- quality/monitor.cpp - Live distribution-quality monitor -----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "quality/monitor.h"

#include "container/flat_index_map.h"
#include "stats/chi_square.h"
#include "support/telemetry.h"

#include <algorithm>
#include <array>
#include <vector>

using namespace sepe;
using namespace sepe::quality;

LiveQualitySample QualityMonitor::pump(size_t MinKeys) {
  const AdaptiveHash::Snapshot Snap = Hash.snapshot();
  LiveQualitySample S;
  S.Generation = Snap.Epoch;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    S.SequenceNumber = ++Seq;
  }

  // The reservoir can hold the same hot key several times; collisions
  // only mean anything across distinct keys.
  std::vector<std::string> Keys = Hash.sampledInFormatKeys();
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  S.SampleKeys = Keys.size();

  if (Snap.Fast.valid() && Keys.size() >= MinKeys && MinKeys != 0) {
    std::vector<uint64_t> Hashes;
    Hashes.reserve(Keys.size());
    // Bucket through the same Fibonacci scramble FlatIndexMap probes
    // with, so skew here predicts probe clustering there.
    std::array<uint64_t, 64> Buckets = {};
    for (const std::string &Key : Keys) {
      const uint64_t H = Snap.Fast(Key);
      Hashes.push_back(H);
      ++Buckets[static_cast<size_t>(probe::scramble(H) >> 58)];
    }
    uint64_t MaxBucket = 0;
    for (uint64_t C : Buckets)
      MaxBucket = std::max(MaxBucket, C);
    const double Mean = static_cast<double>(Hashes.size()) / 64.0;
    S.OccupancySkew = static_cast<double>(MaxBucket) / Mean;
    S.Chi2 = chiSquareUniform(
        std::vector<uint64_t>(Buckets.begin(), Buckets.end()));
    std::sort(Hashes.begin(), Hashes.end());
    for (size_t I = 1; I < Hashes.size(); ++I)
      if (Hashes[I] == Hashes[I - 1])
        ++S.DuplicateHashes;
    S.Valid = true;
  }

  publishLiveSample(S);
  SEPE_RECORD("quality.live.sample_keys", S.SampleKeys);
  if (S.Valid) {
    SEPE_RECORD("quality.live.duplicates", S.DuplicateHashes);
    SEPE_RECORD("quality.live.skew_x1000",
                static_cast<uint64_t>(S.OccupancySkew * 1000.0));
  }
  SEPE_EVENT("quality.live.sample", S.Generation,
             static_cast<uint64_t>(S.OccupancySkew * 1000.0));
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Latest = S;
  }
  return S;
}

LiveQualitySample QualityMonitor::latest() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Latest;
}
