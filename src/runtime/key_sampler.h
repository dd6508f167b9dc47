//===- runtime/key_sampler.h - Reservoir sampler for drifted keys *- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded reservoir of out-of-format keys, filled by the adaptive
/// dispatcher's fallback lane and drained by the resynthesizer. Vitter's
/// Algorithm R keeps a uniform sample of everything ever offered, so the
/// re-learned pattern reflects the whole drifted stream, not just its
/// most recent burst. Offers only happen on the guard *miss* path, but
/// concurrent readers that miss still share it: an offer decides from
/// the offer count alone whether it keeps its key (a counter-based
/// draw), so the offers it rejects, nearly all of them once the count
/// passes the capacity, take no lock. Only kept keys take the mutex.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_KEY_SAMPLER_H
#define SEPE_RUNTIME_KEY_SAMPLER_H

#include "support/telemetry.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

/// Thread-safe uniform reservoir of key strings.
class KeySampler {
public:
  explicit KeySampler(size_t Capacity, uint64_t Seed = 0x5a3b1e)
      : Capacity(Capacity ? Capacity : 1), Seed(Seed) {
    Reservoir.reserve(this->Capacity);
  }

  /// Offers one key; the Nth offer since the last drain is kept with
  /// probability Capacity / N (Algorithm R), so the reservoir stays a
  /// uniform sample. A rejected offer costs one relaxed add.
  void offer(std::string_view Key) {
    const uint64_t N = Count.fetch_add(1, std::memory_order_relaxed) + 1;
    const uint64_t Slot = N <= Capacity ? N - 1 : slotFor(N);
    if (Slot >= Capacity)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    // Concurrent offers can reach the lock out of count order, so the
    // fill phase goes by the reservoir's size, not by N.
    if (Reservoir.size() < Capacity)
      Reservoir.emplace_back(Key);
    else
      Reservoir[static_cast<size_t>(Slot)].assign(Key.data(), Key.size());
  }

  /// Moves the reservoir out and resets the offered count; what the
  /// resynthesizer consumes, so one drifted burst is never re-learned
  /// twice.
  std::vector<std::string> drain() {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<std::string> Out = std::move(Reservoir);
    Reservoir.clear();
    Reservoir.reserve(Capacity);
    Count.store(0, std::memory_order_relaxed);
    SEPE_EVENT("adaptive.sampler.drain", 0, Out.size());
    return Out;
  }

  /// Copy of the current reservoir without resetting; feeds the
  /// sampled-key section of --metrics dumps.
  std::vector<std::string> snapshot() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    SEPE_EVENT("adaptive.sampler.snapshot", 0, Reservoir.size());
    return Reservoir;
  }

  /// Keys currently held (<= capacity()).
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Reservoir.size();
  }

  /// Keys offered since construction or the last drain.
  uint64_t offered() const { return Count.load(std::memory_order_relaxed); }

  size_t capacity() const { return Capacity; }

private:
  /// A uniform draw in [0, N) for the Nth offer: splitmix64 of the
  /// seeded count, scaled by a multiply-high instead of a division.
  /// Seedable and good enough for reservoir slot selection (no
  /// adversary controls the stream order here).
  uint64_t slotFor(uint64_t N) const {
    uint64_t Z = Seed + N * 0x9E3779B97F4A7C15ULL;
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    Z ^= Z >> 31;
    using Wide = unsigned __int128;
    return static_cast<uint64_t>((static_cast<Wide>(Z) * N) >> 64);
  }

  mutable std::mutex Mutex;
  std::vector<std::string> Reservoir;
  const size_t Capacity;
  const uint64_t Seed;
  std::atomic<uint64_t> Count{0};
};

} // namespace sepe

#endif // SEPE_RUNTIME_KEY_SAMPLER_H
