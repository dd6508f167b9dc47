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
/// most recent burst. Mutex-protected: offers only happen on the guard
/// *miss* path, which already left the specialized fast path, so a lock
/// here never taxes in-format traffic.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_KEY_SAMPLER_H
#define SEPE_RUNTIME_KEY_SAMPLER_H

#include "support/telemetry.h"

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
      : Capacity(Capacity ? Capacity : 1), Rng(Seed | 1) {
    Reservoir.reserve(this->Capacity);
  }

  /// Offers one key; kept with probability Capacity / offered-so-far
  /// (Algorithm R), so the reservoir stays a uniform sample.
  void offer(std::string_view Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Count;
    if (Reservoir.size() < Capacity) {
      Reservoir.emplace_back(Key);
      return;
    }
    const uint64_t Slot = nextRandom() % Count;
    if (Slot < Capacity)
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
    Count = 0;
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
  uint64_t offered() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Count;
  }

  size_t capacity() const { return Capacity; }

private:
  /// xorshift64*: cheap, seedable, and good enough for reservoir slot
  /// selection (no adversary controls the stream order here).
  uint64_t nextRandom() {
    Rng ^= Rng >> 12;
    Rng ^= Rng << 25;
    Rng ^= Rng >> 27;
    return Rng * 0x2545F4914F6CDD1DULL;
  }

  mutable std::mutex Mutex;
  std::vector<std::string> Reservoir;
  size_t Capacity;
  uint64_t Count = 0;
  uint64_t Rng;
};

} // namespace sepe

#endif // SEPE_RUNTIME_KEY_SAMPLER_H
