//===- container/direct_index_map.h - MPHF-backed static map ----*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving container of the static-set tier: a minimal perfect
/// hash function (mphf/mphf.h) turns lookups into values[mphf(key)] —
/// one direct array load, no probe sequence, no stored keys. Because
/// an MPHF maps *every* key (in-set or not) to some index in [0, n),
/// membership is checked with a per-slot fingerprint: the low 8 bits
/// of the MPHF's final slot-hash word, which the slot derivation
/// discards (fastRange keeps the high product bits), so the check
/// costs no extra mixing. Out-of-set keys are rejected with
/// probability ~1 - 2^-8; the map never returns a wrong value for an
/// in-set key.
///
/// Compared to FlatIndexMap this trades mutability (the key set is
/// sealed at construction) for a shorter dependency chain per lookup
/// and a footprint of sizeof(Value) + 1 bytes per key — the keys
/// themselves are not stored at all.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_DIRECT_INDEX_MAP_H
#define SEPE_CONTAINER_DIRECT_INDEX_MAP_H

#include "mphf/mphf.h"
#include "support/telemetry.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace sepe {

/// A sealed key -> Value map over the construction key set of an Mphf.
template <typename Value> class DirectIndexMap {
public:
  DirectIndexMap() = default;

  /// Seals \p N (key, value) pairs behind \p F. \p F must have been
  /// built over exactly these keys; construction re-walks the
  /// bijection and leaves the map invalid() on any mismatch, so a
  /// stale or foreign MPHF cannot produce a silently-wrong map.
  DirectIndexMap(Mphf F, const std::string_view *Keys, const Value *Vals,
                 size_t N)
      : F(std::move(F)) {
    if (!this->F.valid() || this->F.size() != N || N == 0)
      return;
    Values.resize(N);
    Fingerprints.assign(N, 0);
    std::vector<uint64_t> Seen((N + 63) / 64, 0);
    std::vector<uint64_t> Bases(std::min<size_t>(N, 4096));
    for (size_t At = 0; At < N;) {
      const size_t Chunk = std::min(Bases.size(), N - At);
      this->F.baseBatch(Keys + At, Bases.data(), Chunk);
      for (size_t I = 0; I != Chunk; ++I) {
        const Mphf::SlotFp SF = this->F.slotFpFromBase(Bases[I]);
        const uint64_t Slot = SF.Slot;
        if (Slot >= N || ((Seen[Slot / 64] >> (Slot % 64)) & 1))
          return; // not a bijection over these keys
        Seen[Slot / 64] |= uint64_t{1} << (Slot % 64);
        Values[Slot] = Vals[At + I];
        Fingerprints[Slot] = static_cast<uint8_t>(SF.FpWord);
      }
      At += Chunk;
    }
    Sealed = true;
  }

  DirectIndexMap(Mphf F, const std::vector<std::string_view> &Keys,
                 const std::vector<Value> &Vals)
      : DirectIndexMap(std::move(F), Keys.data(), Vals.data(),
                       Keys.size()) {}

  /// False when construction detected an MPHF/key-set mismatch; an
  /// invalid map rejects every lookup.
  bool valid() const { return Sealed; }
  size_t size() const { return Sealed ? Values.size() : 0; }

  const Mphf &mphf() const { return F; }

  /// Pointer to the value sealed under \p Key, or nullptr when the
  /// fingerprint rejects it (always, for in-set keys: never nullptr;
  /// for out-of-set keys: nullptr except with probability ~2^-8).
  const Value *find(std::string_view Key) const {
    if (!Sealed)
      return nullptr;
    const Mphf::SlotFp SF = F.slotFpFromBase(F.baseImage(Key));
    if (Fingerprints[SF.Slot] != static_cast<uint8_t>(SF.FpWord)) {
      SEPE_COUNT("direct_index.find.reject");
      return nullptr;
    }
    SEPE_COUNT("direct_index.find.hit");
    return &Values[SF.Slot];
  }

  bool contains(std::string_view Key) const { return find(Key) != nullptr; }

  /// Batch lookup: Out[i] = find(Keys[i]). Uses the extraction plan's
  /// batch kernels for the base images, then staged passes per chunk —
  /// prefetch bucket metadata, compute slots while prefetching the
  /// fingerprint/value lines, resolve — so a table bigger than L2
  /// overlaps its cache misses across keys instead of paying them one
  /// dependent chain at a time. Returns the number of hits.
  size_t findBatch(const std::string_view *Keys, const Value **Out,
                   size_t N) const {
    if (!Sealed) {
      for (size_t I = 0; I != N; ++I)
        Out[I] = nullptr;
      return 0;
    }
    size_t Hits = 0;
    // Prefetch passes only pay for themselves once the table has
    // outgrown mid-level cache; below that the misses they would hide
    // do not exist and the extra bucket-hash recompute is pure cost.
    const bool Staged = Values.size() * sizeof(Value) + Fingerprints.size() >
                        (size_t{256} << 10);
    uint64_t Bases[256];
    uint32_t Slots[256];
    uint64_t FpWords[256];
    for (size_t At = 0; At < N;) {
      const size_t Chunk = std::min<size_t>(256, N - At);
      F.baseBatch(Keys + At, Bases, Chunk);
      if (Staged)
        for (size_t I = 0; I != Chunk; ++I)
          F.prefetchSlot(Bases[I]);
      for (size_t I = 0; I != Chunk; ++I) {
        const Mphf::SlotFp SF = F.slotFpFromBase(Bases[I]);
        Slots[I] = static_cast<uint32_t>(SF.Slot);
        FpWords[I] = SF.FpWord;
        if (Staged) {
          prefetchRead(&Fingerprints[SF.Slot]);
          prefetchRead(&Values[SF.Slot]);
        }
      }
      for (size_t I = 0; I != Chunk; ++I) {
        const uint32_t Slot = Slots[I];
        if (Fingerprints[Slot] == static_cast<uint8_t>(FpWords[I])) {
          Out[At + I] = &Values[Slot];
          ++Hits;
        } else {
          Out[At + I] = nullptr;
        }
      }
      At += Chunk;
    }
    return Hits;
  }

  /// Container footprint: values + fingerprints + the MPHF's pilot and
  /// offset structures (keys are not stored).
  size_t bytesUsed() const {
    return Values.size() * sizeof(Value) + Fingerprints.size() +
           (F.valid() ? F.plan().bytesUsed() : 0);
  }

private:
  Mphf F;
  std::vector<Value> Values;
  std::vector<uint8_t> Fingerprints;
  bool Sealed = false;
};

} // namespace sepe

#endif // SEPE_CONTAINER_DIRECT_INDEX_MAP_H
