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
/// each slot also stores the 64-bit base image of the key sealed there,
/// and a lookup hits only when its own base image equals the slot's.
///
/// The map compiles the MPHF's extraction plan and the key format's
/// KeyPattern into one GuardedHash (core/executor.h), which checks each
/// key and images it in one pass: the extraction plan's fixed-length
/// kernels load whole words at the plan's offsets whatever the key's
/// length, so only a key the guard admits may be imaged. A raw-byte
/// MPHF has no extraction plan; its keys are checked against the
/// pattern and then mixed. Construction rejects a key set the guard
/// does not admit.
///
/// Exactness:
///   - When the MPHF's extraction plan is invertible for the guard
///     (core/plan.h), two admitted keys share a base image only when
///     they are equal (the Pext bijection of Section 4.2), so an image
///     hit is exact: an out-of-set key never finds a value.
///   - Otherwise (raw-byte base, or an extraction that folds more than
///     64 relevant bits), a false positive needs a full 64-bit base
///     image collision with the one key sealed in the probed slot.
///
/// Compared to FlatIndexMap this trades mutability (the key set is
/// sealed at construction) for a shorter dependency chain per lookup
/// and a footprint of sizeof(Value) + 8 bytes per key.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_DIRECT_INDEX_MAP_H
#define SEPE_CONTAINER_DIRECT_INDEX_MAP_H

#include "core/executor.h"
#include "core/key_pattern.h"
#include "mphf/mphf.h"
#include "support/telemetry.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

namespace sepe {

/// A sealed key -> Value map over the construction key set of an Mphf.
template <typename Value> class DirectIndexMap {
public:
  DirectIndexMap() = default;

  /// Seals \p N (key, value) pairs behind \p F, guarded by \p Guard: the
  /// format \p F's extraction plan was synthesized for (any pattern, for
  /// a raw-byte MPHF). \p F must have been built over exactly these
  /// keys, and \p Guard must admit each of them; construction checks
  /// both (re-walking the bijection) and leaves the map invalid() on
  /// any mismatch, so a stale or foreign MPHF cannot produce a
  /// silently-wrong map.
  DirectIndexMap(Mphf F, KeyPattern Guard, const std::string_view *Keys,
                 const Value *Vals, size_t N)
      : F(std::move(F)), Guarded(this->F.extraction(), std::move(Guard)) {
    if (!this->F.valid() || this->F.size() != N || N == 0)
      return;
    Values.resize(N);
    Images.assign(N, 0);
    std::vector<uint64_t> Seen((N + 63) / 64, 0);
    std::vector<uint64_t> Bases(std::min<size_t>(N, 4096));
    std::vector<uint32_t> MissIdx(Bases.size());
    for (size_t At = 0; At < N;) {
      const size_t Chunk = std::min(Bases.size(), N - At);
      if (imageBatch(Keys + At, Bases.data(), Chunk, MissIdx.data()) != 0)
        return; // a key outside the guarded format
      for (size_t I = 0; I != Chunk; ++I) {
        const uint64_t Slot = this->F.slotFromBase(Bases[I]);
        if (Slot >= N || ((Seen[Slot / 64] >> (Slot % 64)) & 1))
          return; // not a bijection over these keys
        Seen[Slot / 64] |= uint64_t{1} << (Slot % 64);
        Values[Slot] = Vals[At + I];
        Images[Slot] = Bases[I];
      }
      At += Chunk;
    }
    Sealed = true;
  }

  /// False when construction detected an MPHF/key-set mismatch or a key
  /// the guard rejects; an invalid map rejects every lookup.
  bool valid() const { return Sealed; }
  size_t size() const { return Sealed ? Values.size() : 0; }

  /// Pointer to the value sealed under \p Key, or nullptr when the
  /// guard rejects \p Key or the slot's image differs from its image.
  const Value *find(std::string_view Key) const {
    uint64_t Image;
    if (!Sealed || !Guarded.admit(Key, Image))
      return nullptr;
    const uint64_t Base = F.baseImage(Key, Image);
    const uint64_t Slot = F.slotFromBase(Base);
    if (Images[Slot] != Base) {
      SEPE_COUNT("direct_index.find.reject");
      return nullptr;
    }
    SEPE_COUNT("direct_index.find.hit");
    return &Values[Slot];
  }

  /// Batch lookup: Out[i] = find(Keys[i]). Images each block through
  /// the guarded batch kernel, then runs staged passes over it —
  /// prefetch bucket metadata, compute slots while prefetching the
  /// image/value lines, resolve — so a table bigger than L2 overlaps
  /// its cache misses across keys instead of paying them one dependent
  /// chain at a time. Returns the number of hits.
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
    const bool Staged =
        Values.size() * (sizeof(Value) + sizeof(uint64_t)) >
        (size_t{256} << 10);
    constexpr size_t Block = 256;
    uint64_t Bases[Block];
    uint32_t Slots[Block];
    uint32_t MissIdx[Block];
    for (size_t At = 0; At < N; At += Block) {
      const size_t Count = std::min(Block, N - At);
      const size_t Misses = imageBatch(Keys + At, Bases, Count, MissIdx);
      if (Staged)
        for (size_t I = 0; I != Count; ++I)
          F.prefetchSlot(Bases[I]);
      for (size_t I = 0; I != Count; ++I) {
        const uint64_t Slot = F.slotFromBase(Bases[I]);
        Slots[I] = static_cast<uint32_t>(Slot);
        if (Staged) {
          prefetchRead(&Images[Slot]);
          prefetchRead(&Values[Slot]);
        }
      }
      for (size_t I = 0; I != Count; ++I) {
        const uint32_t Slot = Slots[I];
        const bool Hit = Images[Slot] == Bases[I];
        Out[At + I] = Hit ? &Values[Slot] : nullptr;
        Hits += Hit;
      }
      // A rejected key's base is a placeholder: whatever its slot
      // holds, the key is not in the map.
      for (size_t M = 0; M != Misses; ++M) {
        const size_t K = At + MissIdx[M];
        Hits -= Out[K] != nullptr;
        Out[K] = nullptr;
      }
    }
    return Hits;
  }

private:
  /// Base images of \p N keys from one call into the guarded kernel,
  /// which also appends the rejected keys' indices to \p MissIdx; their
  /// Bases hold a placeholder. Returns the number of rejected keys.
  size_t imageBatch(const std::string_view *Keys, uint64_t *Bases, size_t N,
                    uint32_t *MissIdx) const {
    const size_t Misses = Guarded.admitBatch(Keys, Bases, N, MissIdx);
    for (size_t M = 0; M != Misses; ++M)
      Bases[MissIdx[M]] = 0;
    for (size_t I = 0; I != N; ++I)
      Bases[I] = F.baseImage(Keys[I], Bases[I]);
    return Misses;
  }

  Mphf F;
  /// F's extraction plan (none for a raw-byte base) and the guard.
  GuardedHash Guarded;
  std::vector<uint64_t> Images;
  std::vector<Value> Values;
  bool Sealed = false;
};

} // namespace sepe

#endif // SEPE_CONTAINER_DIRECT_INDEX_MAP_H
