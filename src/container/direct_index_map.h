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
/// The map holds the key format as a KeyPattern guard and checks it
/// before imaging any key: the extraction plan's fixed-length kernels
/// load whole words at the plan's offsets whatever the key's length, so
/// only a key the guard admits may reach them. Construction rejects a
/// key set the guard does not admit.
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
      : F(std::move(F)), Guard(std::move(Guard)) {
    if (!this->F.valid() || this->F.size() != N || N == 0)
      return;
    Values.resize(N);
    Images.assign(N, 0);
    std::vector<uint64_t> Seen((N + 63) / 64, 0);
    std::vector<uint64_t> Bases(std::min<size_t>(N, 4096));
    std::vector<uint8_t> Admit(Bases.size());
    for (size_t At = 0; At < N;) {
      const size_t Chunk = std::min(Bases.size(), N - At);
      if (this->Guard.matchesBatch(Keys + At, Admit.data(), Chunk) != Chunk)
        return; // a key outside the guarded format
      this->F.baseBatch(Keys + At, Bases.data(), Chunk);
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
    if (!Sealed || !Guard.matches(Key))
      return nullptr;
    const uint64_t Base = F.baseImage(Key);
    const uint64_t Slot = F.slotFromBase(Base);
    if (Images[Slot] != Base) {
      SEPE_COUNT("direct_index.find.reject");
      return nullptr;
    }
    SEPE_COUNT("direct_index.find.hit");
    return &Values[Slot];
  }

  /// Batch lookup: Out[i] = find(Keys[i]). Guards each block with one
  /// membership sweep; a wholly admitted block is imaged in place
  /// through the extraction plan's batch kernels, a mixed one is
  /// compacted first. Then staged passes per block — prefetch bucket
  /// metadata, compute slots while prefetching the image/value lines,
  /// resolve — so a table bigger than L2 overlaps its cache misses
  /// across keys instead of paying them one dependent chain at a time.
  /// Returns the number of hits.
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
    uint8_t Admit[Block];
    std::string_view Pass[Block];
    uint32_t PassIdx[Block];
    uint64_t Bases[Block];
    uint32_t Slots[Block];
    for (size_t At = 0; At < N; At += Block) {
      const size_t Count = std::min(Block, N - At);
      const size_t Admitted = Guard.matchesBatch(Keys + At, Admit, Count);
      const bool Whole = Admitted == Count;
      if (!Whole) {
        size_t P = 0;
        for (size_t I = 0; I != Count; ++I) {
          Out[At + I] = nullptr;
          if (Admit[I]) {
            Pass[P] = Keys[At + I];
            PassIdx[P++] = static_cast<uint32_t>(I);
          }
        }
      }
      if (Admitted == 0)
        continue;
      F.baseBatch(Whole ? Keys + At : Pass, Bases, Admitted);
      if (Staged)
        for (size_t I = 0; I != Admitted; ++I)
          F.prefetchSlot(Bases[I]);
      for (size_t I = 0; I != Admitted; ++I) {
        const uint64_t Slot = F.slotFromBase(Bases[I]);
        Slots[I] = static_cast<uint32_t>(Slot);
        if (Staged) {
          prefetchRead(&Images[Slot]);
          prefetchRead(&Values[Slot]);
        }
      }
      for (size_t I = 0; I != Admitted; ++I) {
        const uint32_t Slot = Slots[I];
        const size_t K = At + (Whole ? I : PassIdx[I]);
        if (Images[Slot] == Bases[I]) {
          Out[K] = &Values[Slot];
          ++Hits;
        } else {
          Out[K] = nullptr;
        }
      }
    }
    return Hits;
  }

private:
  Mphf F;
  KeyPattern Guard;
  std::vector<uint64_t> Images;
  std::vector<Value> Values;
  bool Sealed = false;
};

} // namespace sepe

#endif // SEPE_CONTAINER_DIRECT_INDEX_MAP_H
