//===- container/flat_index_map.h - Learned-index style map -----*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work direction made concrete ("our techniques
/// specialize hashing, but not storage and retrieval. Thus, we see room
/// for generating code for specialized data structures"), following the
/// Kraska et al. quote the paper leans on: when the synthesized Pext
/// function is a *bijection* from format keys to 64-bit integers, the
/// hash IS the key. A map can then:
///
///   - store only the 64-bit image, never the key string (no string
///     compares, no per-node allocation);
///   - probe SwissTable-style: a separate one-byte control array holds
///     a 7-bit tag per slot, and a probe inspects sixteen slots at a
///     time with one SSE2 compare + movemask (a portable bit-twiddling
///     fallback covers non-SSE2 builds), so a lookup usually touches
///     one 16-byte control group and at most one slot;
///   - derive both the group index and the tag from one
///     Fibonacci-scrambled multiply of the image (the multiply spreads
///     images whose entropy sits in arbitrary bit ranges, since the
///     pext packing is not monotone in the key);
///   - rely on the bijection for exactness: equal image <=> equal key.
///
/// Deletion marks slots with a tombstone tag unless the group still has
/// an empty slot (then the slot reverts straight to empty — probes for
/// other keys never continued past a group containing an empty, so
/// nothing can be orphaned). Tombstones count toward the 7/8 load bound
/// and are dropped by the next rehash, which reuses the current
/// capacity when the live elements still fit.
///
/// The container refuses construction from a non-bijective plan, since
/// dropping the key string would otherwise be unsound.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_FLAT_INDEX_MAP_H
#define SEPE_CONTAINER_FLAT_INDEX_MAP_H

#include "core/executor.h"
#include "support/telemetry.h"

#include <bit>
#include <cassert>
#include <cstdint>
#include <string_view>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace sepe {

/// SwissTable-style control-group primitives. A group is sixteen
/// consecutive control bytes, one per slot: a full slot stores the
/// key's 7-bit tag (values 0..127), an empty or deleted slot one of the
/// negative sentinels. Each matcher returns a 16-bit mask with bit I
/// set when slot I of the group matches. The *Scalar variants are the
/// always-compiled portable reference; the unsuffixed entry points pick
/// SSE2 when the build has it. Both are exposed so tests can pin the
/// vector path against the scalar one on hosts that have both.
namespace swiss {

inline constexpr size_t GroupSize = 16;
inline constexpr int8_t CtrlEmpty = -128;  // 0b10000000
inline constexpr int8_t CtrlDeleted = -2;  // 0b11111110

inline uint32_t matchTagScalar(const int8_t *Ctrl, int8_t Tag) {
  uint32_t Mask = 0;
  for (size_t I = 0; I != GroupSize; ++I)
    Mask |= static_cast<uint32_t>(Ctrl[I] == Tag) << I;
  return Mask;
}

inline uint32_t matchEmptyScalar(const int8_t *Ctrl) {
  return matchTagScalar(Ctrl, CtrlEmpty);
}

/// Only the sentinels have the sign bit set, so "empty or deleted" is
/// exactly "negative".
inline uint32_t matchEmptyOrDeletedScalar(const int8_t *Ctrl) {
  uint32_t Mask = 0;
  for (size_t I = 0; I != GroupSize; ++I)
    Mask |= static_cast<uint32_t>(Ctrl[I] < 0) << I;
  return Mask;
}

#if defined(__SSE2__)
inline uint32_t matchTag(const int8_t *Ctrl, int8_t Tag) {
  const __m128i Group =
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(Ctrl));
  return static_cast<uint32_t>(
      _mm_movemask_epi8(_mm_cmpeq_epi8(Group, _mm_set1_epi8(Tag))));
}

inline uint32_t matchEmpty(const int8_t *Ctrl) {
  return matchTag(Ctrl, CtrlEmpty);
}

inline uint32_t matchEmptyOrDeleted(const int8_t *Ctrl) {
  // movemask collects the sign bits, which is the sentinel test.
  const __m128i Group =
      _mm_loadu_si128(reinterpret_cast<const __m128i *>(Ctrl));
  return static_cast<uint32_t>(_mm_movemask_epi8(Group));
}
#else
inline uint32_t matchTag(const int8_t *Ctrl, int8_t Tag) {
  return matchTagScalar(Ctrl, Tag);
}
inline uint32_t matchEmpty(const int8_t *Ctrl) {
  return matchEmptyScalar(Ctrl);
}
inline uint32_t matchEmptyOrDeleted(const int8_t *Ctrl) {
  return matchEmptyOrDeletedScalar(Ctrl);
}
#endif

} // namespace swiss

/// The slot-mapping arithmetic FlatIndexMap probes with, exposed so
/// composing containers (container/sharded_index_map.h) can route by
/// the same image without re-deriving the constants. Shard selection
/// deliberately uses a *different* odd multiplier than the in-map group
/// mapping: if both read the top bits of the same product, every key of
/// one shard would share its leading group bits and collapse into a
/// fraction of that shard's groups.
namespace probe {

/// Fibonacci scramble: one multiply spreads the image's entropy across
/// the word. FlatIndexMap reads the group index from the top bits and
/// the 7-bit tag from the bottom bits, so the two stay independent.
inline uint64_t scramble(uint64_t Image) {
  return Image * 0x9E3779B97F4A7C15ULL;
}

/// Independent mix for shard routing (a distinct odd constant,
/// splitmix64's second round), decorrelated from scramble() above.
inline uint64_t shardScramble(uint64_t Image) {
  return Image * 0xBF58476D1CE4E5B9ULL;
}

/// Shard index for an image in a 2^ShardBits-way sharded container:
/// the top bits of the shard scramble. ShardBits == 0 is a single
/// shard (a shift by 64 would be UB).
inline size_t shardOf(uint64_t Image, unsigned ShardBits) {
  return ShardBits == 0
             ? 0
             : static_cast<size_t>(shardScramble(Image) >> (64 - ShardBits));
}

} // namespace probe

/// Open-addressed map from format keys to \p Value, keyed by the image
/// of a bijective synthesized hash.
template <typename Value> class FlatIndexMap {
public:
  /// \p Hash must carry a plan with Bijective == true.
  explicit FlatIndexMap(SynthesizedHash Hash, size_t InitialCapacity = 16)
      : Hash(std::move(Hash)) {
    assert(this->Hash.valid() && "FlatIndexMap requires a hash");
    assert(this->Hash.plan().Bijective &&
           "FlatIndexMap is only sound for bijective plans");
    size_t Capacity = 16;
    while (Capacity < InitialCapacity * 2)
      Capacity *= 2;
    Ctrl.assign(Capacity, swiss::CtrlEmpty);
    Slots.resize(Capacity);
  }

  size_t size() const { return Elements; }
  bool empty() const { return Elements == 0; }
  size_t capacity() const { return Slots.size(); }

  /// The bijective hash this map is keyed by; lets callers batch-hash
  /// key blocks (SynthesizedHash::hashBatch) and then use the *Hashed
  /// entry points below without re-hashing.
  const SynthesizedHash &hasher() const { return Hash; }

  /// Inserts (key, value); returns false (and leaves the old value)
  /// when the key is already present.
  bool insert(std::string_view Key, Value V) {
    return insertHashed(Hash(Key), std::move(V));
  }

  /// Inserts by precomputed image (== hasher()(Key)); since the plan is
  /// a bijection the image *is* the key, so no key text is needed.
  bool insertHashed(uint64_t Image, Value V) {
    maybeGrow();
    return insertImage(Image, std::move(V));
  }

  /// Inserts \p N (key, value) pairs, hashing the keys through the
  /// plan's batch kernel in blocks; the fast path for bulk loads.
  size_t insertBatch(const std::string_view *Keys, const Value *Values,
                     size_t N) {
    uint64_t Images[BatchBlock];
    size_t Inserted = 0;
    for (size_t I = 0; I < N; I += BatchBlock) {
      const size_t Count = N - I < BatchBlock ? N - I : BatchBlock;
      Hash.hashBatch(Keys + I, Images, Count);
      for (size_t J = 0; J != Count; ++J)
        Inserted += insertHashed(Images[J], Values[I + J]) ? 1 : 0;
    }
    return Inserted;
  }

  /// Pointer to the value for \p Key, or nullptr.
  Value *find(std::string_view Key) { return findImage(Hash(Key)); }
  const Value *find(std::string_view Key) const {
    return const_cast<FlatIndexMap *>(this)->findImage(Hash(Key));
  }

  /// Lookup by precomputed image (== hasher()(Key)).
  Value *findHashed(uint64_t Image) { return findImage(Image); }
  const Value *findHashed(uint64_t Image) const {
    return const_cast<FlatIndexMap *>(this)->findImage(Image);
  }

  bool contains(std::string_view Key) const { return find(Key) != nullptr; }
  bool containsHashed(uint64_t Image) const {
    return findHashed(Image) != nullptr;
  }

  /// Removes \p Key; returns false when absent.
  bool erase(std::string_view Key) { return eraseHashed(Hash(Key)); }

  /// Removal by precomputed image (== hasher()(Key)). The slot reverts
  /// to empty when its group still has another empty slot (no probe for
  /// a different key ever continued past such a group, so none can be
  /// orphaned); otherwise it becomes a tombstone that the next rehash
  /// sweeps out.
  bool eraseHashed(uint64_t Image) {
    const uint64_t Scrambled = scramble(Image);
    const int8_t Tag = tagOf(Scrambled);
    const size_t GroupMask = groupCount() - 1;
    size_t G = homeGroup(Scrambled);
    SEPE_TELEMETRY_ONLY(size_t ScannedGroups = 1;)
    while (true) {
      const int8_t *GroupCtrl = Ctrl.data() + G * swiss::GroupSize;
      uint32_t Match = swiss::matchTag(GroupCtrl, Tag);
      while (Match != 0) {
        const size_t S =
            G * swiss::GroupSize + static_cast<size_t>(std::countr_zero(Match));
        if (Slots[S].Image == Image) {
          SEPE_RECORD("flat_index_map.probe_groups.erase", ScannedGroups);
          if (swiss::matchEmpty(GroupCtrl) != 0) {
            Ctrl[S] = swiss::CtrlEmpty;
          } else {
            Ctrl[S] = swiss::CtrlDeleted;
            ++Tombstones;
            SEPE_COUNT("flat_index_map.tombstones.created");
          }
          --Elements;
          return true;
        }
        Match &= Match - 1;
      }
      if (swiss::matchEmpty(GroupCtrl) != 0) {
        SEPE_RECORD("flat_index_map.probe_groups.erase", ScannedGroups);
        return false;
      }
      G = (G + 1) & GroupMask;
      SEPE_TELEMETRY_ONLY(++ScannedGroups;)
    }
  }

  /// Rehashes now if inserting up to \p ExpectedElements total elements
  /// would otherwise trigger a growth mid-stream; the bulk-load
  /// companion to insertBatch.
  void reserve(size_t ExpectedElements) {
    if ((ExpectedElements + Tombstones) * 8 >= capacity() * 7)
      rehash(ExpectedElements);
  }

  /// Longest probe sequence observed for the current contents, in
  /// *groups* (a probe step inspects a whole 16-slot group); the metric
  /// the specialized layout is supposed to keep small. 1 means every
  /// key sits in its home group.
  size_t maxProbeLength() const {
    const size_t GroupMask = groupCount() - 1;
    size_t Max = 0;
    for (size_t S = 0; S != Slots.size(); ++S) {
      if (Ctrl[S] < 0)
        continue;
      const size_t Home = homeGroup(scramble(Slots[S].Image));
      const size_t G = S / swiss::GroupSize;
      const size_t Probe = (G + groupCount() - Home) & GroupMask;
      Max = std::max(Max, Probe + 1);
    }
    return Max;
  }

  /// Tombstones currently pending a rehash sweep; exposed for the churn
  /// tests and the ablation benchmark.
  size_t tombstones() const { return Tombstones; }

  /// Visits every live (image, value) mapping; \p Fn is called as
  /// Fn(uint64_t Image, const Value &V). The enumeration primitive the
  /// sharded migration copies a sealed shard with (it rebuilds each key
  /// from its image: core/plan.h invertImage).
  template <typename Fn> void forEachEntry(Fn &&F) const {
    for (size_t S = 0; S != Slots.size(); ++S)
      if (Ctrl[S] >= 0)
        F(Slots[S].Image, Slots[S].V);
  }

private:
  /// Keys per hashBatch call in insertBatch: big enough to amortize the
  /// dispatch, small enough to stay on the stack and in L1.
  static constexpr size_t BatchBlock = 256;

  struct Slot {
    uint64_t Image = 0;
    Value V{};
  };

  static uint64_t scramble(uint64_t Image) { return probe::scramble(Image); }

  static int8_t tagOf(uint64_t Scrambled) {
    return static_cast<int8_t>(Scrambled & 0x7F);
  }

  size_t groupCount() const { return Slots.size() / swiss::GroupSize; }

  size_t homeGroup(uint64_t Scrambled) const {
    const unsigned Log2 =
        static_cast<unsigned>(std::countr_zero(groupCount()));
    // A one-group table would need a shift by 64 (UB); its answer is 0.
    return Log2 == 0 ? 0 : static_cast<size_t>(Scrambled >> (64 - Log2));
  }

  /// Grows (or sweeps tombstones at the same capacity) when the next
  /// insert would push full + deleted slots past 7/8 of capacity —
  /// the bound that guarantees every probe chain reaches an empty slot.
  void maybeGrow() {
    if ((Elements + Tombstones + 1) * 8 < capacity() * 7)
      return;
    rehash(Elements + 1);
  }

  void rehash(size_t MinElements) {
    size_t NewCapacity = 16;
    while (MinElements * 8 >= NewCapacity * 7)
      NewCapacity *= 2;
    // Never shrink; when the live elements still fit the current
    // capacity this is the tombstone-dropping same-size rehash.
    NewCapacity = std::max(NewCapacity, capacity());
    if (NewCapacity == capacity())
      SEPE_COUNT("flat_index_map.rehash.tombstone_sweep");
    else
      SEPE_COUNT("flat_index_map.rehash.grow");
    std::vector<int8_t> OldCtrl = std::move(Ctrl);
    std::vector<Slot> OldSlots = std::move(Slots);
    Ctrl.assign(NewCapacity, swiss::CtrlEmpty);
    Slots.clear();
    Slots.resize(NewCapacity);
    Elements = 0;
    Tombstones = 0;
    for (size_t S = 0; S != OldSlots.size(); ++S)
      if (OldCtrl[S] >= 0)
        insertImage(OldSlots[S].Image, std::move(OldSlots[S].V));
  }

  bool insertImage(uint64_t Image, Value V) {
    const uint64_t Scrambled = scramble(Image);
    const int8_t Tag = tagOf(Scrambled);
    const size_t GroupMask = groupCount() - 1;
    size_t G = homeGroup(Scrambled);
    size_t Candidate = SIZE_MAX;
    SEPE_TELEMETRY_ONLY(size_t ScannedGroups = 1;)
    while (true) {
      const int8_t *GroupCtrl = Ctrl.data() + G * swiss::GroupSize;
      uint32_t Match = swiss::matchTag(GroupCtrl, Tag);
      while (Match != 0) {
        const size_t S =
            G * swiss::GroupSize + static_cast<size_t>(std::countr_zero(Match));
        if (Slots[S].Image == Image) {
          SEPE_RECORD("flat_index_map.probe_groups.insert", ScannedGroups);
          return false;
        }
        Match &= Match - 1;
      }
      // Remember the first reusable slot (tombstones included) but keep
      // probing until a group with an empty slot proves the key absent.
      if (Candidate == SIZE_MAX) {
        const uint32_t Avail = swiss::matchEmptyOrDeleted(GroupCtrl);
        if (Avail != 0)
          Candidate = G * swiss::GroupSize +
                      static_cast<size_t>(std::countr_zero(Avail));
      }
      if (swiss::matchEmpty(GroupCtrl) != 0)
        break;
      G = (G + 1) & GroupMask;
      SEPE_TELEMETRY_ONLY(++ScannedGroups;)
    }
    SEPE_RECORD("flat_index_map.probe_groups.insert", ScannedGroups);
    assert(Candidate != SIZE_MAX && "load bound guarantees a free slot");
    if (Ctrl[Candidate] == swiss::CtrlDeleted)
      --Tombstones;
    Ctrl[Candidate] = Tag;
    Slots[Candidate].Image = Image;
    Slots[Candidate].V = std::move(V);
    ++Elements;
    return true;
  }

  Value *findImage(uint64_t Image) {
    const uint64_t Scrambled = scramble(Image);
    const int8_t Tag = tagOf(Scrambled);
    const size_t GroupMask = groupCount() - 1;
    size_t G = homeGroup(Scrambled);
    SEPE_TELEMETRY_ONLY(size_t ScannedGroups = 1;)
    while (true) {
      const int8_t *GroupCtrl = Ctrl.data() + G * swiss::GroupSize;
      uint32_t Match = swiss::matchTag(GroupCtrl, Tag);
      while (Match != 0) {
        const size_t S =
            G * swiss::GroupSize + static_cast<size_t>(std::countr_zero(Match));
        if (Slots[S].Image == Image) {
          SEPE_RECORD("flat_index_map.probe_groups.find", ScannedGroups);
          SEPE_COUNT("flat_index_map.find.hit");
          return &Slots[S].V;
        }
        Match &= Match - 1;
      }
      if (swiss::matchEmpty(GroupCtrl) != 0) {
        SEPE_RECORD("flat_index_map.probe_groups.find", ScannedGroups);
        SEPE_COUNT("flat_index_map.find.miss");
        return nullptr;
      }
      G = (G + 1) & GroupMask;
      SEPE_TELEMETRY_ONLY(++ScannedGroups;)
    }
  }

  SynthesizedHash Hash;
  std::vector<int8_t> Ctrl;
  std::vector<Slot> Slots;
  size_t Elements = 0;
  size_t Tombstones = 0;
};

} // namespace sepe

#endif // SEPE_CONTAINER_FLAT_INDEX_MAP_H
