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
///   - probe SwissTable-style: separate control bytes, packed eight to
///     a 64-bit word, hold a 7-bit tag per slot, and a probe inspects
///     sixteen slots at a time with one SSE2 compare + movemask (a
///     portable bit-twiddling fallback covers non-SSE2 builds), so a
///     lookup usually touches one 16-byte control group and at most
///     one slot;
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
/// Reads can run without the writers' lock. Every mutation is a seqlock
/// write section (WriteSection): the map's write sequence is odd while
/// it runs, and it writes control and slot words with relaxed atomic
/// stores. A reader brackets a relaxed-load probe with readBegin() and
/// readValidate() and keeps the result only if no section overlapped
/// it. Readers reach the storage through one atomic pointer to the
/// live block, and no block is freed while the map lives: a tombstone
/// sweep rebuilds into a spare block of the same capacity (the old
/// block becomes the next spare), growth keeps the outgrown blocks, and
/// all of them stay under 4x the live capacity.
///
/// The container refuses construction from a non-bijective plan, since
/// dropping the key string would otherwise be unsound.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_FLAT_INDEX_MAP_H
#define SEPE_CONTAINER_FLAT_INDEX_MAP_H

#include "core/executor.h"
#include "support/telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <type_traits>
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
/// always-compiled portable reference; Group picks SSE2 when the build
/// has it. Both are exposed so tests can pin the vector path against
/// the scalar one on hosts that have both.
namespace swiss {

inline constexpr size_t GroupSize = 16;
inline constexpr int8_t CtrlEmpty = -128;  // 0b10000000
inline constexpr int8_t CtrlDeleted = -2;  // 0b11111110

/// FlatIndexMap stores control bytes eight to a 64-bit word, byte I of
/// a word in bits [8I, 8I + 8), so a group is two words and a lock-free
/// reader loads it with two relaxed word loads.
inline constexpr uint64_t EmptyWord = 0x8080808080808080ULL;

inline int8_t ctrlByte(uint64_t Word, size_t I) {
  return static_cast<int8_t>(Word >> (8 * I));
}

inline uint64_t withCtrlByte(uint64_t Word, size_t I, int8_t C) {
  const unsigned Shift = static_cast<unsigned>(8 * I);
  return (Word & ~(uint64_t{0xFF} << Shift)) |
         (uint64_t{static_cast<uint8_t>(C)} << Shift);
}

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

/// One group, loaded once and matched several ways.
class Group {
public:
  /// From the two control words a FlatIndexMap group is stored in,
  /// combined in registers: spilling them to the stack and reloading
  /// them as one vector would stall on store forwarding.
  Group(uint64_t Lo, uint64_t Hi) {
#if defined(__SSE2__)
    Bytes = _mm_set_epi64x(static_cast<long long>(Hi),
                           static_cast<long long>(Lo));
#else
    for (size_t I = 0; I != GroupSize / 2; ++I) {
      Bytes[I] = ctrlByte(Lo, I);
      Bytes[GroupSize / 2 + I] = ctrlByte(Hi, I);
    }
#endif
  }

  uint32_t matchTag(int8_t Tag) const {
#if defined(__SSE2__)
    return static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(Bytes, _mm_set1_epi8(Tag))));
#else
    return matchTagScalar(Bytes, Tag);
#endif
  }

  uint32_t matchEmpty() const { return matchTag(CtrlEmpty); }

  uint32_t matchEmptyOrDeleted() const {
#if defined(__SSE2__)
    // movemask collects the sign bits, which is the sentinel test.
    return static_cast<uint32_t>(_mm_movemask_epi8(Bytes));
#else
    return matchEmptyOrDeletedScalar(Bytes);
#endif
  }

private:
#if defined(__SSE2__)
  __m128i Bytes;
#else
  int8_t Bytes[GroupSize];
#endif
};

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
/// of a bijective synthesized hash. \p Value is a word: a lock-free
/// reader copies it with one relaxed load.
template <typename Value> class FlatIndexMap {
  static_assert(std::is_trivially_copyable_v<Value> &&
                    (sizeof(Value) == 4 || sizeof(Value) == 8),
                "lock-free readers copy a value with one word load");

  struct Block;

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
    Live.store(allocateBlock(Capacity), std::memory_order_release);
  }

  FlatIndexMap(const FlatIndexMap &) = delete;
  FlatIndexMap &operator=(const FlatIndexMap &) = delete;

  size_t size() const { return Elements; }
  bool empty() const { return Elements == 0; }
  size_t capacity() const { return live().Capacity; }

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
    Block &B = live();
    size_t Scanned = 0;
    size_t Free = NotFound;
    const bool Present = findSlot(B, Image, Scanned, &Free) != NotFound;
    SEPE_RECORD("flat_index_map.probe_groups.insert", Scanned);
    if (Present)
      return false;
    WriteSection Section(Seq);
    // Grow (or sweep tombstones at the same capacity) before full plus
    // deleted slots pass 7/8 of capacity — the bound that guarantees
    // every probe chain reaches an empty slot. Only then does the slot
    // the probe found move, so only then does the insert probe again.
    if ((Elements + Tombstones + 1) * 8 >= B.Capacity * 7) {
      rehash(Elements + 1);
      place(live(), Image, V);
    } else {
      store(B, Free, Image, V);
    }
    return true;
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

  /// Pointer to the value for \p Key, or nullptr. Writing through it is
  /// not a write section: only callers that also exclude lock-free
  /// readers may do so.
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
    Block &B = live();
    size_t Scanned = 0;
    const size_t S = findSlot(B, Image, Scanned);
    SEPE_RECORD("flat_index_map.probe_groups.erase", Scanned);
    if (S == NotFound)
      return false;
    WriteSection Section(Seq);
    if (group(B, S / swiss::GroupSize).matchEmpty() != 0) {
      setCtrl(B, S, swiss::CtrlEmpty);
    } else {
      setCtrl(B, S, swiss::CtrlDeleted);
      ++Tombstones;
      SEPE_COUNT("flat_index_map.tombstones.created");
    }
    --Elements;
    return true;
  }

  /// Rehashes now if inserting up to \p ExpectedElements total elements
  /// would otherwise trigger a growth mid-stream; the bulk-load
  /// companion to insertBatch.
  void reserve(size_t ExpectedElements) {
    if ((ExpectedElements + Tombstones) * 8 < capacity() * 7)
      return;
    WriteSection Section(Seq);
    rehash(ExpectedElements);
  }

  /// Longest probe sequence observed for the current contents, in
  /// *groups* (a probe step inspects a whole 16-slot group); the metric
  /// the specialized layout is supposed to keep small. 1 means every
  /// key sits in its home group.
  size_t maxProbeLength() const {
    const Block &B = live();
    const size_t Groups = B.groupCount();
    size_t Max = 0;
    for (size_t S = 0; S != B.Capacity; ++S) {
      if (ctrlAt(B, S) < 0)
        continue;
      const size_t Home = homeGroup(scramble(B.Slots[S].Image), Groups);
      const size_t G = S / swiss::GroupSize;
      const size_t Probe = (G + Groups - Home) & (Groups - 1);
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
    const Block &B = live();
    for (size_t S = 0; S != B.Capacity; ++S)
      if (ctrlAt(B, S) >= 0)
        F(B.Slots[S].Image, B.Slots[S].V);
  }

  /// Lock-free reads, for callers whose writers hold a lock of their own
  /// (ShardedIndexMap): open a Read with readBegin(), probe through it
  /// with probeRelaxed() and keep the results only if readValidate()
  /// then holds; on failure retry, or fall back to the writers' lock.
  /// A Read pins the write sequence it began at and the block it
  /// probes, so a run of probes loads the block pointer once.
  class Read {
  public:
    /// A mutation was in progress: this read cannot validate.
    bool busy() const { return (Begin & 1) != 0; }

  private:
    friend class FlatIndexMap;
    Read(uint64_t Begin, const Block *B) : Begin(Begin), B(B) {}
    uint64_t Begin;
    const Block *B;
  };

  Read readBegin() const {
    const uint64_t Begin = Seq.load(std::memory_order_acquire);
    return Read(Begin, Live.load(std::memory_order_acquire));
  }

  /// Probes for \p Image with relaxed word loads only. Under a
  /// concurrent mutation the answer may be torn, but the probe stays
  /// inside the read's block and scans at most its group count.
  bool probeRelaxed(const Read &R, uint64_t Image, Value &Out) const {
    size_t Scanned = 0;
    const size_t S = findSlot(*R.B, Image, Scanned);
    if (S == NotFound)
      return false;
    Out = std::atomic_ref<Value>(R.B->Slots[S].V)
              .load(std::memory_order_relaxed);
    return true;
  }

  /// True when no mutation overlapped \p R: its probes saw one
  /// consistent state.
  bool readValidate(const Read &R) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return !R.busy() && Seq.load(std::memory_order_relaxed) == R.Begin;
  }

private:
  /// Keys per hashBatch call in insertBatch: big enough to amortize the
  /// dispatch, small enough to stay on the stack and in L1.
  static constexpr size_t BatchBlock = 256;
  static constexpr size_t NotFound = SIZE_MAX;

  struct Slot {
    uint64_t Image = 0;
    alignas(std::atomic_ref<Value>::required_alignment) Value V{};
  };

  /// One capacity's storage: the control bytes, packed into words, and
  /// the slots. Readers reach it through Live. Every probe reads this
  /// header, so it owns its cache line: no written data shares it.
  struct alignas(64) Block {
    explicit Block(size_t Capacity)
        : Capacity(Capacity), Ctrl(new uint64_t[Capacity / 8]),
          Slots(new Slot[Capacity]) {
      std::fill_n(Ctrl.get(), Capacity / 8, swiss::EmptyWord);
    }
    size_t groupCount() const { return Capacity / swiss::GroupSize; }

    const size_t Capacity;
    const std::unique_ptr<uint64_t[]> Ctrl;
    const std::unique_ptr<Slot[]> Slots;
  };

  /// One mutation, bracketed for lock-free readers (the seqlock writer
  /// of Boehm, "Can Seqlocks Get Along with Programming Language Memory
  /// Models?"): the sequence goes odd, a release fence keeps the
  /// mutation's relaxed stores after it, and the sequence goes even
  /// again with a release store. The caller serializes writers.
  class WriteSection {
  public:
    explicit WriteSection(std::atomic<uint64_t> &Seq)
        : Seq(Seq), Begin(Seq.load(std::memory_order_relaxed)) {
      Seq.store(Begin + 1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_release);
    }
    ~WriteSection() { Seq.store(Begin + 2, std::memory_order_release); }
    WriteSection(const WriteSection &) = delete;
    WriteSection &operator=(const WriteSection &) = delete;

  private:
    std::atomic<uint64_t> &Seq;
    const uint64_t Begin;
  };

  // Every word a lock-free reader may load is written with a relaxed
  // atomic store, so a reader racing a write section reads stale or
  // new words, never a torn one.
  static uint64_t loadWord(const uint64_t &W) {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t &>(W))
        .load(std::memory_order_relaxed);
  }
  static void storeWord(uint64_t &W, uint64_t V) {
    std::atomic_ref<uint64_t>(W).store(V, std::memory_order_relaxed);
  }
  static void storeValue(Value &Dst, Value V) {
    std::atomic_ref<Value>(Dst).store(V, std::memory_order_relaxed);
  }

  static swiss::Group group(const Block &B, size_t G) {
    return swiss::Group(loadWord(B.Ctrl[2 * G]), loadWord(B.Ctrl[2 * G + 1]));
  }
  static int8_t ctrlAt(const Block &B, size_t S) {
    return swiss::ctrlByte(loadWord(B.Ctrl[S / 8]), S % 8);
  }
  static void setCtrl(Block &B, size_t S, int8_t C) {
    storeWord(B.Ctrl[S / 8],
              swiss::withCtrlByte(loadWord(B.Ctrl[S / 8]), S % 8, C));
  }

  static uint64_t scramble(uint64_t Image) { return probe::scramble(Image); }

  static int8_t tagOf(uint64_t Scrambled) {
    return static_cast<int8_t>(Scrambled & 0x7F);
  }

  static size_t homeGroup(uint64_t Scrambled, size_t Groups) {
    const unsigned Log2 = static_cast<unsigned>(std::countr_zero(Groups));
    // A one-group table would need a shift by 64 (UB); its answer is 0.
    return Log2 == 0 ? 0 : static_cast<size_t>(Scrambled >> (64 - Log2));
  }

  /// The live block, for writers and for readers that exclude them.
  Block &live() const { return *Live.load(std::memory_order_relaxed); }

  Block *allocateBlock(size_t Capacity) {
    Blocks.push_back(std::make_unique<Block>(Capacity));
    return Blocks.back().get();
  }

  /// Slot index of \p Image in \p B, or NotFound; \p Scanned receives
  /// the groups inspected, and a non-null \p Free the first reusable
  /// slot (tombstones included) on the probe path, where an insert of
  /// the absent image goes. Scans at most the group count, so a torn
  /// lock-free snapshot cannot loop forever; a consistent one always
  /// stops sooner, at a group with an empty slot (the load bound keeps
  /// one).
  static size_t findSlot(const Block &B, uint64_t Image, size_t &Scanned,
                         size_t *Free = nullptr) {
    const uint64_t Scrambled = scramble(Image);
    const int8_t Tag = tagOf(Scrambled);
    const size_t Groups = B.groupCount();
    size_t G = homeGroup(Scrambled, Groups);
    for (Scanned = 1; Scanned <= Groups; ++Scanned) {
      const swiss::Group Ctrl = group(B, G);
      for (uint32_t Match = Ctrl.matchTag(Tag); Match != 0;
           Match &= Match - 1) {
        const size_t S =
            G * swiss::GroupSize + static_cast<size_t>(std::countr_zero(Match));
        if (loadWord(B.Slots[S].Image) == Image)
          return S;
      }
      if (Free != nullptr && *Free == NotFound)
        if (const uint32_t Avail = Ctrl.matchEmptyOrDeleted())
          *Free = G * swiss::GroupSize +
                  static_cast<size_t>(std::countr_zero(Avail));
      if (Ctrl.matchEmpty() != 0)
        return NotFound;
      G = (G + 1) & (Groups - 1);
    }
    return NotFound;
  }

  /// Rebuilds the live contents into another block. No block is freed
  /// while the map lives, since a lock-free reader may still be probing
  /// any block that was ever live: a same-capacity rehash (the
  /// tombstone sweep) rebuilds into this capacity's spare block and
  /// keeps the old live block as the next spare, and growth keeps the
  /// outgrown blocks. The live block, its spare and the outgrown blocks
  /// (at most two per smaller power of two) stay under 4x the live
  /// capacity.
  void rehash(size_t MinElements) {
    size_t NewCapacity = 16;
    while (MinElements * 8 >= NewCapacity * 7)
      NewCapacity *= 2;
    // Never shrink; when the live elements still fit the current
    // capacity this is the tombstone-dropping same-size rehash.
    Block &Old = live();
    NewCapacity = std::max(NewCapacity, Old.Capacity);
    Block *Next = nullptr;
    if (NewCapacity == Old.Capacity) {
      SEPE_COUNT("flat_index_map.rehash.tombstone_sweep");
      if (Spare == nullptr) {
        Next = allocateBlock(NewCapacity);
      } else {
        Next = Spare;
        for (size_t W = 0; W != NewCapacity / 8; ++W)
          storeWord(Next->Ctrl[W], swiss::EmptyWord);
      }
      Spare = &Old;
    } else {
      SEPE_COUNT("flat_index_map.rehash.grow");
      Next = allocateBlock(NewCapacity);
      Spare = nullptr;
    }
    Live.store(Next, std::memory_order_release);
    Elements = 0;
    Tombstones = 0;
    for (size_t S = 0; S != Old.Capacity; ++S)
      if (ctrlAt(Old, S) >= 0)
        place(*Next, Old.Slots[S].Image, Old.Slots[S].V);
  }

  /// Stores the absent \p Image in the first reusable slot (tombstones
  /// included) on its probe path in \p B; the load bound guarantees
  /// one. The caller holds a write section.
  void place(Block &B, uint64_t Image, Value V) {
    const size_t Groups = B.groupCount();
    size_t G = homeGroup(scramble(Image), Groups);
    uint32_t Avail = 0;
    while ((Avail = group(B, G).matchEmptyOrDeleted()) == 0)
      G = (G + 1) & (Groups - 1);
    const size_t S =
        G * swiss::GroupSize + static_cast<size_t>(std::countr_zero(Avail));
    store(B, S, Image, V);
  }

  /// Stores (\p Image, \p V) in reusable slot \p S of \p B. The caller
  /// holds a write section.
  void store(Block &B, size_t S, uint64_t Image, Value V) {
    assert(S != NotFound && "the load bound guarantees a reusable slot");
    if (ctrlAt(B, S) == swiss::CtrlDeleted)
      --Tombstones;
    setCtrl(B, S, tagOf(scramble(Image)));
    storeWord(B.Slots[S].Image, Image);
    storeValue(B.Slots[S].V, V);
    ++Elements;
  }

  Value *findImage(uint64_t Image) {
    Block &B = live();
    size_t Scanned = 0;
    const size_t S = findSlot(B, Image, Scanned);
    SEPE_RECORD("flat_index_map.probe_groups.find", Scanned);
    if (S == NotFound) {
      SEPE_COUNT("flat_index_map.find.miss");
      return nullptr;
    }
    SEPE_COUNT("flat_index_map.find.hit");
    return &B.Slots[S].V;
  }

  // The fields every probe or mutation touches come first and share a
  // cache line, so a writer dirties one line of the map object and a
  // lock-free reader loads one.
  /// The block readers probe, and the write sequence that validates
  /// their probes (odd while a mutation is in progress).
  std::atomic<Block *> Live{nullptr};
  std::atomic<uint64_t> Seq{0};
  size_t Elements = 0;
  size_t Tombstones = 0;
  /// The previous live block of the current capacity, reused by the
  /// next tombstone sweep; null until the first sweep at a capacity.
  Block *Spare = nullptr;
  /// Every block ever allocated; freed with the map.
  std::vector<std::unique_ptr<Block>> Blocks;
  SynthesizedHash Hash;
};

} // namespace sepe

#endif // SEPE_CONTAINER_FLAT_INDEX_MAP_H
