//===- container/sharded_index_map.h - Concurrent sharded map ---*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent serving front end over FlatIndexMap: a power-of-two
/// array of shards, each an independent FlatIndexMap behind its own
/// shared_mutex, routed by the high bits of an independent scramble of
/// the synthesized image (container/flat_index_map.h probe::shardOf —
/// a *different* odd multiplier than the in-shard group mapping, so
/// shard index and home group stay decorrelated).
///
/// Writers take the shard's exclusive lock; readers take no lock and
/// write nothing shared. Every FlatIndexMap mutation is a seqlock write
/// section, so a reader probes with relaxed loads and keeps the result
/// only if the shard's write sequence was even and unchanged across
/// the probe. After ReadAttempts failed validations it takes the
/// shard's read lock, so a reader never starves behind a busy writer.
/// A shard never frees a block a reader may be probing
/// (FlatIndexMap::rehash bounds what it keeps).
///
/// Batch lookups hash a 64-key chunk densely first (one
/// SynthesizedHash::hashBatch call, so the AVX2 wide kernels run at
/// full width), then counting-sort the chunk's indices by shard and
/// probe each shard's dense group as one lock-free read validated once
/// for the whole group — the validation, or the fallback lock,
/// amortizes over the group instead of being paid per key.
///
/// Hot swap across a re-synthesis is epoch-based, RCU-style: all state
/// a reader consults (hash, guard pattern, shard array, epoch number)
/// lives in one immutable-after-publish Table reached through a single
/// acquire load, so epochs cannot tear. migrate() builds the successor
/// table incrementally, one shard at a time, under that shard's write
/// lock — no global stop-the-world:
///
///   1. The successor pointer is stored into the old table, then each
///      shard is *sealed* (flag flipped under its write lock) and its
///      live entries copied into the successor's shards: each key is
///      rebuilt from its old image and re-hashed through the new plan's
///      batch kernel (keys scatter: a new plan images a key into a new
///      shard).
///   2. Writers that find their shard sealed dual-write: the mutation
///      applies to the old table and is replayed against the successor
///      (re-hashed with the successor's plan). Seal + successor are
///      observed under the shard lock the migrator published them
///      under, so the handoff is race-free, and the copy loop holds the
///      old shard's write lock across its successor inserts so an
///      erase can never be resurrected by a stale copy.
///   3. Once every shard is sealed and copied, the successor is
///      published as the active table. Readers that loaded the old
///      table finish on it — dual-writes kept it current — and retired
///      tables stay alive until the map is destroyed, so in-flight
///      probes never touch freed memory.
///
/// Locks nest old-shard -> successor-shard only, and the old shards
/// held are always distinct across threads, so the order is acyclic.
///
/// FlatIndexMap stores images, not key text, and nothing else keeps the
/// keys: each table's plan inverts its pattern (asserted at
/// construction), so the copy rebuilds every live key from its image
/// (core/plan.h invertImage). Memory follows the live set.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_SHARDED_INDEX_MAP_H
#define SEPE_CONTAINER_SHARDED_INDEX_MAP_H

#include "container/flat_index_map.h"
#include "core/executor.h"
#include "core/key_pattern.h"
#include "core/plan.h"
#include "support/telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

namespace shard {

/// Keys per dense batch chunk: hashed in one hashBatch call, then
/// partitioned by shard. 64 keeps the images, shard ids and order
/// permutation on the stack while still filling the 8-wide AVX2
/// kernels many times over.
inline constexpr size_t ChunkSize = 64;

/// Stable counting-sort partition of \p N (<= ChunkSize) images by
/// shard. On return Order[Offsets[S] .. Offsets[S+1]) are the chunk
/// indices whose image routes to shard S, in input order; \p Offsets
/// must hold (1 << ShardBits) + 1 entries and ShardBits must be <= 8
/// (ShardedIndexMap clamps its shard count to 256 for this reason). The partition is definitionally
/// equivalent to probe::shardOf per key — the property the partition
/// tests pin across formats and ISA levels.
inline void partitionChunk(const uint64_t *Images, size_t N,
                           unsigned ShardBits, uint16_t *Order,
                           uint32_t *Offsets) {
  const size_t NumShards = size_t{1} << ShardBits;
  for (size_t S = 0; S != NumShards + 1; ++S)
    Offsets[S] = 0;
  uint8_t ShardOf[ChunkSize];
  for (size_t I = 0; I != N; ++I) {
    const size_t S = probe::shardOf(Images[I], ShardBits);
    ShardOf[I] = static_cast<uint8_t>(S);
    ++Offsets[S + 1];
  }
  for (size_t S = 0; S != NumShards; ++S)
    Offsets[S + 1] += Offsets[S];
  uint32_t Cursor[256 + 1];
  for (size_t S = 0; S != NumShards; ++S)
    Cursor[S] = Offsets[S];
  for (size_t I = 0; I != N; ++I)
    Order[Cursor[ShardOf[I]]++] = static_cast<uint16_t>(I);
}

} // namespace shard

/// Concurrent sharded map from format keys to \p Value. Each shard is
/// a FlatIndexMap (so the plan must be bijective, and \p Value a
/// trivially copyable 4- or 8-byte word its readers copy lock-free);
/// any number of threads may call any entry point concurrently, with
/// at most one migrate() in flight (further calls serialize).
template <typename Value> class ShardedIndexMap {
public:
  /// Per-shard health snapshot for telemetry/reporting.
  struct ShardStats {
    size_t Size = 0;
    size_t Capacity = 0;
    size_t Tombstones = 0;
  };

  /// \p Hash must be invertible on \p Pattern (core/plan.h), so images
  /// are sound keys and migrate() can rebuild keys from them. \p Pattern
  /// is also the generation's guard: put/erase/get/getBatch never check
  /// it (the caller vouches that keys conform, as everywhere in the
  /// executor), the routed entry points check every key whose image
  /// they do not take from a current hint. \p EpochLabel is an opaque
  /// generation tag a hint must carry to be used — the serving layer
  /// labels each table with the AdaptiveHash epoch whose plan keys it.
  /// \p ShardCountHint rounds up to a power of two, clamped to [1, 256].
  explicit ShardedIndexMap(SynthesizedHash Hash, KeyPattern Pattern,
                           uint64_t EpochLabel = 0,
                           size_t ShardCountHint = 16,
                           size_t InitialCapacityPerShard = 16) {
    size_t Count = std::bit_ceil(std::max<size_t>(1, ShardCountHint));
    Count = std::min<size_t>(Count, 256);
    auto T = std::make_unique<Table>(
        std::move(Hash), std::move(Pattern), EpochLabel,
        static_cast<unsigned>(std::countr_zero(Count)),
        InitialCapacityPerShard);
    Active.store(T.get(), std::memory_order_release);
    Tables.push_back(std::move(T));
  }

  ShardedIndexMap(const ShardedIndexMap &) = delete;
  ShardedIndexMap &operator=(const ShardedIndexMap &) = delete;

  size_t shardCount() const { return active()->shardCount(); }

  /// Label of the active table (the EpochLabel it was constructed or
  /// migrated with). Label, hash and pattern live in one published
  /// Table object, so a reader can never observe a new epoch with an
  /// old hash or vice versa.
  uint64_t epoch() const { return active()->Epoch; }

  /// The active generation's hash (cheap: shared plan ownership).
  SynthesizedHash hasher() const { return active()->hash(); }

  /// Migrations completed since construction.
  uint64_t migrations() const {
    return Migrations.load(std::memory_order_relaxed);
  }

  /// Live elements across all shards. Takes every shard's read lock in
  /// turn, so under concurrent writers the result is a moment-in-time
  /// per shard, not a global snapshot.
  size_t size() const {
    const Table *T = active();
    size_t Total = 0;
    for (size_t I = 0; I != T->shardCount(); ++I) {
      std::shared_lock<std::shared_mutex> Lock(T->Shards[I].Mutex);
      Total += T->Shards[I].Map.size();
    }
    return Total;
  }

  ShardStats shardStats(size_t Index) const {
    const Table *T = active();
    const Shard &S = T->Shards[Index & (T->shardCount() - 1)];
    std::shared_lock<std::shared_mutex> Lock(S.Mutex);
    return {S.Map.size(), S.Map.capacity(), S.Map.tombstones()};
  }

  /// Per-shard lock-contention counters: how many read/write lock
  /// acquisitions the shard saw and how many of them had to wait
  /// (try-lock failed first). Reads lock only to fall back after failed
  /// lock-free attempts, so the shared counts are locked fallbacks, not
  /// reads. Counted relaxed by the acquire helpers — the numbers are
  /// measurements, they order nothing. The counters live on the
  /// *active* generation's shards: a migration publishes fresh shards,
  /// so each epoch's numbers describe lock pressure since that epoch
  /// was published.
  struct ShardContention {
    uint64_t SharedAcquires = 0;
    uint64_t SharedContended = 0;
    uint64_t UniqueAcquires = 0;
    uint64_t UniqueContended = 0;
  };

  ShardContention shardContention(size_t Index) const {
    const Table *T = active();
    const Shard &S = T->Shards[Index & (T->shardCount() - 1)];
    return {S.SharedAcquires.load(std::memory_order_relaxed),
            S.SharedContended.load(std::memory_order_relaxed),
            S.UniqueAcquires.load(std::memory_order_relaxed),
            S.UniqueContended.load(std::memory_order_relaxed)};
  }

  /// The contention histogram as JSON — one row per shard plus totals,
  /// keyed by the active epoch. The shape sepeserve prints and the
  /// bench reports embed, so the jit dispatch ladder can be read
  /// against the lock pressure it ran under.
  std::string contentionJson() const {
    ShardContention Sum;
    std::string Json = "{\"epoch\": " + std::to_string(epoch()) +
                       ", \"shards\": [";
    for (size_t I = 0; I != shardCount(); ++I) {
      const ShardContention C = shardContention(I);
      Sum.SharedAcquires += C.SharedAcquires;
      Sum.SharedContended += C.SharedContended;
      Sum.UniqueAcquires += C.UniqueAcquires;
      Sum.UniqueContended += C.UniqueContended;
      if (I != 0)
        Json += ", ";
      Json += "{\"shared_acquires\": " + std::to_string(C.SharedAcquires) +
              ", \"shared_contended\": " + std::to_string(C.SharedContended) +
              ", \"unique_acquires\": " + std::to_string(C.UniqueAcquires) +
              ", \"unique_contended\": " + std::to_string(C.UniqueContended) +
              "}";
    }
    Json += "], \"totals\": {\"shared_acquires\": " +
            std::to_string(Sum.SharedAcquires) +
            ", \"shared_contended\": " + std::to_string(Sum.SharedContended) +
            ", \"unique_acquires\": " + std::to_string(Sum.UniqueAcquires) +
            ", \"unique_contended\": " + std::to_string(Sum.UniqueContended) +
            "}}";
    return Json;
  }

  /// Inserts (key, value); returns false (keeping the old value) when
  /// present. Precondition: \p Key conforms to the active plan's
  /// format.
  bool put(std::string_view Key, Value V) {
    Table *T = activeMutable();
    return putAt(*T, Key, T->hash()(Key), std::move(V));
  }

  /// Removes \p Key; returns false when absent.
  bool erase(std::string_view Key) {
    Table *T = activeMutable();
    return eraseAt(*T, Key, T->hash()(Key));
  }

  /// Copies the value for \p Key into \p Out; false when absent. A
  /// copy, not a pointer: a pointer into a shard would dangle as soon
  /// as a concurrent writer moved the entry.
  bool get(std::string_view Key, Value &Out) const {
    const Table *T = active();
    const uint64_t Image = T->hash()(Key);
    if (lookup(T->shardFor(Image), Image, Out)) {
      SEPE_COUNT("sharded_index_map.get.hit");
      return true;
    }
    SEPE_COUNT("sharded_index_map.get.miss");
    return false;
  }

  bool contains(std::string_view Key) const {
    Value Scratch;
    return get(Key, Scratch);
  }

  /// Batch lookup: Found[I] = 1 and Out[I] = value when Keys[I] is
  /// present, else Found[I] = 0 (Out[I] untouched). Returns the hit
  /// count. Hashes each 64-key chunk densely (AVX2 batch kernel), then
  /// partitions by shard and probes every shard's group as one
  /// validated lock-free read (probeChunk).
  size_t getBatch(const std::string_view *Keys, Value *Out, uint8_t *Found,
                  size_t N) const {
    const Table *T = active();
    size_t Hits = 0;
    uint64_t Images[shard::ChunkSize];
    for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
      const size_t Count = std::min(shard::ChunkSize, N - Base);
      T->hash().hashBatch(Keys + Base, Images, Count);
      Hits += probeChunk(*T, Images, Count, Out + Base, Found + Base);
    }
    SEPE_COUNT_N("sharded_index_map.get.hit", Hits);
    SEPE_COUNT_N("sharded_index_map.get.miss", N - Hits);
    return Hits;
  }

  /// A caller's image of a key, labeled with the generation whose plan
  /// computed it (the serving layer passes AdaptiveHash::route's hash
  /// and epoch). Only a hint: the routed entry points probe Image while
  /// Epoch labels the active table, and judge the key themselves
  /// otherwise.
  struct Hint {
    uint64_t Image = 0;
    uint64_t Epoch = 0;
  };

  /// Routed lookup: like get(), but \p Key may be any string. The map
  /// probes \p H's image while its label is the active table's epoch
  /// (label, pattern, hash and shards come from one acquire load, so
  /// the compare and the probe cannot straddle a swap); otherwise it
  /// checks Key against the active pattern and hashes it with the
  /// active plan. A key the pattern rejects is not in the map.
  bool getRouted(std::string_view Key, std::optional<Hint> H,
                 Value &Out) const {
    const Table *T = active();
    uint64_t Image;
    if (!admit(*T, Key, H, /*Op=*/0, Image))
      return false;
    if (lookup(T->shardFor(Image), Image, Out)) {
      SEPE_COUNT("sharded_index_map.get.hit");
      return true;
    }
    SEPE_COUNT("sharded_index_map.get.miss");
    return false;
  }

  /// Routed insert, judged as getRouted judges: false when the active
  /// pattern rejects \p Key (nothing written), else \p Inserted
  /// reports put()'s outcome.
  bool putRouted(std::string_view Key, std::optional<Hint> H, Value V,
                 bool &Inserted) {
    Table *T = activeMutable();
    uint64_t Image;
    if (!admit(*T, Key, H, /*Op=*/1, Image))
      return false;
    Inserted = putAt(*T, Key, Image, std::move(V));
    return true;
  }

  /// Routed erase, judged as getRouted judges; false when \p Key is
  /// absent, which every key the active pattern rejects is.
  bool eraseRouted(std::string_view Key, std::optional<Hint> H) {
    Table *T = activeMutable();
    uint64_t Image;
    return admit(*T, Key, H, /*Op=*/2, Image) && eraseAt(*T, Key, Image);
  }

  /// Routed batch lookup with getBatch's outputs: Images[I] is a hint
  /// for Keys[I], all labeled \p Epoch. While the label is the active
  /// table's epoch the images probe chunk by chunk as getBatch's do;
  /// otherwise each key is judged as getRouted judges a key with no
  /// hint.
  size_t getBatchRouted(const std::string_view *Keys, const uint64_t *Images,
                        uint64_t Epoch, Value *Out, uint8_t *Found,
                        size_t N) const {
    const Table *T = active();
    size_t Hits = 0;
    if (T->Epoch == Epoch) {
      for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
        const size_t Count = std::min(shard::ChunkSize, N - Base);
        Hits += probeChunk(*T, Images + Base, Count, Out + Base, Found + Base);
      }
    } else {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      for (size_t I = 0; I != N; ++I) {
        uint64_t Image;
        Found[I] = admit(*T, Keys[I], std::nullopt, /*Op=*/0, Image) &&
                   lookup(T->shardFor(Image), Image, Out[I]);
        Hits += Found[I];
      }
    }
    SEPE_COUNT_N("sharded_index_map.get.hit", Hits);
    SEPE_COUNT_N("sharded_index_map.get.miss", N - Hits);
    return Hits;
  }

  /// Hot swap to \p NewHash / \p NewPattern under generation label
  /// \p NewLabel: builds the successor table shard by shard under each
  /// old shard's write lock (see the file comment for the
  /// seal/dual-write protocol), then publishes it. Readers and writers
  /// stay live throughout; concurrent migrate() calls serialize.
  /// \p NewHash must be invertible on \p NewPattern.
  void migrate(SynthesizedHash NewHash, KeyPattern NewPattern,
               uint64_t NewLabel) {
    SEPE_SPAN("sharded.migrate", Migrate, NewLabel);
    std::lock_guard<std::mutex> MigrateLock(MigrateMutex);
    Table *Old = activeMutable();
    auto Next = std::make_unique<Table>(
        std::move(NewHash), std::move(NewPattern), NewLabel, Old->ShardBits,
        /*InitialCapacityPerShard=*/16);
    // Publish the successor pointer *before* any seal: a writer reads
    // it only after observing Sealed under a shard lock the migrator
    // released after this store, so the mutex ordering carries it over.
    Old->Successor = Next.get();
    size_t Copied = 0;
    for (size_t I = 0; I != Old->shardCount(); ++I) {
      Shard &S = Old->Shards[I];
      std::unique_lock<std::shared_mutex> Lock(S.Mutex);
      SEPE_EVENT("sharded.shard.seal", NewLabel, I);
      S.Sealed = true;
      SEPE_SPAN("sharded.shard.copy", Copy, NewLabel);
      Copy.setArg(I);
      Copied += copyShardLocked(S, *Old, *Next);
    }
    Active.store(Next.get(), std::memory_order_release);
    SEPE_EVENT("sharded.migrate.publish", NewLabel, Copied);
    Migrate.setArg(Copied);
    Migrations.fetch_add(1, std::memory_order_relaxed);
    Tables.push_back(std::move(Next));
  }

private:
  /// One shard: an independent FlatIndexMap behind a shared_mutex that
  /// writers and fallback readers take. Cache-line aligned so two
  /// shards' mutexes never share a line.
  struct alignas(64) Shard {
    explicit Shard(const SynthesizedHash &Hash, size_t InitialCapacity)
        : Map(Hash, InitialCapacity) {}
    // Member order is a cache-line layout: a writer dirties the line of
    // Mutex and UniqueAcquires and the map's leading line (its write
    // sequence and counts), which is the one line a lock-free reader
    // loads; the rarely moved counters stay off both.
    mutable std::shared_mutex Mutex;
    /// Per-shard lock pressure, counted by the acquire helpers
    /// (relaxed — the counts order nothing, they are measurements).
    /// Mutable for the same reason Mutex is: locked read fallbacks
    /// count too.
    mutable std::atomic<uint64_t> UniqueAcquires{0};
    FlatIndexMap<Value> Map;
    mutable std::atomic<uint64_t> UniqueContended{0};
    mutable std::atomic<uint64_t> SharedAcquires{0};
    mutable std::atomic<uint64_t> SharedContended{0};
    /// True once a migration has copied (or is copying) this shard;
    /// writers must replay their mutation against Successor. Guarded
    /// by Mutex.
    bool Sealed = false;
  };

  /// One epoch of the map. Immutable after publish except through the
  /// shard locks; readers reach the whole generation — guarded hash,
  /// epoch, shards — through one acquire load of Active. The shards are
  /// one cache-line-aligned array, so a probe goes from the table to
  /// its shard with no pointer in between.
  struct Table {
    Table(SynthesizedHash Hash, KeyPattern Pattern, uint64_t Epoch,
          unsigned ShardBits, size_t InitialCapacityPerShard)
        : Epoch(Epoch), ShardBits(ShardBits),
          Shards(static_cast<Shard *>(::operator new(
              sizeof(Shard) << ShardBits, std::align_val_t{alignof(Shard)}))),
          Guarded(std::move(Hash), std::move(Pattern)) {
      assert(invertible(hash().plan(), Guarded.pattern()) &&
             "migrate() rebuilds keys from images of this plan");
      // Shard holds a shared_mutex, so it is built in place.
      size_t Built = 0;
      try {
        for (; Built != shardCount(); ++Built)
          new (&Shards[Built]) Shard(hash(), InitialCapacityPerShard);
      } catch (...) {
        destroyShards(Built);
        throw;
      }
    }
    ~Table() { destroyShards(shardCount()); }
    Table(const Table &) = delete;
    Table &operator=(const Table &) = delete;

    size_t shardCount() const { return size_t{1} << ShardBits; }
    Shard &shardFor(uint64_t Image) const {
      return Shards[probe::shardOf(Image, ShardBits)];
    }
    const SynthesizedHash &hash() const { return Guarded.hash(); }

    uint64_t Epoch = 0;
    const unsigned ShardBits;
    Shard *const Shards;
    /// Set (before any seal) by the migration that retires this table;
    /// read by writers that find their shard sealed.
    Table *Successor = nullptr;
    /// The table's plan and the pattern that guards it.
    GuardedHash Guarded;

  private:
    void destroyShards(size_t Built) {
      for (size_t I = 0; I != Built; ++I)
        Shards[I].~Shard();
      ::operator delete(Shards, std::align_val_t{alignof(Shard)});
    }
  };

  const Table *active() const { return Active.load(std::memory_order_acquire); }
  Table *activeMutable() { return Active.load(std::memory_order_acquire); }

  /// The image the routed entry points probe for \p Key in \p T: the
  /// hint's while its label is T's epoch, else T's own hash of a key
  /// T's own pattern admits. False when that pattern rejects Key, which
  /// is then not in the map (\p Op tags the reject event: 0 get, 1 put,
  /// 2 erase).
  static bool admit(const Table &T, std::string_view Key,
                    const std::optional<Hint> &H, unsigned Op,
                    uint64_t &Image) {
    if (H && H->Epoch == T.Epoch) {
      Image = H->Image;
      return true;
    }
    return judge(T, Key, H.has_value(), Op, Image);
  }

  /// admit() for a key with no current hint: T's guarded hash checks
  /// the key against T's pattern and images it in one pass. Out of
  /// line, so a hinted probe stays small enough to inline into its
  /// caller and goes from label compare straight to lookup().
  [[gnu::noinline]] static bool judge(const Table &T, std::string_view Key,
                                      [[maybe_unused]] bool Stale,
                                      [[maybe_unused]] unsigned Op,
                                      uint64_t &Image) {
    if (Stale)
      SEPE_COUNT("sharded_index_map.stale_epoch");
    if (!T.Guarded.admit(Key, Image)) {
      SEPE_EVENT("sharded.guard.reject", T.Epoch, Op);
      return false;
    }
    return true;
  }

  /// Validated lock-free probes a reader tries before it takes the
  /// shard's read lock; each fails only if a write section overlapped.
  static constexpr unsigned ReadAttempts = 4;

  /// Copies \p Image's value in \p S into \p Out; false (Out
  /// untouched) when absent. The single-key read: up to ReadAttempts
  /// validated lock-free probes, then one under the shard's read lock,
  /// which excludes writers, so that probe always validates.
  static bool lookup(const Shard &S, uint64_t Image, Value &Out) {
    Value V{};
    for (unsigned Attempt = 0; Attempt != ReadAttempts; ++Attempt) {
      const auto Read = S.Map.readBegin();
      if (Read.busy())
        continue;
      const bool Hit = S.Map.probeRelaxed(Read, Image, V);
      if (S.Map.readValidate(Read)) {
        if (Hit)
          Out = V;
        return Hit;
      }
    }
    std::shared_lock<std::shared_mutex> Lock(acquireShared(S),
                                             std::adopt_lock);
    const auto Read = S.Map.readBegin();
    const bool Hit = S.Map.probeRelaxed(Read, Image, V);
    assert(S.Map.readValidate(Read) && "the read lock excludes writers");
    if (Hit)
      Out = V;
    return Hit;
  }

  /// Probes a chunk of \p Count (<= shard::ChunkSize) images:
  /// partitions it by shard and probes each shard's run (probeRun).
  /// Results go to Out/Found at the images' own indices. Returns the
  /// hits.
  size_t probeChunk(const Table &T, const uint64_t *Images, size_t Count,
                    Value *Out, uint8_t *Found) const {
    uint16_t Order[shard::ChunkSize];
    uint32_t Offsets[256 + 1];
    shard::partitionChunk(Images, Count, T.ShardBits, Order, Offsets);
    size_t Hits = 0;
    for (size_t S = 0; S != T.shardCount(); ++S)
      if (Offsets[S] != Offsets[S + 1])
        Hits += probeRun(T.Shards[S], Images, Order, Offsets[S],
                         Offsets[S + 1], Out, Found);
    return Hits;
  }

  /// Probes one shard's run of a batch's partitioned chunk:
  /// Images[Order[I]] for I in [Begin, End), results to
  /// Out/Found[Order[I]] (Out is untouched for a miss). The whole run is
  /// one lock-free read, validated once. After ReadAttempts failed validations the read
  /// runs once more under the shard's read lock, which excludes
  /// writers, so that pass always validates. Returns the hits.
  static size_t probeRun(const Shard &S, const uint64_t *Images,
                         const uint16_t *Order, uint32_t Begin, uint32_t End,
                         Value *Out, uint8_t *Found) {
    Value Values[shard::ChunkSize];
    bool Hit[shard::ChunkSize];
    std::shared_lock<std::shared_mutex> Lock;
    for (unsigned Attempt = 0;; ++Attempt) {
      if (Attempt == ReadAttempts)
        Lock = std::shared_lock<std::shared_mutex>(acquireShared(S),
                                                   std::adopt_lock);
      assert(Attempt <= ReadAttempts && "the read lock excludes writers");
      const auto Read = S.Map.readBegin();
      if (Read.busy())
        continue;
      for (uint32_t I = Begin; I != End; ++I)
        Hit[I] = S.Map.probeRelaxed(Read, Images[Order[I]], Values[I]);
      if (S.Map.readValidate(Read))
        break;
    }
    size_t Hits = 0;
    for (uint32_t I = Begin; I != End; ++I) {
      Found[Order[I]] = Hit[I] ? 1 : 0;
      if (Hit[I]) {
        Out[Order[I]] = Values[I];
        ++Hits;
      }
    }
    return Hits;
  }

  /// try-lock-first acquisition so contended acquisitions are counted
  /// — globally in telemetry and per shard in the Shard's own relaxed
  /// counters (shardContention/contentionJson read them back); returns
  /// the (locked) mutex for std::adopt_lock guards.
  static std::shared_mutex &acquireShared(const Shard &S) {
    S.SharedAcquires.fetch_add(1, std::memory_order_relaxed);
    if (!S.Mutex.try_lock_shared()) {
      S.SharedContended.fetch_add(1, std::memory_order_relaxed);
      SEPE_COUNT("sharded_index_map.lock.contended_read");
      S.Mutex.lock_shared();
    }
    return S.Mutex;
  }
  static std::shared_mutex &acquireUnique(const Shard &S) {
    S.UniqueAcquires.fetch_add(1, std::memory_order_relaxed);
    if (!S.Mutex.try_lock()) {
      S.UniqueContended.fetch_add(1, std::memory_order_relaxed);
      SEPE_COUNT("sharded_index_map.lock.contended_write");
      S.Mutex.lock();
    }
    return S.Mutex;
  }

  /// Inserts (\p Key, \p V) at \p Image, \p T's hash of \p Key, under
  /// its shard's write lock, replaying against the successor when the
  /// shard is sealed. Returns false (keeping the old value) when
  /// present.
  bool putAt(Table &T, std::string_view Key, uint64_t Image, Value V) {
    Shard &S = T.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    const bool Inserted = S.Map.insertHashed(Image, V);
    if (S.Sealed && Inserted)
      replayPut(T, Key, std::move(V));
    return Inserted;
  }

  /// Erases \p Image, \p T's hash of \p Key, under its shard's write
  /// lock, replaying against the successor when the shard is sealed.
  /// Returns false when absent.
  bool eraseAt(Table &T, std::string_view Key, uint64_t Image) {
    Shard &S = T.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    const bool Erased = S.Map.eraseHashed(Image);
    if (S.Sealed && Erased)
      replayErase(T, Key);
    return Erased;
  }

  /// Dual-write lane: re-applies a mutation against the successor
  /// table, re-hashed with its plan. Caller holds an *old* shard's
  /// write lock; successor shard locks nest strictly inside old ones,
  /// and no thread ever holds two old shard locks, so the order is
  /// acyclic.
  void replayPut(Table &T, std::string_view Key, Value V) {
    Table &Next = *T.Successor;
    SEPE_EVENT("sharded.dual_write", Next.Epoch, 0);
    const uint64_t Image = Next.hash()(Key);
    Shard &S = Next.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    S.Map.insertHashed(Image, std::move(V));
  }

  void replayErase(Table &T, std::string_view Key) {
    Table &Next = *T.Successor;
    SEPE_EVENT("sharded.dual_write", Next.Epoch, 1);
    const uint64_t Image = Next.hash()(Key);
    Shard &S = Next.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    S.Map.eraseHashed(Image);
  }

  /// Copies shard \p S's live entries into \p Next: keys rebuilt from
  /// their images with the old plan and pattern, re-hashed per chunk
  /// through the new plan's batch kernel. Runs with S's write lock held
  /// — also across the successor inserts, so a concurrent erase (which
  /// needs this same lock before it can dual-write) can never be undone
  /// by a stale copy landing after it. Returns the entries copied.
  size_t copyShardLocked(Shard &S, Table &Old, Table &Next) {
    const KeyPattern &Pattern = Old.Guarded.pattern();
    const size_t Len = Pattern.maxLength();
    std::vector<char> KeyBytes(shard::ChunkSize * Len);
    std::string_view Keys[shard::ChunkSize];
    const Value *Values[shard::ChunkSize];
    uint64_t Images[shard::ChunkSize];
    size_t Count = 0;
    size_t Copied = 0;
    const auto Flush = [&] {
      Next.hash().hashBatch(Keys, Images, Count);
      for (size_t I = 0; I != Count; ++I) {
        Shard &Dest = Next.shardFor(Images[I]);
        std::unique_lock<std::shared_mutex> Lock(acquireUnique(Dest),
                                                 std::adopt_lock);
        Copied += Dest.Map.insertHashed(Images[I], *Values[I]) ? 1 : 0;
      }
      Count = 0;
    };
    S.Map.forEachEntry([&](uint64_t Image, const Value &V) {
      char *Key = KeyBytes.data() + Count * Len;
      invertImage(Old.hash().plan(), Pattern, Image, Key);
      Keys[Count] = std::string_view(Key, Len);
      Values[Count] = &V;
      if (++Count == shard::ChunkSize)
        Flush();
    });
    if (Count != 0)
      Flush();
    return Copied;
  }

  std::atomic<Table *> Active{nullptr};
  /// Every table ever published, in epoch order; retired tables stay
  /// alive until destruction so readers parked on an old epoch never
  /// touch freed memory (the AdaptiveHash generation idiom).
  std::vector<std::unique_ptr<Table>> Tables;
  std::mutex MigrateMutex;
  std::atomic<uint64_t> Migrations{0};
};

} // namespace sepe

#endif // SEPE_CONTAINER_SHARDED_INDEX_MAP_H
