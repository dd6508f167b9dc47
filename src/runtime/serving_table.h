//===- runtime/serving_table.h - Adaptive sharded serving layer -*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end serving story: an AdaptiveHash (guarded dispatch,
/// drift detection, hot re-synthesis) in front of a ShardedIndexMap
/// (the image-keyed concurrent fast lane), plus a small sharded spill
/// lane for keys the guard rejects — out-of-format traffic is served
/// from an ordinary string-keyed map until a re-synthesis widens the
/// pattern, at which point maintain() migrates the fast lane to the new
/// plan and sweeps newly admitted spill keys into it.
///
/// Routing discipline (the part that makes hot swaps lossless):
///
///   - Each operation enters the fast lane once, through its *routed*
///     entry points, passing AdaptiveHash::route's image (routeBatch's
///     for getBatch) as a hint labeled with route's epoch. The lane uses
///     the image only while the label is its active table's epoch,
///     compared inside the same table load, so a migration landing
///     between hash and probe is never silently probed across. Every
///     other key — a stale label, or one route() rejected — the lane
///     judges against its own pattern and hashes with its own plan.
///   - A key the lane's pattern rejects lives in the spill lane. Pattern
///     updates only ever widen (the quad join is monotone), so a
///     rejected key cannot be sitting in the fast lane — no double
///     bookkeeping.
///   - Lookups that miss the fast lane check the spill lane and then
///     retry the fast lane once, unhinted: a concurrent sweep moves keys
///     spill -> fast (insert first, then remove, under the spill shard
///     lock), so a racing reader that misses both lanes mid-move finds
///     the key on the retry. A sweep sequence, odd while a sweep runs,
///     lets a lookup skip the retry when no sweep can have moved its
///     key. Erase takes the lanes in the opposite order (spill first),
///     which closes the symmetric race.
///
/// The acceptance property — a hot swap under full read/write/drift
/// traffic completes with zero failed lookups for keys that are present
/// throughout — follows: every present key is in the old fast table
/// (kept current by the container's dual-write protocol), the successor
/// table (seal copy), or the spill lane at every instant, and the probe
/// order above visits whichever lane it can be in.
///
/// Sealed shards can go one step further: sealStatic() snapshots the
/// present, in-format subset of a key list into a DirectIndexMap
/// (container/direct_index_map.h) over a synthesized minimal perfect
/// hash and serves those keys as values[mphf(key)] — one guarded
/// imaging pass, one image compare, no probing, no locks. Its hits
/// still count as admitted keys in the adaptive hash's drift windows,
/// so a sealed table's detector sees the whole stream. The lane is
/// sealed only
/// under a generation whose plan is invertible for its pattern, so an
/// admitted key's image identifies it and the compare is exact without
/// storing keys. The static lane is a pure cache in front of the
/// dynamic lanes: out-of-set keys fall through, puts of new keys simply
/// miss it, and put() never overwrites a present key, so the only
/// mutation that can make a sealed value stale is erase() of a sealed
/// key — which atomically invalidates the whole lane.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_SERVING_TABLE_H
#define SEPE_RUNTIME_SERVING_TABLE_H

#include "container/direct_index_map.h"
#include "container/sharded_index_map.h"
#include "mphf/mphf.h"
#include "runtime/adaptive_hash.h"
#include "support/telemetry.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sepe {

/// Concurrent key-value table served through an adaptive synthesized
/// hash. Any number of threads may call get/put/erase/getBatch
/// concurrently; maintain() may run concurrently with all of them (at
/// most one maintain() makes progress at a time). Destruction requires
/// external quiescence, like AdaptiveHash.
template <typename Value> class ServingTable {
public:
  struct Stats {
    size_t FastSize = 0;
    size_t SpillSize = 0;
    size_t StaticSize = 0;
    uint64_t FastEpoch = 0;
    uint64_t AdaptiveEpoch = 0;
    uint64_t Migrations = 0;
    uint64_t SweptKeys = 0;
    bool FastLane = false;
    bool StaticActive = false;
  };

  /// \p Pattern seeds the adaptive hash (empty cold-starts on the spill
  /// lane). The fast lane appears as soon as a generation's plan is
  /// invertible for its pattern (laneReady) — the soundness condition
  /// of an image-keyed map — which in practice means
  /// AdaptiveOptions::Family should be a bijective family
  /// (HashFamily::Pext) for the fast lane to engage.
  explicit ServingTable(KeyPattern Pattern, AdaptiveOptions Options = {},
                        size_t ShardCountHint = 16)
      : ShardHint(ShardCountHint), Adaptive(std::move(Pattern), Options) {
    maintain();
  }

  ServingTable(const ServingTable &) = delete;
  ServingTable &operator=(const ServingTable &) = delete;

  /// The adaptive hash driving lane routing; exposed so callers can
  /// pump re-synthesis deterministically and read drift statistics.
  AdaptiveHash &adaptive() { return Adaptive; }
  const AdaptiveHash &adaptive() const { return Adaptive; }

  bool hasFastLane() const { return fast() != nullptr; }

  /// True while a sealed static lane is serving.
  bool staticLaneActive() const { return staticLane() != nullptr; }

  /// Seals the *present* subset of \p Keys (distinct) that the current
  /// generation's pattern admits into a static lane probed before every
  /// dynamic lane: a DirectIndexMap whose MPHF images keys through the
  /// generation's own plan. Declines (returns 0) unless that plan is
  /// invertible for the pattern, which is what makes an image hit
  /// exact; keys the pattern rejects stay in the spill lane. Returns the
  /// number of keys sealed; 0 when none were present or MPHF
  /// construction failed (the table keeps serving from the dynamic
  /// lanes either way). Concurrent gets/puts are safe during the call;
  /// concurrent erases of the keys being sealed are not — seal
  /// quiescent shards.
  size_t sealStatic(const std::string_view *Keys, size_t N) {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    const AdaptiveHash::Snapshot Snap = Adaptive.snapshot();
    if (!laneReady(Snap))
      return 0;
    std::vector<std::string_view> SealedKeys;
    std::vector<Value> SealedValues;
    SealedKeys.reserve(N);
    SealedValues.reserve(N);
    for (size_t I = 0; I != N; ++I) {
      Value V;
      if (Snap.Pattern.matches(Keys[I]) && getDynamic(Keys[I], V)) {
        SealedKeys.push_back(Keys[I]);
        SealedValues.push_back(std::move(V));
      }
    }
    if (SealedKeys.empty())
      return 0;
    MphfBuildOptions Options;
    Options.Extract = std::make_shared<const HashPlan>(Snap.Fast.plan());
    Expected<Mphf> F = buildMphf(SealedKeys, Options);
    std::unique_ptr<const DirectIndexMap<Value>> Lane;
    if (F && !F->plan().RawBase)
      Lane = std::make_unique<const DirectIndexMap<Value>>(
          F.take(), Snap.Pattern, SealedKeys.data(), SealedValues.data(),
          SealedKeys.size());
    if (!Lane || !Lane->valid()) {
      SEPE_COUNT("serving_table.static.seal_failed");
      return 0;
    }
    const size_t Count = Lane->size();
    StaticPtr.store(Lane.get(), std::memory_order_release);
    StaticStorage.push_back(std::move(Lane));
    SEPE_EVENT("serving.static.seal", Count, 0);
    return Count;
  }

  size_t sealStatic(const std::vector<std::string_view> &Keys) {
    return sealStatic(Keys.data(), Keys.size());
  }

  /// Unpublishes the static lane; dynamic lanes keep serving every
  /// key. Retired lane storage is freed at destruction, not here, so
  /// in-flight readers stay safe.
  void dropStatic() {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    StaticPtr.store(nullptr, std::memory_order_release);
  }

  /// Copies the value for \p Key into \p Out; false when absent. A
  /// static-lane hit is never routed, but it still counts as an
  /// admitted key in the drift windows; every other key is routed once.
  bool get(std::string_view Key, Value &Out) const {
    if (const DirectIndexMap<Value> *S = staticLane()) {
      if (const Value *Hit = S->find(Key)) {
        SEPE_COUNT("serving_table.static.hit");
        Adaptive.observeAdmitted(1);
        Out = *Hit;
        return true;
      }
    }
    return getDynamic(Key, Out);
  }

  /// Inserts (key, value); returns false (keeping the old value) when
  /// already present.
  bool put(std::string_view Key, Value V) {
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    // A key route() rejected still goes to the fast lane, unhinted: the
    // verdict may come from a retired generation, and the lane re-judges
    // it against its own pattern, which keeps a re-put of an
    // already-swept key out of the spill lane. A key the lane rejects
    // spills until a widened generation's sweep picks it up.
    if (ShardedIndexMap<Value> *F = fast()) {
      bool Inserted = false;
      if (F->putRouted(Key, hintOf(R), V, Inserted))
        return Inserted;
    }
    return spillInsert(Key, std::move(V));
  }

  /// Removes \p Key; returns false when absent. Spill lane first: the
  /// sweep moves keys spill -> fast under the spill shard lock, so
  /// probing spill before fast guarantees one of the two sees the key
  /// wherever the move is.
  bool erase(std::string_view Key) {
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    const bool SpillErased = spillErase(Key);
    // The fast lane is asked even when route() rejected the key: the
    // verdict may predate a swap whose sweep moved it there.
    ShardedIndexMap<Value> *F = fast();
    const bool FastErased = F && F->eraseRouted(Key, hintOf(R));
    const bool Erased = FastErased || SpillErased;
    // put() never overwrites a present key, so erasing a sealed key is
    // the only way a static-lane value can go stale: drop the lane
    // before returning, so a get() ordered after this erase cannot be
    // served the sealed copy. Storage is retired, not freed.
    if (Erased) {
      if (const DirectIndexMap<Value> *S = staticLane(); S && S->find(Key)) {
        StaticPtr.store(nullptr, std::memory_order_release);
        SEPE_COUNT("serving_table.static.invalidated");
      }
    }
    return Erased;
  }

  /// Batch lookup: Found[I] = 1 and Out[I] = value when present.
  /// Returns the hit count. Admitted keys run the dense
  /// hash -> partition -> per-shard probe pipeline; guard misses and
  /// fast-lane misses fall through to the spill lane per key.
  size_t getBatch(const std::string_view *Keys, Value *Out, uint8_t *Found,
                  size_t N) const {
    // Sealed tables serve most traffic from the static lane: batch the
    // lookups through DirectIndexMap::findBatch and let only the
    // residue (out-of-set keys, unsealed inserts) take the dynamic
    // path per key. The static hits count in the drift windows with
    // one observation for the call.
    if (const DirectIndexMap<Value> *S = staticLane()) {
      const Value *Sealed[RouteBlock];
      size_t Hits = 0;
      size_t StaticHits = 0;
      for (size_t Base = 0; Base < N; Base += RouteBlock) {
        const size_t Count = std::min(RouteBlock, N - Base);
        StaticHits += S->findBatch(Keys + Base, Sealed, Count);
        for (size_t I = 0; I != Count; ++I) {
          const size_t K = Base + I;
          if (Sealed[I]) {
            Out[K] = *Sealed[I];
            Found[K] = 1;
            ++Hits;
          } else if (getDynamic(Keys[K], Out[K])) {
            Found[K] = 1;
            ++Hits;
          } else {
            Found[K] = 0;
          }
        }
      }
      SEPE_COUNT_N("serving_table.static.hit", StaticHits);
      Adaptive.observeAdmitted(StaticHits);
      return Hits;
    }
    size_t Hits = 0;
    uint64_t Hashes[RouteBlock];
    uint32_t MissIdx[RouteBlock];
    uint16_t AdmIdx[RouteBlock];
    std::string_view AdmKeys[RouteBlock];
    uint64_t AdmImages[RouteBlock];
    Value AdmOut[RouteBlock];
    uint8_t AdmFound[RouteBlock];
    for (size_t Base = 0; Base < N; Base += RouteBlock) {
      const size_t Count = std::min(RouteBlock, N - Base);
      // Sequence first, lane pointer second, per block, as getDynamic()
      // does: a lane created and swept before this block's sequence
      // read must be probed, since sweptSince() cannot show that sweep.
      const uint64_t Sweeps = SweepSeq.load(std::memory_order_acquire);
      const ShardedIndexMap<Value> *F = fast();
      uint64_t Epoch = 0;
      const size_t Misses =
          Adaptive.routeBatch(Keys + Base, Hashes, Count, MissIdx, Epoch);
      // The keys route admitted (MissIdx is increasing) probe the fast
      // lane as one routed batch, hinted with their images.
      size_t Admitted = 0;
      for (size_t I = 0, M = 0; I != Count; ++I) {
        Found[Base + I] = 0;
        if (M != Misses && MissIdx[M] == I) {
          ++M;
          continue;
        }
        AdmIdx[Admitted] = static_cast<uint16_t>(I);
        AdmKeys[Admitted] = Keys[Base + I];
        AdmImages[Admitted] = Hashes[I];
        ++Admitted;
      }
      if (F && Admitted != 0) {
        F->getBatchRouted(AdmKeys, AdmImages, Epoch, AdmOut, AdmFound,
                          Admitted);
        for (size_t I = 0; I != Admitted; ++I)
          if (AdmFound[I]) {
            Out[Base + AdmIdx[I]] = AdmOut[I];
            Found[Base + AdmIdx[I]] = 1;
          }
      }
      // Spill lane + sweep-race retry for everything still unresolved
      // (reload the lane pointer: see getDynamic() on why the retry must
      // not depend on the admission verdict or the lane snapshot, and
      // when it can be skipped).
      for (size_t I = 0; I != Count; ++I) {
        const size_t K = Base + I;
        if (Found[K] == 1) {
          ++Hits;
          continue;
        }
        if (spillFind(Keys[K], Out[K])) {
          Found[K] = 1;
          ++Hits;
          continue;
        }
        if (!sweptSince(Sweeps))
          continue;
        SEPE_COUNT("serving_table.get.retry");
        // Loaded after the spill miss so a lane created mid-call is
        // still seen.
        const ShardedIndexMap<Value> *F2 = fast();
        if (F2 && F2->getRouted(Keys[K], std::nullopt, Out[K])) {
          SEPE_COUNT("serving_table.get.retry_hit");
          Found[K] = 1;
          ++Hits;
        }
      }
    }
    return Hits;
  }

  /// Converges the storage onto the adaptive hash's current generation:
  /// creates the fast lane when a generation passes laneReady first,
  /// migrates it when the adaptive epoch moved to another such
  /// generation, then sweeps spill keys the lane's pattern admits into
  /// the fast lane. A lane left behind on an older generation keeps
  /// serving: it judges every key itself. Cheap when nothing changed;
  /// returns true when any work was done. Call after
  /// pumpResynthesis(), or periodically from a maintenance thread in
  /// background mode.
  bool maintain() {
    std::lock_guard<std::mutex> Lock(MaintainMutex);
    const AdaptiveHash::Snapshot Snap = Adaptive.snapshot();
    ShardedIndexMap<Value> *F = fast();
    bool DidWork = false;
    if ((!F || F->epoch() != Snap.Epoch) && laneReady(Snap)) {
      if (!F) {
        FastStorage = std::make_unique<ShardedIndexMap<Value>>(
            Snap.Fast, Snap.Pattern, Snap.Epoch, ShardHint);
        FastPtr.store(FastStorage.get(), std::memory_order_release);
        F = FastStorage.get();
        SEPE_EVENT("serving.lane.create", Snap.Epoch, 0);
      } else {
        F->migrate(Snap.Fast, Snap.Pattern, Snap.Epoch);
        SEPE_COUNT("serving_table.fast_lane.migrated");
      }
      DidWork = true;
    }
    if (F && SpillCount.load(std::memory_order_acquire) != 0)
      DidWork |= sweepSpill(*F) != 0;
    return DidWork;
  }

  Stats stats() const {
    const ShardedIndexMap<Value> *F = fast();
    Stats S;
    S.FastLane = F != nullptr;
    const DirectIndexMap<Value> *SL = staticLane();
    S.StaticActive = SL != nullptr;
    S.StaticSize = SL ? SL->size() : 0;
    S.FastSize = F ? F->size() : 0;
    S.SpillSize = SpillCount.load(std::memory_order_relaxed);
    S.FastEpoch = F ? F->epoch() : 0;
    S.AdaptiveEpoch = Adaptive.epoch();
    S.Migrations = F ? F->migrations() : 0;
    S.SweptKeys = Swept.load(std::memory_order_relaxed);
    return S;
  }

  /// Total elements across both lanes (moment-in-time per shard).
  size_t size() const {
    const ShardedIndexMap<Value> *F = fast();
    return (F ? F->size() : 0) + SpillCount.load(std::memory_order_relaxed);
  }

  /// The fast lane's per-shard lock-contention export
  /// (ShardedIndexMap::contentionJson), or "null" when the fast lane
  /// has not been created yet — sepeserve embeds it in its report so
  /// serving throughput can be read against lock pressure.
  std::string fastLaneContentionJson() const {
    const ShardedIndexMap<Value> *F = fast();
    return F ? F->contentionJson() : std::string("null");
  }

private:
  /// Keys per routeBatch block in the batch entry points; bounds the
  /// stack scratch.
  static constexpr size_t RouteBlock = 256;

  static constexpr size_t SpillShardCount = 16; // Power of two.

  struct TransparentHash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const {
      return std::hash<std::string_view>{}(S);
    }
  };

  /// One spill shard: plain string-keyed storage for out-of-format
  /// keys. Write-heavy only under drift, so a mutex-per-shard map is
  /// plenty.
  struct alignas(64) SpillShard {
    mutable std::shared_mutex Mutex;
    std::unordered_map<std::string, Value, TransparentHash, std::equal_to<>>
        Map;
  };

  const DirectIndexMap<Value> *staticLane() const {
    return StaticPtr.load(std::memory_order_acquire);
  }

  /// The fast lane's gate: a generation whose plan is invertible for
  /// its pattern, which ShardedIndexMap requires of every table and
  /// which makes a static-lane image hit exact.
  static bool laneReady(const AdaptiveHash::Snapshot &Snap) {
    return Snap.Fast.valid() && invertible(Snap.Fast.plan(), Snap.Pattern);
  }

  /// route()'s image as a fast-lane hint, or none when its guard
  /// rejected the key.
  static std::optional<typename ShardedIndexMap<Value>::Hint>
  hintOf(const AdaptiveHash::Routed &R) {
    if (!R.Admitted)
      return std::nullopt;
    return typename ShardedIndexMap<Value>::Hint{R.Hash, R.Epoch};
  }

  /// The dynamic-lane probe path (fast -> spill -> unhinted retry);
  /// get() puts the static lane in front of this.
  bool getDynamic(std::string_view Key, Value &Out) const {
    const uint64_t Sweeps = SweepSeq.load(std::memory_order_acquire);
    const AdaptiveHash::Routed R = Adaptive.route(Key);
    const ShardedIndexMap<Value> *F = fast();
    if (F && R.Admitted && F->getRouted(Key, hintOf(R), Out))
      return true;
    if (spillFind(Key, Out))
      return true;
    // A concurrent spill->fast sweep may have moved the key after our
    // fast probe and before our spill probe; one unhinted retry closes
    // the window (moves only ever go in that direction), and is skipped
    // when no sweep ran in it (sweptSince). The retry must NOT be gated
    // on R.Admitted: admission was judged by the (possibly retired)
    // generation route() saw, while the sweep moves exactly the keys
    // the lane's own generation admits, and the lane re-judges an
    // unhinted key against that pattern. Reload the lane pointer too,
    // for the cold-start case where maintain() created it mid-call.
    if (!sweptSince(Sweeps))
      return false;
    SEPE_COUNT("serving_table.get.retry");
    if (const ShardedIndexMap<Value> *F2 = fast();
        F2 && F2->getRouted(Key, std::nullopt, Out)) {
      SEPE_COUNT("serving_table.get.retry_hit");
      return true;
    }
    return false;
  }

  /// True when a sweep can have moved a key spill -> fast since
  /// SweepSeq read \p Seq: the sequence was odd (a sweep was moving
  /// keys) or has changed. Sound for a caller that read \p Seq before
  /// it loaded the lane pointer for its fast probe, and calls this
  /// after its spill miss: the miss synchronizes with the erase that
  /// took the key out of the spill lane (through the spill shard lock,
  /// or the SpillCount that erase released), and the sweep made the
  /// sequence odd before that erase.
  bool sweptSince(uint64_t Seq) const {
    return (Seq & 1) != 0 || SweepSeq.load(std::memory_order_acquire) != Seq;
  }

  const ShardedIndexMap<Value> *fast() const {
    return FastPtr.load(std::memory_order_acquire);
  }
  ShardedIndexMap<Value> *fast() {
    return FastPtr.load(std::memory_order_acquire);
  }

  SpillShard &spillShard(std::string_view Key) const {
    return Spill[TransparentHash{}(Key) & (SpillShardCount - 1)];
  }

  bool spillFind(std::string_view Key, Value &Out) const {
    if (SpillCount.load(std::memory_order_acquire) == 0)
      return false;
    const SpillShard &S = spillShard(Key);
    std::shared_lock<std::shared_mutex> Lock(S.Mutex);
    const auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return false;
    SEPE_COUNT("serving_table.spill.hit");
    Out = It->second;
    return true;
  }

  bool spillInsert(std::string_view Key, Value V) {
    SpillShard &S = spillShard(Key);
    std::unique_lock<std::shared_mutex> Lock(S.Mutex);
    const bool Inserted =
        S.Map.emplace(std::string(Key), std::move(V)).second;
    if (Inserted) {
      SpillCount.fetch_add(1, std::memory_order_release);
      SEPE_COUNT("serving_table.spill.inserted");
    }
    return Inserted;
  }

  bool spillErase(std::string_view Key) {
    if (SpillCount.load(std::memory_order_acquire) == 0)
      return false;
    SpillShard &S = spillShard(Key);
    std::unique_lock<std::shared_mutex> Lock(S.Mutex);
    const auto It = S.Map.find(Key);
    if (It == S.Map.end())
      return false;
    S.Map.erase(It);
    SpillCount.fetch_sub(1, std::memory_order_release);
    return true;
  }

  /// Moves every spill key the fast lane's active pattern admits into
  /// the fast lane: insert into fast first, erase from spill second,
  /// both under the spill shard's write lock (lock order spill -> fast,
  /// never reversed anywhere). Returns the number of keys moved.
  size_t sweepSpill(ShardedIndexMap<Value> &F) {
    SEPE_SPAN("serving.spill.sweep", Sweep, F.epoch());
    // Odd from before the first move to after the last (sweptSince);
    // MaintainMutex keeps sweeps from overlapping.
    SweepSeq.fetch_add(1, std::memory_order_release);
    size_t Moved = 0;
    for (SpillShard &S : Spill) {
      std::unique_lock<std::shared_mutex> Lock(S.Mutex);
      for (auto It = S.Map.begin(); It != S.Map.end();) {
        bool Inserted = false;
        if (F.putRouted(It->first, std::nullopt, It->second, Inserted)) {
          It = S.Map.erase(It);
          SpillCount.fetch_sub(1, std::memory_order_release);
          ++Moved;
        } else {
          ++It;
        }
      }
    }
    SweepSeq.fetch_add(1, std::memory_order_release);
    if (Moved != 0) {
      Swept.fetch_add(Moved, std::memory_order_relaxed);
      SEPE_COUNT_N("serving_table.sweep.moved", Moved);
    }
    Sweep.setArg(Moved);
    return Moved;
  }

  size_t ShardHint;
  AdaptiveHash Adaptive;

  /// Created at most once (construction or first bijective generation),
  /// then mutated in place by migrations; readers take one acquire
  /// load. Null until a bijective plan exists (cold start).
  std::atomic<ShardedIndexMap<Value> *> FastPtr{nullptr};
  std::unique_ptr<ShardedIndexMap<Value>> FastStorage;

  /// Published static lane, or null. Replaced wholesale by
  /// sealStatic() and nulled by erase() of a sealed key; retired lanes
  /// stay in StaticStorage (guarded by MaintainMutex) until
  /// destruction so a concurrent reader never touches a freed lane —
  /// the same retire-until-destruction discipline the JIT rung uses
  /// for old code buffers.
  std::atomic<const DirectIndexMap<Value> *> StaticPtr{nullptr};
  std::vector<std::unique_ptr<const DirectIndexMap<Value>>> StaticStorage;

  mutable std::array<SpillShard, SpillShardCount> Spill{};
  std::atomic<size_t> SpillCount{0};
  /// Odd while sweepSpill() may be moving keys; bumped before its first
  /// move and after its last.
  std::atomic<uint64_t> SweepSeq{0};
  std::atomic<uint64_t> Swept{0};
  std::mutex MaintainMutex;
};

} // namespace sepe

#endif // SEPE_RUNTIME_SERVING_TABLE_H
