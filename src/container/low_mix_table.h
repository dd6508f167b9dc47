//===- container/low_mix_table.h - Low-mixing hash table --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A chained hash table whose bucket index is computed as
/// ((hash >> DiscardBits) % BucketCount) — the "low-mixing container" of
/// RQ7, which indexes buckets by the most significant bits of the hash
/// value and therefore punishes hash functions whose entropy lives in
/// the low bits. DiscardBits = 0 recovers the ordinary modulo policy of
/// libstdc++'s unordered containers.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_LOW_MIX_TABLE_H
#define SEPE_CONTAINER_LOW_MIX_TABLE_H

#include "support/telemetry.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace sepe {

/// Chained hash set with a configurable bucket-indexing policy.
template <typename Key, typename Hasher> class LowMixTable {
public:
  /// \p DiscardBits low bits of every hash are dropped before the
  /// bucket modulo; must be < 64.
  explicit LowMixTable(Hasher Hash, unsigned DiscardBits = 0,
                       size_t InitialBuckets = 16)
      : Hash(std::move(Hash)), DiscardBits(DiscardBits),
        Buckets(std::max<size_t>(InitialBuckets, 1)) {
    assert(DiscardBits < 64 && "cannot discard the whole hash");
  }

  /// Inserts \p K; returns false when already present.
  bool insert(const Key &K) { return insertHashed(K, hashOf(K)); }

  /// Inserts \p K given its precomputed hash \p H (== Hasher(K)); entry
  /// point for callers that batch-hash keys up front (support/batch.h)
  /// and must not pay a second per-key hash here.
  bool insertHashed(const Key &K, uint64_t H) {
    if (Elements + 1 > Buckets.size())
      rehash(Buckets.size() * 2);
    std::vector<Key> &Bucket = Buckets[indexForHash(H)];
    SEPE_RECORD("low_mix_table.chain_len.insert", Bucket.size());
    if (std::find(Bucket.begin(), Bucket.end(), K) != Bucket.end())
      return false;
    Bucket.push_back(K);
    ++Elements;
    return true;
  }

  bool contains(const Key &K) const {
    return containsHashed(K, hashOf(K));
  }

  /// Membership given the precomputed hash \p H (== Hasher(K)).
  bool containsHashed(const Key &K, uint64_t H) const {
    const std::vector<Key> &Bucket = Buckets[indexForHash(H)];
    SEPE_RECORD("low_mix_table.chain_len.lookup", Bucket.size());
    return std::find(Bucket.begin(), Bucket.end(), K) != Bucket.end();
  }

  /// Removes \p K; returns false when absent.
  bool erase(const Key &K) { return eraseHashed(K, hashOf(K)); }

  /// Removal given the precomputed hash \p H (== Hasher(K)).
  bool eraseHashed(const Key &K, uint64_t H) {
    std::vector<Key> &Bucket = Buckets[indexForHash(H)];
    auto It = std::find(Bucket.begin(), Bucket.end(), K);
    if (It == Bucket.end())
      return false;
    Bucket.erase(It);
    --Elements;
    return true;
  }

  size_t size() const { return Elements; }
  bool empty() const { return Elements == 0; }
  size_t bucketCount() const { return Buckets.size(); }
  unsigned discardBits() const { return DiscardBits; }

  /// Total bucket collisions: sum over buckets of max(0, size - 1) —
  /// the "BC" metric of Figures 17/18.
  size_t bucketCollisions() const {
    size_t Collisions = 0;
    for (const std::vector<Key> &Bucket : Buckets)
      if (Bucket.size() > 1)
        Collisions += Bucket.size() - 1;
    return Collisions;
  }

  /// Longest chain; the worst-case probe length.
  size_t maxBucketSize() const {
    size_t Max = 0;
    for (const std::vector<Key> &Bucket : Buckets)
      Max = std::max(Max, Bucket.size());
    return Max;
  }

  /// Number of non-empty buckets.
  size_t occupiedBuckets() const {
    size_t Occupied = 0;
    for (const std::vector<Key> &Bucket : Buckets)
      if (!Bucket.empty())
        ++Occupied;
    return Occupied;
  }

  void rehash(size_t NewBucketCount) {
    SEPE_COUNT("low_mix_table.rehash");
    NewBucketCount = std::max<size_t>(NewBucketCount, 1);
    std::vector<std::vector<Key>> Old = std::move(Buckets);
    Buckets.assign(NewBucketCount, {});
    for (std::vector<Key> &Bucket : Old)
      for (Key &K : Bucket)
        bucketFor(K).push_back(std::move(K));
  }

private:
  uint64_t hashOf(const Key &K) const {
    return static_cast<uint64_t>(Hash(K));
  }
  size_t indexForHash(uint64_t H) const {
    return static_cast<size_t>((H >> DiscardBits) % Buckets.size());
  }
  std::vector<Key> &bucketFor(const Key &K) {
    return Buckets[indexForHash(hashOf(K))];
  }
  const std::vector<Key> &bucketFor(const Key &K) const {
    return Buckets[indexForHash(hashOf(K))];
  }

  Hasher Hash;
  unsigned DiscardBits;
  std::vector<std::vector<Key>> Buckets;
  size_t Elements = 0;
};

} // namespace sepe

#endif // SEPE_CONTAINER_LOW_MIX_TABLE_H
