//===- mphf/mphf.h - Synthesized minimal perfect hashing --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static-set tier: when the key *set* (not just the format) is
/// fixed, go past collision-free to *minimal perfect* — a bijection
/// onto [0, n) that turns a hash-table probe into one direct array
/// load. The construction is RecSplit-style (Esposito/Genuzio/Vigna;
/// PAPERS.md): bucket, then recursively brute-force pilots that split
/// each bucket in half until leaves are small enough to brute-force a
/// bijection directly. Pilots are stored in a fixed-width PackedArray,
/// bucket offsets in Elias-Fano; the same structure serves one key or
/// millions at a few bits per key.
///
/// It operates on a 64-bit *base image* of the key, which is the
/// point of composing with the paper's synthesizer: when the key set
/// conforms to a format whose Pext extraction is available, the base
/// image is the pext-compacted relevant bits (xor a seed mix; every
/// downstream hash applies its own finalizer), so the pilot search
/// distinguishes exactly the bits that vary instead of raw key bytes.
/// Sets without a usable extraction plan fall back to a seeded
/// raw-byte mix.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_MPHF_MPHF_H
#define SEPE_MPHF_MPHF_H

#include "core/executor.h"
#include "core/plan.h"
#include "mphf/packed.h"
#include "support/bit_ops.h"
#include "support/expected.h"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

class FormatSpec;

/// splitmix64's finalizer: a bijection on 64-bit words, so applying it
/// to distinct base images preserves distinctness while uniformizing
/// the bits the pilot searches consume.
inline uint64_t mphfMix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xBF58476D1CE4E5B9ull;
  X ^= X >> 27;
  X *= 0x94D049BB133111EBull;
  X ^= X >> 31;
  return X;
}

/// Lemire's fastrange: maps a full-width word onto [0, N) without a
/// modulo.
inline uint64_t mphfFastRange(uint64_t X, uint64_t N) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(X) * N) >> 64);
}

/// Bucket-selection hash; its salt is decorrelated from the slot hash
/// and from every multiplier the containers use (flat_index_map.h), so
/// bucketing never aligns with probe sequences. A single multiply-fold
/// (not a full mix64): it sits on every lookup's serial chain, and the
/// builder's bijection verification catches any set a weaker mix would
/// mishandle (the reseed loop then fixes it).
inline uint64_t mphfBucketHash(uint64_t Base) {
  return mulFold(Base ^ 0x8CB92BA72F3D8DD7ull, 0x2545F4914F6CDD1Dull);
}

/// Pilot-parameterized slot hash: the pilot multiply decorrelates
/// consecutive pilots (and is off the base image's dependency chain —
/// pilots come from the plan, not the key), then one multiply-fold
/// spreads the combination. Effectively independent slot assignments
/// per pilot are what the brute-force search relies on; the per-leaf
/// pilot distributions stay close enough to uniform that search costs
/// match the full-finalizer variant empirically.
inline uint64_t mphfSlotHash(uint64_t Base, uint64_t Pilot) {
  return mulFold(Base ^ ((Pilot + 1) * 0xA24BAED4963EE407ull),
                 0x9FB21C651E98DF25ull);
}

/// Seeded raw-byte mix for key sets without a usable extraction plan
/// (or whose extraction images collide): word-at-a-time multiply-fold
/// over the key bytes. Distinct keys give distinct images with
/// overwhelming probability; the builder verifies and reseeds.
inline uint64_t mphfRawMix(std::string_view Key, uint64_t Seed) {
  uint64_t H = Seed ^ (Key.size() * 0x9E3779B97F4A7C15ull);
  size_t I = 0;
  for (; I + 8 <= Key.size(); I += 8)
    H = mulFold(loadU64Le(Key.data() + I) ^ H, 0x2B7E151628AED2A5ull);
  if (I != Key.size())
    H = mulFold(loadBytesLe(Key.data() + I, Key.size() - I) ^ H,
                0xD6E8FEB86659FD93ull);
  return H;
}

/// Largest key set buildMphf accepts (bucket offsets are 32-bit).
constexpr uint64_t MphfMaxKeys = uint64_t{1} << 32;

/// Inputs to buildMphf besides the keys. The construction's shape
/// (bucket size, leaf size, search bounds) is fixed in mphf.cpp.
struct MphfBuildOptions {
  /// Extraction front-end: hash keys through this plan to get base
  /// images (ideally a bijective Pext plan). When null and Format is
  /// set, a Pext plan is synthesized from the format.
  std::shared_ptr<const HashPlan> Extract;

  /// The key format, when known; used to synthesize Extract.
  const FormatSpec *Format = nullptr;

  uint64_t Seed = 0x5e7a5e7;
};

/// A built minimal perfect hash function in storable form.
struct MphfPlan {
  uint64_t N = 0;
  uint64_t Seed = 0;

  /// True when base images come from mphfRawMix over the key bytes;
  /// false when Extract is the front-end.
  bool RawBase = true;
  std::shared_ptr<const HashPlan> Extract;

  /// Bucket count of mphfBucketHash (a power of two).
  uint32_t NumBuckets = 0;

  /// Leaf threshold the trees were built with, pilots in DFS preorder
  /// (concatenated across buckets, one global bit width), and the two
  /// monotone offset sequences (NumBuckets + 1 entries each):
  /// cumulative key counts and cumulative pilot counts per bucket.
  uint32_t LeafMax = 8;
  PackedArray Pilots;
  EliasFano Offsets;
  EliasFano PilotStarts;

  /// Storage footprint of the MPHF itself (pilot/offset structures,
  /// not the extraction plan or the evaluator caches).
  size_t bytesUsed() const;
  double bitsPerKey() const {
    return N == 0 ? 0.0 : 8.0 * static_cast<double>(bytesUsed()) /
                              static_cast<double>(N);
  }
};

/// The evaluator: maps each construction key to a distinct index in
/// [0, n). Copyable and cheap to copy (shared plan). Out-of-set keys
/// still produce an in-range index — membership is the caller's
/// problem (DirectIndexMap stores each slot's base image and compares
/// it).
class Mphf {
public:
  Mphf() = default;

  /// Wraps \p Plan. Decodes the Elias-Fano offset sequences into a
  /// flat per-bucket table (offset, size, pilot start, and the
  /// pre-decoded root pilot in one 16-byte entry) and precomputes the
  /// split-tree node-count memo: the plan stays succinct for storage,
  /// the evaluator trades 16 bytes per bucket of working memory for
  /// select-free, mostly single-metadata-load lookups.
  explicit Mphf(std::shared_ptr<const MphfPlan> Plan);

  bool valid() const { return Plan != nullptr; }
  uint64_t size() const { return Plan ? Plan->N : 0; }

  const MphfPlan &plan() const {
    assert(Plan && "no MPHF plan attached");
    return *Plan;
  }
  std::shared_ptr<const MphfPlan> planPtr() const { return Plan; }

  /// The 64-bit base image the pilot structures consume. Deliberately
  /// *unmixed*: both consumers (mphfBucketHash, mphfSlotHash) apply
  /// their own finalizer to it, so a finalizer here would only lengthen the
  /// lookup's serial dependency chain. The seed xor is a bijection, so
  /// distinct raw images stay distinct under every seed.
  uint64_t baseImage(std::string_view Key) const {
    return (Plan->RawBase ? mphfRawMix(Key, Plan->Seed) : Base(Key)) ^
           SeedMix;
  }

  /// baseImage(Key), given \p Extracted = extraction()(Key) (ignored
  /// for a raw-byte base): a caller that already holds the extraction
  /// image — DirectIndexMap's guarded kernel — does not image the key
  /// again.
  uint64_t baseImage(std::string_view Key, uint64_t Extracted) const {
    return (Plan->RawBase ? mphfRawMix(Key, Plan->Seed) : Extracted) ^
           SeedMix;
  }

  /// The extraction hash baseImage() runs a key through; invalid for a
  /// raw-byte base.
  const SynthesizedHash &extraction() const { return Base; }

  /// Base images for \p N keys; uses the extraction plan's fused batch
  /// kernels when the plan has one.
  void baseBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const;

  /// The MPHF index of a base image. Inline because it sits on the
  /// lookup critical path of DirectIndexMap: the per-key chains are
  /// independent, so batch loops overlap them only when the body is
  /// visible to the compiler.
  uint64_t slotFromBase(uint64_t BaseImage) const {
    const MphfPlan &P = *Plan;
    const BucketRef &BR = BucketCache[bucketOf(mphfBucketHash(BaseImage))];
    uint32_t Off = BR.Off;
    uint32_t M = BR.Size;
    // Out-of-set keys can land in an empty bucket; keep them in range.
    if (M == 0)
      return Off == P.N ? 0 : Off;
    uint64_t Pilot = BR.RootPilot;
    // Common case at the builder's bucket size: the bucket IS a leaf, and
    // the cached root pilot means the lookup touched exactly one
    // 16-byte bucket entry — no packed-pilot-array load at all.
    if (M > P.LeafMax) {
      uint32_t Pi = BR.PilotStart;
      do {
        const uint32_t M1 = M >> 1;
        if (mphfFastRange(mphfSlotHash(BaseImage, Pilot), M) < M1) {
          ++Pi;
          M = M1;
        } else {
          Pi += 1 + NodeCount[M1];
          Off += M1;
          M -= M1;
        }
        Pilot = P.Pilots.get(Pi);
      } while (M > P.LeafMax);
    }
    return Off + mphfFastRange(mphfSlotHash(BaseImage, Pilot), M);
  }

  /// Pulls the bucket metadata line for \p BaseImage into cache. Batch
  /// loops call this for a whole block before the slotFromBase pass so
  /// the per-key metadata misses overlap instead of serializing; the
  /// redundant bucket-hash recompute is two multiplies, far cheaper
  /// than the miss it hides once the table outgrows L2.
  void prefetchSlot(uint64_t BaseImage) const {
    prefetchRead(&BucketCache[bucketOf(mphfBucketHash(BaseImage))]);
  }

  uint64_t operator()(std::string_view Key) const {
    return slotFromBase(baseImage(Key));
  }

  /// Out[i] = (*this)(Keys[i]).
  void evalBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const;

private:
  /// Bucket index of a bucket-hash word. The bucket count is a power
  /// of two 2^k, so fastRange degenerates to a plain shift
  /// (fastRange(X, 2^k) == X >> (64 - k)). A single bucket would need
  /// a shift by 64, which is undefined; BucketShift is 0 there and
  /// every key lands in bucket 0.
  uint64_t bucketOf(uint64_t BucketHash) const {
    return BucketShift != 0 ? BucketHash >> BucketShift : 0;
  }

  std::shared_ptr<const MphfPlan> Plan;
  SynthesizedHash Base; ///< Valid only when !Plan->RawBase.
  uint64_t SeedMix = 0;
  unsigned BucketShift = 0;

  /// Decoded from the plan at attach time: everything a lookup needs
  /// about its bucket in one 16-byte (quarter-cache-line) entry, root
  /// pilot included, so the common leaf-direct lookup touches a single
  /// random line of metadata.
  struct BucketRef {
    uint32_t Off;        ///< First slot of the bucket.
    uint32_t Size;       ///< Keys in the bucket.
    uint32_t PilotStart; ///< Index of the root pilot in Plan->Pilots.
    uint32_t RootPilot;  ///< Pilots.get(PilotStart), pre-decoded.
  };
  std::vector<BucketRef> BucketCache;
  /// NodeCount[m]: pilots in the deterministic subtree over m keys.
  std::vector<uint32_t> NodeCount;
};

/// Builds a minimal perfect hash over \p Keys (distinct; duplicates
/// are reported as an error after reseeds exhaust). Verifies the
/// bijection over every key before returning.
Expected<Mphf> buildMphf(const std::vector<std::string> &Keys,
                         const MphfBuildOptions &Options = {});

/// Convenience: string_view keys (e.g. straight from a fixture pool).
Expected<Mphf> buildMphf(const std::vector<std::string_view> &Keys,
                         const MphfBuildOptions &Options = {});

} // namespace sepe

#endif // SEPE_MPHF_MPHF_H
