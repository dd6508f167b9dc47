//===- mphf/mphf.cpp - MPHF construction and evaluation ------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Build strategy: compute one 64-bit base image per key (extraction
// plan + bijective finalizer when available, seeded raw mix otherwise),
// then bucket the images and build one splitting tree per bucket. The
// tree builder is a search over pilot values scored against the images
// only — keys are never touched again after imaging, which is what
// keeps million-key builds fast. Any search overrun or (astronomically
// unlikely) image collision restarts the whole build under the next
// seed; restarts that never converge mean the input contains duplicate
// keys, which is detected exactly and reported as such.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf.h"

#include "core/format_spec.h"
#include "core/synthesizer.h"

#include <algorithm>
#include <bit>
#include <numeric>

using namespace sepe;

size_t MphfPlan::bytesUsed() const {
  return Pilots.bytesUsed() + Offsets.bytesUsed() + PilotStarts.bytesUsed();
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

Mphf::Mphf(std::shared_ptr<const MphfPlan> PlanIn)
    : Plan(std::move(PlanIn)) {
  assert(Plan && "attaching a null MPHF plan");
  SeedMix = mphfMix64(Plan->Seed);
  if (!Plan->RawBase) {
    assert(Plan->Extract && "extraction-based plan without a HashPlan");
    Base = SynthesizedHash(Plan->Extract);
  }
  assert(std::has_single_bit(Plan->NumBuckets) &&
         "bucket count must be a power of two");
  if (Plan->NumBuckets > 1)
    BucketShift =
        64 - static_cast<unsigned>(std::countr_zero(Plan->NumBuckets));
  const std::vector<uint64_t> Offs = Plan->Offsets.decode();
  const std::vector<uint64_t> Starts = Plan->PilotStarts.decode();
  assert(Offs.size() == size_t{Plan->NumBuckets} + 1 &&
         "one key offset per bucket plus the end");
  BucketCache.resize(Plan->NumBuckets);
  uint32_t MaxBucket = 0;
  for (size_t I = 0; I != BucketCache.size(); ++I) {
    BucketRef &BR = BucketCache[I];
    BR.Off = static_cast<uint32_t>(Offs[I]);
    BR.Size = static_cast<uint32_t>(Offs[I + 1] - Offs[I]);
    BR.PilotStart = static_cast<uint32_t>(Starts[I]);
    BR.RootPilot =
        BR.Size == 0 ? 0
                     : static_cast<uint32_t>(Plan->Pilots.get(BR.PilotStart));
    MaxBucket = std::max(MaxBucket, BR.Size);
  }
  NodeCount.assign(MaxBucket + 1, 1);
  NodeCount[0] = 0;
  for (uint32_t M = Plan->LeafMax + 1; M <= MaxBucket; ++M)
    NodeCount[M] = 1 + NodeCount[M / 2] + NodeCount[M - M / 2];
}

void Mphf::baseBatch(const std::string_view *Keys, uint64_t *Out,
                     size_t N) const {
  assert(Plan && "evaluating an empty Mphf");
  if (Plan->RawBase) {
    for (size_t I = 0; I != N; ++I)
      Out[I] = mphfRawMix(Keys[I], Plan->Seed) ^ SeedMix;
    return;
  }
  Base.hashBatch(Keys, Out, N);
  for (size_t I = 0; I != N; ++I)
    Out[I] ^= SeedMix;
}

void Mphf::evalBatch(const std::string_view *Keys, uint64_t *Out,
                     size_t N) const {
  baseBatch(Keys, Out, N);
  for (size_t I = 0; I != N; ++I)
    Out[I] = slotFromBase(Out[I]);
}

//===----------------------------------------------------------------------===//
// Builder
//===----------------------------------------------------------------------===//

namespace {

/// The construction's shape. Leaves brute-force a bijection at
/// <= LeafMax keys; buckets average AvgBucket keys. Keeping the average
/// bucket well below LeafMax makes virtually every lookup leaf-direct
/// (bucket hash -> one cached pilot -> slot, no tree descent): at
/// Poisson(4) only ~0.06% of keys sit in buckets past 12, so the
/// descent branch is effectively never taken and never mispredicted.
constexpr uint32_t LeafMax = 12;
constexpr uint64_t AvgBucket = 4;

/// Per-node pilot search bound; overrunning it restarts the whole
/// build under the next seed.
constexpr uint64_t PilotLimit = uint64_t{1} << 20;

/// Whole-build reseeds before giving up. Exhausting these means the
/// input almost certainly contains duplicate keys.
constexpr unsigned MaxRestarts = 16;

/// Sorted-adjacent duplicate scan over \p Images. Returns true when two
/// images collide; DuplicateKeys is set when the colliding *keys* are
/// byte-identical (a user error no reseed can fix).
bool imagesCollide(const std::vector<uint64_t> &Images,
                   const std::string_view *Keys, bool &DuplicateKeys) {
  DuplicateKeys = false;
  std::vector<uint32_t> Order(Images.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Images[A] < Images[B];
  });
  bool Collides = false;
  for (size_t I = 0; I + 1 < Order.size(); ++I) {
    if (Images[Order[I]] != Images[Order[I + 1]])
      continue;
    Collides = true;
    if (Keys[Order[I]] == Keys[Order[I + 1]]) {
      DuplicateKeys = true;
      return true;
    }
  }
  return Collides;
}

/// One recursive splitting tree over the bases of one bucket. Pilots
/// append in DFS preorder; bases are reordered in place so each child
/// works on a contiguous range.
bool buildSplitNode(std::vector<uint64_t> &Bases, size_t Begin, size_t End,
                    std::vector<uint64_t> &Pilots) {
  const uint32_t M = static_cast<uint32_t>(End - Begin);
  if (M == 0)
    return true;
  if (M <= LeafMax) {
    // Leaf: brute-force a pilot whose slot assignment is a bijection.
    for (uint64_t Pilot = 0; Pilot != PilotLimit; ++Pilot) {
      uint64_t Taken = 0;
      bool Ok = true;
      for (size_t I = Begin; I != End; ++I) {
        const uint64_t Slot = mphfFastRange(mphfSlotHash(Bases[I], Pilot), M);
        if ((Taken >> Slot) & 1) {
          Ok = false;
          break;
        }
        Taken |= uint64_t{1} << Slot;
      }
      if (Ok) {
        Pilots.push_back(Pilot);
        return true;
      }
    }
    return false;
  }
  // Interior node: find a pilot sending exactly floor(M/2) keys into
  // the low half of [0, M), then recurse on the two halves.
  const uint32_t M1 = M >> 1;
  uint64_t Found = ~uint64_t{0};
  for (uint64_t Pilot = 0; Pilot != PilotLimit; ++Pilot) {
    uint32_t Low = 0;
    for (size_t I = Begin; I != End; ++I)
      if (mphfFastRange(mphfSlotHash(Bases[I], Pilot), M) < M1)
        ++Low;
    if (Low == M1) {
      Found = Pilot;
      break;
    }
  }
  if (Found == ~uint64_t{0})
    return false;
  Pilots.push_back(Found);
  std::stable_partition(Bases.begin() + Begin, Bases.begin() + End,
                        [&](uint64_t Base) {
                          return mphfFastRange(mphfSlotHash(Base, Found),
                                               M) < M1;
                        });
  return buildSplitNode(Bases, Begin, Begin + M1, Pilots) &&
         buildSplitNode(Bases, Begin + M1, End, Pilots);
}

/// Buckets the bases, then builds one splitting tree per bucket.
bool buildSplit(const std::vector<uint64_t> &Bases, MphfPlan &Plan) {
  const uint64_t N = Bases.size();
  // Rounding the bucket count UP to a power of two lets the evaluator
  // turn bucket selection into a shift (see Mphf::bucketOf) and only
  // ever shrinks the average bucket, i.e. fewer interior splits.
  const uint32_t B = static_cast<uint32_t>(
      std::bit_ceil(std::max<uint64_t>(1, (N + AvgBucket - 1) / AvgBucket)));
  std::vector<std::vector<uint64_t>> Members(B);
  for (uint64_t Base : Bases)
    Members[mphfFastRange(mphfBucketHash(Base), B)].push_back(Base);

  std::vector<uint64_t> Pilots;
  std::vector<uint64_t> Offsets(B + 1, 0);
  std::vector<uint64_t> PilotStarts(B + 1, 0);
  Pilots.reserve(N / 4);
  for (uint32_t Bucket = 0; Bucket != B; ++Bucket) {
    Offsets[Bucket + 1] = Offsets[Bucket] + Members[Bucket].size();
    PilotStarts[Bucket] = Pilots.size();
    if (!buildSplitNode(Members[Bucket], 0, Members[Bucket].size(), Pilots))
      return false;
  }
  PilotStarts[B] = Pilots.size();

  Plan.NumBuckets = B;
  Plan.LeafMax = LeafMax;
  Plan.Pilots = PackedArray::pack(Pilots);
  Plan.Offsets = EliasFano::encode(Offsets);
  Plan.PilotStarts = EliasFano::encode(PilotStarts);
  return true;
}

/// Full-set bijectivity check: every key maps to a distinct index in
/// [0, n). The builder never returns an unverified function.
bool verifyBijection(const Mphf &F, const std::string_view *Keys,
                     size_t N) {
  std::vector<uint64_t> Seen((N + 63) / 64, 0);
  std::vector<uint64_t> Slots(std::min<size_t>(N, 4096));
  for (size_t At = 0; At < N;) {
    const size_t Chunk = std::min(Slots.size(), N - At);
    F.evalBatch(Keys + At, Slots.data(), Chunk);
    for (size_t I = 0; I != Chunk; ++I) {
      const uint64_t Slot = Slots[I];
      if (Slot >= N || ((Seen[Slot / 64] >> (Slot % 64)) & 1))
        return false;
      Seen[Slot / 64] |= uint64_t{1} << (Slot % 64);
    }
    At += Chunk;
  }
  return true;
}

Expected<Mphf> buildMphfImpl(const std::string_view *Keys, size_t N,
                             const MphfBuildOptions &Options) {
  if (N == 0)
    return Error{"cannot build an MPHF over an empty key set",
                 std::string::npos};
  if (N > MphfMaxKeys)
    return Error{"key set too large for the static-set tier",
                 std::string::npos};

  // Resolve the extraction front-end: an explicit plan wins, else
  // synthesize Pext from the format, else raw-byte imaging.
  std::shared_ptr<const HashPlan> Extract = Options.Extract;
  if (!Extract && Options.Format != nullptr && !Options.Format->empty()) {
    Expected<HashPlan> Synth =
        synthesize(Options.Format->abstract(), HashFamily::Pext);
    if (Synth && !Synth->FallbackToStl)
      Extract = std::make_shared<const HashPlan>(Synth.take());
  }

  bool RawBase = Extract == nullptr;
  std::vector<uint64_t> Raw;
  if (!RawBase) {
    SynthesizedHash Front(Extract);
    Raw.resize(N);
    Front.hashBatch(Keys, Raw.data(), N);
    bool DuplicateKeys = false;
    if (imagesCollide(Raw, Keys, DuplicateKeys)) {
      if (DuplicateKeys)
        return Error{"duplicate key in MPHF input", std::string::npos};
      // The extraction images are not distinct on this set (e.g. a
      // format with more than 64 relevant bits whose xor-fold
      // collided); fall back to seeded raw imaging, where reseeding
      // can actually help.
      RawBase = true;
      Raw.clear();
    }
  }

  std::vector<uint64_t> Bases(N);
  for (unsigned Attempt = 0; Attempt <= MaxRestarts; ++Attempt) {
    const uint64_t Seed = Options.Seed + Attempt;
    const uint64_t SeedMix = mphfMix64(Seed);
    if (RawBase) {
      for (size_t I = 0; I != N; ++I)
        Bases[I] = mphfRawMix(Keys[I], Seed) ^ SeedMix;
      bool DuplicateKeys = false;
      if (imagesCollide(Bases, Keys, DuplicateKeys)) {
        if (DuplicateKeys)
          return Error{"duplicate key in MPHF input", std::string::npos};
        continue;
      }
    } else {
      // The seed xor is a bijection, so distinct raw images stay
      // distinct under every seed.
      for (size_t I = 0; I != N; ++I)
        Bases[I] = Raw[I] ^ SeedMix;
    }

    auto Plan = std::make_shared<MphfPlan>();
    Plan->N = N;
    Plan->Seed = Seed;
    Plan->RawBase = RawBase;
    Plan->Extract = RawBase ? nullptr : Extract;

    if (!buildSplit(Bases, *Plan))
      continue;

    Mphf F(std::move(Plan));
    if (verifyBijection(F, Keys, N))
      return F;
  }
  return Error{"MPHF construction did not converge after reseeds "
               "(pathological or duplicate key set)",
               std::string::npos};
}

} // namespace

Expected<Mphf> sepe::buildMphf(const std::vector<std::string> &Keys,
                               const MphfBuildOptions &Options) {
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  return buildMphfImpl(Views.data(), Views.size(), Options);
}

Expected<Mphf> sepe::buildMphf(const std::vector<std::string_view> &Keys,
                               const MphfBuildOptions &Options) {
  return buildMphfImpl(Keys.data(), Keys.size(), Options);
}
