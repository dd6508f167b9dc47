//===- mphf/mphf.cpp - MPHF construction and evaluation ------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// Build strategy: compute one 64-bit base image per key (extraction
// plan + bijective finalizer when available, seeded raw mix otherwise),
// check in one linear pass that the images are distinct, counting-sort
// them by bucket into one array and build one splitting tree per
// bucket. The tree builder is a search over pilot values scored against
// the images only — keys are never touched again after imaging, which
// is what keeps million-key builds fast. Buckets are independent and
// each bucket's pilot count follows from its size, so larger sets
// search them on several threads that write straight into the final
// pilot array: the plan does not depend on the worker count. Any
// search overrun or (astronomically unlikely) image collision restarts
// the whole build under the next seed; duplicate keys are detected
// exactly and reported as such.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf.h"

#include "core/format_spec.h"
#include "core/synthesizer.h"
#include "support/telemetry.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <exception>
#include <numeric>
#include <thread>

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

/// Keys from which the per-bucket search runs on several threads.
/// Below it, starting threads costs more than the search they would
/// share (measured crossover on a 4-vCPU host; see DESIGN.md).
constexpr size_t ParallelMinKeys = 1024;

/// At most this many search workers, the calling thread included.
constexpr unsigned MaxSearchWorkers = 8;

/// Buckets a search worker claims at a time.
constexpr uint32_t ChunkBuckets = 64;

/// True when two of \p Images are equal: one pass over an
/// open-addressed set at load <= 1/2. Zero marks an empty cell, so a
/// zero image is tracked by a flag instead.
bool anyEqualImages(const std::vector<uint64_t> &Images) {
  const size_t Cells = std::bit_ceil(std::max<size_t>(2, 2 * Images.size()));
  const unsigned Shift = 64 - static_cast<unsigned>(std::countr_zero(Cells));
  std::vector<uint64_t> Set(Cells, 0);
  bool SawZero = false;
  for (uint64_t Image : Images) {
    if (Image == 0) {
      if (SawZero)
        return true;
      SawZero = true;
      continue;
    }
    // Fibonacci hashing: the top bits of the product depend on every
    // image bit, so dense Pext images spread as well as random ones.
    size_t At = static_cast<size_t>((Image * 0x9E3779B97F4A7C15ull) >> Shift);
    for (; Set[At] != 0; At = (At + 1) & (Cells - 1))
      if (Set[At] == Image)
        return true;
    Set[At] = Image;
  }
  return false;
}

/// Returns true when two of \p Images collide; DuplicateKeys is set
/// when two colliding *keys* are byte-identical (a user error no
/// reseed can fix). Distinct images, the common case, cost one linear
/// pass; only a collision pays for sorting the indices by (image, key),
/// which puts identical keys next to each other.
bool imagesCollide(const std::vector<uint64_t> &Images,
                   const std::string_view *Keys, bool &DuplicateKeys) {
  SEPE_SPAN("mphf.build.distinct");
  DuplicateKeys = false;
  if (!anyEqualImages(Images))
    return false;
  std::vector<uint32_t> Order(Images.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    return Images[A] != Images[B] ? Images[A] < Images[B] : Keys[A] < Keys[B];
  });
  for (size_t I = 0; I + 1 < Order.size(); ++I)
    if (Keys[Order[I]] == Keys[Order[I + 1]]) {
      DuplicateKeys = true;
      break;
    }
  return true;
}

/// Pilots in the splitting tree over \p M keys: one per node. Matches
/// the evaluator's NodeCount, so each bucket's pilot range is known
/// before its search runs.
uint64_t pilotCount(uint64_t M) {
  if (M <= LeafMax)
    return M != 0;
  return 1 + pilotCount(M >> 1) + pilotCount(M - (M >> 1));
}

/// Leaf: the first pilot whose slot assignment over the \p M bases is
/// a bijection. Each trial places all M keys and accepts on a full
/// popcount rather than leaving at the first repeated slot, a branch
/// that mispredicts on almost every trial; both tests accept the same
/// first pilot.
bool searchLeaf(const uint64_t *Bases, uint32_t M, uint64_t &Found) {
  for (uint64_t Pilot = 0; Pilot != PilotLimit; ++Pilot) {
    uint64_t Taken = 0;
    for (uint32_t I = 0; I != M; ++I)
      Taken |= uint64_t{1}
               << mphfFastRange(mphfSlotHash(Bases[I], Pilot), M);
    if (static_cast<uint32_t>(std::popcount(Taken)) == M) {
      Found = Pilot;
      return true;
    }
  }
  return false;
}

/// One recursive splitting tree over the \p M bases of one bucket.
/// Pilots are written in DFS preorder through \p Out; bases are
/// reordered in place so each child works on a contiguous range.
bool buildSplitNode(uint64_t *Bases, uint32_t M, uint64_t *&Out) {
  if (M == 0)
    return true;
  if (M <= LeafMax)
    return searchLeaf(Bases, M, *Out++);
  // Interior node: find a pilot sending exactly floor(M/2) keys into
  // the low half of [0, M), then recurse on the two halves.
  const uint32_t M1 = M >> 1;
  uint64_t Found = ~uint64_t{0};
  for (uint64_t Pilot = 0; Pilot != PilotLimit; ++Pilot) {
    uint32_t Low = 0;
    for (uint32_t I = 0; I != M; ++I)
      Low += mphfFastRange(mphfSlotHash(Bases[I], Pilot), M) < M1;
    if (Low == M1) {
      Found = Pilot;
      break;
    }
  }
  if (Found == ~uint64_t{0})
    return false;
  *Out++ = Found;
  std::stable_partition(Bases, Bases + M, [&](uint64_t Base) {
    return mphfFastRange(mphfSlotHash(Base, Found), M) < M1;
  });
  return buildSplitNode(Bases, M1, Out) &&
         buildSplitNode(Bases + M1, M - M1, Out);
}

/// Search workers for a build over \p N keys in \p Buckets buckets:
/// the hardware threads, capped, and one below ParallelMinKeys.
unsigned searchWorkers(uint64_t N, uint32_t Buckets) {
  if (N < ParallelMinKeys)
    return 1;
  static const unsigned Hardware =
      std::max(1u, std::thread::hardware_concurrency());
  const uint32_t Chunks = (Buckets + ChunkBuckets - 1) / ChunkBuckets;
  return std::min({Hardware, MaxSearchWorkers, Chunks});
}

/// Builds every bucket's tree: bucket K's bases are
/// Sorted[Offsets[K], Offsets[K+1]) and its pilots go to
/// Pilots[PilotStarts[K], PilotStarts[K+1]). Buckets are disjoint, so
/// up to \p Workers threads (the caller is one) claim chunks of them
/// and the pilots land where a one-thread build puts them. An overrun
/// in any bucket stops every worker and fails the attempt; an
/// exception in a worker is rethrown here after all threads joined.
bool searchBuckets(uint64_t *Sorted, const std::vector<uint64_t> &Offsets,
                   const std::vector<uint64_t> &PilotStarts,
                   uint64_t *Pilots, unsigned Workers) {
  const uint32_t B = static_cast<uint32_t>(Offsets.size() - 1);
  std::atomic<uint32_t> NextChunk{0};
  std::atomic<bool> Failed{false};
  // The first worker to throw claims Error; the joins below order its
  // write before the caller reads it.
  std::atomic_flag ErrorClaimed;
  std::exception_ptr Error;
  auto Work = [&] {
    try {
      while (!Failed.load(std::memory_order_relaxed)) {
        const uint64_t First =
            uint64_t{NextChunk.fetch_add(1, std::memory_order_relaxed)} *
            ChunkBuckets;
        if (First >= B)
          return;
        const uint32_t Last =
            static_cast<uint32_t>(std::min<uint64_t>(B, First + ChunkBuckets));
        for (uint32_t K = static_cast<uint32_t>(First); K != Last; ++K) {
          uint64_t *Out = Pilots + PilotStarts[K];
          if (!buildSplitNode(Sorted + Offsets[K],
                              static_cast<uint32_t>(Offsets[K + 1] -
                                                    Offsets[K]),
                              Out)) {
            Failed.store(true, std::memory_order_relaxed);
            return;
          }
        }
      }
    } catch (...) {
      if (!ErrorClaimed.test_and_set())
        Error = std::current_exception();
      Failed.store(true, std::memory_order_relaxed);
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Workers - 1);
  for (unsigned I = 1; I < Workers; ++I) {
    try {
      Threads.emplace_back(Work);
    } catch (...) {
      break; // The started workers and the caller share the rest.
    }
  }
  Work();
  for (std::thread &T : Threads)
    T.join();
  if (Error)
    std::rethrow_exception(Error);
  return !Failed.load(std::memory_order_relaxed);
}

/// Buckets the bases, then builds one splitting tree per bucket.
bool buildSplit(const std::vector<uint64_t> &Bases, MphfPlan &Plan) {
  const uint64_t N = Bases.size();
  // Rounding the bucket count UP to a power of two lets the evaluator
  // turn bucket selection into a shift (see Mphf::bucketOf) and only
  // ever shrinks the average bucket, i.e. fewer interior splits.
  const uint32_t B = static_cast<uint32_t>(
      std::bit_ceil(std::max<uint64_t>(1, (N + AvgBucket - 1) / AvgBucket)));
  auto BucketOf = [B](uint64_t Base) {
    return mphfFastRange(mphfBucketHash(Base), B);
  };

  // A stable counting sort of the bases by bucket into one array. Its
  // prefix sums are the plan's key offsets; the pilot offsets follow
  // from the bucket sizes alone.
  std::vector<uint64_t> Sorted(N);
  std::vector<uint64_t> Offsets(B + 1, 0);
  std::vector<uint64_t> PilotStarts(B + 1, 0);
  {
    SEPE_SPAN("mphf.build.bucket");
    for (uint64_t Base : Bases)
      ++Offsets[BucketOf(Base) + 1];
    for (uint32_t K = 0; K != B; ++K) {
      PilotStarts[K + 1] = PilotStarts[K] + pilotCount(Offsets[K + 1]);
      Offsets[K + 1] += Offsets[K];
    }
    std::vector<uint64_t> Cursor(Offsets.begin(), Offsets.end() - 1);
    for (uint64_t Base : Bases)
      Sorted[Cursor[BucketOf(Base)]++] = Base;
  }

  std::vector<uint64_t> Pilots(PilotStarts[B]);
  {
    const unsigned Workers = searchWorkers(N, B);
    SEPE_SPAN("mphf.build.search", Search, 0);
    Search.setArg(Workers);
    if (!searchBuckets(Sorted.data(), Offsets, PilotStarts, Pilots.data(),
                       Workers))
      return false;
  }

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
    {
      SEPE_SPAN("mphf.build.image");
      SynthesizedHash Front(Extract);
      Raw.resize(N);
      Front.hashBatch(Keys, Raw.data(), N);
    }
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
    if (Attempt != 0)
      SEPE_COUNT("mphf.build.restarts");
    const uint64_t Seed = Options.Seed + Attempt;
    const uint64_t SeedMix = mphfMix64(Seed);
    {
      SEPE_SPAN("mphf.build.image");
      // The seed xor is a bijection, so distinct raw images stay
      // distinct under every seed.
      if (RawBase)
        for (size_t I = 0; I != N; ++I)
          Bases[I] = mphfRawMix(Keys[I], Seed) ^ SeedMix;
      else
        for (size_t I = 0; I != N; ++I)
          Bases[I] = Raw[I] ^ SeedMix;
    }
    bool DuplicateKeys = false;
    if (RawBase && imagesCollide(Bases, Keys, DuplicateKeys)) {
      if (DuplicateKeys)
        return Error{"duplicate key in MPHF input", std::string::npos};
      continue;
    }

    auto Plan = std::make_shared<MphfPlan>();
    Plan->N = N;
    Plan->Seed = Seed;
    Plan->RawBase = RawBase;
    Plan->Extract = RawBase ? nullptr : Extract;

    if (!buildSplit(Bases, *Plan))
      continue;

    SEPE_SPAN("mphf.build.verify");
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
