//===- runtime/adaptive_hash.h - Guarded dispatch + hot re-synthesis ------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The adaptive runtime around a SynthesizedHash: a guarded dispatcher
/// whose fast path checks each key against the generation's KeyPattern
/// and hashes it in one pass (core/executor.h GuardedHash). Keys the guard rejects are hashed with
/// a generic fallback (so callers always get a value), fed into a
/// reservoir sampler, and counted by a sliding-window drift detector.
/// When the mismatch ratio of a window crosses threshold, a background
/// resynthesizer joins the sampled keys into the current pattern (the
/// quad join is monotone, so the new pattern still admits every key the
/// old one did), synthesizes a fresh plan, and hot-swaps it in with an
/// RCU-style atomic publish: readers load one acquire pointer per batch
/// and never block, retired generations stay alive until the
/// AdaptiveHash is destroyed, and a cooldown keeps a noisy stream from
/// thrashing the synthesizer.
///
/// Hash values change across a swap (a different plan is a different
/// function). Containers keyed through an AdaptiveHash must watch
/// epoch() and migrate (ShardedIndexMap::migrate, which
/// ServingTable::maintain drives) — exactly the contract of the paper's
/// offline workflow, moved online.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_ADAPTIVE_HASH_H
#define SEPE_RUNTIME_ADAPTIVE_HASH_H

#include "core/executor.h"
#include "core/key_pattern.h"
#include "core/plan.h"
#include "runtime/drift_detector.h"
#include "runtime/key_sampler.h"
#include "runtime/resynthesizer.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

namespace sepe {

/// A single-byte mutation \p Pattern is guaranteed to reject: write
/// Byte at position Pos of an in-format key and the guard turns it
/// away. Drift injection (tests, sepedriver --adaptive, the bench
/// recovery workloads) must route through this instead of blindly
/// mutating position 0: the quad lattice is bit-pair-granular, so a
/// position whose alphabet spans both digit and letter ranges (the hex
/// positions of MAC/IPv6) abstracts to top and admits any byte.
/// Valid is false when every probe byte is admitted at every position
/// (an all-top pattern cannot be drifted out of).
struct DriftProbe {
  size_t Pos = 0;
  char Byte = 0;
  bool Valid = false;
};

DriftProbe findDriftProbe(const KeyPattern &Pattern);

/// Tunables for the adaptive runtime.
struct AdaptiveOptions {
  /// Family synthesized for each generation.
  HashFamily Family = HashFamily::OffXor;
  IsaLevel Isa = IsaLevel::Native;

  /// Keys per drift window.
  size_t DriftWindow = 2048;

  /// Minimum time between hot swaps; trips landing inside it are
  /// ignored (anti-thrash).
  std::chrono::milliseconds Cooldown{250};

  /// Sample one admitted (in-format) key out of every N into a second
  /// reservoir for the live quality monitor (quality/monitor.h); 0
  /// disables the sampling entirely (the default — the extra relaxed
  /// counter bump never runs on the hot path unless asked for).
  size_t QualitySampleEvery = 0;

  /// True: tripped windows trigger the background worker thread.
  /// False: trips only latch resynthesisPending() and the owner drives
  /// the swap with pumpResynthesis() — the deterministic mode the tests
  /// and benchmarks use.
  bool Background = true;
};

/// A hash functor that survives key-distribution drift. Thread-safe:
/// any number of threads may hash concurrently with at most one
/// resynthesis in flight. Keys the guard rejects are hashed with
/// LowLevelHash.
class AdaptiveHash {
public:
  /// Reservoir capacity for out-of-format keys.
  static constexpr size_t SamplerCapacity = 512;

  /// Mismatch ratio that trips a drift window.
  static constexpr double DriftThreshold = 0.02;

  /// Sampled keys required before a resynthesis is attempted.
  static constexpr size_t MinSamples = 16;

  /// Starts from \p Pattern (synthesizing its first generation when the
  /// pattern is non-trivial). An empty pattern cold-starts: every key
  /// takes the fallback lane until enough samples accumulate to infer a
  /// pattern from scratch.
  explicit AdaptiveHash(KeyPattern Pattern, AdaptiveOptions Options = {});

  /// Joins the worker and releases every retired generation. All reader
  /// threads must have quiesced.
  ~AdaptiveHash();

  AdaptiveHash(const AdaptiveHash &) = delete;
  AdaptiveHash &operator=(const AdaptiveHash &) = delete;

  /// Hashes one key: specialized kernel when the guard admits it,
  /// fallback otherwise (the miss is sampled and counted). route()
  /// without the lane decision.
  uint64_t operator()(std::string_view Key) const;

  /// Batch form: Out[I] = (*this)(Keys[I]). The guarded batch kernel
  /// for admitted keys, fallback lane for the rest; one drift
  /// observation per call.
  void hashBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const;

  /// Generation counter; bumps on every hot swap. Containers compare it
  /// against the epoch they built at and migrate on mismatch.
  uint64_t epoch() const;

  /// Pattern guarding the current generation.
  KeyPattern pattern() const;

  /// The current generation's specialized hash (invalid during a
  /// cold start). A copy: safe to hold across swaps.
  SynthesizedHash specialized() const;

  /// One internally consistent view of a published generation. epoch(),
  /// pattern() and specialized() are three separate acquire loads — a
  /// hot swap between them hands the caller epoch N with generation
  /// N+1's plan, which is exactly the tear a shard migration must not
  /// build on. snapshot() reads the generation pointer once.
  struct Snapshot {
    uint64_t Epoch = 0;
    KeyPattern Pattern;
    SynthesizedHash Fast; ///< Invalid during a cold start.
  };
  Snapshot snapshot() const;

  /// Lane decision + hash for one key: Admitted means the guard passed
  /// and Hash came from the specialized kernel of generation Epoch;
  /// otherwise Hash is the fallback value. The sharded serving layer
  /// routes on this — admitted keys into the image-keyed fast lane,
  /// the rest into the spill lane — so it must know which lane
  /// produced the value, which operator() deliberately hides.
  struct Routed {
    uint64_t Hash = 0;
    uint64_t Epoch = 0;
    bool Admitted = false;
  };
  Routed route(std::string_view Key) const;

  /// Batch form of route(): Out[I] receives the hash, the indices of
  /// guard-rejected keys land in MissIdx in increasing order (caller
  /// provides capacity for N) and the generation epoch all admitted
  /// hashes came from is stored in Epoch. Returns the miss count. Drift
  /// observation and sampling happen exactly as in hashBatch.
  size_t routeBatch(const std::string_view *Keys, uint64_t *Out, size_t N,
                    uint32_t *MissIdx, uint64_t &Epoch) const;

  /// Counts \p N in-format keys that a cache in front of this hash
  /// served without routing them (ServingTable's static lane), so the
  /// drift windows cover the whole stream and not only the keys the
  /// cache missed. One key counts in the thread's owned stripe, as
  /// route() counts it; more count with one window add.
  void observeAdmitted(size_t N) const {
    if (N == 0)
      return;
    const DriftDetector::Window W =
        N == 1 ? Detector.observeClean() : Detector.observe(N, 0);
    if (W == DriftDetector::Window::Tripped)
      onTripped();
  }

  /// Hot swaps completed.
  uint64_t swaps() const { return Swaps.load(std::memory_order_relaxed); }

  /// Keys admitted / rejected by the guard since construction.
  uint64_t guardPasses() const {
    return Detector.observedTotal() - Detector.mismatchedTotal();
  }
  uint64_t guardMisses() const { return Detector.mismatchedTotal(); }

  /// Mismatch ratio of the last closed drift window.
  double windowMismatchRatio() const { return Detector.lastRatio(); }

  /// True when a tripped window is waiting for pumpResynthesis()
  /// (manual mode) or the worker (background mode).
  bool resynthesisPending() const {
    return Pending.load(std::memory_order_acquire);
  }

  /// Runs one resynthesis attempt on the calling thread, bypassing the
  /// cooldown (deterministic driver for tests/benchmarks; works in
  /// either mode). Returns true when a new generation was published.
  bool pumpResynthesis();

  /// Copy of the currently sampled out-of-format keys.
  std::vector<std::string> sampledKeys() const { return Sampler.snapshot(); }

  /// Copy of the currently sampled admitted (in-format) keys; empty
  /// unless AdaptiveOptions::QualitySampleEvery is set.
  std::vector<std::string> sampledInFormatKeys() const {
    return InFormatSampler.snapshot();
  }

private:
  /// One published generation: its pattern and hash, compiled
  /// together so a key is checked and hashed in one pass. Immutable
  /// after publish; readers reach it through one acquire load.
  struct Generation {
    GuardedHash Guarded; ///< Its hash is invalid during a cold start.
    uint64_t Epoch = 0;
  };

  const Generation *active() const {
    return Active.load(std::memory_order_acquire);
  }

  void publish(std::unique_ptr<const Generation> G);
  void onTripped() const;
  bool performResynthesis(bool RespectCooldown);

  /// The body of hashBatch() and routeBatch() over generation \p G:
  /// the guarded batch kernel, fallback and sampling for the
  /// rejected keys (whose indices land in MissIdx, in increasing order,
  /// unless it is null), then one drift observation. Returns the miss
  /// count.
  size_t guardedBatch(const Generation *G, const std::string_view *Keys,
                      uint64_t *Out, size_t N, uint32_t *MissIdx) const;

  /// Every-Nth sampling of admitted keys (single-key path: the key is
  /// known in-format already).
  void maybeSampleInFormat(std::string_view Key) const {
    const size_t Every = Options.QualitySampleEvery;
    if (Every == 0)
      return;
    if (InFormatTick.fetch_add(1, std::memory_order_relaxed) % Every == 0)
      InFormatSampler.offer(Key);
  }

  /// Batch form: advances the tick by the admitted count and offers one
  /// candidate per crossed boundary, membership-checked against \p G's
  /// pattern so a guard-missed key never pollutes the quality reservoir.
  void sampleInFormatBatch(const Generation *G, const std::string_view *Keys,
                           size_t N, size_t Misses) const;

  AdaptiveOptions Options;

  /// RCU-style publish point. A raw atomic pointer, not
  /// atomic<shared_ptr> (libstdc++ implements the latter with a
  /// spinlock pool, which would serialize readers). Retired
  /// generations park in Retired until destruction — the swap cooldown
  /// bounds their number, and readers may still hold a pointer into an
  /// arbitrarily old generation.
  std::atomic<const Generation *> Active{nullptr};
  std::vector<std::unique_ptr<const Generation>> Retired;

  /// Serializes resynthesis + publish (never taken by readers).
  std::mutex SwapMutex;

  mutable KeySampler Sampler;
  mutable KeySampler InFormatSampler;
  mutable std::atomic<uint64_t> InFormatTick{0};
  mutable DriftDetector Detector;
  std::atomic<uint64_t> Swaps{0};
  mutable std::atomic<bool> Pending{false};
  std::atomic<int64_t> LastSwapNs{0};
  std::atomic<uint64_t> FailedSyntheses{0};

  /// Constructed last so the worker never observes a half-built *this;
  /// null in manual mode.
  std::unique_ptr<Resynthesizer> Worker;
};

} // namespace sepe

#endif // SEPE_RUNTIME_ADAPTIVE_HASH_H
