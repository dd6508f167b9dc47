//===- runtime/drift_detector.h - Sliding-window mismatch ratio -*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks the guard mismatch ratio over a sliding window of observed
/// keys and trips when it crosses a threshold — the signal that the key
/// distribution has drifted away from the pattern the current hash was
/// synthesized for. Lock-free: the live window is one 64-bit atomic
/// packing (observed << 32 | mismatches), so a whole hashBatch call
/// costs a single fetch_add. Any thread whose add leaves the window at
/// or past the window size tries to close it with a CAS to zero; the
/// CAS winner owns the snapshot it swapped out, so adds that land
/// between the crossing and the close (overshoot) count toward the
/// window being closed, and a thread that stalls after its add cannot
/// wedge the window: the next thread to see it full closes it instead.
///
/// Single-key observations (observeClean/observeMiss) would otherwise
/// pay that shared RMW per key. A clean key instead counts in a stripe
/// its thread owns: one of Stripes cache-line-sized counters, whose
/// slot the thread claims process-wide on its first observation and
/// releases at thread exit (the next thread to claim the slot continues
/// the count). The owner is the stripe's only writer of Count, so it
/// counts with a relaxed load and store, no locked add. Threads beyond
/// the claimed slots share one extra stripe and count with an atomic
/// add, so counts stay exact for any number of threads. A stripe's
/// pending keys are Count - Taken; Taken moves only by CAS (a flush
/// every FlushEvery pending keys, a miss, or reset()), each CAS taking
/// exactly the keys between the old mark and the Count it read, so a
/// key that races the owner's store is taken once, never twice or not
/// at all. A miss moves its stripe's pending keys into the window
/// together with itself, so the window sees drift as soon as it
/// happens.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_DRIFT_DETECTOR_H
#define SEPE_RUNTIME_DRIFT_DETECTOR_H

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>

namespace sepe {

/// Lock-free sliding-window drift detector. Every guarded key writes
/// it, so it owns its cache line: no read-mostly neighbour shares it.
class alignas(64) DriftDetector {
public:
  /// What one batched observation did to the live window.
  enum class Window {
    Open,    ///< Window still filling.
    Closed,  ///< This call closed a window; ratio stayed under threshold.
    Tripped, ///< This call closed a window whose ratio crossed threshold.
  };

  /// Owned clean-key stripes (process-wide slots, one per live thread),
  /// and the pending count at which a stripe moves its keys into the
  /// window.
  static constexpr unsigned Stripes = 16;
  static constexpr uint64_t FlushEvery = 64;

  /// Trips when a window of \p WindowSize observed keys ends with more
  /// than \p Threshold (a ratio in [0, 1]) guard mismatches.
  DriftDetector(size_t WindowSize, double Threshold)
      : WindowSize(WindowSize ? WindowSize : 1),
        ThresholdPpm(static_cast<uint64_t>(Threshold * 1e6)) {
    assert(Threshold >= 0.0 && Threshold <= 1.0 && "ratio threshold");
    assert(this->WindowSize < (uint64_t{1} << 31) && "window fits the pack");
  }

  /// Records one batch: \p Observed keys of which \p Mismatched missed
  /// the guard. Returns Tripped only for the single call that closes a
  /// window past threshold, so the caller can trigger resynthesis
  /// exactly once per bad window.
  Window observe(size_t Observed, size_t Mismatched) {
    assert(Mismatched <= Observed && "more misses than keys");
    ObservedTotal.fetch_add(Observed, std::memory_order_relaxed);
    if (Mismatched != 0)
      MismatchedTotal.fetch_add(Mismatched, std::memory_order_relaxed);
    const uint64_t Inc =
        (uint64_t{Observed} << 32) | static_cast<uint32_t>(Mismatched);
    uint64_t Cur = State.fetch_add(Inc, std::memory_order_relaxed) + Inc;
    // Whoever sees a full window closes it; a failed CAS reloads Cur,
    // and the loop ends once another thread has emptied it.
    while ((Cur >> 32) >= WindowSize) {
      if (!State.compare_exchange_weak(Cur, 0, std::memory_order_relaxed))
        continue;
      const uint64_t WindowObserved = Cur >> 32;
      const uint64_t WindowMisses = Cur & 0xFFFFFFFFULL;
      const uint64_t Ppm = WindowMisses * 1000000 / WindowObserved;
      LastRatioPpm.store(Ppm, std::memory_order_relaxed);
      Windows.fetch_add(1, std::memory_order_relaxed);
      return Ppm > ThresholdPpm ? Window::Tripped : Window::Closed;
    }
    return Window::Open;
  }

  /// One key that passed the guard: counted in this thread's stripe,
  /// moved into the window FlushEvery keys at a time.
  Window observeClean() {
    const unsigned Slot = ThreadSlot;
    if (Slot >= SharedStripe) [[unlikely]]
      return observeCleanUnowned();
    Stripe &S = StripeCounts[Slot];
    // Only this thread stores Count, and Taken never passes a Count it
    // stored, so the difference below cannot wrap.
    const uint64_t Count = S.Count.load(std::memory_order_relaxed) + 1;
    S.Count.store(Count, std::memory_order_relaxed);
    if (Count - S.Taken.load(std::memory_order_relaxed) < FlushEvery)
      return Window::Open;
    return flush(S);
  }

  /// One key that missed the guard, observed at once together with
  /// this thread's pending clean keys.
  Window observeMiss() {
    if (ThreadSlot == Unclaimed) [[unlikely]]
      ThreadSlot = claimSlot();
    return observe(take(StripeCounts[ThreadSlot]) + 1, 1);
  }

  /// Mismatch ratio of the last closed window (0 before any window
  /// closes).
  double lastRatio() const {
    return static_cast<double>(LastRatioPpm.load(std::memory_order_relaxed)) /
           1e6;
  }

  /// Windows closed since construction or the last reset.
  uint64_t windowsClosed() const {
    return Windows.load(std::memory_order_relaxed);
  }

  /// Keys observed since construction (monotone; survives reset),
  /// including clean keys still pending in a stripe: exact once the
  /// observing threads quiesce.
  uint64_t observedTotal() const {
    uint64_t Total = ObservedTotal.load(std::memory_order_relaxed);
    for (const Stripe &S : StripeCounts) {
      // Taken first: the Count read after it is at least the Count
      // that mark was taken up to.
      const uint64_t Taken = S.Taken.load(std::memory_order_acquire);
      Total += S.Count.load(std::memory_order_relaxed) - Taken;
    }
    return Total;
  }

  /// Guard misses since construction (monotone; survives reset).
  uint64_t mismatchedTotal() const {
    return MismatchedTotal.load(std::memory_order_relaxed);
  }

  size_t windowSize() const { return static_cast<size_t>(WindowSize); }

  /// Discards the partial live window, the stripes' pending keys and
  /// the last ratio — called after a hot swap so the new generation
  /// starts from a clean slate instead of inheriting the drifted tail
  /// that triggered it. Pending keys still count toward observedTotal().
  void reset() {
    for (Stripe &S : StripeCounts)
      if (const uint64_t Pending = take(S))
        ObservedTotal.fetch_add(Pending, std::memory_order_relaxed);
    State.store(0, std::memory_order_relaxed);
    LastRatioPpm.store(0, std::memory_order_relaxed);
  }

private:
  /// Count is the keys ever counted here; only the slot's owner stores
  /// it (the shared stripe adds atomically). Taken is the prefix of
  /// them already moved out, advanced only by CAS (take).
  struct alignas(64) Stripe {
    std::atomic<uint64_t> Count{0};
    std::atomic<uint64_t> Taken{0};
  };

  /// StripeCounts[SharedStripe] is the stripe of threads that hold no
  /// slot; Unclaimed marks a thread that has not tried to claim one.
  static constexpr unsigned SharedStripe = Stripes;
  static constexpr unsigned Unclaimed = Stripes + 1;
  static_assert(Stripes <= 32, "slot ownership is one 32-bit mask");

  /// This thread's slot, the same in every detector.
  static inline thread_local unsigned ThreadSlot = Unclaimed;
  /// Bit I set: some live thread owns slot I.
  static inline std::atomic<uint32_t> OwnedSlots{0};

  /// Claims a free slot for this thread (SharedStripe when all are
  /// owned) and releases it at thread exit. The acquire/release pair
  /// hands the slot's counts from one owner to the next.
  static unsigned claimSlot() {
    struct Owner {
      explicit Owner(unsigned Slot) : Slot(Slot) {}
      Owner(const Owner &) = delete;
      Owner &operator=(const Owner &) = delete;
      ~Owner() {
        // Observations later in thread teardown go to the shared stripe.
        ThreadSlot = SharedStripe;
        if (Slot != SharedStripe)
          OwnedSlots.fetch_and(~(uint32_t{1} << Slot),
                               std::memory_order_release);
      }
      const unsigned Slot;
    };
    const auto Claim = [] {
      uint32_t Mask = OwnedSlots.load(std::memory_order_relaxed);
      for (;;) {
        const uint32_t Free = ~Mask & ((uint64_t{1} << Stripes) - 1);
        if (Free == 0)
          return SharedStripe;
        const uint32_t Bit = Free & -Free;
        if (OwnedSlots.compare_exchange_weak(Mask, Mask | Bit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed))
          return static_cast<unsigned>(std::countr_zero(Bit));
      }
    };
    thread_local const Owner Mine{Claim()};
    return Mine.Slot;
  }

  /// observeClean for a thread on the shared stripe or not yet
  /// claimed: claims first, then counts owned or shared. Out of line,
  /// so the owned path stays small where observeClean inlines.
  [[gnu::noinline]] Window observeCleanUnowned() {
    if (ThreadSlot == Unclaimed) {
      ThreadSlot = claimSlot();
      if (ThreadSlot != SharedStripe)
        return observeClean();
    }
    Stripe &S = StripeCounts[SharedStripe];
    const uint64_t Count = S.Count.fetch_add(1, std::memory_order_relaxed) + 1;
    // Another sharer may have taken past this Count: then it wraps, and
    // take() finds what is really pending.
    if (Count - S.Taken.load(std::memory_order_relaxed) < FlushEvery)
      return Window::Open;
    return flush(S);
  }

  Window flush(Stripe &S) {
    const uint64_t Keys = take(S);
    return Keys == 0 ? Window::Open : observe(Keys, 0);
  }

  /// Moves Taken up to the current Count and returns the keys between:
  /// the stripe's pending keys, each taken by exactly one caller.
  static uint64_t take(Stripe &S) {
    uint64_t Taken = S.Taken.load(std::memory_order_acquire);
    for (;;) {
      const uint64_t Count = S.Count.load(std::memory_order_relaxed);
      if (Count == Taken)
        return 0;
      if (S.Taken.compare_exchange_weak(Taken, Count,
                                        std::memory_order_acq_rel,
                                        std::memory_order_acquire))
        return Count - Taken;
    }
  }

  const uint64_t WindowSize;
  const uint64_t ThresholdPpm;
  std::atomic<uint64_t> State{0};
  std::atomic<uint64_t> LastRatioPpm{0};
  std::atomic<uint64_t> Windows{0};
  std::atomic<uint64_t> ObservedTotal{0};
  std::atomic<uint64_t> MismatchedTotal{0};
  Stripe StripeCounts[Stripes + 1];
};

} // namespace sepe

#endif // SEPE_RUNTIME_DRIFT_DETECTOR_H
