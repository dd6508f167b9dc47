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
/// pay that shared RMW per key. A clean key instead adds one to this
/// thread's stripe — one of Stripes cache-line-sized counters, picked
/// round-robin per thread — and a stripe moves its pending keys into
/// the window once FlushEvery of them accumulate. A miss moves its
/// stripe's pending keys in together with itself, so the window sees
/// drift as soon as it happens. Stripes hold atomics, so threads that
/// share one (more threads than stripes) still count exactly.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_RUNTIME_DRIFT_DETECTOR_H
#define SEPE_RUNTIME_DRIFT_DETECTOR_H

#include <atomic>
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

  /// Per-thread clean-key stripes, and the pending count at which a
  /// stripe moves its keys into the window.
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
    std::atomic<uint64_t> &Pending = myStripe();
    if (Pending.fetch_add(1, std::memory_order_relaxed) + 1 < FlushEvery)
      return Window::Open;
    // A thread sharing the stripe may have taken the count first.
    const uint64_t Taken = Pending.exchange(0, std::memory_order_relaxed);
    return Taken == 0 ? Window::Open : observe(Taken, 0);
  }

  /// One key that missed the guard, observed at once together with
  /// this thread's pending clean keys.
  Window observeMiss() {
    return observe(myStripe().exchange(0, std::memory_order_relaxed) + 1, 1);
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
    for (const Stripe &S : StripeCounts)
      Total += S.Pending.load(std::memory_order_relaxed);
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
      ObservedTotal.fetch_add(S.Pending.exchange(0, std::memory_order_relaxed),
                              std::memory_order_relaxed);
    State.store(0, std::memory_order_relaxed);
    LastRatioPpm.store(0, std::memory_order_relaxed);
  }

private:
  struct alignas(64) Stripe {
    std::atomic<uint64_t> Pending{0};
  };

  std::atomic<uint64_t> &myStripe() {
    static std::atomic<unsigned> NextStripe{0};
    thread_local const unsigned Index =
        NextStripe.fetch_add(1, std::memory_order_relaxed) % Stripes;
    return StripeCounts[Index].Pending;
  }

  const uint64_t WindowSize;
  const uint64_t ThresholdPpm;
  std::atomic<uint64_t> State{0};
  std::atomic<uint64_t> LastRatioPpm{0};
  std::atomic<uint64_t> Windows{0};
  std::atomic<uint64_t> ObservedTotal{0};
  std::atomic<uint64_t> MismatchedTotal{0};
  Stripe StripeCounts[Stripes];
};

} // namespace sepe

#endif // SEPE_RUNTIME_DRIFT_DETECTOR_H
