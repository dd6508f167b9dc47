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
/// costs a single fetch_add. The thread whose add carries the observed
/// count across the window size closes the window: fetch_add serializes
/// the adds, so exactly one thread crosses, and Prev + Inc is a
/// consistent snapshot it can subtract back out with fetch_sub, leaving
/// any concurrent adds that landed after the crossing in the next
/// window.
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
    const uint64_t Prev = State.fetch_add(Inc, std::memory_order_relaxed);
    const uint64_t Cur = Prev + Inc;
    if ((Prev >> 32) >= WindowSize || (Cur >> 32) < WindowSize)
      return Window::Open;
    // This call carried the count across the window boundary; close the
    // window by subtracting the snapshot we just created.
    State.fetch_sub(Cur, std::memory_order_relaxed);
    const uint64_t WindowObserved = Cur >> 32;
    const uint64_t WindowMisses = Cur & 0xFFFFFFFFULL;
    const uint64_t Ppm = WindowMisses * 1000000 / WindowObserved;
    LastRatioPpm.store(Ppm, std::memory_order_relaxed);
    Windows.fetch_add(1, std::memory_order_relaxed);
    return Ppm > ThresholdPpm ? Window::Tripped : Window::Closed;
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

  /// Keys observed since construction (monotone; survives reset).
  uint64_t observedTotal() const {
    return ObservedTotal.load(std::memory_order_relaxed);
  }

  /// Guard misses since construction (monotone; survives reset).
  uint64_t mismatchedTotal() const {
    return MismatchedTotal.load(std::memory_order_relaxed);
  }

  size_t windowSize() const { return static_cast<size_t>(WindowSize); }

  /// Discards the partial live window and the last ratio — called after
  /// a hot swap so the new generation starts from a clean slate instead
  /// of inheriting the drifted tail that triggered it.
  void reset() {
    State.store(0, std::memory_order_relaxed);
    LastRatioPpm.store(0, std::memory_order_relaxed);
  }

private:
  const uint64_t WindowSize;
  const uint64_t ThresholdPpm;
  std::atomic<uint64_t> State{0};
  std::atomic<uint64_t> LastRatioPpm{0};
  std::atomic<uint64_t> Windows{0};
  std::atomic<uint64_t> ObservedTotal{0};
  std::atomic<uint64_t> MismatchedTotal{0};
};

} // namespace sepe

#endif // SEPE_RUNTIME_DRIFT_DETECTOR_H
