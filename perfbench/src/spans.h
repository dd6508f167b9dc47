//===- perfbench/src/spans.h - In-memory span recorder ----------*- C++ -*-===//
///
/// \file
/// The traced run's span recorder. Each client thread owns a fixed
/// buffer allocated before timing; a span is (name, thread, parent,
/// request id, start, end), the parent being another span of the same
/// thread. Spans are recorded around the public calls the benchmark
/// makes into the library (the library's own instrumentation stays
/// compiled out), kept in memory, and written as JSON lines at exit.
/// A full buffer drops further spans and counts them.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct Span {
  const char *Name = ""; ///< A string literal.
  uint32_t Thread = 0;
  int64_t Parent = -1; ///< Index in the flattened span list; -1 = root.
  uint64_t Request = 0;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

class SpanRecorder {
public:
  SpanRecorder(unsigned Threads, size_t CapacityPerThread);

  /// Opens a span on \p Thread's buffer, starting now. Returns its
  /// handle (-1 when the buffer is full; closing -1 is a no-op).
  int32_t open(unsigned Thread, const char *Name, int32_t Parent,
               uint64_t Request);
  void close(unsigned Thread, int32_t Handle);

  uint64_t dropped() const;

  /// Every recorded span, thread by thread, parents remapped to indices
  /// in the returned list.
  std::vector<Span> spans() const;

private:
  struct Buffer {
    std::vector<Span> Spans;
    size_t Used = 0;
    uint64_t Dropped = 0;
  };
  std::vector<Buffer> Buffers;
};

/// Opens a span for the lifetime of the scope (nothing when \p Rec is
/// null).
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *Rec, unsigned Thread, const char *Name,
             int32_t Parent = -1, uint64_t Request = 0)
      : Rec(Rec), Thread(Thread),
        Handle(Rec ? Rec->open(Thread, Name, Parent, Request) : -1) {}
  ~ScopedSpan() {
    if (Rec)
      Rec->close(Thread, Handle);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t handle() const { return Handle; }

private:
  SpanRecorder *Rec;
  unsigned Thread;
  int32_t Handle;
};

/// Self time of every span: its duration minus the part of it its
/// children cover (children of one span do not overlap — each thread
/// records sequentially).
std::vector<double> selfTimesNs(const std::vector<Span> &Spans);

/// Per-name aggregate over a span list.
struct SpanTotals {
  uint64_t Count = 0;
  std::vector<double> DurationsNs;
  std::vector<double> SelfsNs;
};
std::map<std::string, SpanTotals> spanTotals(const std::vector<Span> &Spans);

/// Writes \p Spans as JSON lines; false on I/O failure.
bool writeSpans(const std::vector<Span> &Spans, const std::string &Path);

} // namespace pb

#endif // PERFBENCH_SPANS_H
