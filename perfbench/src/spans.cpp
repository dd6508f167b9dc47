//===- perfbench/src/spans.cpp - In-memory span recorder -----------------===//

#include "spans.h"

#include "report.h"

#include <cstdio>

namespace pb {

SpanRecorder::SpanRecorder(unsigned Threads, size_t CapacityPerThread)
    : Buffers(Threads) {
  for (Buffer &B : Buffers)
    B.Spans.resize(CapacityPerThread);
}

int32_t SpanRecorder::open(unsigned Thread, const char *Name, int32_t Parent,
                           uint64_t Request) {
  Buffer &B = Buffers[Thread];
  if (B.Used == B.Spans.size()) {
    ++B.Dropped;
    return -1;
  }
  Span &S = B.Spans[B.Used];
  S.Name = Name;
  S.Thread = Thread;
  S.Parent = Parent;
  S.Request = Request;
  S.StartNs = nowNs();
  S.EndNs = S.StartNs;
  return static_cast<int32_t>(B.Used++);
}

void SpanRecorder::close(unsigned Thread, int32_t Handle) {
  if (Handle >= 0)
    Buffers[Thread].Spans[static_cast<size_t>(Handle)].EndNs = nowNs();
}

uint64_t SpanRecorder::dropped() const {
  uint64_t Total = 0;
  for (const Buffer &B : Buffers)
    Total += B.Dropped;
  return Total;
}

std::vector<Span> SpanRecorder::spans() const {
  std::vector<Span> All;
  for (const Buffer &B : Buffers) {
    const int64_t Base = static_cast<int64_t>(All.size());
    for (size_t I = 0; I != B.Used; ++I) {
      Span S = B.Spans[I];
      if (S.Parent >= 0)
        S.Parent += Base;
      All.push_back(S);
    }
  }
  return All;
}

std::vector<double> selfTimesNs(const std::vector<Span> &Spans) {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -=
          static_cast<double>(S.EndNs - S.StartNs);
  return Self;
}

std::map<std::string, SpanTotals> spanTotals(const std::vector<Span> &Spans) {
  const std::vector<double> Self = selfTimesNs(Spans);
  std::map<std::string, SpanTotals> Totals;
  for (size_t I = 0; I != Spans.size(); ++I) {
    SpanTotals &T = Totals[Spans[I].Name];
    const double Duration =
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs);
    ++T.Count;
    T.DurationsNs.push_back(Duration);
    T.SelfsNs.push_back(Self[I]);
  }
  return Totals;
}

bool writeSpans(const std::vector<Span> &Spans, const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "{\"id\": %zu, \"name\": \"%s\", \"thread\": %u, "
                 "\"parent\": %lld, \"request\": %llu, \"start_ns\": %lld, "
                 "\"end_ns\": %lld}\n",
                 I, S.Name, S.Thread, static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Request),
                 static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs));
  }
  return std::fclose(F) == 0;
}

} // namespace pb
