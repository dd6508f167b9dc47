//===- perfbench/src/workloads.cpp - The benchmark's workloads -----------===//
///
/// \file
/// Every workload follows the same shape:
///
///   1. generate keys from the seed (not timed);
///   2. set up SetupReps times from those keys and keep the last state
///      (the first setups double as warm-up);
///   3. run Clients closed-loop client threads for a fixed number of
///      operations each — the count follows from --seconds and a fixed
///      nominal rate, never from the clock, so every commit does the same
///      work — timing every call into preallocated histograms and checking
///      every result;
///      H-Time (single-key and batched hashing of the clients' keys) is
///      sampled inside the same loop;
///   4. verify the whole final state, then set up SetupReps more times
///      (setup_s is the median of all setups).
///
/// A traced run does the same, but alternates untraced and traced blocks
/// of operations (the throughput ratio between them is the tracing
/// overhead), records sampled spans in traced blocks, then replays the
/// key stream down the layer ladder (ladder.h).
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "histogram.h"
#include "ladder.h"
#include "spans.h"

#include "core/inference.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "runtime/serving_table.h"
#include "support/json.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <unordered_set>

namespace pb {

namespace {

using namespace sepe;
using Table = ServingTable<uint64_t>;

/// nproc - 1 on the 4-vCPU reference host; see NOTES.md.
constexpr unsigned Clients = 3;
/// Setups per run, done twice: before the clients start (the last one
/// is kept and served) and again after the final verify, so setup_s
/// samples two moments of the run, not one.
constexpr unsigned SetupReps = 8;
constexpr size_t BatchKeys = 64;
/// One lookup in BatchEvery is a BatchKeys-key batch.
constexpr uint64_t BatchEvery = 16;
/// Client 0 pumps resynthesis and maintenance every this many of its
/// own operations.
constexpr uint64_t MaintainEvery = 4096;
constexpr size_t Shards = 16;

/// Traced runs: operations alternate between untraced and traced
/// blocks; one request in TraceEvery inside a traced block records
/// spans.
constexpr uint64_t TraceBlockOps = 1024;
constexpr uint64_t TraceEvery = 1024;
constexpr size_t SpanCapacity = size_t{1} << 15;

/// H-Time: every HTimeEvery operations a client times HTimePasses passes
/// over HTimeChunk of its keys hashed single-key, then as many batched,
/// so the samples spread over the whole run like every other latency.
constexpr uint64_t HTimeEvery = 1024;
constexpr size_t HTimeChunk = 256;
constexpr size_t HTimePasses = 4;

uint64_t valueOf(uint64_t Seed, uint64_t Index) {
  uint64_t State = Seed ^ (Index * 0xD6E8FEB86659FD93ull);
  return splitmix64(State);
}

AdaptiveOptions servingOptions() {
  AdaptiveOptions O;
  O.Family = HashFamily::Pext; // Bijective: engages the fast lane.
  O.Background = false;        // Client 0 pumps at fixed op counts.
  O.Cooldown = std::chrono::milliseconds(0);
  O.DriftWindow = 512;
  return O;
}

std::vector<std::string> distinctKeys(PaperKey Key, uint64_t Seed, size_t N) {
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  return Gen.distinct(N);
}

//===--------------------------------------------------------------------===//
// Per-client accounting and timing
//===--------------------------------------------------------------------===//

/// Everything one client records; written by its own thread only.
struct alignas(64) ClientStats {
  uint64_t Keys = 0; ///< Keys served (a batch counts BatchKeys).
  double Seconds = 0;
  LatencyHistogram Get, Batch, Write;
  /// H-Time samples, picoseconds per key.
  LatencyHistogram HashSingle, HashBatch;
  uint64_t Checked = 0;
  uint64_t Failed = 0;
  /// Traced runs: time and operations in traced / untraced blocks.
  int64_t OnNs = 0, OffNs = 0;
  uint64_t OnOps = 0, OffOps = 0;
  /// Client 0: time inside pumpResynthesis() and maintain().
  int64_t ResynthNs = 0, MaintainNs = 0;

  void check(bool Ok) {
    ++Checked;
    Failed += Ok ? 0 : 1;
  }
};

/// One client's handle on the run: its stats, its span buffer, and the
/// sampling decision for the operation in flight.
struct Client {
  unsigned Tid = 0;
  ClientStats *S = nullptr;
  SpanRecorder *Rec = nullptr; ///< Null in untraced runs.
  uint64_t Op = 0;
  bool Sampled = false;
  uint64_t Rng = 0; ///< The client's own stream, seeded from the run seed.

  /// The recorder when the current request is sampled, else null.
  SpanRecorder *sampler() const { return Sampled ? Rec : nullptr; }

  /// Times one public call into \p H (and a child span of \p Parent when
  /// the request is sampled).
  template <typename Fn>
  auto call(LatencyHistogram &H, const char *Name, int32_t Parent, Fn &&F) {
    ScopedSpan Span(sampler(), Tid, Name, Parent, Op);
    const int64_t T0 = nowNs();
    auto Result = F();
    H.record(static_cast<uint64_t>(nowNs() - T0));
    return Result;
  }

  /// Times an unsampled maintenance call: always spanned when tracing.
  template <typename Fn> int64_t timed(const char *Name, Fn &&F) {
    ScopedSpan Span(Rec, Tid, Name, -1, Op);
    const int64_t T0 = nowNs();
    F();
    return nowNs() - T0;
  }
};

/// Runs \p Budget operations of \p Body on every client thread, all
/// released together, and records each client's elapsed time and traced/
/// untraced block split.
void runClients(std::vector<std::unique_ptr<ClientStats>> &Stats,
                SpanRecorder *Rec, uint64_t Seed, uint64_t Budget,
                const std::function<void(Client &)> &Body) {
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != Clients; ++T)
    Threads.emplace_back([&, T] {
      Client C;
      C.Tid = T;
      C.S = Stats[T].get();
      C.Rec = Rec;
      C.Rng = Seed * 0x9E3779B97F4A7C15ull + T + 1;
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      // Budget is a multiple of TraceBlockOps: every block is whole.
      const int64_t Start = nowNs();
      int64_t BlockStart = Start;
      bool TracedBlock = false;
      for (uint64_t I = 0; I != Budget; ++I) {
        if (I % TraceBlockOps == 0 && I != 0) {
          const int64_t Now = nowNs();
          (TracedBlock ? C.S->OnNs : C.S->OffNs) += Now - BlockStart;
          (TracedBlock ? C.S->OnOps : C.S->OffOps) += TraceBlockOps;
          BlockStart = Now;
          TracedBlock = Rec && (I / TraceBlockOps) % 2 == 1;
        }
        C.Op = I;
        C.Sampled = TracedBlock && I % TraceEvery == 0;
        Body(C);
      }
      const int64_t End = nowNs();
      (TracedBlock ? C.S->OnNs : C.S->OffNs) += End - BlockStart;
      (TracedBlock ? C.S->OnOps : C.S->OffOps) += TraceBlockOps;
      C.S->Seconds = static_cast<double>(End - Start) * 1e-9;
    });
  while (Ready.load() != Clients)
    std::this_thread::yield();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
}

/// One hash and the keys it is timed on.
struct HashLane {
  SynthesizedHash Hash;
  std::vector<std::string_view> Keys; ///< At least HTimeChunk.
};

/// One H-Time sample: a chunk of \p L's keys hashed single-key, then the
/// same chunk through hashBatch, HTimePasses times each; the two must
/// agree key by key.
void hashProbe(Client &C, const HashLane &L) {
  const size_t Offset = (C.Op / HTimeEvery * HTimeChunk) %
                        (L.Keys.size() - HTimeChunk + 1);
  const std::string_view *Keys = L.Keys.data() + Offset;
  uint64_t Single[HTimeChunk], Batched[HTimeChunk];
  const int64_t T0 = nowNs();
  for (size_t P = 0; P != HTimePasses; ++P)
    for (size_t I = 0; I != HTimeChunk; ++I)
      Single[I] = L.Hash(Keys[I]);
  const int64_t T1 = nowNs();
  for (size_t P = 0; P != HTimePasses; ++P)
    L.Hash.hashBatch(Keys, Batched, HTimeChunk);
  const int64_t T2 = nowNs();
  constexpr uint64_t Hashed = HTimePasses * HTimeChunk;
  C.S->HashSingle.record(static_cast<uint64_t>(T1 - T0) * 1000 / Hashed);
  C.S->HashBatch.record(static_cast<uint64_t>(T2 - T1) * 1000 / Hashed);
  C.S->check(std::equal(Single, Single + HTimeChunk, Batched));
}

/// Each client's H-Time lane over its share of \p Keys.
std::vector<HashLane> clientLanes(const std::vector<std::string> &Keys) {
  std::vector<HashLane> Lanes(Clients);
  for (size_t I = 0; I != Keys.size(); ++I)
    Lanes[I % Clients].Keys.push_back(Keys[I]);
  return Lanes;
}

//===--------------------------------------------------------------------===//
// Reporting
//===--------------------------------------------------------------------===//

/// Everything a workload hands the reporter besides the client stats.
struct Outcome {
  std::vector<double> SetupSeconds;
  /// serve_static: bulk-load put latencies (its only writes).
  LatencyHistogram *LoadWrites = nullptr;
  uint64_t VerifyChecked = 0, VerifyFailed = 0;
  /// sealStatic() time of every setup, ms.
  std::vector<double> SealMs;
  /// Per-layer values gathered by the workload and the ladder.
  std::map<std::string, double> Layer;
  std::vector<std::string> Notes;
};

void addChecks(RunResult &R,
               const std::vector<std::unique_ptr<ClientStats>> &Stats,
               const Outcome &O) {
  for (const auto &S : Stats) {
    R.Attempted += S->Checked;
    R.Failed += S->Failed;
  }
  R.Attempted += O.VerifyChecked;
  R.Failed += O.VerifyFailed;
}

/// Per-client throughput: how far apart the vCPUs ran the clients.
std::string clientRates(const std::vector<std::unique_ptr<ClientStats>> &Stats) {
  std::string Line = "client keys/s:";
  for (const auto &S : Stats) {
    char Rate[48];
    std::snprintf(Rate, sizeof(Rate), " %.3gM in %.2fs",
                  S->Seconds > 0
                      ? static_cast<double>(S->Keys) / S->Seconds / 1e6
                      : 0.0,
                  S->Seconds);
    Line += Rate;
  }
  return Line;
}

RunResult endToEnd(const std::vector<std::unique_ptr<ClientStats>> &Stats,
                   const Outcome &O) {
  LatencyHistogram Get, Batch, Write;
  LatencyHistogram Single, Batched;
  double OpsPerSec = 0;
  for (const auto &S : Stats) {
    Get.merge(S->Get);
    Batch.merge(S->Batch);
    Write.merge(S->Write);
    Single.merge(S->HashSingle);
    Batched.merge(S->HashBatch);
    if (S->Seconds > 0)
      OpsPerSec += static_cast<double>(S->Keys) / S->Seconds;
  }
  if (O.LoadWrites)
    Write.merge(*O.LoadWrites);
  RunResult R;
  addChecks(R, Stats, O);
  R.add("setup_s", median(O.SetupSeconds), "s");
  R.add("ops_per_s", OpsPerSec, "1/s");
  R.add("get_p50_ns", Get.percentile(0.50), "ns");
  R.add("get_p99_ns", Get.percentile(0.99), "ns");
  R.add("batch_p50_ns", Batch.percentile(0.50), "ns");
  R.add("batch_p99_ns", Batch.percentile(0.99), "ns");
  R.add("write_p50_ns", Write.percentile(0.50), "ns");
  R.add("write_p99_ns", Write.percentile(0.99), "ns");
  R.add("hash_single_ns_per_key", Single.percentile(0.5) / 1000, "ns");
  R.add("hash_batch_ns_per_key", Batched.percentile(0.5) / 1000, "ns");
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  R.Notes = O.Notes;
  R.Notes.push_back(clientRates(Stats));
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "samples: setups=%zu gets=%llu batches=%llu writes=%llu "
                "htime=%llu",
                O.SetupSeconds.size(),
                static_cast<unsigned long long>(Get.count()),
                static_cast<unsigned long long>(Batch.count()),
                static_cast<unsigned long long>(Write.count()),
                static_cast<unsigned long long>(Single.count()));
  R.Notes.push_back(Line);
  return R;
}

RunResult perLayer(const std::vector<std::unique_ptr<ClientStats>> &Stats,
                   Outcome &O, const SpanRecorder &Rec,
                   const std::string &SpansOut) {
  int64_t OnNs = 0, OffNs = 0, ResynthNs = 0, MaintainNs = 0;
  uint64_t OnOps = 0, OffOps = 0;
  for (const auto &S : Stats) {
    OnNs += S->OnNs;
    OffNs += S->OffNs;
    OnOps += S->OnOps;
    OffOps += S->OffOps;
    ResynthNs += S->ResynthNs;
    MaintainNs += S->MaintainNs;
  }
  const double OnCost = OnOps ? static_cast<double>(OnNs) / OnOps : 0;
  const double OffCost = OffOps ? static_cast<double>(OffNs) / OffOps : 0;
  O.Layer["trace.overhead_pct"] =
      OffCost > 0 ? 100.0 * (OnCost / OffCost - 1.0) : 0;
  O.Layer["runtime.resynth_ms"] = static_cast<double>(ResynthNs) * 1e-6;
  O.Layer["runtime.maintain_ms"] = static_cast<double>(MaintainNs) * 1e-6;

  const std::vector<Span> Spans = Rec.spans();
  O.Layer["trace.spans"] = static_cast<double>(Spans.size());
  const std::map<std::string, SpanTotals> Totals = spanTotals(Spans);
  std::vector<double> RequestSelf;
  for (const auto &[Name, T] : Totals)
    if (Name.rfind("request.", 0) == 0)
      RequestSelf.insert(RequestSelf.end(), T.SelfsNs.begin(),
                         T.SelfsNs.end());
  O.Layer["trace.request_self_ns"] = median(RequestSelf);
  if (!SpansOut.empty() && !writeSpans(Spans, SpansOut))
    std::fprintf(stderr, "warning: cannot write %s\n", SpansOut.c_str());

  RunResult R;
  addChecks(R, Stats, O);
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    const auto It = O.Layer.find(Name);
    R.add(Name, It == O.Layer.end() ? 0.0 : It->second, Unit);
  }
  R.Notes = O.Notes;
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "trace: %zu spans (%llu dropped), traced blocks %llu ops, "
                "untraced %llu ops",
                Spans.size(), static_cast<unsigned long long>(Rec.dropped()),
                static_cast<unsigned long long>(OnOps),
                static_cast<unsigned long long>(OffOps));
  R.Notes.push_back(Line);
  for (const auto &[Name, T] : Totals) {
    std::snprintf(Line, sizeof(Line),
                  "span %-34s n=%-7llu median %.0f ns, self %.0f ns", Name.c_str(),
                  static_cast<unsigned long long>(T.Count),
                  median(T.DurationsNs), median(T.SelfsNs));
    R.Notes.push_back(Line);
  }
  return R;
}

std::vector<std::unique_ptr<ClientStats>> makeStats() {
  std::vector<std::unique_ptr<ClientStats>> Stats;
  for (unsigned T = 0; T != Clients; ++T)
    Stats.push_back(std::make_unique<ClientStats>());
  return Stats;
}

/// Operations per client for a run of \p Seconds at the workload's
/// nominal per-client rate (a constant, so the work is fixed).
uint64_t budget(unsigned Seconds, double OpsPerClientPerSec) {
  return std::max<uint64_t>(
      TraceBlockOps * 4,
      static_cast<uint64_t>(Seconds * OpsPerClientPerSec) / TraceBlockOps *
          TraceBlockOps);
}

/// Times \p Build SetupReps times into O.SetupSeconds; keeps the last
/// state.
template <typename State, typename BuildFn>
std::unique_ptr<State> setupRepeated(Outcome &O, BuildFn &&Build) {
  std::unique_ptr<State> Kept;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Kept.reset(); // Free the previous state first: peak RSS holds one.
    const int64_t T0 = nowNs();
    Kept = Build(Rep);
    O.SetupSeconds.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }
  return Kept;
}

//===--------------------------------------------------------------------===//
// Serving workloads
//===--------------------------------------------------------------------===//

/// Builds a ServingTable from generated keys: pattern inference, table
/// construction (synthesis + JIT attach inside), bulk load, and
/// optionally sealing the residents into the static lane.
std::unique_ptr<Table>
buildTable(const std::vector<std::string> &Residents,
           const std::vector<uint64_t> &Values,
           const std::vector<std::string> &Extra,
           const std::vector<uint64_t> &ExtraValues, bool Seal,
           SpanRecorder *Rec, LatencyHistogram *LoadWrites, Outcome &O) {
  ScopedSpan Setup(Rec, 0, "setup");
  KeyPattern Pattern;
  {
    ScopedSpan S(Rec, 0, "inferPattern", Setup.handle());
    Pattern = inferPattern(Residents);
  }
  std::unique_ptr<Table> T;
  {
    ScopedSpan S(Rec, 0, "ServingTable()", Setup.handle());
    T = std::make_unique<Table>(Pattern, servingOptions(), Shards);
  }
  {
    ScopedSpan S(Rec, 0, "ServingTable::put(load)", Setup.handle());
    bool Ok = T->hasFastLane();
    for (size_t I = 0; I != Residents.size(); ++I) {
      const int64_t T0 = LoadWrites ? nowNs() : 0;
      Ok &= T->put(Residents[I], Values[I]);
      if (LoadWrites)
        LoadWrites->record(static_cast<uint64_t>(nowNs() - T0));
    }
    for (size_t I = 0; I != Extra.size(); ++I)
      Ok &= T->put(Extra[I], ExtraValues[I]);
    ++O.VerifyChecked;
    O.VerifyFailed += Ok ? 0 : 1;
  }
  if (Seal) {
    ScopedSpan S(Rec, 0, "ServingTable::sealStatic", Setup.handle());
    std::vector<std::string_view> Views(Residents.begin(), Residents.end());
    const int64_t T0 = nowNs();
    const size_t Sealed = T->sealStatic(Views);
    O.SealMs.push_back(static_cast<double>(nowNs() - T0) * 1e-6);
    ++O.VerifyChecked;
    O.VerifyFailed += Sealed == Residents.size() ? 0 : 1;
  }
  return T;
}

/// Keys owned by client \p Tid in a partitioned churn set.
std::vector<size_t> ownedIndices(size_t N, unsigned Tid) {
  std::vector<size_t> Own;
  for (size_t I = Tid; I < N; I += Clients)
    Own.push_back(I);
  return Own;
}

/// A client's exclusive churn partition with its shadow presence state:
/// every put/erase result is predictable, hence checked.
struct ChurnShadow {
  std::vector<size_t> Own;
  std::vector<uint8_t> Present; ///< Indexed like the churn key set.
};

/// The initial churn state: even-indexed churn keys start present.
std::vector<std::string> initialChurn(const std::vector<std::string> &Churn,
                                      std::vector<uint64_t> &Values,
                                      uint64_t Seed) {
  std::vector<std::string> Present;
  for (size_t I = 0; I < Churn.size(); I += 2) {
    Present.push_back(Churn[I]);
    Values.push_back(valueOf(Seed ^ 0xC4u, I));
  }
  return Present;
}

std::vector<ChurnShadow> churnShadows(size_t N) {
  std::vector<ChurnShadow> Shadows(Clients);
  for (unsigned T = 0; T != Clients; ++T) {
    Shadows[T].Own = ownedIndices(N, T);
    Shadows[T].Present.assign(N, 0);
    for (size_t I = 0; I < N; I += 2)
      Shadows[T].Present[I] = 1;
  }
  return Shadows;
}

/// One checked put-or-erase on the client's churn partition.
void churnWrite(Client &C, Table &T, const std::vector<std::string> &Churn,
                ChurnShadow &Sh, uint64_t &Rng, uint64_t Seed) {
  const size_t J = Sh.Own[splitmix64(Rng) % Sh.Own.size()];
  ScopedSpan Req(C.sampler(), C.Tid, "request.write", -1, C.Op);
  bool Ok;
  if (Sh.Present[J])
    Ok = C.call(C.S->Write, "ServingTable::erase", Req.handle(),
                [&] { return T.erase(Churn[J]); });
  else
    Ok = C.call(C.S->Write, "ServingTable::put", Req.handle(), [&] {
      return T.put(Churn[J], valueOf(Seed ^ 0xC4u, J));
    });
  Sh.Present[J] ^= 1;
  C.S->check(Ok);
  ++C.S->Keys;
}

/// One checked lookup of the client's choice: a single get, or (one in
/// BatchEvery) a BatchKeys-key getBatch. \p Pick fills one key and its
/// expected value (0 = must miss).
template <typename PickFn>
void lookup(Client &C, const Table &T, uint64_t &Rng, PickFn &&Pick) {
  if (splitmix64(Rng) % BatchEvery == 0) {
    std::string_view Keys[BatchKeys];
    uint64_t Expect[BatchKeys], Out[BatchKeys];
    uint8_t Found[BatchKeys];
    for (size_t K = 0; K != BatchKeys; ++K)
      Pick(Keys[K], Expect[K]);
    ScopedSpan Req(C.sampler(), C.Tid, "request.batch", -1, C.Op);
    C.call(C.S->Batch, "ServingTable::getBatch", Req.handle(),
           [&] { return T.getBatch(Keys, Out, Found, BatchKeys); });
    for (size_t K = 0; K != BatchKeys; ++K)
      C.S->check(Expect[K] ? Found[K] && Out[K] == Expect[K] : !Found[K]);
    C.S->Keys += BatchKeys;
    return;
  }
  std::string_view Key;
  uint64_t Expect = 0, V = 0;
  Pick(Key, Expect);
  ScopedSpan Req(C.sampler(), C.Tid, "request.get", -1, C.Op);
  const bool Hit = C.call(C.S->Get, "ServingTable::get", Req.handle(),
                          [&] { return T.get(Key, V); });
  C.S->check(Expect ? Hit && V == Expect : !Hit);
  ++C.S->Keys;
}

/// Client 0's periodic maintenance: pump resynthesis, converge storage.
void maintenance(Client &C, Table &T) {
  if (C.Tid != 0 || C.Op % MaintainEvery != MaintainEvery - 1)
    return;
  C.S->ResynthNs += C.timed("AdaptiveHash::pumpResynthesis",
                            [&] { T.adaptive().pumpResynthesis(); });
  C.S->MaintainNs +=
      C.timed("ServingTable::maintain", [&] { T.maintain(); });
}

/// Final convergence + full verify of residents and churn shadows.
void verifyTable(Table &T, const std::vector<std::string> &Keys,
                 const std::vector<uint64_t> &Values,
                 const std::vector<std::string> &Churn,
                 const std::vector<ChurnShadow> &Shadows, Outcome &O) {
  T.adaptive().pumpResynthesis();
  T.maintain();
  const auto Check = [&](bool Ok) {
    ++O.VerifyChecked;
    O.VerifyFailed += Ok ? 0 : 1;
  };
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = 0;
    Check(T.get(Keys[I], V) && V == Values[I]);
  }
  for (const ChurnShadow &Sh : Shadows)
    for (size_t J : Sh.Own) {
      uint64_t V = 0;
      Check(T.get(Churn[J], V) == (Sh.Present[J] != 0));
    }
}

struct ServeShape {
  PaperKey Format;
  size_t Residents;
  size_t Churn;
  size_t Absent;
  unsigned ReadPct; ///< Lookups per 100 operations; the rest write.
  bool Seal;
  double OpsPerClientPerSec;
};

/// The ladder's view of a serving workload: its primary key stream.
LadderInput ladderInput(const std::vector<std::string> &Keys,
                        const std::vector<uint64_t> &Values,
                        const std::vector<std::string> &Absent, bool Seal,
                        uint64_t Seed) {
  LadderInput In;
  In.Residents = Keys;
  In.Values = Values;
  In.Absent = Absent;
  In.Seal = Seal;
  In.Shards = Shards;
  In.Seed = Seed;
  return In;
}

RunResult finish(const RunOptions &Opt,
                 std::vector<std::unique_ptr<ClientStats>> &Stats,
                 Outcome &O, SpanRecorder *Rec, const LadderInput &Ladder,
                 const Table *Served) {
  if (!Opt.Trace)
    return endToEnd(Stats, O);
  RunResult LadderChecks;
  runLadder(Ladder, O.Layer, LadderChecks, Rec, 0);
  O.VerifyChecked += LadderChecks.Attempted;
  O.VerifyFailed += LadderChecks.Failed;
  // The served table's own facts override the replay table's.
  if (Served)
    servingFacts(*Served, O.Layer);
  if (!O.SealMs.empty())
    O.Layer["mphf.build_ms"] = median(O.SealMs);
  return perLayer(Stats, O, *Rec, Opt.SpansOut);
}

/// serve_read and serve_static: steady read traffic (plus churn writes
/// for serve_read) on one table.
RunResult runServeSteady(const RunOptions &Opt, const ServeShape &Shape) {
  std::unique_ptr<SpanRecorder> Rec =
      Opt.Trace ? std::make_unique<SpanRecorder>(Clients, SpanCapacity)
                : nullptr;
  auto Stats = makeStats();
  Outcome O;
  LatencyHistogram LoadWrites;

  std::vector<std::string> All =
      distinctKeys(Shape.Format, Opt.Seed,
                   Shape.Residents + Shape.Churn + Shape.Absent);
  const std::vector<std::string> Residents(All.begin(),
                                           All.begin() + Shape.Residents);
  const std::vector<std::string> Churn(
      All.begin() + Shape.Residents,
      All.begin() + Shape.Residents + Shape.Churn);
  const std::vector<std::string> Absent(
      All.begin() + Shape.Residents + Shape.Churn, All.end());
  std::vector<uint64_t> Values(Residents.size());
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = valueOf(Opt.Seed, I);
  std::vector<uint64_t> ChurnValues;
  const std::vector<std::string> ChurnStart =
      initialChurn(Churn, ChurnValues, Opt.Seed);

  const auto Build = [&](unsigned) {
    return buildTable(Residents, Values, ChurnStart, ChurnValues, Shape.Seal,
                      Rec.get(), Shape.Seal ? &LoadWrites : nullptr, O);
  };
  std::unique_ptr<Table> T = setupRepeated<Table>(O, Build);
  if (Shape.Seal)
    O.LoadWrites = &LoadWrites;
  std::vector<uint64_t> Expected = Values;
  if (Opt.PlantWrongValue)
    Expected[0] ^= 1;
  std::vector<ChurnShadow> Shadows = churnShadows(Churn.size());

  std::vector<HashLane> HLanes = clientLanes(Residents);
  const uint64_t Budget = budget(Opt.Seconds, Shape.OpsPerClientPerSec);
  runClients(Stats, Rec.get(), Opt.Seed, Budget, [&](Client &C) {
    uint64_t &Rng = C.Rng;
    maintenance(C, *T);
    if (C.Op % HTimeEvery == 0) {
      HLanes[C.Tid].Hash = T->adaptive().specialized();
      hashProbe(C, HLanes[C.Tid]);
    }
    if (Shape.Churn == 0 || splitmix64(Rng) % 100 < Shape.ReadPct) {
      lookup(C, *T, Rng, [&](std::string_view &Key, uint64_t &Expect) {
        const uint64_t R = splitmix64(Rng);
        if (!Absent.empty() && R % 10 == 0) {
          Key = Absent[(R >> 8) % Absent.size()];
          Expect = 0;
        } else {
          const size_t I = (R >> 8) % Residents.size();
          Key = Residents[I];
          Expect = Expected[I];
        }
      });
    } else {
      churnWrite(C, *T, Churn, Shadows[C.Tid], Rng, Opt.Seed);
    }
  });

  verifyTable(*T, Residents, Expected, Churn, Shadows, O);
  for (const std::string &K : Absent) {
    uint64_t V = 0;
    ++O.VerifyChecked;
    O.VerifyFailed += T->get(K, V) ? 1 : 0;
  }
  if (Shape.Seal) {
    ++O.VerifyChecked;
    O.VerifyFailed += T->stats().StaticSize == Residents.size() ? 0 : 1;
  }
  setupRepeated<Table>(O, Build);
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "%s: %zu residents, %zu churn, %zu absent, %llu ops/client",
                paperKeyName(Shape.Format), Residents.size(), Churn.size(),
                Absent.size(), static_cast<unsigned long long>(Budget));
  O.Notes.push_back(Line);
  return finish(Opt, Stats, O, Rec.get(),
                ladderInput(Residents, Values, Absent,
                            Shape.Seal, Opt.Seed),
                T.get());
}

/// serve_drift: write-heavy churn plus four drift phases. Phase k
/// starts when client 0 reaches a fixed op count: it loads that phase's
/// drifted residents (keys the current guard rejects, so they land in
/// the spill lane), then publishes the phase; from then on a quarter of
/// every client's gets target drifted residents. Client 0's periodic
/// pump swaps in a widened generation, and maintain() migrates the fast
/// lane and sweeps the spill lane into it.
RunResult runServeDrift(const RunOptions &Opt) {
  constexpr PaperKey Format = PaperKey::SSN;
  constexpr size_t ResidentCount = 4096, ChurnCount = 3072;
  constexpr size_t Phases = 4, DriftPerPhase = 512;
  constexpr unsigned ReadPct = 40, DriftGetPct = 25;
  constexpr double OpsPerClientPerSec = 1.15e6;

  std::unique_ptr<SpanRecorder> Rec =
      Opt.Trace ? std::make_unique<SpanRecorder>(Clients, SpanCapacity)
                : nullptr;
  auto Stats = makeStats();
  Outcome O;

  std::vector<std::string> All =
      distinctKeys(Format, Opt.Seed, ResidentCount + ChurnCount);
  const std::vector<std::string> Residents(All.begin(),
                                           All.begin() + ResidentCount);
  const std::vector<std::string> Churn(All.begin() + ResidentCount,
                                       All.end());
  std::vector<uint64_t> Values(Residents.size());
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = valueOf(Opt.Seed, I);
  std::vector<uint64_t> ChurnValues;
  const std::vector<std::string> ChurnStart =
      initialChurn(Churn, ChurnValues, Opt.Seed);

  // Plan the drift: each phase's probe must be rejected by the pattern
  // the previous phases will have widened to (the join is monotone and
  // the resynthesizer joins a subset of the phase's keys, so predicting
  // with the full set is conservative).
  std::vector<std::vector<std::string>> Drift;
  std::vector<std::vector<uint64_t>> DriftValues;
  {
    KeyPattern P = inferPattern(Residents);
    for (size_t Ph = 0; Ph != Phases; ++Ph) {
      const DriftProbe Probe = findDriftProbe(P);
      if (!Probe.Valid)
        break;
      std::unordered_set<std::string> Seen;
      std::vector<std::string> Keys;
      for (size_t I = 0; Keys.size() != DriftPerPhase && I != ResidentCount;
           ++I) {
        std::string K = Residents[(Ph * DriftPerPhase + I) % ResidentCount];
        K[Probe.Pos] = Probe.Byte;
        if (Seen.insert(K).second)
          Keys.push_back(std::move(K));
      }
      std::vector<uint64_t> Vals;
      for (size_t I = 0; I != Keys.size(); ++I)
        Vals.push_back(valueOf(Opt.Seed ^ 0xD71F7u, Ph * DriftPerPhase + I));
      P = join(P, inferPattern(Keys));
      Drift.push_back(std::move(Keys));
      DriftValues.push_back(std::move(Vals));
    }
  }

  const auto Build = [&](unsigned) {
    return buildTable(Residents, Values, ChurnStart, ChurnValues, false,
                      Rec.get(), nullptr, O);
  };
  std::unique_ptr<Table> T = setupRepeated<Table>(O, Build);
  std::vector<uint64_t> Expected = Values;
  if (Opt.PlantWrongValue)
    Expected[0] ^= 1;
  std::vector<ChurnShadow> Shadows = churnShadows(Churn.size());

  const uint64_t Budget = budget(Opt.Seconds, OpsPerClientPerSec);
  // Phase k starts at client-0 op (k + 1) * Budget / (Phases + 2).
  const auto PhaseStart = [&](size_t Ph) {
    return (Ph + 1) * Budget / (Phases + 2);
  };
  std::atomic<size_t> Published{0};
  std::vector<HashLane> HLanes = clientLanes(Residents);
  runClients(Stats, Rec.get(), Opt.Seed, Budget, [&](Client &C) {
    uint64_t &Rng = C.Rng;
    if (C.Op % HTimeEvery == 0) {
      HLanes[C.Tid].Hash = T->adaptive().specialized();
      hashProbe(C, HLanes[C.Tid]);
    }
    if (C.Tid == 0)
      for (size_t Ph = 0; Ph != Drift.size(); ++Ph)
        if (C.Op == PhaseStart(Ph)) {
          ScopedSpan Load(C.Rec, 0, "drift.load", -1, C.Op);
          for (size_t I = 0; I != Drift[Ph].size(); ++I) {
            const bool Ok = C.call(C.S->Write, "ServingTable::put",
                                   Load.handle(), [&] {
                                     return T->put(Drift[Ph][I],
                                                   DriftValues[Ph][I]);
                                   });
            C.S->check(Ok);
            ++C.S->Keys;
          }
          Published.store(Ph + 1, std::memory_order_release);
        }
    maintenance(C, *T);
    if (splitmix64(Rng) % 100 >= ReadPct) {
      churnWrite(C, *T, Churn, Shadows[C.Tid], Rng, Opt.Seed);
      return;
    }
    // Drift targets: phases both published and reached by this client's
    // own op count (so a fast client does not run ahead of the schedule).
    size_t Loaded = Published.load(std::memory_order_acquire);
    while (Loaded != 0 && C.Op < PhaseStart(Loaded - 1))
      --Loaded;
    lookup(C, *T, Rng, [&](std::string_view &Key, uint64_t &Expect) {
      const uint64_t R = splitmix64(Rng);
      if (Loaded != 0 && R % 100 < DriftGetPct) {
        const size_t Ph = (R >> 8) % Loaded;
        const size_t I = (R >> 16) % Drift[Ph].size();
        Key = Drift[Ph][I];
        Expect = DriftValues[Ph][I];
      } else {
        const size_t I = (R >> 8) % Residents.size();
        Key = Residents[I];
        Expect = Expected[I];
      }
    });
  });

  verifyTable(*T, Residents, Expected, Churn, Shadows, O);
  for (size_t Ph = 0; Ph != Drift.size(); ++Ph)
    for (size_t I = 0; I != Drift[Ph].size(); ++I) {
      uint64_t V = 0;
      ++O.VerifyChecked;
      O.VerifyFailed +=
          T->get(Drift[Ph][I], V) && V == DriftValues[Ph][I] ? 0 : 1;
    }
  setupRepeated<Table>(O, Build);
  char Line[200];
  std::snprintf(Line, sizeof(Line),
                "SSN: %zu residents, %zu churn, %zu drift phases x %zu keys, "
                "%llu swaps, %llu ops/client",
                Residents.size(), Churn.size(), Drift.size(), DriftPerPhase,
                static_cast<unsigned long long>(T->adaptive().swaps()),
                static_cast<unsigned long long>(Budget));
  O.Notes.push_back(Line);
  return finish(Opt, Stats, O, Rec.get(),
                ladderInput(Residents, Values, {}, false, Opt.Seed),
                T.get());
}

//===--------------------------------------------------------------------===//
// paper_umap
//===--------------------------------------------------------------------===//

using UMap = std::unordered_map<std::string, uint64_t, SynthesizedHash>;

/// One client's inputs for one paper format: keys, values, schedule.
struct UmapLane {
  PaperKey Format = PaperKey::SSN;
  std::vector<std::string> Keys;
  std::vector<uint64_t> Values;
  /// Inter(0.6, 0.2): 60% insert, 20% search, 20% erase.
  std::vector<uint32_t> Schedule; ///< (op << 30) | key index.
};

/// What setup builds for one lane: its hash, its map, and the shadow
/// presence state every map result is checked against.
struct UmapBuilt {
  SynthesizedHash Hash;
  std::unique_ptr<UMap> Map;
  std::vector<uint8_t> Present;
};

struct UmapState {
  std::vector<std::vector<UmapBuilt>> Lanes; ///< [client][format]
};

enum : uint32_t { OpInsert = 0, OpSearch = 1, OpErase = 2 };

RunResult runPaperUmap(const RunOptions &Opt) {
  constexpr size_t KeysPerFormat = 512;
  constexpr size_t ScheduleLen = 8192;
  constexpr double OpsPerClientPerSec = 2.5e6;
  const size_t Formats = AllPaperKeys.size();

  std::unique_ptr<SpanRecorder> Rec =
      Opt.Trace ? std::make_unique<SpanRecorder>(Clients, SpanCapacity)
                : nullptr;
  auto Stats = makeStats();
  Outcome O;

  // Inputs: per client, per format, its keys and its schedule.
  std::vector<std::vector<UmapLane>> Lanes(Clients);
  for (unsigned C = 0; C != Clients; ++C)
    for (size_t F = 0; F != Formats; ++F) {
      UmapLane L;
      L.Format = AllPaperKeys[F];
      const uint64_t LaneSeed = Opt.Seed * 1000003u + C * 31 + F;
      L.Keys = distinctKeys(L.Format, LaneSeed, KeysPerFormat);
      for (size_t I = 0; I != L.Keys.size(); ++I)
        L.Values.push_back(valueOf(LaneSeed, I));
      uint64_t Rng = LaneSeed ^ 0x5c4ed;
      for (size_t I = 0; I != ScheduleLen; ++I) {
        const uint64_t P = splitmix64(Rng) % 10;
        const uint32_t Op = P < 6 ? OpInsert : P < 8 ? OpSearch : OpErase;
        L.Schedule.push_back(
            Op << 30 | static_cast<uint32_t>(splitmix64(Rng) % KeysPerFormat));
      }
      Lanes[C].push_back(std::move(L));
    }

  // Setup: infer, synthesize + attach, and fill every map with the
  // paper's insertion half (one random insert per key).
  uint64_t SynthFailures = 0;
  const auto Build = [&](unsigned) {
    auto St = std::make_unique<UmapState>();
    ScopedSpan Setup(Rec.get(), 0, "setup");
    for (const auto &Mine : Lanes) {
      St->Lanes.emplace_back();
      for (const UmapLane &L : Mine) {
        UmapBuilt &B = St->Lanes.back().emplace_back();
        KeyPattern Pattern;
        {
          ScopedSpan S(Rec.get(), 0, "inferPattern", Setup.handle());
          Pattern = inferPattern(L.Keys);
        }
        {
          ScopedSpan S(Rec.get(), 0, "synthesize+attach", Setup.handle());
          Expected<HashPlan> Plan = synthesize(Pattern, HashFamily::Pext);
          if (!Plan) {
            ++SynthFailures;
            Plan = synthesize(Pattern, HashFamily::OffXor);
          }
          B.Hash = SynthesizedHash(Plan.take());
        }
        ScopedSpan S(Rec.get(), 0, "unordered_map::emplace(load)",
                     Setup.handle());
        B.Map = std::make_unique<UMap>(KeysPerFormat, B.Hash);
        B.Present.assign(L.Keys.size(), 0);
        uint64_t Rng = L.Keys.size() ^ 0x10ad;
        for (size_t I = 0; I != L.Keys.size(); ++I) {
          const size_t K = splitmix64(Rng) % L.Keys.size();
          B.Map->emplace(L.Keys[K], L.Values[K]);
          B.Present[K] = 1;
        }
      }
    }
    return St;
  };
  std::unique_ptr<UmapState> State = setupRepeated<UmapState>(O, Build);
  if (Opt.PlantWrongValue)
    State->Lanes[0][0].Present[0] ^= 1;

  // H-Time lanes: every lane's keys, each through its own hash.
  std::vector<std::vector<HashLane>> HLanes(Clients);
  for (unsigned C = 0; C != Clients; ++C)
    for (size_t F = 0; F != Formats; ++F) {
      const std::vector<std::string> &Keys = Lanes[C][F].Keys;
      HLanes[C].push_back({State->Lanes[C][F].Hash,
                           std::vector<std::string_view>(Keys.begin(),
                                                         Keys.end())});
    }

  const uint64_t Budget = budget(Opt.Seconds, OpsPerClientPerSec);
  runClients(Stats, Rec.get(), Opt.Seed, Budget, [&](Client &C) {
    uint64_t &Rng = C.Rng;
    if (C.Op % HTimeEvery == 0)
      hashProbe(C, HLanes[C.Tid][C.Op / HTimeEvery % Formats]);
    const size_t F = C.Op % Formats;
    const UmapLane &L = Lanes[C.Tid][F];
    UmapBuilt &B = State->Lanes[C.Tid][F];
    const uint32_t Entry = L.Schedule[(C.Op / Formats) % ScheduleLen];
    const uint32_t Op = Entry >> 30;
    const size_t K = Entry & ((1u << 30) - 1);
    UMap &M = *B.Map;
    if (Op == OpSearch && splitmix64(Rng) % BatchEvery == 0) {
      // A lookup batch: BatchKeys finds timed as one call (the map has
      // no batch entry point).
      size_t Idx[BatchKeys];
      for (size_t &I : Idx)
        I = splitmix64(Rng) % L.Keys.size();
      bool Hit[BatchKeys];
      ScopedSpan Req(C.sampler(), C.Tid, "request.batch", -1, C.Op);
      C.call(C.S->Batch, "unordered_map::find(x64)", Req.handle(), [&] {
        for (size_t I = 0; I != BatchKeys; ++I) {
          const auto It = M.find(L.Keys[Idx[I]]);
          Hit[I] = It != M.end() && It->second == L.Values[Idx[I]];
        }
        return 0;
      });
      for (size_t I = 0; I != BatchKeys; ++I)
        C.S->check(Hit[I] == (B.Present[Idx[I]] != 0));
      C.S->Keys += BatchKeys;
      return;
    }
    ScopedSpan Req(C.sampler(), C.Tid,
                   Op == OpSearch ? "request.get" : "request.write", -1, C.Op);
    bool Ok;
    if (Op == OpSearch) {
      const bool Hit = C.call(C.S->Get, "unordered_map::find", Req.handle(),
                              [&] {
                                const auto It = M.find(L.Keys[K]);
                                return It != M.end() &&
                                       It->second == L.Values[K];
                              });
      Ok = Hit == (B.Present[K] != 0);
    } else if (Op == OpInsert) {
      const bool Inserted =
          C.call(C.S->Write, "unordered_map::emplace", Req.handle(),
                 [&] { return M.emplace(L.Keys[K], L.Values[K]).second; });
      Ok = Inserted == !B.Present[K];
      B.Present[K] = 1;
    } else {
      const bool Erased = C.call(C.S->Write, "unordered_map::erase",
                                 Req.handle(),
                                 [&] { return M.erase(L.Keys[K]) == 1; });
      Ok = Erased == (B.Present[K] != 0);
      B.Present[K] = 0;
    }
    C.S->check(Ok);
    ++C.S->Keys;
  });

  for (unsigned C = 0; C != Clients; ++C)
    for (size_t F = 0; F != Formats; ++F) {
      const UmapLane &L = Lanes[C][F];
      const UmapBuilt &B = State->Lanes[C][F];
      size_t Count = 0;
      for (size_t I = 0; I != L.Keys.size(); ++I) {
        Count += B.Present[I];
        const auto It = B.Map->find(L.Keys[I]);
        ++O.VerifyChecked;
        O.VerifyFailed += (It != B.Map->end()) == (B.Present[I] != 0) ? 0 : 1;
      }
      ++O.VerifyChecked;
      O.VerifyFailed += B.Map->size() == Count ? 0 : 1;
    }
  setupRepeated<UmapState>(O, Build);
  // Every lane's plan must be a Pext plan (synthesis never fails).
  ++O.VerifyChecked;
  O.VerifyFailed += SynthFailures == 0 ? 0 : 1;
  char Line[160];
  std::snprintf(Line, sizeof(Line),
                "8 formats x %zu keys per client, Inter(0.6,0.2), %llu "
                "ops/client",
                KeysPerFormat, static_cast<unsigned long long>(Budget));
  O.Notes.push_back(Line);
  // The ladder replays client 0's SSN lane; the maps have no serving
  // table, so the table facts come from the replay's.
  const UmapLane &L = Lanes[0][0];
  return finish(Opt, Stats, O, Rec.get(),
                ladderInput(L.Keys, L.Values, {}, false, Opt.Seed),
                nullptr);
}

} // namespace

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"serve_read", "serve_drift",
                                                 "serve_static", "paper_umap"};
  return Names;
}

const std::vector<std::pair<std::string, std::string>> &endToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Metrics = {
      {"setup_s", "s"},
      {"ops_per_s", "1/s"},
      {"get_p50_ns", "ns"},
      {"get_p99_ns", "ns"},
      {"batch_p50_ns", "ns"},
      {"batch_p99_ns", "ns"},
      {"write_p50_ns", "ns"},
      {"write_p99_ns", "ns"},
      {"hash_single_ns_per_key", "ns"},
      {"hash_batch_ns_per_key", "ns"},
      {"peak_rss_mb", "MiB"},
  };
  return Metrics;
}

const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Metrics = [] {
    std::vector<std::pair<std::string, std::string>> M = {
        {"core.infer_ms", "ms"},
        {"core.attach_ms", "ms"},
        {"core.hash_ns", "ns"},
    };
    for (PaperKey K : AllPaperKeys)
      M.push_back({std::string("core.hash_ns.") + paperKeyName(K), "ns"});
    const std::vector<std::pair<std::string, std::string>> Rest = {
        {"core.hash_batch_ns_per_key", "ns"},
        {"runtime.route_ns", "ns"},
        {"runtime.route_batch_ns_per_key", "ns"},
        {"runtime.get_ns", "ns"},
        {"runtime.get_batch_ns_per_key", "ns"},
        {"runtime.guard_miss_ratio", "ratio"},
        {"runtime.spill_keys_end", "count"},
        {"runtime.swaps", "count"},
        {"runtime.migrations", "count"},
        {"runtime.swept_keys", "count"},
        {"runtime.resynth_ms", "ms"},
        {"runtime.maintain_ms", "ms"},
        {"container.get_ns", "ns"},
        {"container.get_batch_ns_per_key", "ns"},
        {"container.read_contended_ratio", "ratio"},
        {"container.write_contended_ratio", "ratio"},
        {"mphf.build_ms", "ms"},
        {"mphf.bits_per_key", "bits"},
        {"mphf.eval_ns_per_key", "ns"},
        {"mphf.static_keys", "count"},
        {"ladder.guard_ns", "ns"},
        {"ladder.guard_spread_ns", "ns"},
        {"ladder.shard_probe_ns", "ns"},
        {"ladder.shard_probe_spread_ns", "ns"},
        {"ladder.serving_ns", "ns"},
        {"ladder.serving_spread_ns", "ns"},
        {"ladder.guard_batch_ns_per_key", "ns"},
        {"ladder.guard_batch_spread_ns", "ns"},
        {"ladder.shard_probe_batch_ns_per_key", "ns"},
        {"ladder.shard_probe_batch_spread_ns", "ns"},
        {"ladder.serving_batch_ns_per_key", "ns"},
        {"ladder.serving_batch_spread_ns", "ns"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
        {"trace.request_self_ns", "ns"},
    };
    M.insert(M.end(), Rest.begin(), Rest.end());
    return M;
  }();
  return Metrics;
}

RunResult runWorkload(const RunOptions &Opt) {
  if (Opt.Workload == "serve_read")
    return runServeSteady(Opt, {PaperKey::SSN, 8192, 2048, 0, 95, false,
                                1.5e6});
  if (Opt.Workload == "serve_static")
    return runServeSteady(Opt, {PaperKey::IPv4, 12288, 0, 1366, 100, true,
                                1.7e6});
  if (Opt.Workload == "serve_drift")
    return runServeDrift(Opt);
  return runPaperUmap(Opt);
}

} // namespace pb
