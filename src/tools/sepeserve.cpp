//===- tools/sepeserve.cpp - Concurrent serving demo daemon ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end demo of the concurrent serving stack: a ServingTable
/// (AdaptiveHash routing + ShardedIndexMap fast lane + spill lane)
/// driven by N client threads of mixed get/put/erase traffic while a
/// maintenance thread pumps re-synthesis and shard migration. Partway
/// through the run the clients start mixing in out-of-format keys —
/// the drift detector trips, a new generation is synthesized and
/// hot-swapped, the fast lane migrates shard by shard, and the spill
/// lane is swept — all under full load.
///
/// Correctness accounting is the point of the binary: a "resident" set
/// of keys (both in-format and drifted) is inserted before the clients
/// start and never erased, so every lookup of a resident key must hit
/// with the right value at every instant, including mid-swap and
/// mid-migration. Any resident miss or wrong value is a failed lookup;
/// the process exits nonzero if any occur. A second "churn" set takes
/// the put/erase traffic (no expectation, it just keeps the shard locks
/// and tombstone paths hot).
///
///   sepeserve [--threads=N] [--seconds=S] [--keys=FORMAT]
///             [--pool=N] [--read-pct=P] [--drift-pct=P] [--shards=N]
///             [--smoke] [--json=FILE] [--trace=FILE.json]
///             [--metrics-port=N] [--metrics-interval=S]
///             [--metrics-file=FILE]
///
/// --smoke is the CI entry point: a short fixed-size run (used under
/// TSan) that exits 1 on any failed lookup. --trace turns the telemetry
/// plane on and drains its flight recorder into Chrome-trace JSON at
/// exit; --metrics-port serves live Prometheus text over HTTP while the
/// run is in flight, and --metrics-interval periodically snapshots the
/// same exposition to --metrics-file for socketless environments.
///
//===----------------------------------------------------------------------===//

#include "core/explain.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "quality/live_stats.h"
#include "quality/monitor.h"
#include "runtime/serving_table.h"
#include "stats/descriptive.h"
#include "support/json.h"
#include "support/metrics_exporter.h"
#include "support/telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace sepe;

namespace {

struct ServeOptions {
  size_t Threads = 4;
  double Seconds = 5.0;
  PaperKey Key = PaperKey::SSN;
  size_t Pool = 4096;
  unsigned ReadPct = 90;
  unsigned DriftPct = 25;
  size_t Shards = 16;
  bool Smoke = false;
  std::string JsonPath;
  std::string TracePath;
  unsigned MetricsPort = 0;        ///< 0 = no HTTP endpoint.
  double MetricsIntervalSec = 0.0; ///< 0 = no snapshot writer.
  std::string MetricsFile = "sepeserve_metrics.prom";
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: sepeserve [options]\n"
      "  --threads=N     client threads (default 4)\n"
      "  --seconds=S     run duration (default 5)\n"
      "  --keys=FORMAT   paper key format (default SSN)\n"
      "  --pool=N        key pool size (default 4096)\n"
      "  --read-pct=P    percent of ops that are lookups (default 90)\n"
      "  --drift-pct=P   percent of traffic aimed at out-of-format keys\n"
      "                  after drift onset (default 25)\n"
      "  --shards=N      fast-lane shard count hint (default 16)\n"
      "  --smoke         short fixed-size CI run; exit 1 on any failed\n"
      "                  lookup\n"
      "  --json=FILE     write run statistics as JSON\n"
      "  --trace=FILE    turn the telemetry plane on and drain its\n"
      "                  flight recorder into Chrome-trace JSON at\n"
      "                  exit (load in chrome://tracing or Perfetto;\n"
      "                  needs -DSEPE_TELEMETRY=ON for events)\n"
      "  --metrics-port=N     serve live Prometheus metrics on\n"
      "                       127.0.0.1:N while running; also mounts\n"
      "                       /plan (active hash plan, generation-\n"
      "                       stamped) and /quality (live sampled\n"
      "                       distribution quality, JSON)\n"
      "  --metrics-interval=S rewrite the Prometheus exposition to\n"
      "                       --metrics-file every S seconds\n"
      "  --metrics-file=FILE  snapshot target (default\n"
      "                       sepeserve_metrics.prom)\n");
}

bool parseOptions(int Argc, char **Argv, ServeOptions &Options) {
  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (Arg.rfind("--threads=", 0) == 0) {
      Options.Threads = std::max<size_t>(1, std::stoul(Arg.substr(10)));
    } else if (Arg.rfind("--seconds=", 0) == 0) {
      Options.Seconds = std::stod(Arg.substr(10));
    } else if (Arg.rfind("--keys=", 0) == 0) {
      const std::string Name = Arg.substr(7);
      bool Ok = false;
      for (const PaperKey Key : AllPaperKeys)
        if (Name == paperKeyName(Key)) {
          Options.Key = Key;
          Ok = true;
          break;
        }
      if (!Ok) {
        std::fprintf(stderr, "error: unknown key format '%s'\n",
                     Name.c_str());
        return false;
      }
    } else if (Arg.rfind("--pool=", 0) == 0) {
      Options.Pool = std::max<size_t>(64, std::stoul(Arg.substr(7)));
    } else if (Arg.rfind("--read-pct=", 0) == 0) {
      Options.ReadPct = static_cast<unsigned>(
          std::min(100ul, std::stoul(Arg.substr(11))));
    } else if (Arg.rfind("--drift-pct=", 0) == 0) {
      Options.DriftPct = static_cast<unsigned>(
          std::min(100ul, std::stoul(Arg.substr(12))));
    } else if (Arg.rfind("--shards=", 0) == 0) {
      Options.Shards = std::max<size_t>(1, std::stoul(Arg.substr(9)));
    } else if (Arg == "--smoke") {
      Options.Smoke = true;
      Options.Threads = std::min<size_t>(Options.Threads, 4);
      Options.Seconds = 1.5;
      Options.Pool = 1024;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Options.JsonPath = Arg.substr(7);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Options.TracePath = Arg.substr(8);
    } else if (Arg.rfind("--metrics-port=", 0) == 0) {
      Options.MetricsPort = static_cast<unsigned>(
          std::min(65535ul, std::stoul(Arg.substr(15))));
    } else if (Arg.rfind("--metrics-interval=", 0) == 0) {
      Options.MetricsIntervalSec = std::stod(Arg.substr(19));
    } else if (Arg == "--metrics-interval") {
      Options.MetricsIntervalSec = 0.25; // CI shorthand
    } else if (Arg.rfind("--metrics-file=", 0) == 0) {
      Options.MetricsFile = Arg.substr(15);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return false;
    }
  }
  return true;
}

uint64_t splitmix64(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ULL;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

struct alignas(64) ClientCounters {
  uint64_t Gets = 0;
  uint64_t Hits = 0;
  uint64_t FailedLookups = 0; ///< Resident key missed or wrong value.
  uint64_t Puts = 0;
  uint64_t Erases = 0;
  uint64_t BatchOps = 0;
};

} // namespace

int main(int Argc, char **Argv) {
  ServeOptions Options;
  if (!parseOptions(Argc, Argv, Options))
    return 2;

  // --- Observability arms --------------------------------------------------
  const bool WantMetrics =
      Options.MetricsPort != 0 || Options.MetricsIntervalSec > 0.0;
  if (WantMetrics && !telemetry::compiledIn())
    std::fprintf(stderr,
                 "warning: metrics export without -DSEPE_TELEMETRY=ON — "
                 "the telemetry series will be empty\n");
  if (WantMetrics || !Options.TracePath.empty())
    telemetry::setEnabled(true);

  // --- Key pools -----------------------------------------------------------
  const FormatSpec Format = paperKeyFormat(Options.Key);
  const KeyPattern Pattern = Format.abstract();
  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x5e27e);
  const std::vector<std::string> InFormat = Gen.distinct(Options.Pool);
  const size_t ResidentCount = InFormat.size() / 2;

  // Out-of-format keys: one guard-rejecting byte written into copies of
  // the resident keys. If the pattern is all-top (cannot be drifted out
  // of) the run degrades to in-format traffic only.
  const DriftProbe Probe = findDriftProbe(Pattern);
  std::vector<std::string> Drifted;
  if (Probe.Valid) {
    Drifted.assign(InFormat.begin(), InFormat.begin() + ResidentCount);
    for (std::string &Key : Drifted)
      Key[Probe.Pos] = Probe.Byte;
  }

  // --- Table ---------------------------------------------------------------
  AdaptiveOptions Adaptive;
  Adaptive.Family = HashFamily::Pext; // Bijective: engages the fast lane.
  Adaptive.Background = false;        // Maintenance thread pumps swaps.
  Adaptive.Cooldown = std::chrono::milliseconds(0);
  Adaptive.DriftWindow = 512;
  // Feed the live quality monitor: every 64th admitted key lands in
  // the in-format reservoir (one relaxed fetch_add on the hot path).
  Adaptive.QualitySampleEvery = 64;
  ServingTable<uint64_t> Table(Pattern, Adaptive, Options.Shards);
  quality::QualityMonitor Monitor(Table.adaptive());

  // Resident keys: present for the whole run, value = pool index. The
  // drifted residents go in up front too — they live in the spill lane
  // until a widened generation admits them, and must stay visible
  // through the swap, the migration and the sweep.
  for (size_t I = 0; I != ResidentCount; ++I)
    Table.put(InFormat[I], I);
  for (size_t I = 0; I != Drifted.size(); ++I)
    Table.put(Drifted[I], ResidentCount + I);

  const bool FastAtStart = Table.hasFastLane();

  // --- Live metrics exporters ----------------------------------------------
  // The extra block rides every exposition: the fast lane's per-shard
  // lock totals as plain gauges, parsed back out of contentionJson so
  // there is exactly one source of truth for those counters.
  metrics::ExtraFn ContentionProm = [&Table] {
    uint64_t SharedAcq = 0, SharedCon = 0, UniqueAcq = 0, UniqueCon = 0;
    if (Expected<json::Value> Doc = json::parse(Table.fastLaneContentionJson()))
      if (const json::Value *T = Doc->find("totals")) {
        SharedAcq = static_cast<uint64_t>(T->numberOr("shared_acquires", 0));
        SharedCon = static_cast<uint64_t>(T->numberOr("shared_contended", 0));
        UniqueAcq = static_cast<uint64_t>(T->numberOr("unique_acquires", 0));
        UniqueCon = static_cast<uint64_t>(T->numberOr("unique_contended", 0));
      }
    std::string Out;
    // Reads are lock-free; only their locked fallbacks take the lock.
    Out += "# HELP sepe_serving_shard_shared_acquires Fast-lane read-lock "
           "acquisitions: locked fallbacks after failed lock-free reads\n";
    Out += "# TYPE sepe_serving_shard_shared_acquires counter\n";
    Out += "sepe_serving_shard_shared_acquires " +
           std::to_string(SharedAcq) + "\n";
    Out += "# TYPE sepe_serving_shard_shared_contended counter\n";
    Out += "sepe_serving_shard_shared_contended " +
           std::to_string(SharedCon) + "\n";
    Out += "# TYPE sepe_serving_shard_unique_acquires counter\n";
    Out += "sepe_serving_shard_unique_acquires " +
           std::to_string(UniqueAcq) + "\n";
    Out += "# TYPE sepe_serving_shard_unique_contended counter\n";
    Out += "sepe_serving_shard_unique_contended " +
           std::to_string(UniqueCon) + "\n";
    return Out;
  };
  metrics::MetricsServer Server;
  // Introspection endpoints, mounted before the listener starts:
  // /plan renders the active generation's hash plan, /quality the
  // latest generation-stamped live quality sample.
  Server.registerHandler(
      "/plan", "text/plain; charset=utf-8", [&Table] {
        const auto Snap = Table.adaptive().snapshot();
        std::string Out =
            "generation " + std::to_string(Snap.Epoch) + "\n";
        if (Snap.Fast.valid())
          Out += explainPlan(Snap.Fast.plan());
        else
          Out += "no specialized plan (STL fallback)\n";
        return Out;
      });
  Server.registerHandler("/quality", "application/json", [] {
    return quality::liveStatsJson();
  });
  if (Options.MetricsPort != 0) {
    if (Server.start(static_cast<uint16_t>(Options.MetricsPort),
                     ContentionProm))
      std::printf("sepeserve: metrics on http://127.0.0.1:%u/metrics\n",
                  Server.port());
    else
      std::fprintf(stderr, "warning: cannot bind metrics port %u\n",
                   Options.MetricsPort);
  }
  metrics::SnapshotWriter Snapshots;
  if (Options.MetricsIntervalSec > 0.0)
    Snapshots.start(Options.MetricsFile, Options.MetricsIntervalSec,
                    ContentionProm);

  // --- Clients -------------------------------------------------------------
  std::atomic<bool> Stop{false};
  std::atomic<bool> DriftOn{false};
  std::vector<ClientCounters> Counters(Options.Threads);
  std::vector<std::thread> Clients;
  Clients.reserve(Options.Threads);

  auto Client = [&](size_t Tid) {
    ClientCounters &C = Counters[Tid];
    uint64_t Rng = 0xC0FFEE + Tid * 0x9E3779B9ULL;
    std::string_view BatchKeys[64];
    uint64_t BatchOut[64];
    uint8_t BatchFound[64];
    while (!Stop.load(std::memory_order_relaxed)) {
      const bool Drift = DriftOn.load(std::memory_order_relaxed) &&
                         !Drifted.empty() &&
                         splitmix64(Rng) % 100 < Options.DriftPct;
      const uint64_t Op = splitmix64(Rng) % 100;
      if (Op < Options.ReadPct) {
        if (Op % 16 == 0) {
          // Batch lookup over resident keys: every slot must hit.
          for (size_t I = 0; I != 64; ++I) {
            const size_t K = splitmix64(Rng) % ResidentCount;
            if (Drift) {
              BatchKeys[I] = Drifted[K];
              BatchOut[I] = ResidentCount + K;
            } else {
              BatchKeys[I] = InFormat[K];
              BatchOut[I] = K;
            }
          }
          uint64_t Expected[64];
          std::memcpy(Expected, BatchOut, sizeof(Expected));
          Table.getBatch(BatchKeys, BatchOut, BatchFound, 64);
          C.Gets += 64;
          ++C.BatchOps;
          for (size_t I = 0; I != 64; ++I) {
            if (BatchFound[I] && BatchOut[I] == Expected[I])
              ++C.Hits;
            else
              ++C.FailedLookups;
          }
        } else {
          const size_t K = splitmix64(Rng) % ResidentCount;
          const std::string &Key = Drift ? Drifted[K] : InFormat[K];
          const uint64_t Expected = Drift ? ResidentCount + K : K;
          uint64_t V = 0;
          ++C.Gets;
          if (Table.get(Key, V) && V == Expected)
            ++C.Hits;
          else
            ++C.FailedLookups;
        }
      } else {
        // Churn half of the pool: put/erase with no expectation.
        const size_t K =
            ResidentCount + splitmix64(Rng) % (InFormat.size() -
                                               ResidentCount);
        if (Op % 2 == 0) {
          Table.put(InFormat[K], K);
          ++C.Puts;
        } else {
          Table.erase(InFormat[K]);
          ++C.Erases;
        }
      }
    }
  };
  for (size_t T = 0; T != Options.Threads; ++T)
    Clients.emplace_back(Client, T);

  // --- Maintenance ---------------------------------------------------------
  std::atomic<uint64_t> MaintainTicks{0};
  std::thread Maintenance([&] {
    uint64_t Tick = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Table.adaptive().resynthesisPending())
        Table.adaptive().pumpResynthesis();
      if (Table.maintain())
        MaintainTicks.fetch_add(1, std::memory_order_relaxed);
      // Pump the live quality estimator off the hot path (~every
      // 25ms): buckets the in-format reservoir through the container's
      // probe mix and publishes the generation-stamped sample that
      // /quality and the sepe_quality_* gauges serve.
      if (++Tick % 50 == 0)
        (void)Monitor.pump();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  // --- Run: steady phase, then drift onset ---------------------------------
  const auto RunStart = std::chrono::steady_clock::now();
  const auto Duration = std::chrono::duration<double>(Options.Seconds);
  std::this_thread::sleep_for(Duration * 0.3);
  DriftOn.store(true, std::memory_order_release);
  std::this_thread::sleep_for(Duration * 0.7);
  Stop.store(true, std::memory_order_release);
  for (std::thread &T : Clients)
    T.join();
  Maintenance.join();
  const double ElapsedS =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    RunStart)
          .count();

  // Converge and verify every resident key one final time.
  if (Table.adaptive().resynthesisPending())
    Table.adaptive().pumpResynthesis();
  Table.maintain();
  uint64_t FinalFailures = 0;
  for (size_t I = 0; I != ResidentCount; ++I) {
    uint64_t V = 0;
    if (!Table.get(InFormat[I], V) || V != I)
      ++FinalFailures;
  }
  for (size_t I = 0; I != Drifted.size(); ++I) {
    uint64_t V = 0;
    if (!Table.get(Drifted[I], V) || V != ResidentCount + I)
      ++FinalFailures;
  }

  // --- Report --------------------------------------------------------------
  ClientCounters Total;
  for (const ClientCounters &C : Counters) {
    Total.Gets += C.Gets;
    Total.Hits += C.Hits;
    Total.FailedLookups += C.FailedLookups;
    Total.Puts += C.Puts;
    Total.Erases += C.Erases;
    Total.BatchOps += C.BatchOps;
  }
  const ServingTable<uint64_t>::Stats Stats = Table.stats();
  const uint64_t Ops = Total.Gets + Total.Puts + Total.Erases;
  const double OpsPerSec = ElapsedS > 0 ? Ops / ElapsedS : 0;

  std::printf("sepeserve: %s, %zu threads, %.1fs, %zu-key pool\n",
              paperKeyName(Options.Key), Options.Threads, ElapsedS,
              InFormat.size());
  std::printf("  ops            %llu (%.2fM/s, %.2fM/s/thread)\n",
              static_cast<unsigned long long>(Ops), OpsPerSec / 1e6,
              OpsPerSec / 1e6 / Options.Threads);
  std::printf("  gets           %llu (%llu hits, %llu batch calls)\n",
              static_cast<unsigned long long>(Total.Gets),
              static_cast<unsigned long long>(Total.Hits),
              static_cast<unsigned long long>(Total.BatchOps));
  std::printf("  puts/erases    %llu / %llu\n",
              static_cast<unsigned long long>(Total.Puts),
              static_cast<unsigned long long>(Total.Erases));
  std::printf("  fast lane      %s at start, %zu keys, epoch %llu, "
              "%llu migrations\n",
              FastAtStart ? "live" : "absent", Stats.FastSize,
              static_cast<unsigned long long>(Stats.FastEpoch),
              static_cast<unsigned long long>(Stats.Migrations));
  std::printf("  spill lane     %zu keys, %llu swept to fast\n",
              Stats.SpillSize,
              static_cast<unsigned long long>(Stats.SweptKeys));
  std::printf("  hot swaps      %llu (%llu maintain ticks)\n",
              static_cast<unsigned long long>(Table.adaptive().swaps()),
              static_cast<unsigned long long>(
                  MaintainTicks.load(std::memory_order_relaxed)));
  std::printf("  failed lookups %llu in-flight, %llu at final verify\n",
              static_cast<unsigned long long>(Total.FailedLookups),
              static_cast<unsigned long long>(FinalFailures));

  // One last pump so the reported sample reflects end-of-run state.
  const quality::LiveQualitySample Quality = Monitor.pump();
  if (Quality.Valid)
    std::printf("  quality        gen %llu: %llu sampled keys, "
                "%llu duplicate hashes, occupancy skew %.2fx, "
                "chi2 %.1f\n",
                static_cast<unsigned long long>(Quality.Generation),
                static_cast<unsigned long long>(Quality.SampleKeys),
                static_cast<unsigned long long>(Quality.DuplicateHashes),
                Quality.OccupancySkew, Quality.Chi2);
  else
    std::printf("  quality        no sample (reservoir below minimum)\n");

  // Per-shard lock pressure on the fast lane (the active generation's
  // counters; summarized here, embedded shard-by-shard in the JSON).
  // Reads are lock-free, so their side counts locked read fallbacks.
  const std::string Contention = Table.fastLaneContentionJson();
  {
    uint64_t SharedAcq = 0, SharedCon = 0, UniqueAcq = 0, UniqueCon = 0;
    // One sample per shard: a hot shard shows up as p99 far above p50.
    std::vector<double> SharedPerShard, UniquePerShard;
    if (Expected<json::Value> Doc = json::parse(Contention)) {
      if (const json::Value *T = Doc->find("totals")) {
        SharedAcq = static_cast<uint64_t>(T->numberOr("shared_acquires", 0));
        SharedCon = static_cast<uint64_t>(T->numberOr("shared_contended", 0));
        UniqueAcq = static_cast<uint64_t>(T->numberOr("unique_acquires", 0));
        UniqueCon = static_cast<uint64_t>(T->numberOr("unique_contended", 0));
      }
      if (const json::Value *Shards = Doc->find("shards")) {
        for (const json::Value &S : Shards->array()) {
          SharedPerShard.push_back(S.numberOr("shared_acquires", 0));
          UniquePerShard.push_back(S.numberOr("unique_acquires", 0));
        }
      }
    }
    std::printf("  lock pressure  locked read fallbacks %llu "
                "(%llu contended), writes %llu (%llu contended)\n",
                static_cast<unsigned long long>(SharedAcq),
                static_cast<unsigned long long>(SharedCon),
                static_cast<unsigned long long>(UniqueAcq),
                static_cast<unsigned long long>(UniqueCon));
    std::printf("  shard spread   read fallbacks p50 %.0f / p99 %.0f, "
                "writes p50 %.0f / p99 %.0f (per-shard acquires)\n",
                quantile(SharedPerShard, 0.50), quantile(SharedPerShard, 0.99),
                quantile(UniquePerShard, 0.50),
                quantile(UniquePerShard, 0.99));
  }
  Server.stop();
  Snapshots.stop();

  if (!Options.TracePath.empty()) {
    const uint64_t Emitted = telemetry::emitted();
    const uint64_t Dropped = telemetry::dropped();
    if (telemetry::writeChromeTrace(Options.TracePath))
      std::printf("  trace          %s (%llu events, %llu dropped)\n",
                  Options.TracePath.c_str(),
                  static_cast<unsigned long long>(Emitted),
                  static_cast<unsigned long long>(Dropped));
    else
      std::fprintf(stderr, "warning: cannot write %s\n",
                   Options.TracePath.c_str());
  }

  if (!Options.JsonPath.empty()) {
    std::string QualityJson = quality::liveStatsJson();
    while (!QualityJson.empty() && QualityJson.back() == '\n')
      QualityJson.pop_back();
    if (std::FILE *F = std::fopen(Options.JsonPath.c_str(), "w")) {
      std::fprintf(
          F,
          "{\n"
          "  \"format\": \"%s\",\n"
          "  \"threads\": %zu,\n"
          "  \"elapsed_s\": %.3f,\n"
          "  \"ops\": %llu,\n"
          "  \"ops_per_sec\": %.0f,\n"
          "  \"gets\": %llu,\n"
          "  \"hits\": %llu,\n"
          "  \"puts\": %llu,\n"
          "  \"erases\": %llu,\n"
          "  \"failed_lookups\": %llu,\n"
          "  \"final_verify_failures\": %llu,\n"
          "  \"hot_swaps\": %llu,\n"
          "  \"migrations\": %llu,\n"
          "  \"swept_keys\": %llu,\n"
          "  \"fast_size\": %zu,\n"
          "  \"spill_size\": %zu,\n"
          "  \"quality\": %s,\n"
          "  \"fast_contention\": %s\n"
          "}\n",
          json::escapeString(paperKeyName(Options.Key)).c_str(),
          Options.Threads, ElapsedS,
          static_cast<unsigned long long>(Ops), OpsPerSec,
          static_cast<unsigned long long>(Total.Gets),
          static_cast<unsigned long long>(Total.Hits),
          static_cast<unsigned long long>(Total.Puts),
          static_cast<unsigned long long>(Total.Erases),
          static_cast<unsigned long long>(Total.FailedLookups),
          static_cast<unsigned long long>(FinalFailures),
          static_cast<unsigned long long>(Table.adaptive().swaps()),
          static_cast<unsigned long long>(Stats.Migrations),
          static_cast<unsigned long long>(Stats.SweptKeys),
          Stats.FastSize, Stats.SpillSize, QualityJson.c_str(),
          Contention.c_str());
      std::fclose(F);
    } else {
      std::fprintf(stderr, "warning: cannot write %s\n",
                   Options.JsonPath.c_str());
    }
  }

  if (Total.FailedLookups != 0 || FinalFailures != 0) {
    std::fprintf(stderr, "sepeserve: FAILED — lookups lost under load\n");
    return 1;
  }
  std::printf("sepeserve: OK — zero failed lookups\n");
  return 0;
}
