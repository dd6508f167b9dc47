//===- tools/sepedriver.cpp - The Section-4 benchmark driver CLI ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's benchmark "driver" as a standalone tool: one
/// parameterization of Section 4's experiment space per invocation.
///
///   sepedriver --key=SSN --container=map --distribution=normal
///              --spread=10000 --mode=batched --affectations=10000
///
/// Prints B-Time, H-Time, B-Coll and T-Coll for all ten hash functions
/// under that parameterization.
///
//===----------------------------------------------------------------------===//

#include "container/direct_index_map.h"
#include "container/flat_index_map.h"
#include "core/explain.h"
#include "core/jit.h"
#include "core/synthesizer.h"
#include "driver/experiment.h"
#include "driver/report.h"
#include "quality/mphf_check.h"
#include "runtime/adaptive_hash.h"
#include "stats/descriptive.h"
#include "support/cpu_features.h"
#include "support/json.h"
#include "support/resource_usage.h"
#include "support/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace sepe;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --key=SSN|CPF|MAC|IPv4|IPv6|INTS|URL1|URL2   (default SSN)\n"
      "  --container=map|set|multimap|multiset        (default map)\n"
      "  --distribution=inc|uniform|normal            (default normal)\n"
      "  --spread=N                                   (default 10000)\n"
      "  --mode=batched|inter70|inter60|inter40       (default batched)\n"
      "  --affectations=N                             (default 10000)\n"
      "  --seed=N                                     (default 0x5e9e)\n"
      "  --isa=native|nobext|portable                 (default native)\n"
      "  --path=auto|scalar|interleaved|avx2|jit      (default auto)\n"
      "  --explain[=text|json|dot]  print the synthesized plan for every\n"
      "                        family on --key instead of running the\n"
      "                        experiment; text annotates cost and (when\n"
      "                        the plan JITs) dumps the generated code,\n"
      "                        dot emits one Graphviz digraph clustering\n"
      "                        all four families\n"
      "  --adaptive            replay a drifting key stream through the\n"
      "                        adaptive runtime instead of the Section-4\n"
      "                        experiment: steady-state guarded hashing\n"
      "                        on --key, then a drifted stream until the\n"
      "                        detector trips and a hot swap lands, then\n"
      "                        post-swap steady state (recovery)\n"
      "  --drift-key=FMT       drift into a second paper format instead\n"
      "                        of single-byte-mutated --key keys\n"
      "  --metrics=FILE.json   turn the telemetry plane on and dump the\n"
      "                        run's observability data as JSON: the\n"
      "                        telemetry registry (counters,\n"
      "                        histograms, spans; needs a\n"
      "                        -DSEPE_TELEMETRY=ON build for non-empty\n"
      "                        data) and getrusage resource totals\n"
      "  --trace=FILE.json     turn the telemetry plane on and write its\n"
      "                        flight recorder as Chrome-trace JSON\n"
      "                        (load in chrome://tracing or Perfetto;\n"
      "                        needs a -DSEPE_TELEMETRY=ON build for\n"
      "                        non-empty data)\n"
      "  --mphf[=N]            build a minimal perfect hash over N\n"
      "                        distinct --key keys (default 100000),\n"
      "                        verify the bijection structurally, and\n"
      "                        time MPHF-backed direct-index lookups\n"
      "                        against FlatIndexMap\n"
      "  --mphf-json=FILE      write the --mphf scorecard + timings as\n"
      "                        JSON (the mphf-smoke CI job floors on it)\n",
      Argv0);
}

/// Writes the telemetry registry and \p Usage to \p MetricsPath when
/// --metrics was given; false when the file cannot be opened.
bool writeMetricsIfRequested(const std::string &MetricsPath,
                             const ResourceUsage &Usage) {
  if (MetricsPath.empty())
    return true;
  std::FILE *Out = std::fopen(MetricsPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "error: cannot open metrics file '%s'\n",
                 MetricsPath.c_str());
    return false;
  }
  std::fprintf(Out, "{\n\"telemetry\": %s,\n\"resources\": %s\n}\n",
               telemetry::toJson().c_str(), Usage.toJson().c_str());
  std::fclose(Out);
  std::printf("metrics written to %s\n", MetricsPath.c_str());
  return true;
}

/// Drains the flight recorder into \p TracePath (Chrome-trace JSON)
/// when --trace was given. Shared by both exit paths.
void writeTraceIfRequested(const std::string &TracePath) {
  if (TracePath.empty())
    return;
  const uint64_t Emitted = telemetry::emitted();
  const uint64_t Dropped = telemetry::dropped();
  if (telemetry::writeChromeTrace(TracePath))
    std::printf("trace written to %s (%llu events, %llu dropped)\n",
                TracePath.c_str(), static_cast<unsigned long long>(Emitted),
                static_cast<unsigned long long>(Dropped));
  else
    std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                 TracePath.c_str());
}

bool parseValue(const std::string &Arg, const char *Name,
                std::string &Out) {
  const std::string Prefix = std::string("--") + Name + "=";
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = Arg.substr(Prefix.size());
  return true;
}

const char *isaLevelName(IsaLevel Isa) {
  switch (Isa) {
  case IsaLevel::Native:
    return "native";
  case IsaLevel::NoBitExtract:
    return "nobext";
  case IsaLevel::Portable:
    return "portable";
  }
  return "?";
}

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Streams \p Keys through the adaptive hash \p Passes times in
/// 256-key batches; returns ns/key.
double timedAdaptivePasses(const AdaptiveHash &Adaptive,
                           const std::vector<std::string_view> &Keys,
                           size_t Passes) {
  std::vector<uint64_t> Out(Keys.size());
  const double Start = nowMs();
  for (size_t P = 0; P != Passes; ++P) {
    Adaptive.hashBatch(Keys.data(), Out.data(), Keys.size());
    asm volatile("" : : "r"(Out.data()) : "memory");
  }
  return (nowMs() - Start) * 1e6 /
         static_cast<double>(Passes * Keys.size());
}

/// The --adaptive replay: steady state on the base format, a drifted
/// stream until the detector trips and a (manually pumped, so the run
/// is deterministic) resynthesis hot-swaps a widened generation in,
/// then post-swap steady state over the same drifted keys.
int runAdaptiveReplay(PaperKey Key, const ExperimentConfig &Config,
                      IsaLevel Isa, bool HaveDriftKey, PaperKey DriftKey,
                      const std::string &MetricsPath) {
  AdaptiveOptions Options;
  Options.Isa = Isa;
  Options.Background = false; // Pump explicitly: deterministic replay.
  AdaptiveHash Adaptive(paperKeyFormat(Key).abstract(), Options);
  if (!Adaptive.specialized().valid()) {
    std::fprintf(stderr, "error: no specialized plan for %s\n",
                 paperKeyName(Key));
    return 1;
  }

  const size_t StreamKeys = std::max<size_t>(Config.Affectations, 2048);
  KeyGenerator Gen(paperKeyFormat(Key), Config.Distribution, Config.Seed);
  std::vector<std::string> Base;
  Base.reserve(StreamKeys);
  for (size_t I = 0; I != StreamKeys; ++I)
    Base.push_back(Gen.next());

  std::vector<std::string> Drift;
  if (HaveDriftKey) {
    KeyGenerator DriftGen(paperKeyFormat(DriftKey), Config.Distribution,
                          Config.Seed + 1);
    Drift.reserve(StreamKeys);
    for (size_t I = 0; I != StreamKeys; ++I)
      Drift.push_back(DriftGen.next());
  } else {
    const DriftProbe Probe = findDriftProbe(Adaptive.pattern());
    if (!Probe.Valid) {
      std::fprintf(stderr,
                   "error: %s's pattern admits every byte; nothing to "
                   "drift (pass --drift-key=FMT)\n",
                   paperKeyName(Key));
      return 1;
    }
    Drift = Base;
    for (std::string &K : Drift)
      K[Probe.Pos] = Probe.Byte;
  }
  const std::vector<std::string_view> BaseViews(Base.begin(), Base.end());
  const std::vector<std::string_view> DriftViews(Drift.begin(),
                                                 Drift.end());

  std::printf("adaptive replay: key=%s drift=%s stream=%zu keys "
              "window=%zu threshold=%.3f\n",
              paperKeyName(Key),
              HaveDriftKey ? paperKeyName(DriftKey) : "mutated",
              StreamKeys, Options.DriftWindow, AdaptiveHash::DriftThreshold);

  // Phase 1: steady state. A couple of warmup passes, then timed.
  (void)timedAdaptivePasses(Adaptive, BaseViews, 2);
  const double SteadyNs = timedAdaptivePasses(Adaptive, BaseViews, 8);
  const SynthesizedHash Raw = Adaptive.specialized();
  std::vector<uint64_t> RawOut(BaseViews.size());
  double RawStart = nowMs();
  for (size_t P = 0; P != 8; ++P) {
    Raw.hashBatch(BaseViews.data(), RawOut.data(), BaseViews.size());
    asm volatile("" : : "r"(RawOut.data()) : "memory");
  }
  const double RawNs =
      (nowMs() - RawStart) * 1e6 / static_cast<double>(8 * BaseViews.size());
  std::printf("\nphase 1 (steady state, in-format):\n"
              "  guarded  %.3f ns/key\n  raw      %.3f ns/key "
              "(specialized batch, no guard)\n  overhead %.1f%%\n",
              SteadyNs, RawNs,
              RawNs > 0 ? (SteadyNs / RawNs - 1.0) * 100 : 0.0);

  // Phase 2: the drifted stream, windowed. Pump the resynthesizer as
  // soon as a tripped window latches it, and report the swap point.
  std::printf("\nphase 2 (drifted stream):\n");
  std::vector<uint64_t> Out(256);
  size_t KeysToSwap = 0;
  const double DriftStart = nowMs();
  for (size_t Banner = 0, I = 0; I < DriftViews.size(); I += 256) {
    const size_t Count = std::min<size_t>(256, DriftViews.size() - I);
    Adaptive.hashBatch(DriftViews.data() + I, Out.data(), Count);
    if (Adaptive.resynthesisPending() && Adaptive.pumpResynthesis())
      KeysToSwap = I + Count;
    if (I + Count >= Banner + 4096 || I + Count == DriftViews.size()) {
      Banner = I + Count;
      std::printf("  %6zu keys: window ratio %.3f, epoch %llu\n", Banner,
                  Adaptive.windowMismatchRatio(),
                  static_cast<unsigned long long>(Adaptive.epoch()));
    }
  }
  const double DriftMs = nowMs() - DriftStart;
  if (Adaptive.swaps() == 0) {
    std::printf("  no swap: stream never tripped the detector\n");
  } else {
    std::printf("  hot swap after %zu drifted keys (%.2f ms into the "
                "stream); pattern now %zu..%zu bytes\n",
                KeysToSwap, DriftMs, Adaptive.pattern().minLength(),
                Adaptive.pattern().maxLength());
  }

  // Phase 3: post-swap steady state over the once-drifted keys.
  (void)timedAdaptivePasses(Adaptive, DriftViews, 2);
  const double RecoveredNs = timedAdaptivePasses(Adaptive, DriftViews, 8);
  std::printf("\nphase 3 (post-swap steady state, drifted keys):\n"
              "  guarded  %.3f ns/key (%.1f%% vs pre-drift steady "
              "state)\n",
              RecoveredNs,
              SteadyNs > 0 ? (RecoveredNs / SteadyNs - 1.0) * 100 : 0.0);

  std::printf("\nsummary: swaps %llu, epoch %llu, guard passes %llu, "
              "guard misses %llu, sampled %zu keys\n",
              static_cast<unsigned long long>(Adaptive.swaps()),
              static_cast<unsigned long long>(Adaptive.epoch()),
              static_cast<unsigned long long>(Adaptive.guardPasses()),
              static_cast<unsigned long long>(Adaptive.guardMisses()),
              Adaptive.sampledKeys().size());

  const ResourceUsage Usage = ResourceUsage::sinceProcessStart();
  std::printf("resources: peak RSS %.1f MiB, user %.2f s, sys %.2f s, "
              "wall %.2f s\n",
              static_cast<double>(Usage.PeakRssKb) / 1024.0, Usage.UserSec,
              Usage.SysSec, Usage.WallSec);

  if (!MetricsPath.empty()) {
    std::FILE *F = std::fopen(MetricsPath.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot open metrics file '%s'\n",
                   MetricsPath.c_str());
      return 1;
    }
    std::string Sampled;
    const std::vector<std::string> SampledKeys = Adaptive.sampledKeys();
    for (size_t I = 0; I != SampledKeys.size(); ++I) {
      Sampled += I == 0 ? "\"" : ", \"";
      Sampled += json::escapeString(SampledKeys[I]);
      Sampled += '"';
    }
    std::fprintf(
        F,
        "{\n\"adaptive\": {\"epoch\": %llu, \"swaps\": %llu, "
        "\"guard_passes\": %llu, \"guard_misses\": %llu,\n"
        "  \"window_ratio\": %.6f, \"steady_ns_per_key\": %.4f, "
        "\"raw_ns_per_key\": %.4f, \"recovered_ns_per_key\": %.4f,\n"
        "  \"keys_to_swap\": %zu,\n  \"sampled_keys\": [%s]},\n"
        "\"telemetry\": %s,\n\"resources\": %s\n}\n",
        static_cast<unsigned long long>(Adaptive.epoch()),
        static_cast<unsigned long long>(Adaptive.swaps()),
        static_cast<unsigned long long>(Adaptive.guardPasses()),
        static_cast<unsigned long long>(Adaptive.guardMisses()),
        Adaptive.windowMismatchRatio(), SteadyNs, RawNs, RecoveredNs,
        KeysToSwap, Sampled.c_str(), telemetry::toJson().c_str(),
        Usage.toJson().c_str());
    std::fclose(F);
    std::printf("metrics written to %s\n", MetricsPath.c_str());
  }
  return 0;
}

/// --explain: synthesize all four families for \p Key and print their
/// plans in \p Format. Text mode appends the annotated JIT dump for
/// plans the JIT compiles; dot mode emits a single digraph with one
/// cluster per family so the whole output pipes into `dot -Tsvg`.
int runExplain(PaperKey Key, IsaLevel Isa, ExplainFormat Format) {
  const FormatSpec &Spec = paperKeyFormat(Key);
  std::vector<std::pair<std::string, HashPlan>> Plans;
  for (HashFamily Family :
       {HashFamily::Naive, HashFamily::OffXor, HashFamily::Aes,
        HashFamily::Pext}) {
    if (Isa != IsaLevel::Native && Family == HashFamily::Pext)
      continue; // No bext on this target (RQ4).
    Expected<HashPlan> Plan = synthesize(Spec.abstract(), Family);
    if (!Plan) {
      std::fprintf(stderr, "error: cannot synthesize %s for %s: %s\n",
                   familyName(Family), paperKeyName(Key),
                   Plan.error().Message.c_str());
      return 1;
    }
    Plans.emplace_back(familyName(Family), Plan.take());
  }

  if (Format == ExplainFormat::Dot) {
    std::printf("%s", explainPlansDot(Plans).c_str());
    return 0;
  }
  if (Format == ExplainFormat::Json) {
    std::string Out = "[";
    for (size_t I = 0; I != Plans.size(); ++I) {
      Out += I == 0 ? "\n" : ",\n";
      Out += explainPlan(Plans[I].second, ExplainFormat::Json);
    }
    Out += "\n]\n";
    std::printf("%s", Out.c_str());
    return 0;
  }
  std::printf("key format: %s (%zu..%zu bytes)\n\n", paperKeyName(Key),
              Spec.abstract().minLength(), Spec.abstract().maxLength());
  for (const auto &[Name, Plan] : Plans) {
    std::printf("%s", explainPlan(Plan).c_str());
    const SynthesizedHash Hash(Plan, Isa);
    if (const JitProgram *Jit = Hash.jitProgram())
      std::printf("%s", explainJitProgram(*Jit).c_str());
    std::printf("\n");
  }
  return 0;
}

/// Rounds of the --mphf build and lookup race. Every figure printed
/// (and written to --mphf-json) is the median over the rounds: a
/// single timed pass per lane is noisy enough to flip the lanes'
/// order from one run to the next.
constexpr size_t MphfRounds = 5;

/// --mphf: construct the static-set tier over \p N distinct --key
/// keys, verify the bijection structurally (the mphf-smoke CI floors),
/// and race values[mphf(key)] lookups against the FlatIndexMap
/// baseline over the same key set.
int runMphf(PaperKey Key, size_t N, uint64_t Seed,
            const std::string &JsonPath) {
  const FormatSpec &Spec = paperKeyFormat(Key);
  KeyGenerator Gen(Spec, KeyDistribution::Uniform, Seed);
  const std::vector<std::string> Keys = Gen.distinct(N);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint32_t> Values(N);
  for (size_t I = 0; I != N; ++I)
    Values[I] = static_cast<uint32_t>(I);

  MphfBuildOptions Options;
  Options.Format = &Spec;
  Options.Seed = Seed;
  std::vector<double> BuildSamples;
  Expected<Mphf> F = Error{"not built"};
  for (size_t R = 0; R != MphfRounds; ++R) {
    const double Start = nowMs();
    F = buildMphf(Views, Options);
    BuildSamples.push_back(nowMs() - Start);
    if (!F) {
      std::fprintf(stderr, "error: %s\n", F.error().Message.c_str());
      return 1;
    }
  }
  const double BuildMs = median(BuildSamples);

  quality::MphfReport Report =
      quality::measureMphf(*F, Views.data(), Views.size());
  Report.Format = paperKeyName(Key);
  std::printf("mphf: key=%s n=%zu base=%s\n", paperKeyName(Key), N,
              F->plan().RawBase ? "raw bytes" : "pext extraction");
  std::printf("build: %.2f ms (%.0f keys/ms; median of %zu), %.2f "
              "bits/key\n",
              BuildMs, BuildMs > 0 ? static_cast<double>(N) / BuildMs : 0.0,
              MphfRounds, Report.BitsPerKey);
  std::printf("verify: collisions=%llu out_of_range=%llu coverage=%.6f "
              "max_index=%llu -> %s\n",
              static_cast<unsigned long long>(Report.Collisions),
              static_cast<unsigned long long>(Report.OutOfRange),
              Report.Coverage,
              static_cast<unsigned long long>(Report.MaxIndex),
              Report.perfect() ? "minimal perfect" : "BROKEN");

  const DirectIndexMap<uint32_t> Direct(*F, Spec.abstract(), Views.data(),
                                        Values.data(), N);
  if (!Direct.valid()) {
    std::fprintf(stderr, "error: DirectIndexMap rejected the MPHF\n");
    return 1;
  }

  // FlatIndexMap over the same set (the general specialized-storage
  // tier, no fixed-set assumption): only sound for a bijective plan.
  double FlatBuildMs = -1;
  std::unique_ptr<FlatIndexMap<uint32_t>> Flat;
  Expected<HashPlan> Plan = synthesize(Spec.abstract(), HashFamily::Pext);
  if (Plan && Plan->Bijective) {
    const auto Shared = std::make_shared<const HashPlan>(Plan.take());
    std::vector<double> Samples;
    for (size_t R = 0; R != MphfRounds; ++R) {
      const double Start = nowMs();
      Flat = std::make_unique<FlatIndexMap<uint32_t>>(SynthesizedHash(Shared),
                                                      N);
      Flat->insertBatch(Views.data(), Values.data(), N);
      Samples.push_back(nowMs() - Start);
    }
    FlatBuildMs = median(Samples);
  }

  const size_t Passes = std::max<size_t>(1, 2000000 / std::max<size_t>(N, 1));
  uint64_t Sink = 0;
  std::vector<const uint32_t *> Found(N);
  // ns/key of Passes passes through lane 0 (direct), 1 (direct batch)
  // or 2 (flat).
  auto TimeLane = [&](size_t Lane) {
    const double Start = nowMs();
    for (size_t P = 0; P != Passes; ++P)
      switch (Lane) {
      case 0:
        for (const std::string_view &K : Views)
          Sink += Direct.find(K) != nullptr;
        break;
      case 1:
        Sink += Direct.findBatch(Views.data(), Found.data(), N);
        break;
      default:
        for (const std::string_view &K : Views)
          Sink += Flat->find(K) != nullptr;
      }
    return (nowMs() - Start) * 1e6 / static_cast<double>(Passes * N);
  };
  const size_t NumLanes = Flat ? 3 : 2;
  // Each round runs every lane; odd rounds run them in reverse, so no
  // lane always runs first (or right after a build).
  std::vector<double> LaneSamples[3];
  for (size_t R = 0; R != MphfRounds; ++R)
    for (size_t I = 0; I != NumLanes; ++I) {
      const size_t Lane = R % 2 == 0 ? I : NumLanes - 1 - I;
      LaneSamples[Lane].push_back(TimeLane(Lane));
    }
  asm volatile("" : : "r"(Sink) : "memory");
  const double DirectNs = median(LaneSamples[0]);
  const double DirectBatchNs = median(LaneSamples[1]);
  const double FlatNs = Flat ? median(LaneSamples[2]) : -1;

  std::printf("lookup (%zu pass%s, median of %zu rounds):\n"
              "  direct        %8.3f ns/key  (%zu image bytes + "
              "values)\n"
              "  direct batch  %8.3f ns/key\n",
              Passes, Passes == 1 ? "" : "es", MphfRounds, DirectNs,
              N * sizeof(uint64_t), DirectBatchNs);
  if (Flat)
    std::printf("  flat          %8.3f ns/key  (FlatIndexMap, build "
                "%.2f ms)\n",
                FlatNs, FlatBuildMs);
  else
    std::printf("  flat          skipped (no bijective Pext plan)\n");

  if (!JsonPath.empty()) {
    std::FILE *Out = std::fopen(JsonPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "error: cannot open '%s'\n", JsonPath.c_str());
      return 1;
    }
    std::fprintf(Out,
                 "{\n\"mphf\": %s,\n\"rounds\": %zu,\n"
                 "\"build_ms\": %.4f,\n\"flat_build_ms\": %.4f,\n"
                 "\"lookup_ns\": {\"direct\": %.4f, \"direct_batch\": "
                 "%.4f, \"flat\": %.4f}\n}\n",
                 Report.toJson().c_str(), MphfRounds, BuildMs, FlatBuildMs,
                 DirectNs, DirectBatchNs, FlatNs);
    std::fclose(Out);
    std::printf("mphf scorecard written to %s\n", JsonPath.c_str());
  }
  return Report.perfect() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  PaperKey Key = PaperKey::SSN;
  ExperimentConfig Config;
  IsaLevel Isa = IsaLevel::Native;
  BatchPath Path = BatchPath::Auto;
  std::string MetricsPath;
  std::string TracePath;
  bool Adaptive = false;
  bool Explain = false;
  ExplainFormat ExplainAs = ExplainFormat::Text;
  bool HaveDriftKey = false;
  PaperKey DriftKey = PaperKey::SSN;
  bool MphfMode = false;
  size_t MphfN = 100000;
  std::string MphfJson;

  for (int I = 1; I != Argc; ++I) {
    const std::string Arg = Argv[I];
    std::string Value;
    if (Arg == "--help" || Arg == "-h") {
      printUsage(Argv[0]);
      return 0;
    }
    if (parseValue(Arg, "key", Value)) {
      bool Found = false;
      for (PaperKey Candidate : AllPaperKeys)
        if (Value == paperKeyName(Candidate)) {
          Key = Candidate;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "error: unknown key type '%s'\n",
                     Value.c_str());
        return 1;
      }
    } else if (parseValue(Arg, "container", Value)) {
      if (Value == "map")
        Config.Container = ContainerKind::Map;
      else if (Value == "set")
        Config.Container = ContainerKind::Set;
      else if (Value == "multimap")
        Config.Container = ContainerKind::MultiMap;
      else if (Value == "multiset")
        Config.Container = ContainerKind::MultiSet;
      else {
        std::fprintf(stderr, "error: unknown container '%s'\n",
                     Value.c_str());
        return 1;
      }
    } else if (parseValue(Arg, "distribution", Value)) {
      if (Value == "inc")
        Config.Distribution = KeyDistribution::Incremental;
      else if (Value == "uniform")
        Config.Distribution = KeyDistribution::Uniform;
      else if (Value == "normal")
        Config.Distribution = KeyDistribution::Normal;
      else {
        std::fprintf(stderr, "error: unknown distribution '%s'\n",
                     Value.c_str());
        return 1;
      }
    } else if (parseValue(Arg, "spread", Value)) {
      Config.Spread = std::stoul(Value);
    } else if (parseValue(Arg, "mode", Value)) {
      if (Value == "batched")
        Config.Mode = ExecMode::Batched;
      else if (Value == "inter70")
        Config.Mode = ExecMode::Inter70_20;
      else if (Value == "inter60")
        Config.Mode = ExecMode::Inter60_20;
      else if (Value == "inter40")
        Config.Mode = ExecMode::Inter40_30;
      else {
        std::fprintf(stderr, "error: unknown mode '%s'\n", Value.c_str());
        return 1;
      }
    } else if (parseValue(Arg, "affectations", Value)) {
      Config.Affectations = std::stoul(Value);
    } else if (parseValue(Arg, "seed", Value)) {
      Config.Seed = std::stoull(Value);
    } else if (parseValue(Arg, "metrics", Value)) {
      MetricsPath = Value;
    } else if (parseValue(Arg, "trace", Value)) {
      TracePath = Value;
    } else if (Arg == "--adaptive") {
      Adaptive = true;
    } else if (parseValue(Arg, "mphf-json", Value)) {
      MphfJson = Value;
      MphfMode = true;
    } else if (Arg == "--mphf" || parseValue(Arg, "mphf", Value)) {
      if (!Value.empty())
        MphfN = std::stoul(Value);
      MphfMode = true;
      Value.clear();
    } else if (Arg == "--explain" || parseValue(Arg, "explain", Value)) {
      if (!parseExplainFormat(Value, ExplainAs)) {
        std::fprintf(stderr, "error: unknown explain format '%s'\n",
                     Value.c_str());
        return 1;
      }
      Explain = true;
    } else if (parseValue(Arg, "drift-key", Value)) {
      bool Found = false;
      for (PaperKey Candidate : AllPaperKeys)
        if (Value == paperKeyName(Candidate)) {
          DriftKey = Candidate;
          Found = true;
        }
      if (!Found) {
        std::fprintf(stderr, "error: unknown drift key type '%s'\n",
                     Value.c_str());
        return 1;
      }
      HaveDriftKey = true;
    } else if (parseValue(Arg, "isa", Value)) {
      if (Value == "native")
        Isa = IsaLevel::Native;
      else if (Value == "nobext")
        Isa = IsaLevel::NoBitExtract;
      else if (Value == "portable")
        Isa = IsaLevel::Portable;
      else {
        std::fprintf(stderr, "error: unknown isa '%s'\n", Value.c_str());
        return 1;
      }
    } else if (parseValue(Arg, "path", Value)) {
      if (Value == "auto")
        Path = BatchPath::Auto;
      else if (Value == "scalar")
        Path = BatchPath::Scalar;
      else if (Value == "interleaved")
        Path = BatchPath::Interleaved;
      else if (Value == "avx2")
        Path = BatchPath::Avx2;
      else if (Value == "jit")
        Path = BatchPath::Jit;
      else {
        std::fprintf(stderr, "error: unknown path '%s'\n", Value.c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage(Argv[0]);
      return 1;
    }
  }

  if (!MetricsPath.empty() && !telemetry::compiledIn())
    std::fprintf(stderr,
                 "warning: --metrics requested but this binary was built "
                 "without -DSEPE_TELEMETRY=ON; the dump will be empty\n");
  if (!MetricsPath.empty() || !TracePath.empty())
    telemetry::setEnabled(true);

  if (Explain)
    return runExplain(Key, Isa, ExplainAs);

  if (MphfMode) {
    const int Rc = runMphf(Key, MphfN, Config.Seed, MphfJson);
    if (!writeMetricsIfRequested(MetricsPath,
                                 ResourceUsage::sinceProcessStart()))
      return 1;
    writeTraceIfRequested(TracePath);
    return Rc;
  }

  if (Adaptive) {
    const int Rc = runAdaptiveReplay(Key, Config, Isa, HaveDriftKey,
                                     DriftKey, MetricsPath);
    writeTraceIfRequested(TracePath);
    return Rc;
  }

  std::printf("experiment: key=%s container=%s distribution=%s spread=%zu "
              "mode=%s affectations=%zu\n",
              paperKeyName(Key), containerKindName(Config.Container),
              distributionName(Config.Distribution), Config.Spread,
              execModeName(Config.Mode), Config.Affectations);
  std::printf("isa: requested=%s resolved=%s\n", isaLevelName(Isa),
              cpuFeatureString().c_str());

  const HashFunctionSet Set = HashFunctionSet::create(Key, Isa, Path);
  std::printf("path: requested=%s resolved=%s\n", batchPathName(Path),
              Set.synthesized(HashFamily::Pext).batchPathName());
  const Workload Work = makeWorkload(Key, Config);

  std::printf("batch path:");
  for (HashKind Kind : SyntheticHashKinds) {
    if (Isa != IsaLevel::Native && Kind == HashKind::Pext)
      continue;
    std::printf(" %s=%s", hashKindName(Kind),
                Set.synthesized(syntheticFamily(Kind)).batchPathName());
  }
  std::printf("\n\n");

  TextTable Table(
      {"Function", "B-Time (ms)", "H-Time (ms)", "B-Coll", "T-Coll"});
  for (HashKind Kind : AllHashKinds) {
    if (Isa != IsaLevel::Native && Kind == HashKind::Pext)
      continue; // No bext on this target (RQ4).
    const ExperimentResult Result = runExperiment(Work, Config, Kind, Set);
    Table.addRow({hashKindName(Kind), formatDouble(Result.BTimeMs),
                  formatDouble(Result.HTimeMs, 4),
                  std::to_string(Result.BucketCollisions),
                  std::to_string(Result.TrueCollisions)});
  }
  std::printf("%s", Table.str().c_str());

  if (Config.Mode == ExecMode::Batched) {
    // The batch-kernel ladder: the same scheduled keys hashed through
    // each kernel width the plan resolves on this host, synthetic
    // families only (baselines have a single path).
    std::printf("\nbatch kernel ladder (H-Time per path, Batched mode):\n");
    TextTable Ladder({"Function", "Path", "H-Time (ms)", "vs scalar"});
    for (HashKind Kind : SyntheticHashKinds) {
      if (Isa != IsaLevel::Native && Kind == HashKind::Pext)
        continue;
      const std::vector<BatchLadderTiming> Rungs =
          measureBatchLadder(Work, Kind, Set);
      double ScalarMs = 0;
      for (const BatchLadderTiming &R : Rungs)
        if (R.Path == "scalar")
          ScalarMs = R.HTimeMs;
      for (const BatchLadderTiming &R : Rungs)
        Ladder.addRow({hashKindName(Kind), R.Path,
                       formatDouble(R.HTimeMs, 4),
                       R.HTimeMs > 0 && ScalarMs > 0
                           ? formatDouble(ScalarMs / R.HTimeMs, 2) + "x"
                           : "-"});
    }
    std::printf("%s", Ladder.str().c_str());
  }

  FlatIndexProbeResult Probe;
  if (runFlatIndexProbe(Work, Set, Probe))
    std::printf("\nspecialized storage (FlatIndexMap over the bijective "
                "Pext plan):\n  schedule B-Time %s ms, final size %zu, "
                "max probe %zu group(s), tombstones %zu\n",
                formatDouble(Probe.BTimeMs).c_str(), Probe.FinalSize,
                Probe.MaxProbeGroups, Probe.Tombstones);

  const ResourceUsage Usage = ResourceUsage::sinceProcessStart();
  std::printf("\nresources: peak RSS %.1f MiB, user %.2f s, sys %.2f s, "
              "wall %.2f s\n",
              static_cast<double>(Usage.PeakRssKb) / 1024.0, Usage.UserSec,
              Usage.SysSec, Usage.WallSec);

  if (!writeMetricsIfRequested(MetricsPath, Usage))
    return 1;
  writeTraceIfRequested(TracePath);
  return 0;
}
