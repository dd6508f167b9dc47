//===- perfbench/src/main.cpp - Benchmark entry point --------------------===//
///
/// \file
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--spans-out FILE]
///
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
/// reports the end-to-end metrics, --trace 1 the per-layer ones (and
/// writes the recorded spans to --spans-out).
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty() || Text.size() > 19 ||
      !std::all_of(Text.begin(), Text.end(),
                   [](char C) { return C >= '0' && C <= '9'; }))
    return false;
  Out = std::strtoull(Text.c_str(), nullptr, 10);
  return true;
}

int usage(const char *Problem) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans-out FILE]\n",
               Problem);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  pb::RunOptions Options;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Value;
    if (const size_t Eq = Arg.find('='); Eq != std::string::npos) {
      Value = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else {
      if (I + 1 == Argc)
        return usage(("missing value for " + Arg).c_str());
      Value = Argv[++I];
    }
    uint64_t N = 0;
    if (Arg == "--workload") {
      Options.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseUnsigned(Value, N))
        return usage("--seed takes a whole number");
      Options.Seed = N;
    } else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, N) || N == 0 || N > 600)
        return usage("--seconds takes a whole number in [1, 600]");
      Options.Seconds = static_cast<unsigned>(N);
    } else if (Arg == "--trace") {
      if (Value != "0" && Value != "1")
        return usage("--trace takes 0 or 1");
      Options.Trace = Value == "1";
    } else if (Arg == "--spans-out") {
      Options.SpansOut = Value;
    } else {
      return usage(("unknown option " + Arg).c_str());
    }
  }
  const auto &Names = pb::workloadNames();
  if (!HaveWorkload ||
      std::find(Names.begin(), Names.end(), Options.Workload) == Names.end())
    return usage("--workload must be one of serve_read, serve_drift, "
                 "serve_static, paper_umap");

  const pb::RunResult R = pb::runWorkload(Options);
  for (const std::string &Note : R.Notes)
    std::printf("# %s\n", Note.c_str());
  std::printf("%s\n", pb::resultJson(R).c_str());
  return 0;
}
