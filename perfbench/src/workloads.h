//===- perfbench/src/workloads.h - The benchmark's workloads ----*- C++ -*-===//
///
/// \file
/// Four closed-loop workloads, each driven by three client threads in
/// one process: serve_read, serve_drift, serve_static (ServingTable
/// traffic) and paper_umap (std::unordered_map keyed through a
/// SynthesizedHash, the paper's RQ1 shape). NOTES.md says why each
/// exists and what it is sized against.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "report.h"

#include <string>
#include <utility>
#include <vector>

namespace pb {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  /// Traced run: reports the per-layer metrics instead of the
  /// end-to-end ones.
  bool Trace = false;
  /// Where a traced run writes its spans (JSON lines); empty = nowhere.
  std::string SpansOut;
  /// Test hook: corrupt one resident value after setup, so every check
  /// that reads it fails.
  bool PlantWrongValue = false;
};

const std::vector<std::string> &workloadNames();

/// (name, unit) of every end-to-end metric, in report order.
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/// (name, unit) of every per-layer metric, in report order.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// Runs one workload; the caller validated the name.
RunResult runWorkload(const RunOptions &Options);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
