//===- perfbench/src/ladder.h - Single-client layer ladder ------*- C++ -*-===//
///
/// \file
/// The traced run's replay: one workload's key stream driven single-
/// client down a ladder of public calls, each rung adding one layer of a
/// served lookup:
///
///   core.hash       SynthesizedHash::operator() / hashBatch
///   runtime.route   AdaptiveHash::route / routeBatch (+ guard)
///   container.get   ShardedIndexMap::get / getBatch (+ shard, lock, probe)
///   runtime.get     ServingTable::get / getBatch (+ routing, lanes)
///   mphf            Mphf::operator() / evalBatch (the static lane's core)
///
/// Every rung replays the same stream several times, rungs interleaved
/// round-robin so slow drift in machine speed hits them alike. A
/// layer's marginal cost is the difference of adjacent rung medians,
/// reported with the rungs' spreads combined.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LADDER_H
#define PERFBENCH_LADDER_H

#include "report.h"
#include "spans.h"

#include "keygen/paper_formats.h"
#include "runtime/serving_table.h"

#include <map>
#include <string>
#include <vector>

namespace pb {

struct LadderInput {
  std::vector<std::string> Residents;
  std::vector<uint64_t> Values;
  /// In-format keys that are not resident (lookups must miss).
  std::vector<std::string> Absent;
  /// Seal the replay table's residents into the static lane.
  bool Seal = false;
  size_t Shards = 16;
  uint64_t Seed = 1;
};

/// Runs the ladder and stores every rung and marginal metric it owns in
/// \p Values (by per-layer metric name). Lookup checks count into \p R.
/// Spans go to \p Rec (may be null) on thread \p Thread.
void runLadder(const LadderInput &In, std::map<std::string, double> &Values,
               RunResult &R, SpanRecorder *Rec, unsigned Thread);

/// What a serving table reports about itself after traffic: guard miss
/// ratio, spill size, swaps, migrations, swept keys, static keys and
/// fast-lane lock contention, stored under their per-layer names.
void servingFacts(const sepe::ServingTable<uint64_t> &T,
                  std::map<std::string, double> &Values);

} // namespace pb

#endif // PERFBENCH_LADDER_H
