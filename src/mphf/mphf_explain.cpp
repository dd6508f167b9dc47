//===- mphf/mphf_explain.cpp - MphfPlan introspection ---------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf_explain.h"

#include <cinttypes>
#include <cstdio>

using namespace sepe;

namespace {

std::string hex64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016" PRIx64, V);
  return Buf;
}

const char *baseDescription(const MphfPlan &Plan) {
  return Plan.RawBase
             ? "seeded raw-byte multiply-fold mix"
             : "format-specialized extraction plan + splitmix64 finalizer";
}

/// Indents every line of \p Text by four spaces.
std::string indent4(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size() + 64);
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    Out += "    ";
    Out += Text.substr(Pos, End - Pos);
    Out += '\n';
    Pos = End + 1;
  }
  return Out;
}

std::string mphfText(const MphfPlan &Plan) {
  std::string Out;
  char Buf[192];
  std::snprintf(Buf, sizeof(Buf),
                "mphf: n=%" PRIu64 ", seed %s, %.2f bits/key (%zu bytes)\n",
                Plan.N, hex64(Plan.Seed).c_str(), Plan.bitsPerKey(),
                Plan.bytesUsed());
  Out += Buf;
  Out += std::string("  base image: ") + baseDescription(Plan) + '\n';
  std::snprintf(Buf, sizeof(Buf),
                "  splitting tree: %u buckets (avg %.1f keys), leaf max %u\n",
                Plan.NumBuckets, static_cast<double>(Plan.N) / Plan.NumBuckets,
                Plan.LeafMax);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  pilots: %zu entries @ %u bits (packed), offsets in "
                "Elias-Fano\n",
                Plan.Pilots.size(), Plan.Pilots.bits());
  Out += Buf;
  if (!Plan.RawBase && Plan.Extract) {
    Out += "  extraction plan:\n";
    Out += indent4(explainPlan(*Plan.Extract, ExplainFormat::Text));
  }
  return Out;
}

std::string mphfJson(const MphfPlan &Plan) {
  std::string Out = "{";
  Out += "\"n\":" + std::to_string(Plan.N);
  Out += ",\"seed\":\"" + hex64(Plan.Seed) + "\"";
  Out += std::string(",\"raw_base\":") + (Plan.RawBase ? "true" : "false");
  Out += ",\"bytes\":" + std::to_string(Plan.bytesUsed());
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.4f", Plan.bitsPerKey());
  Out += ",\"bits_per_key\":" + std::string(Buf);
  Out += ",\"buckets\":" + std::to_string(Plan.NumBuckets);
  Out += ",\"leaf_max\":" + std::to_string(Plan.LeafMax);
  Out += ",\"pilot_count\":" + std::to_string(Plan.Pilots.size());
  Out += ",\"pilot_bits\":" + std::to_string(Plan.Pilots.bits());
  if (!Plan.RawBase && Plan.Extract) {
    std::string Inner = explainPlan(*Plan.Extract, ExplainFormat::Json);
    while (!Inner.empty() && Inner.back() == '\n')
      Inner.pop_back();
    Out += ",\"extract\":" + Inner;
  }
  Out += "}\n";
  return Out;
}

std::string mphfDot(const MphfPlan &Plan) {
  std::string Out;
  Out += "digraph sepe_mphf {\n";
  Out += "  rankdir=LR;\n";
  Out += "  node [shape=box fontname=\"monospace\" fontsize=10];\n";
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "  label=\"mphf: n=%" PRIu64 ", %.2f bits/key\";\n", Plan.N,
                Plan.bitsPerKey());
  Out += Buf;
  Out += "  key [label=\"key bytes\" shape=note];\n";
  Out += std::string("  base [label=\"") + baseDescription(Plan) + "\"];\n";
  Out += "  key -> base;\n";
  std::snprintf(Buf, sizeof(Buf),
                "  bucket [label=\"bucket hash\\n%u buckets\\n"
                "Elias-Fano offsets\"];\n",
                Plan.NumBuckets);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  tree [label=\"splitting tree\\n%zu pilots @ %u bits\\n"
                "leaf max %u\"];\n",
                Plan.Pilots.size(), Plan.Pilots.bits(), Plan.LeafMax);
  Out += Buf;
  Out += "  slot [label=\"bucket offset + leaf slot\" shape=ellipse];\n";
  Out += "  base -> bucket -> tree -> slot;\n";
  Out += "}\n";
  return Out;
}

} // namespace

std::string sepe::explainMphf(const MphfPlan &Plan, ExplainFormat Format) {
  switch (Format) {
  case ExplainFormat::Text:
    return mphfText(Plan);
  case ExplainFormat::Json:
    return mphfJson(Plan);
  case ExplainFormat::Dot:
    return mphfDot(Plan);
  }
  return "";
}
