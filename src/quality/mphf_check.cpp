//===- quality/mphf_check.cpp - MPHF structural verification --------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "quality/mphf_check.h"

#include <algorithm>
#include <bit>
#include <cstdio>

using namespace sepe;
using namespace sepe::quality;

MphfReport quality::measureMphf(const Mphf &F, const std::string_view *Keys,
                                size_t N) {
  MphfReport Report;
  Report.N = N;
  if (!F.valid() || N == 0)
    return Report;
  Report.BitsPerKey = F.plan().bitsPerKey();

  const uint64_t Range = F.size();
  std::vector<uint64_t> Seen((Range + 63) / 64, 0);
  std::vector<uint64_t> Slots(std::min<size_t>(N, 4096));
  for (size_t At = 0; At < N;) {
    const size_t Chunk = std::min(Slots.size(), N - At);
    F.evalBatch(Keys + At, Slots.data(), Chunk);
    for (size_t I = 0; I != Chunk; ++I) {
      const uint64_t Slot = Slots[I];
      if (Slot >= Range) {
        ++Report.OutOfRange;
        Report.MaxIndex = std::max(Report.MaxIndex, Slot);
        continue;
      }
      Report.MaxIndex = std::max(Report.MaxIndex, Slot);
      if ((Seen[Slot / 64] >> (Slot % 64)) & 1)
        ++Report.Collisions;
      else
        Seen[Slot / 64] |= uint64_t{1} << (Slot % 64);
    }
    At += Chunk;
  }

  uint64_t Hit = 0;
  for (uint64_t Word : Seen)
    Hit += static_cast<uint64_t>(std::popcount(Word));
  Report.Coverage =
      Range == 0 ? 0.0 : static_cast<double>(Hit) / static_cast<double>(Range);
  return Report;
}

std::string MphfReport::toJson() const {
  char Buf[64];
  std::string Out = "{";
  Out += "\"format\":\"" + Format + "\"";
  Out += ",\"n\":" + std::to_string(N);
  Out += ",\"collisions\":" + std::to_string(Collisions);
  Out += ",\"out_of_range\":" + std::to_string(OutOfRange);
  Out += ",\"max_index\":" + std::to_string(MaxIndex);
  std::snprintf(Buf, sizeof(Buf), "%.6f", Coverage);
  Out += ",\"coverage\":" + std::string(Buf);
  std::snprintf(Buf, sizeof(Buf), "%.4f", BitsPerKey);
  Out += ",\"bits_per_key\":" + std::string(Buf);
  Out += std::string(",\"perfect\":") + (perfect() ? "true" : "false");
  Out += "}";
  return Out;
}
