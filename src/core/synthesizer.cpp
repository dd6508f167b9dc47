//===- core/synthesizer.cpp - KeyPattern -> HashPlan ---------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/synthesizer.h"

#include "support/telemetry.h"

#include <bit>

using namespace sepe;

namespace {

/// Assigns pext shifts: chunks pack upward from bit 0 in load order, and
/// when the format has spare room the final chunk is hoisted so the most
/// significant hash bit is populated (Figure 12, Step 3). The first
/// chunk always stays at the low end, preserving the learned-index style
/// identity mapping on the low bits (Example 4.1).
void assignPextShifts(std::vector<PlanStep> &Steps, bool SpreadToTopBits) {
  unsigned BitOffset = 0;
  unsigned TotalBits = 0;
  for (PlanStep &S : Steps) {
    S.Shift = static_cast<uint8_t>(BitOffset & 63);
    const unsigned Width = static_cast<unsigned>(std::popcount(S.Mask));
    BitOffset += Width;
    TotalBits += Width;
  }
  if (SpreadToTopBits && Steps.size() >= 2 && TotalBits < 64) {
    PlanStep &Last = Steps.back();
    const unsigned Width = static_cast<unsigned>(std::popcount(Last.Mask));
    Last.Shift = static_cast<uint8_t>(64 - Width);
  }
}

Expected<HashPlan> synthesizeShortKey(const KeyPattern &Pattern,
                                      HashFamily Family,
                                      const SynthesisOptions &Options,
                                      HashPlan Plan) {
  if (!Options.AllowShortKeys) {
    // Footnote 5: SEPE defaults to the standard STL function for keys
    // with fewer than eight bytes.
    Plan.FallbackToStl = true;
    return Plan;
  }
  if (!Pattern.isFixedLength())
    return Error{"cannot force-specialize variable-length keys shorter "
                 "than one machine word"};
  Plan.PartialLoad = true;
  PlanStep Step;
  Step.Offset = 0;
  if (Family == HashFamily::Pext) {
    uint64_t Mask = 0;
    for (size_t J = 0; J != Pattern.maxLength(); ++J)
      Mask |= static_cast<uint64_t>(Pattern.byteAt(J).freeMask()) << (8 * J);
    Step.Mask = Mask;
  }
  Plan.Steps.push_back(Step);
  Plan.Bijective = provesBijective(Plan);
  return Plan;
}

} // namespace

Expected<HashPlan> sepe::synthesize(const KeyPattern &Pattern,
                                    HashFamily Family,
                                    const SynthesisOptions &Options) {
  SEPE_SPAN("synthesis.plan_construction");
  SEPE_COUNT("synthesis.plans");
  if (Pattern.empty())
    return Error{"cannot synthesize a hash for an empty key pattern"};
  if (Pattern.freeBitCount() == 0)
    return Error{"the key format admits a single key; no hash is needed"};

  HashPlan Plan;
  Plan.Family = Family;
  Plan.MinKeyLen = static_cast<uint32_t>(Pattern.minLength());
  Plan.MaxKeyLen = static_cast<uint32_t>(Pattern.maxLength());
  Plan.FixedLength = Pattern.isFixedLength();
  Plan.FreeBits = Pattern.freeBitCount();

  if (Pattern.maxLength() < 8)
    return synthesizeShortKey(Pattern, Family, Options, std::move(Plan));

  if (Plan.FixedLength) {
    const std::vector<LoadWord> Loads = Family == HashFamily::Naive
                                            ? computeLoadsAllBytes(Pattern)
                                            : computeLoadsSkippingConst(
                                                  Pattern);
    assert(!Loads.empty() && "a non-constant fixed-length format always "
                             "yields at least one load");
    for (const LoadWord &Load : Loads) {
      PlanStep Step;
      Step.Offset = Load.Offset;
      if (Family == HashFamily::Pext) {
        if (Load.NewFreeMask == 0)
          continue; // Fully shadowed by an earlier overlapping load.
        Step.Mask = Load.NewFreeMask;
      }
      Plan.Steps.push_back(Step);
    }
    if (Family == HashFamily::Pext)
      assignPextShifts(Plan.Steps, Options.SpreadToTopBits);
    Plan.Bijective = provesBijective(Plan);
    return Plan;
  }

  // Variable-length keys: drive the Figure 8 loop with a skip table. The
  // Naive family has no constant-skipping, so its "skip table" walks
  // every word of the guaranteed prefix.
  if (Family == HashFamily::Naive) {
    KeyPattern AllFree = KeyPattern::variable(
        std::vector<BytePattern>(Pattern.maxLength(), BytePattern::top()),
        Pattern.minLength());
    Plan.Skip = buildSkipTable(AllFree);
  } else {
    Plan.Skip = buildSkipTable(Pattern);
  }
  if (Family != HashFamily::Pext)
    Plan.Skip.Masks.assign(Plan.Skip.loadCount(), ~uint64_t{0});
  return Plan;
}

Expected<std::array<HashPlan, 4>>
sepe::synthesizeAllFamilies(const KeyPattern &Pattern,
                            const SynthesisOptions &Options) {
  std::array<HashPlan, 4> Result;
  const HashFamily Families[] = {HashFamily::Naive, HashFamily::OffXor,
                                 HashFamily::Aes, HashFamily::Pext};
  for (size_t I = 0; I != 4; ++I) {
    Expected<HashPlan> Plan = synthesize(Pattern, Families[I], Options);
    if (!Plan)
      return Plan.error();
    Result[I] = Plan.take();
  }
  return Result;
}
