//===- core/plan.h - IR for synthesized hash functions ---------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// HashPlan is the intermediate representation between synthesis and the
/// two back ends: the runtime executor (core/executor.h) and the C++
/// source emitter (core/codegen.h). A plan is a straight-line recipe:
/// load words at fixed offsets, optionally compress their free bits with
/// pext, shift, and combine (xor or AES rounds). Variable-length plans
/// carry a skip table instead (Figure 8).
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_PLAN_H
#define SEPE_CORE_PLAN_H

#include "core/analysis.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sepe {

/// The four families of Section 4, in increasing order of constraint use
/// (Figure 3).
enum class HashFamily {
  /// Xor of every 8-byte word; exploits fixed length only.
  Naive,
  /// Xor of only the words containing non-constant bytes.
  OffXor,
  /// Like OffXor but combined with AES encode rounds.
  Aes,
  /// Like OffXor but with constant bits removed via pext.
  Pext,
};

/// Human-readable family name ("Naive", "OffXor", "Aes", "Pext").
const char *familyName(HashFamily Family);

/// One straight-line step of a fixed-length plan.
struct PlanStep {
  /// Byte offset of the 8-byte load.
  uint32_t Offset = 0;
  /// pext mask; ~0 means "no extraction" (Naive/OffXor/Aes).
  uint64_t Mask = ~uint64_t{0};
  /// Left shift applied to the extracted value before combining.
  uint8_t Shift = 0;

  friend bool operator==(const PlanStep &A, const PlanStep &B) {
    return A.Offset == B.Offset && A.Mask == B.Mask && A.Shift == B.Shift;
  }
};

/// A complete synthesized hash function in IR form.
struct HashPlan {
  HashFamily Family = HashFamily::OffXor;

  /// Key length bounds the plan was synthesized for.
  uint32_t MinKeyLen = 0;
  uint32_t MaxKeyLen = 0;
  bool FixedLength = true;

  /// True when SEPE declines to specialize (keys shorter than one machine
  /// word, footnote 5 of the paper) and the executor defers to the
  /// standard-library hash.
  bool FallbackToStl = false;

  /// True when the fixed-length key is shorter than 8 bytes but
  /// specialization was forced (SynthesisOptions::AllowShortKeys); the
  /// single step then loads only MaxKeyLen bytes.
  bool PartialLoad = false;

  /// Straight-line steps (fixed-length path).
  std::vector<PlanStep> Steps;

  /// Skip table (variable-length path); empty for fixed-length plans.
  SkipTable Skip;

  /// Total number of free bits in the format (diagnostics; Section 4.2's
  /// "relevant bits").
  unsigned FreeBits = 0;

  /// True when this plan provably maps distinct format keys to distinct
  /// 64-bit values (Section 4.2: "Pext always generates a bijection for
  /// key types that have equal or less than 64 relevant bits"). Always
  /// provesBijective(*this).
  bool Bijective = false;

  bool usesSkipTable() const { return !FixedLength; }

  /// Rough byte-size estimate of the code this plan generates; used by
  /// the synthesis-complexity experiment (RQ6).
  size_t codeSizeEstimate() const;

  /// Multi-line textual dump for debugging and golden tests.
  std::string str() const;
};

/// True when \p Plan is a fixed-length Pext plan whose steps extract
/// exactly FreeBits bits into disjoint, non-wrapping ranges of the image
/// (a partial load: one unshifted step at offset 0).
bool provesBijective(const HashPlan &Plan);

/// True when invertImage is exact: \p Plan proves bijective and its
/// masks select exactly the free bits of \p Pattern, a fixed-length
/// pattern of Plan.MaxKeyLen bytes.
bool invertible(const HashPlan &Plan, const KeyPattern &Pattern);

/// Writes the \p Pattern key whose \p Plan image is \p Image to \p Out
/// (Pattern.maxLength() bytes): each step's chunk is deposited back onto
/// its mask (pdep) over the pattern's constant bytes.
void invertImage(const HashPlan &Plan, const KeyPattern &Pattern,
                 uint64_t Image, char *Out);

} // namespace sepe

#endif // SEPE_CORE_PLAN_H
