//===- core/plan.cpp - IR for synthesized hash functions -----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/plan.h"

#include "support/bit_ops.h"

#include <bit>
#include <cstdio>

using namespace sepe;

const char *sepe::familyName(HashFamily Family) {
  switch (Family) {
  case HashFamily::Naive:
    return "Naive";
  case HashFamily::OffXor:
    return "OffXor";
  case HashFamily::Aes:
    return "Aes";
  case HashFamily::Pext:
    return "Pext";
  }
  return "<invalid>";
}

size_t HashPlan::codeSizeEstimate() const {
  // One load/extract/combine group per step plus a fixed prologue; the
  // skip-table path adds its table and the two loops.
  size_t Size = 64;
  Size += Steps.size() * 48;
  Size += Skip.Skip.size() * 8 + Skip.Masks.size() * 16;
  return Size;
}

std::string HashPlan::str() const {
  std::string Out;
  char Buffer[128];
  std::snprintf(Buffer, sizeof(Buffer), "plan %s len=[%u,%u]%s%s\n",
                familyName(Family), MinKeyLen, MaxKeyLen,
                FallbackToStl ? " fallback" : "",
                PartialLoad ? " partial" : "");
  Out += Buffer;
  for (const PlanStep &S : Steps) {
    std::snprintf(Buffer, sizeof(Buffer),
                  "  load +%u mask=0x%016llx shift=%u\n", S.Offset,
                  static_cast<unsigned long long>(S.Mask), S.Shift);
    Out += Buffer;
  }
  if (!Skip.Skip.empty()) {
    Out += "  skip =";
    for (uint32_t S : Skip.Skip) {
      std::snprintf(Buffer, sizeof(Buffer), " %u", S);
      Out += Buffer;
    }
    std::snprintf(Buffer, sizeof(Buffer), " tail=%u\n", Skip.TailStart);
    Out += Buffer;
  }
  return Out;
}

bool sepe::provesBijective(const HashPlan &Plan) {
  if (Plan.Family != HashFamily::Pext || !Plan.FixedLength ||
      Plan.FallbackToStl)
    return false;
  // The partial-load kernel extracts only the first step, from offset 0,
  // and never rotates it.
  if (Plan.PartialLoad &&
      (Plan.Steps.size() != 1 || Plan.Steps.front().Offset != 0 ||
       Plan.Steps.front().Shift != 0))
    return false;
  uint64_t Occupied = 0;
  unsigned Extracted = 0;
  for (const PlanStep &S : Plan.Steps) {
    const unsigned Width = static_cast<unsigned>(std::popcount(S.Mask));
    if (S.Shift + Width > 64)
      return false; // The rotation would wrap into earlier chunks.
    Extracted += Width;
    Occupied |= Width == 0 ? 0 : ~uint64_t{0} >> (64 - Width) << S.Shift;
  }
  // The chunks are disjoint iff their union is as wide as they are.
  return Extracted == Plan.FreeBits &&
         static_cast<unsigned>(std::popcount(Occupied)) == Extracted;
}

bool sepe::invertible(const HashPlan &Plan, const KeyPattern &Pattern) {
  const size_t Len = Pattern.maxLength();
  if (!provesBijective(Plan) || !Pattern.isFixedLength() ||
      Plan.MaxKeyLen != Len || Plan.FreeBits != Pattern.freeBitCount())
    return false;
  // The masks hold FreeBits bits in all (provesBijective), so covering
  // every free bit of the pattern leaves none for constant bits.
  const size_t Width = Plan.PartialLoad ? Len : 8;
  std::vector<uint8_t> Selected(Len, 0);
  for (const PlanStep &S : Plan.Steps) {
    if (S.Offset + Width > Len)
      return false;
    for (size_t B = 0; B != Width; ++B)
      Selected[S.Offset + B] |= static_cast<uint8_t>(S.Mask >> (8 * B));
  }
  for (size_t I = 0; I != Len; ++I)
    if (Selected[I] != Pattern.byteAt(I).freeMask())
      return false;
  return true;
}

void sepe::invertImage(const HashPlan &Plan, const KeyPattern &Pattern,
                       uint64_t Image, char *Out) {
  const size_t Len = Pattern.maxLength();
  for (size_t I = 0; I != Len; ++I)
    Out[I] = static_cast<char>(Pattern.byteAt(I).constValue());
  const size_t Width = Plan.PartialLoad ? Len : 8;
  for (const PlanStep &S : Plan.Steps) {
    // Bijective chunks never wrap or overlap, so each sits intact at its
    // shift; pdep reads only the low popcount(Mask) bits of its source.
    const uint64_t Bits = pdepHw(Image >> S.Shift, S.Mask);
    for (size_t B = 0; B != Width; ++B)
      Out[S.Offset + B] |= static_cast<char>(Bits >> (8 * B));
  }
}
