//===- core/plan_io.cpp - HashPlan (de)serialization ----------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/plan_io.h"

#include <charconv>
#include <cstdio>
#include <vector>

using namespace sepe;
using namespace sepe::textio;

namespace {

constexpr const char *Magic = "sepe-plan v1";

void appendLine(std::string &Out, const std::string &Line) {
  Out += Line;
  Out += '\n';
}

} // namespace

std::string textio::hex64(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

std::vector<std::string_view> textio::tokenize(std::string_view Line) {
  std::vector<std::string_view> Tokens;
  size_t I = 0;
  while (I < Line.size()) {
    while (I < Line.size() && Line[I] == ' ')
      ++I;
    const size_t Begin = I;
    while (I < Line.size() && Line[I] != ' ')
      ++I;
    if (I > Begin)
      Tokens.push_back(Line.substr(Begin, I - Begin));
  }
  return Tokens;
}

bool textio::parseU64(std::string_view Token, uint64_t &Out) {
  int Base = 10;
  if (Token.size() > 2 && Token[0] == '0' &&
      (Token[1] == 'x' || Token[1] == 'X')) {
    Token.remove_prefix(2);
    Base = 16;
  }
  const auto [End, Err] =
      std::from_chars(Token.data(), Token.data() + Token.size(), Out, Base);
  return Err == std::errc() && End == Token.data() + Token.size();
}

Error textio::lineError(size_t LineNo, const std::string &Message) {
  return Error{"line " + std::to_string(LineNo) + ": " + Message,
               std::string::npos};
}

std::string sepe::serializePlan(const HashPlan &Plan) {
  std::string Out;
  appendLine(Out, Magic);
  appendLine(Out, std::string("family ") + familyName(Plan.Family));
  appendLine(Out, "len " + std::to_string(Plan.MinKeyLen) + " " +
                      std::to_string(Plan.MaxKeyLen));

  std::string Flags = "flags";
  if (Plan.FallbackToStl)
    Flags += " fallback";
  if (Plan.PartialLoad)
    Flags += " partial";
  if (Plan.Bijective)
    Flags += " bijective";
  if (!Plan.FixedLength)
    Flags += " variable";
  appendLine(Out, Flags);
  appendLine(Out, "freebits " + std::to_string(Plan.FreeBits));

  for (const PlanStep &S : Plan.Steps)
    appendLine(Out, "step " + std::to_string(S.Offset) + " " +
                        hex64(S.Mask) + " " + std::to_string(S.Shift));

  if (!Plan.Skip.Skip.empty()) {
    std::string Skip = "skip";
    for (uint32_t S : Plan.Skip.Skip) {
      Skip += ' ';
      Skip += std::to_string(S);
    }
    appendLine(Out, Skip);
    std::string Masks = "skipmasks";
    for (uint64_t M : Plan.Skip.Masks) {
      Masks += ' ';
      Masks += hex64(M);
    }
    appendLine(Out, Masks);
    appendLine(Out, "tail " + std::to_string(Plan.Skip.TailStart));
  }
  return Out;
}

Expected<HashPlan> sepe::deserializePlan(std::string_view Text) {
  HashPlan Plan;
  Plan.FixedLength = true;
  bool SawMagic = false, SawFamily = false, SawLen = false;

  LineReader Lines(Text);
  std::string_view Line;
  while (Lines.next(Line)) {
    const size_t LineNo = Lines.lineNo();
    if (Line.empty() || Line[0] == '#')
      continue;

    if (!SawMagic) {
      if (Line != Magic)
        return lineError(LineNo, "expected the 'sepe-plan v1' header");
      SawMagic = true;
      continue;
    }

    const std::vector<std::string_view> Tokens = tokenize(Line);
    if (Tokens.empty())
      continue;
    const std::string_view Key = Tokens[0];

    if (Key == "family") {
      if (Tokens.size() != 2)
        return lineError(LineNo, "family requires one value");
      bool Found = false;
      for (HashFamily F : {HashFamily::Naive, HashFamily::OffXor,
                           HashFamily::Aes, HashFamily::Pext})
        if (Tokens[1] == familyName(F)) {
          Plan.Family = F;
          Found = true;
        }
      if (!Found)
        return lineError(LineNo, "unknown family '" +
                                     std::string(Tokens[1]) + "'");
      SawFamily = true;
    } else if (Key == "len") {
      uint64_t Min = 0, Max = 0;
      if (Tokens.size() != 3 || !parseU64(Tokens[1], Min) ||
          !parseU64(Tokens[2], Max) || Min > Max || Max > UINT32_MAX)
        return lineError(LineNo, "len requires 'min max' with min <= max");
      Plan.MinKeyLen = static_cast<uint32_t>(Min);
      Plan.MaxKeyLen = static_cast<uint32_t>(Max);
      SawLen = true;
    } else if (Key == "flags") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        if (Tokens[I] == "fallback")
          Plan.FallbackToStl = true;
        else if (Tokens[I] == "partial")
          Plan.PartialLoad = true;
        else if (Tokens[I] == "bijective")
          Plan.Bijective = true;
        else if (Tokens[I] == "variable")
          Plan.FixedLength = false;
        else
          return lineError(LineNo, "unknown flag '" +
                                       std::string(Tokens[I]) + "'");
      }
    } else if (Key == "freebits") {
      uint64_t Bits = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Bits) ||
          Bits > UINT32_MAX)
        return lineError(LineNo, "freebits requires one integer < 2^32");
      Plan.FreeBits = static_cast<unsigned>(Bits);
    } else if (Key == "step") {
      uint64_t Offset = 0, Mask = 0, Shift = 0;
      if (Tokens.size() != 4 || !parseU64(Tokens[1], Offset) ||
          !parseU64(Tokens[2], Mask) || !parseU64(Tokens[3], Shift) ||
          Offset > UINT32_MAX || Shift >= 64)
        return lineError(LineNo,
                         "step requires 'offset<2^32 mask shift<64'");
      Plan.Steps.push_back(PlanStep{static_cast<uint32_t>(Offset), Mask,
                                    static_cast<uint8_t>(Shift)});
    } else if (Key == "skip") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value) || Value > UINT32_MAX)
          return lineError(LineNo, "malformed skip entry");
        Plan.Skip.Skip.push_back(static_cast<uint32_t>(Value));
      }
    } else if (Key == "skipmasks") {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value))
          return lineError(LineNo, "malformed skip mask");
        Plan.Skip.Masks.push_back(Value);
      }
    } else if (Key == "tail") {
      uint64_t Tail = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Tail) ||
          Tail > UINT32_MAX)
        return lineError(LineNo, "tail requires one integer < 2^32");
      Plan.Skip.TailStart = static_cast<uint32_t>(Tail);
    } else {
      return lineError(LineNo,
                       "unknown directive '" + std::string(Key) + "'");
    }
  }

  if (!SawMagic)
    return Error{"empty plan: missing 'sepe-plan v1' header"};
  if (!SawFamily || !SawLen)
    return Error{"incomplete plan: family and len are required"};
  if (!Plan.FixedLength &&
      Plan.Skip.Masks.size() != Plan.Skip.loadCount())
    return Error{"skip table and mask count disagree"};
  if (!Plan.FallbackToStl && Plan.FixedLength && Plan.Steps.empty())
    return Error{"fixed-length plan without steps"};
  // The partial-load Pext kernel reads its one step's mask.
  if (!Plan.FallbackToStl && Plan.PartialLoad && Plan.Steps.size() != 1)
    return Error{"partial-load plan without exactly one step"};
  // The kernels load unchecked: a fixed step reads eight bytes at its
  // offset, a partial step the whole key from offset 0.
  for (const PlanStep &S : Plan.Steps)
    if (Plan.PartialLoad ? S.Offset != 0
                         : Plan.FixedLength && S.Offset + 8ull > Plan.MinKeyLen)
      return Error{"step at offset " + std::to_string(S.Offset) +
                   " loads past the key"};
  // A variable-length kernel loads eight bytes at each running sum of
  // the skip table but the last, which starts its byte tail; all of it
  // stays inside the shortest key, as buildSkipTable plans it.
  if (!Plan.FixedLength) {
    uint64_t At = 0;
    for (size_t K = 0; K != Plan.Skip.Skip.size(); ++K) {
      At += Plan.Skip.Skip[K];
      const bool Loads = K + 1 != Plan.Skip.Skip.size();
      if (At + (Loads ? 8 : 0) > Plan.MinKeyLen)
        return Error{"skip table entry " + std::to_string(K) +
                     " at offset " + std::to_string(At) +
                     " reaches past the key"};
    }
  }
  // Image-keyed containers trust this flag to drop the key text.
  if (Plan.Bijective != provesBijective(Plan))
    return Error{"the bijective flag disagrees with the plan's steps"};
  return Plan;
}
