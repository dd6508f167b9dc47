//===- mphf/mphf_io.cpp - MphfPlan (de)serialization ----------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf_io.h"

#include "core/plan_io.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <vector>

using namespace sepe;

namespace {

constexpr const char *Magic = "sepe-mphf v2";

std::string hex64(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016llx",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

/// Appends \p Values as 'Prefix v v v ...' lines, eight values each, so
/// large plans stay diffable line by line.
void appendValueLines(std::string &Out, char Prefix,
                      const std::vector<uint64_t> &Values) {
  for (size_t I = 0; I < Values.size(); I += 8) {
    Out += Prefix;
    for (size_t J = I; J != std::min(I + 8, Values.size()); ++J) {
      Out += ' ';
      Out += std::to_string(Values[J]);
    }
    Out += '\n';
  }
}

std::vector<std::string_view> tokenize(std::string_view Line) {
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

bool parseU64(std::string_view Token, uint64_t &Out) {
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

Error lineError(size_t LineNo, const std::string &Message) {
  return Error{"line " + std::to_string(LineNo) + ": " + Message,
               std::string::npos};
}

/// Pilots the builder stores for a bucket of \p M keys: none when it
/// is empty, one per leaf (at most \p LeafMax keys) and one per
/// interior node. Costs O(result) time, so callers bound M first.
uint64_t splitNodeCount(uint64_t M, uint64_t LeafMax) {
  if (M == 0)
    return 0;
  if (M <= LeafMax)
    return 1;
  return 1 + splitNodeCount(M / 2, LeafMax) +
         splitNodeCount(M - M / 2, LeafMax);
}

} // namespace

std::string sepe::serializeMphf(const MphfPlan &Plan) {
  std::string Out;
  Out += Magic;
  Out += '\n';
  Out += "n " + std::to_string(Plan.N) + '\n';
  Out += "seed " + hex64(Plan.Seed) + '\n';
  Out += "buckets " + std::to_string(Plan.NumBuckets) + '\n';
  Out += "leafmax " + std::to_string(Plan.LeafMax) + '\n';
  std::vector<uint64_t> Pilots(Plan.Pilots.size());
  for (size_t I = 0; I != Pilots.size(); ++I)
    Pilots[I] = Plan.Pilots.get(I);
  Out += "pilots " + std::to_string(Pilots.size()) + '\n';
  appendValueLines(Out, 'p', Pilots);
  const std::vector<uint64_t> Offsets = Plan.Offsets.decode();
  Out += "offsets " + std::to_string(Offsets.size()) + '\n';
  appendValueLines(Out, 'o', Offsets);
  const std::vector<uint64_t> Starts = Plan.PilotStarts.decode();
  Out += "pilotstarts " + std::to_string(Starts.size()) + '\n';
  appendValueLines(Out, 's', Starts);

  if (!Plan.RawBase && Plan.Extract) {
    Out += "plan\n";
    Out += serializePlan(*Plan.Extract); // ends with its own newline
    Out += "endplan\n";
  }
  return Out;
}

Expected<MphfPlan> sepe::deserializeMphf(std::string_view Text) {
  MphfPlan Plan;
  Plan.RawBase = true;
  bool SawMagic = false, SawN = false;
  size_t PilotCount = 0, OffsetCount = 0, StartCount = 0;
  std::vector<uint64_t> Pilots, Offsets, Starts;
  bool InPlan = false;
  std::string PlanText;

  size_t LineNo = 0;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    const size_t LineEnd = Text.find('\n', Pos);
    std::string_view Line =
        Text.substr(Pos, LineEnd == std::string_view::npos
                             ? std::string_view::npos
                             : LineEnd - Pos);
    Pos = LineEnd == std::string_view::npos ? Text.size() + 1 : LineEnd + 1;
    ++LineNo;

    if (InPlan) {
      if (Line == "endplan") {
        InPlan = false;
        Expected<HashPlan> Inner = deserializePlan(PlanText);
        if (!Inner)
          return lineError(LineNo, "embedded extraction plan: " +
                                       Inner.error().Message);
        Plan.Extract = std::make_shared<const HashPlan>(Inner.take());
        Plan.RawBase = false;
        continue;
      }
      PlanText += Line;
      PlanText += '\n';
      continue;
    }

    if (Line.empty() || Line[0] == '#')
      continue;

    if (!SawMagic) {
      if (Line != Magic)
        return lineError(LineNo, "expected the 'sepe-mphf v2' header");
      SawMagic = true;
      continue;
    }

    const std::vector<std::string_view> Tokens = tokenize(Line);
    if (Tokens.empty())
      continue;
    const std::string_view Key = Tokens[0];

    auto parseCount = [&](size_t &Count) {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value))
        return false;
      Count = static_cast<size_t>(Value);
      return true;
    };
    auto parseValues = [&](std::vector<uint64_t> &Values, size_t Count) {
      for (size_t I = 1; I != Tokens.size(); ++I) {
        uint64_t Value = 0;
        if (!parseU64(Tokens[I], Value) || Values.size() >= Count)
          return false;
        Values.push_back(Value);
      }
      return true;
    };

    if (Key == "n") {
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Plan.N) || Plan.N == 0 ||
          Plan.N > MphfMaxKeys)
        return lineError(LineNo, "n requires an integer in [1,2^32]");
      SawN = true;
    } else if (Key == "seed") {
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Plan.Seed))
        return lineError(LineNo, "seed requires one integer");
    } else if (Key == "buckets") {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value) ||
          Value > UINT32_MAX || !std::has_single_bit(Value))
        return lineError(LineNo,
                         "buckets requires a 32-bit power of two");
      Plan.NumBuckets = static_cast<uint32_t>(Value);
    } else if (Key == "leafmax") {
      uint64_t Value = 0;
      if (Tokens.size() != 2 || !parseU64(Tokens[1], Value) || Value == 0 ||
          Value > 64)
        return lineError(LineNo, "leafmax requires an integer in [1,64]");
      Plan.LeafMax = static_cast<uint32_t>(Value);
    } else if (Key == "pilots") {
      if (!parseCount(PilotCount))
        return lineError(LineNo, "pilots requires one count");
    } else if (Key == "offsets") {
      if (!parseCount(OffsetCount))
        return lineError(LineNo, "offsets requires one count");
    } else if (Key == "pilotstarts") {
      if (!parseCount(StartCount))
        return lineError(LineNo, "pilotstarts requires one count");
    } else if (Key == "p") {
      if (!parseValues(Pilots, PilotCount))
        return lineError(LineNo, "malformed or excess pilot values");
    } else if (Key == "o") {
      if (!parseValues(Offsets, OffsetCount))
        return lineError(LineNo, "malformed or excess offset values");
    } else if (Key == "s") {
      if (!parseValues(Starts, StartCount))
        return lineError(LineNo, "malformed or excess pilotstart values");
    } else if (Key == "plan") {
      InPlan = true;
      PlanText.clear();
    } else {
      return lineError(LineNo,
                       "unknown directive '" + std::string(Key) + "'");
    }
  }

  if (!SawMagic)
    return Error{"empty plan: missing 'sepe-mphf v2' header"};
  if (InPlan)
    return Error{"unterminated embedded plan: missing 'endplan'"};
  if (!SawN)
    return Error{"incomplete MPHF plan: n is required"};
  if (Plan.NumBuckets == 0 || Pilots.size() != PilotCount ||
      Offsets.size() != OffsetCount || Starts.size() != StartCount ||
      OffsetCount != Plan.NumBuckets + size_t{1} ||
      StartCount != Plan.NumBuckets + size_t{1})
    return Error{"MPHF plan requires buckets, pilots and both offset "
                 "sequences"};
  if (Offsets.back() != Plan.N || Starts.back() != Pilots.size())
    return Error{"offset sequences disagree with n / pilot count"};
  for (size_t I = 0; I + 1 < Offsets.size(); ++I)
    if (Offsets[I] > Offsets[I + 1] || Starts[I] > Starts[I + 1])
      return Error{"offset sequences must be monotone"};
  // The evaluator walks each bucket's tree by node counts alone, so
  // every bucket must hold exactly the pilots the builder stores for
  // its size. The size bound (a tree needs at least one pilot per
  // LeafMax keys) runs first, which keeps the count linear in the
  // pilots the file actually lists.
  for (size_t I = 0; I + 1 < Offsets.size(); ++I) {
    const uint64_t Size = Offsets[I + 1] - Offsets[I];
    const uint64_t Span = Starts[I + 1] - Starts[I];
    if (Size > Span * Plan.LeafMax ||
        splitNodeCount(Size, Plan.LeafMax) != Span)
      return Error{"bucket " + std::to_string(I) +
                   ": pilot count does not match a split tree over " +
                   std::to_string(Size) + " keys"};
  }
  // The evaluator caches root pilots as 32-bit words (the builder's
  // search never goes past 2^20).
  for (uint64_t Pilot : Pilots)
    if (Pilot > UINT32_MAX)
      return Error{"pilot values must fit 32 bits"};
  Plan.Pilots = PackedArray::pack(Pilots);
  Plan.Offsets = EliasFano::encode(Offsets);
  Plan.PilotStarts = EliasFano::encode(Starts);
  return Plan;
}
