//===- core/inference.cpp - Pattern inference from key examples ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/inference.h"

#include "support/bit_ops.h"
#include "support/telemetry.h"

#include <algorithm>
#include <istream>

using namespace sepe;

void PatternBuilder::addKey(std::string_view Key) {
  if (Count++ == 0) {
    First.assign(Key);
    Diff.assign((Key.size() + 7) / 8, 0);
    MinLen = MaxLen = Key.size();
    return;
  }
  MinLen = std::min(MinLen, Key.size());
  MaxLen = std::max(MaxLen, Key.size());

  // Every load stays inside the first MinLen bytes, which this key and
  // First both hold: a partial last word is read as the word ending at
  // MinLen and shifted down into place.
  const char *K = Key.data();
  const char *F = First.data();
  const size_t Words = MinLen / 8;
  const size_t Tail = MinLen % 8;
  for (size_t W = 0; W != Words; ++W)
    Diff[W] |= loadU64Le(K + 8 * W) ^ loadU64Le(F + 8 * W);
  if (Tail == 0)
    return;
  if (Words == 0)
    Diff[0] |= loadBytesLe(K, Tail) ^ loadBytesLe(F, Tail);
  else
    Diff[Words] |= (loadU64Le(K + MinLen - 8) ^ loadU64Le(F + MinLen - 8)) >>
                   (8 * (8 - Tail));
}

KeyPattern PatternBuilder::pattern() const {
  if (Count == 0)
    return KeyPattern();
  std::vector<BytePattern> Bytes(MaxLen, BytePattern::top());
  for (size_t I = 0; I != MinLen; ++I) {
    const uint8_t Mask = static_cast<uint8_t>(
        ~(spreadPairs(Diff[I / 8]) >> (8 * (I % 8))));
    Bytes[I] = BytePattern::fromMaskValue(
        Mask, static_cast<uint8_t>(First[I] & Mask));
  }
  if (MinLen == MaxLen)
    return KeyPattern::fixed(std::move(Bytes));
  return KeyPattern::variable(std::move(Bytes), MinLen);
}

KeyPattern sepe::inferPattern(const std::vector<std::string> &Keys) {
  SEPE_SPAN("synthesis.infer_join");
  SEPE_COUNT_N("synthesis.infer_join.keys", Keys.size());
  PatternBuilder Builder;
  for (const std::string &Key : Keys)
    Builder.addKey(Key);
  return Builder.pattern();
}

KeyPattern sepe::inferPatternFromStream(std::istream &In) {
  SEPE_SPAN("synthesis.infer_join");
  PatternBuilder Builder;
  std::string Line;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line.back() == '\r')
      Line.pop_back();
    if (Line.empty())
      continue;
    Builder.addKey(Line);
  }
  return Builder.pattern();
}
