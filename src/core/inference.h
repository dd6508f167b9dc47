//===- core/inference.h - Pattern inference from key examples --*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.1: infer a KeyPattern from example keys by folding the quad
/// join over every key. This is the algorithm behind the paper's
/// `keybuilder` tool (Figure 5a).
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_INFERENCE_H
#define SEPE_CORE_INFERENCE_H

#include "core/key_pattern.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

/// Folds the quad-semilattice join over \p Keys: position I of the result
/// is the join of byte I of every key, with keys shorter than I
/// contributing top (Example 3.4). An empty example set yields an empty
/// pattern.
KeyPattern inferPattern(const std::vector<std::string> &Keys);

/// Incremental version of inferPattern: maintains the running join so
/// examples can be streamed (used by the keybuilder tool).
///
/// The join of concrete bytes is determined by which bits ever differ,
/// so the builder keeps the first key and, per position, the OR of every
/// later key's XOR against it: a bit pair is constant iff neither of its
/// bits ever differed. Each key folds in eight bytes per step, over as
/// many bytes as the shortest key seen so far (MinLen) holds; every
/// position at or past some key's end is top anyway (Example 3.4).
/// pattern() turns the difference bits into BytePatterns once.
class PatternBuilder {
public:
  /// Joins one more example key into the running pattern.
  void addKey(std::string_view Key);

  /// Number of keys observed so far.
  size_t keyCount() const { return Count; }

  /// The pattern covering all keys seen so far.
  KeyPattern pattern() const;

private:
  /// The first key's bytes.
  std::string First;
  /// Byte I of the keys, little-endian in word I / 8: bit B is set once
  /// some key's byte I differed from First[I] in bit B. Only bytes
  /// [0, MinLen) are kept current.
  std::vector<uint64_t> Diff;
  size_t MinLen = 0;
  size_t MaxLen = 0;
  size_t Count = 0;
};

/// Reads one key per line from \p In (dropping a trailing '\r' if
/// present, so Windows key files work) and infers their pattern. Empty
/// lines are skipped.
KeyPattern inferPatternFromStream(std::istream &In);

} // namespace sepe

#endif // SEPE_CORE_INFERENCE_H
