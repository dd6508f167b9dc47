//===- core/plan_io.h - HashPlan (de)serialization --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Text serialization of HashPlan so synthesized functions can be
/// cached, diffed and shipped separately from the synthesizer (the
/// keysynth tool exposes it via --plan-out / --plan-in). The format is
/// a stable line-oriented key/value layout:
///
///   sepe-plan v1
///   family Pext
///   len 11 11
///   flags bijective
///   freebits 36
///   step 0 0x0f000f0f000f0f0f 0
///   step 3 0x0f0f0f0000000000 52
///
/// Variable-length plans serialize their skip table and masks; fallback
/// and partial-load plans carry the corresponding flags.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_PLAN_IO_H
#define SEPE_CORE_PLAN_IO_H

#include "core/plan.h"
#include "support/expected.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

/// Serializes \p Plan into the stable text format.
std::string serializePlan(const HashPlan &Plan);

/// Parses a plan previously produced by serializePlan. Fails with a
/// line-numbered message on malformed input; round-trips every field.
/// Also rejects loads outside the shortest key (fixed steps and
/// skip-table loads alike), a partial-load plan without exactly one
/// step, and a bijective flag that provesBijective disagrees with.
Expected<HashPlan> deserializePlan(std::string_view Text);

/// The line-oriented text layout plan files and MPHF files share (an
/// MPHF file embeds its extraction plan): one reader for both formats.
namespace textio {

/// \p Value as "0x" and 16 hex digits.
std::string hex64(uint64_t Value);

/// Splits \p Line into space-separated tokens.
std::vector<std::string_view> tokenize(std::string_view Line);

/// Parses a decimal, or "0x"-prefixed hex, integer spanning \p Token.
bool parseU64(std::string_view Token, uint64_t &Out);

/// "line N: Message".
Error lineError(size_t LineNo, const std::string &Message);

/// Walks a text line by line. Each '\n' ends a line, and the text after
/// the last one is a final line (empty when the text ends in '\n').
class LineReader {
public:
  explicit LineReader(std::string_view Text) : Text(Text) {}

  /// Stores the next line, without its '\n', in \p Line; false past
  /// the end.
  bool next(std::string_view &Line) {
    if (Pos > Text.size())
      return false;
    const size_t End = Text.find('\n', Pos);
    Line = Text.substr(Pos, End == std::string_view::npos
                                ? std::string_view::npos
                                : End - Pos);
    Pos = End == std::string_view::npos ? Text.size() + 1 : End + 1;
    ++LineNo;
    return true;
  }

  /// The 1-based number of the line next() returned last.
  size_t lineNo() const { return LineNo; }

private:
  std::string_view Text;
  size_t Pos = 0;
  size_t LineNo = 0;
};

} // namespace textio

} // namespace sepe

#endif // SEPE_CORE_PLAN_IO_H
