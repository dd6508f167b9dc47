//===- tests/test_parser_fuzz.cpp - Parser robustness sweep ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fuzzing of the restricted regex parser: random byte
/// strings and random well-formed-ish strings over the metacharacter
/// alphabet must either parse into a consistent FormatSpec or produce a
/// positioned error — never crash, hang, or return an inconsistent
/// spec. Every successfully parsed spec is pushed through abstraction
/// and synthesis to make sure downstream stages tolerate whatever the
/// parser accepts.
///
/// The plan and MPHF loaders get the same treatment: seeded mutations
/// of real plan and MPHF files must either fail with a message or load
/// something that round-trips and whose kernels stay inside the
/// shortest key the plan admits.
///
//===----------------------------------------------------------------------===//

#include "core/regex_parser.h"

#include "core/plan_io.h"
#include "core/regex_printer.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "mphf/mphf.h"
#include "mphf/mphf_io.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstring>
#include <random>

using namespace sepe;

namespace {

void checkParseOutcome(const std::string &Input) {
  Expected<FormatSpec> Result = parseRegex(Input);
  if (!Result) {
    // Errors must carry a message and an in-range (or npos) position.
    EXPECT_FALSE(Result.error().Message.empty());
    if (Result.error().Pos != std::string::npos) {
      EXPECT_LE(Result.error().Pos, Input.size());
    }
    return;
  }
  const FormatSpec &Spec = *Result;
  EXPECT_GE(Spec.maxLength(), Spec.minLength());
  EXPECT_LE(Spec.maxLength(), MaxRegexWidth);
  EXPECT_FALSE(Spec.empty());
  for (const CharSet &Class : Spec.classes())
    EXPECT_FALSE(Class.empty());

  // Downstream stages must accept anything the parser accepts.
  const KeyPattern Pattern = Spec.abstract();
  EXPECT_EQ(Pattern.maxLength(), Spec.maxLength());
  Expected<HashPlan> Plan = synthesize(Pattern, HashFamily::Pext);
  if (Plan) {
    // And the printer must produce a reparsable regex.
    Expected<FormatSpec> Round = parseRegex(printRegex(Pattern));
    ASSERT_TRUE(Round) << "print(" << Input << ") failed to reparse";
    EXPECT_EQ(Round->abstract(), Pattern);
  }
}

TEST(ParserFuzzTest, RandomByteStringsNeverCrash) {
  std::mt19937_64 Rng(0xf22);
  for (int Case = 0; Case != 3000; ++Case) {
    const size_t Len = Rng() % 40;
    std::string Input(Len, '\0');
    for (char &C : Input)
      C = static_cast<char>(Rng() & 0xFF);
    checkParseOutcome(Input);
  }
}

TEST(ParserFuzzTest, MetacharacterSoupNeverCrashes) {
  // Strings biased toward the grammar's alphabet reach deeper parser
  // states than raw bytes.
  static const char Alphabet[] = R"(abc019(){}[]\.-,?*+|^dswx)";
  std::mt19937_64 Rng(0x50b);
  for (int Case = 0; Case != 5000; ++Case) {
    const size_t Len = Rng() % 24;
    std::string Input(Len, '\0');
    for (char &C : Input)
      C = Alphabet[Rng() % (sizeof(Alphabet) - 1)];
    checkParseOutcome(Input);
  }
}

TEST(ParserFuzzTest, MutatedPaperRegexes) {
  // Single-character mutations of known-good regexes exercise the
  // error paths adjacent to real inputs.
  const std::vector<std::string> Bases = {
      R"(\d{3}-\d{2}-\d{4})",
      R"((([0-9]{3})\.){3}[0-9]{3})",
      R"(([0-9a-fA-F]{2}-){5}[0-9a-fA-F]{2})",
      R"(https://example\.com/go/[a-z0-9]{20}\.html)",
  };
  static const char Alphabet[] = R"(abc019(){}[]\.-,?*+|^)";
  std::mt19937_64 Rng(0xbadc0de);
  for (const std::string &Base : Bases)
    for (int Case = 0; Case != 400; ++Case) {
      std::string Mutated = Base;
      const unsigned Kind = static_cast<unsigned>(Rng() % 3);
      const size_t Pos = Rng() % Mutated.size();
      if (Kind == 0)
        Mutated[Pos] = Alphabet[Rng() % (sizeof(Alphabet) - 1)];
      else if (Kind == 1)
        Mutated.erase(Pos, 1);
      else
        Mutated.insert(Pos, 1,
                       Alphabet[Rng() % (sizeof(Alphabet) - 1)]);
      checkParseOutcome(Mutated);
    }
}

TEST(ParserFuzzTest, DeepNestingIsBounded) {
  // 200 nested groups must parse (or error) without stack issues.
  std::string Deep;
  for (int I = 0; I != 200; ++I)
    Deep += '(';
  Deep += 'a';
  for (int I = 0; I != 200; ++I)
    Deep += ')';
  checkParseOutcome(Deep);

  std::string Unbalanced(400, '(');
  checkParseOutcome(Unbalanced);
}

// --- Plan and MPHF loaders ------------------------------------------------

/// Empty when every load \p Plan's kernels make for a key of exactly
/// MinKeyLen bytes ends inside that key; otherwise names the load that
/// does not. An oracle written from the kernels, not from the loader.
std::string loadPastMinKey(const HashPlan &Plan) {
  if (Plan.FallbackToStl)
    return {};
  if (Plan.PartialLoad) {
    // One load of min(len, 8) bytes from offset 0; the Pext kernel
    // reads the first step's mask.
    return Plan.Steps.size() == 1 ? std::string()
                                  : "partial plan without one step";
  }
  if (Plan.FixedLength) {
    for (const PlanStep &S : Plan.Steps)
      if (uint64_t{S.Offset} + 8 > Plan.MinKeyLen)
        return "step load at " + std::to_string(S.Offset);
    return {};
  }
  // Skip[0] positions the first load, Skip[K] advances past load K - 1;
  // the final position starts the byte tail.
  uint64_t At = 0;
  for (size_t K = 0; K != Plan.Skip.Skip.size(); ++K) {
    At += Plan.Skip.Skip[K];
    const bool Loads = K + 1 != Plan.Skip.Skip.size();
    if (At + (Loads ? 8 : 0) > Plan.MinKeyLen)
      return "skip entry " + std::to_string(K) + " at " + std::to_string(At);
  }
  return {};
}

/// A buffer whose last \p Len bytes end where an unreadable page
/// begins, so any read past them faults.
class PageEndKey {
public:
  explicit PageEndKey(size_t Len)
      : Page(static_cast<size_t>(sysconf(_SC_PAGESIZE))) {
    Map = mmap(nullptr, 2 * Page, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    EXPECT_NE(Map, MAP_FAILED);
    char *End = static_cast<char *>(Map) + Page;
    EXPECT_EQ(mprotect(End, Page, PROT_NONE), 0);
    std::memset(End - Len, '5', Len);
    Key = std::string_view(End - Len, Len);
  }
  ~PageEndKey() { munmap(Map, 2 * Page); }
  PageEndKey(const PageEndKey &) = delete;
  PageEndKey &operator=(const PageEndKey &) = delete;

  std::string_view Key;

private:
  size_t Page;
  void *Map = nullptr;
};

/// The plan-level properties every loaded plan must have: its loads
/// stay inside a MinKeyLen-byte key, and hashing such a key at a page
/// end, one at a time and in a batch, does not fault.
void checkLoadedPlan(const HashPlan &Plan, const std::string &Input) {
  const std::string Past = loadPastMinKey(Plan);
  ASSERT_TRUE(Past.empty()) << Past << " loads past the key in:\n" << Input;
  if (Plan.MinKeyLen > static_cast<size_t>(sysconf(_SC_PAGESIZE)))
    return;
  const PageEndKey Key(Plan.MinKeyLen);
  const SynthesizedHash Hash(Plan);
  const std::string_view Keys[8] = {Key.Key, Key.Key, Key.Key, Key.Key,
                                    Key.Key, Key.Key, Key.Key, Key.Key};
  uint64_t Out[8];
  Hash.hashBatch(Keys, Out, 8);
  EXPECT_EQ(Out[7], Hash(Key.Key)) << Input;
}

void checkPlanLoad(const std::string &Input) {
  Expected<HashPlan> Plan = deserializePlan(Input);
  if (!Plan) {
    EXPECT_FALSE(Plan.error().Message.empty()) << Input;
    return;
  }
  const std::string Text = serializePlan(*Plan);
  Expected<HashPlan> Again = deserializePlan(Text);
  ASSERT_TRUE(Again) << Again.error().Message << " reloading:\n" << Text;
  EXPECT_EQ(serializePlan(*Again), Text);
  checkLoadedPlan(*Plan, Input);
}

void checkMphfLoad(const std::string &Input) {
  Expected<MphfPlan> Loaded = deserializeMphf(Input);
  if (!Loaded) {
    EXPECT_FALSE(Loaded.error().Message.empty()) << Input;
    return;
  }
  const std::string Text = serializeMphf(*Loaded);
  Expected<MphfPlan> Again = deserializeMphf(Text);
  ASSERT_TRUE(Again) << Again.error().Message << " reloading:\n" << Text;
  EXPECT_EQ(serializeMphf(*Again), Text);
  size_t MinKeyLen = 0;
  if (!Loaded->RawBase) {
    ASSERT_NE(Loaded->Extract, nullptr);
    checkLoadedPlan(*Loaded->Extract, Input);
    if (::testing::Test::HasFatalFailure())
      return;
    MinKeyLen = Loaded->Extract->MinKeyLen;
  }
  if (MinKeyLen > static_cast<size_t>(sysconf(_SC_PAGESIZE)))
    return;
  const Mphf F(std::make_shared<const MphfPlan>(Loaded.take()));
  const PageEndKey Key(MinKeyLen);
  EXPECT_LT(F.slotFromBase(F.baseImage(Key.Key)), F.size()) << Input;
}

/// One seeded mutation of a line-oriented file: a number replaced by a
/// boundary value, a line dropped, duplicated or swapped with another,
/// or a plan flag flipped. \p MinKeyLen is among the boundary values.
std::string mutate(const std::string &Text, uint64_t MinKeyLen,
                   std::mt19937_64 &Rng) {
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    const size_t End = Text.find('\n', Pos);
    Lines.push_back(Text.substr(Pos, End - Pos));
    Pos = End == std::string::npos ? Text.size() : End + 1;
  }
  const size_t L = Rng() % Lines.size();
  switch (Rng() % 6) {
  case 0:
  case 1: {
    // A boundary value for one numeric token (the first is the
    // directive, so it is never replaced).
    const uint64_t Values[] = {0,          7,          8,
                               MinKeyLen,  1ull << 31, (1ull << 32) - 1,
                               ~0ull};
    std::vector<std::string> Tokens;
    std::string Token;
    for (const char C : Lines[L] + ' ')
      if (C != ' ')
        Token += C;
      else if (!Token.empty())
        Tokens.push_back(std::move(Token)), Token.clear();
    std::vector<size_t> Numeric;
    for (size_t I = 1; I < Tokens.size(); ++I)
      if (std::isdigit(static_cast<unsigned char>(Tokens[I][0])))
        Numeric.push_back(I);
    if (Numeric.empty())
      break;
    Tokens[Numeric[Rng() % Numeric.size()]] =
        std::to_string(Values[Rng() % std::size(Values)]);
    Lines[L].clear();
    for (const std::string &T : Tokens)
      Lines[L] += (Lines[L].empty() ? "" : " ") + T;
    break;
  }
  case 2:
    Lines.erase(Lines.begin() + static_cast<ptrdiff_t>(L));
    break;
  case 3:
    Lines.insert(Lines.begin() + static_cast<ptrdiff_t>(L), Lines[L]);
    break;
  case 4:
    std::swap(Lines[L], Lines[Rng() % Lines.size()]);
    break;
  default: {
    // Flip one flag of the (first) flags line, adding one when the file
    // has none.
    static const char *const Flags[] = {"fallback", "partial", "bijective",
                                        "variable"};
    const std::string Flag = Flags[Rng() % 4];
    auto It = std::find_if(Lines.begin(), Lines.end(), [](const auto &Line) {
      return Line.rfind("flags", 0) == 0;
    });
    if (It == Lines.end()) {
      It = std::find_if(Lines.begin(), Lines.end(), [](const auto &Line) {
        return Line.rfind("len ", 0) == 0;
      });
      if (It == Lines.end())
        break;
      It = Lines.insert(It + 1, "flags");
    }
    const size_t At = (*It + ' ').find(' ' + Flag + ' ');
    if (At == std::string::npos)
      *It += ' ' + Flag;
    else
      It->erase(At, Flag.size() + 1);
    break;
  }
  }
  std::string Out;
  for (const std::string &Line : Lines)
    Out += Line + '\n';
  return Out;
}

TEST(LoaderFuzzTest, MutatedPlansFailOrLoadInsideTheKey) {
  std::vector<HashPlan> Bases;
  for (const PaperKey Key : AllPaperKeys)
    for (const HashFamily Family : {HashFamily::Naive, HashFamily::OffXor,
                                    HashFamily::Aes, HashFamily::Pext}) {
      Expected<HashPlan> Plan =
          synthesize(paperKeyFormat(Key).abstract(), Family);
      ASSERT_TRUE(Plan) << paperKeyName(Key) << ": " << Plan.error().Message;
      Bases.push_back(Plan.take());
    }
  Expected<FormatSpec> Variable = parseRegex(R"([0-9]{12,20})");
  ASSERT_TRUE(Variable);
  Expected<HashPlan> VariablePlan =
      synthesize(Variable->abstract(), HashFamily::Pext);
  ASSERT_TRUE(VariablePlan) << VariablePlan.error().Message;
  ASSERT_FALSE(VariablePlan->FixedLength);
  ASSERT_GE(VariablePlan->Skip.loadCount(), 1u);
  Bases.push_back(VariablePlan.take());

  std::mt19937_64 Rng(0x10ad);
  for (const HashPlan &Base : Bases) {
    const std::string Text = serializePlan(Base);
    checkPlanLoad(Text);
    for (int Case = 0; Case != 60; ++Case) {
      // Up to three stacked mutations reach combinations one cannot.
      std::string Input = Text;
      for (uint64_t N = 1 + Rng() % 3; N != 0; --N)
        Input = mutate(Input, Base.MinKeyLen, Rng);
      checkPlanLoad(Input);
      if (HasFatalFailure())
        return;
    }
  }
}

TEST(LoaderFuzzTest, MutatedMphfFilesFailOrLoadInsideTheKey) {
  std::vector<std::pair<std::string, uint64_t>> Bases;
  for (const PaperKey Key : {PaperKey::SSN, PaperKey::IPv4, PaperKey::URL1}) {
    KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, 0xf11e);
    const std::vector<std::string> Keys = Gen.distinct(64);
    MphfBuildOptions Options;
    Options.Format = &paperKeyFormat(Key);
    Expected<Mphf> F = buildMphf(Keys, Options);
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    ASSERT_FALSE(F->plan().RawBase);
    Bases.emplace_back(serializeMphf(F->plan()),
                       F->plan().Extract->MinKeyLen);
    if (Key == PaperKey::SSN) {
      Expected<Mphf> Raw = buildMphf(Keys, MphfBuildOptions());
      ASSERT_TRUE(Raw) << Raw.error().Message;
      Bases.emplace_back(serializeMphf(Raw->plan()), 11);
    }
  }

  std::mt19937_64 Rng(0x3f11e);
  for (const auto &[Text, MinKeyLen] : Bases) {
    checkMphfLoad(Text);
    for (int Case = 0; Case != 250; ++Case) {
      std::string Input = Text;
      for (uint64_t N = 1 + Rng() % 3; N != 0; --N)
        Input = mutate(Input, MinKeyLen, Rng);
      checkMphfLoad(Input);
      if (HasFatalFailure())
        return;
    }
  }
}

} // namespace
