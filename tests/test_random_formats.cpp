//===- tests/test_random_formats.cpp - Fuzz-style format sweep ------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential testing over *randomly generated* key formats, not just
/// the paper's eight: a seeded generator builds arbitrary FormatSpecs
/// (mixed constant runs, digit/hex/letter/full-byte classes, assorted
/// lengths), and every (format x family) pair must satisfy the core
/// contracts: total, deterministic, position-sensitive, and consistent
/// with the regex round trip. This is the suite that catches layout
/// bugs the handpicked formats miss (e.g. mask overflow past 64 bits).
/// The same generator feeds the plan-inversion property: every image of
/// a bijective Pext plan rebuilds its key (core/plan.h invertImage).
///
//===----------------------------------------------------------------------===//

#include "core/executor.h"
#include "core/regex_parser.h"
#include "core/regex_printer.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <random>
#include <unordered_set>

using namespace sepe;

namespace {

/// Builds a random fixed-length format of 8 to ~120 bytes.
FormatSpec randomFormat(uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<CharSet> Classes;
  const size_t RunCount = 2 + Rng() % 8;
  for (size_t Run = 0; Run != RunCount; ++Run) {
    const size_t RunLen = 1 + Rng() % 15;
    const unsigned Kind = static_cast<unsigned>(Rng() % 5);
    for (size_t I = 0; I != RunLen; ++I) {
      switch (Kind) {
      case 0: // constant byte
        Classes.push_back(CharSet::singleton(
            static_cast<uint8_t>('!' + Rng() % 90)));
        break;
      case 1: // digits
        Classes.push_back(CharSet::range('0', '9'));
        break;
      case 2: { // hex
        CharSet Hex = CharSet::range('0', '9');
        Hex |= CharSet::range('a', 'f');
        Classes.push_back(Hex);
        break;
      }
      case 3: // letters
        Classes.push_back(CharSet::range('a', 'z'));
        break;
      default: // full byte range
        Classes.push_back(CharSet::any());
        break;
      }
    }
  }
  while (Classes.size() < 8)
    Classes.push_back(CharSet::range('0', '9'));
  return FormatSpec::fixed(std::move(Classes));
}

/// True when the format has at least one non-singleton class (otherwise
/// synthesis rightfully refuses).
bool hasFreeBits(const FormatSpec &Spec) {
  for (const CharSet &Class : Spec.classes())
    if (!Class.isSingleton() && !Class.abstraction().isConstant())
      return true;
  return false;
}

class RandomFormatTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFormatTest, AllFamiliesSatisfyCoreContracts) {
  const FormatSpec Spec = randomFormat(GetParam());
  const KeyPattern Pattern = Spec.abstract();
  if (!hasFreeBits(Spec))
    GTEST_SKIP() << "degenerate constant format";

  KeyGenerator Gen(Spec, KeyDistribution::Uniform, GetParam() ^ 0xf00d);

  for (HashFamily Family : {HashFamily::Naive, HashFamily::OffXor,
                            HashFamily::Aes, HashFamily::Pext}) {
    Expected<HashPlan> Plan = synthesize(Pattern, Family);
    ASSERT_TRUE(Plan) << familyName(Family);
    const SynthesizedHash Hash(Plan.take());
    const SynthesizedHash Soft(
        std::make_shared<const HashPlan>(Hash.plan()), IsaLevel::Portable);

    const std::string Base = Gen.next();
    ASSERT_TRUE(Spec.matches(Base));

    // Determinism + hardware/software agreement.
    EXPECT_EQ(Hash(Base), Hash(Base));
    EXPECT_EQ(Hash(Base), Soft(Base));

    // Position sensitivity on every free position.
    for (size_t Pos : Spec.variablePositions()) {
      const CharSet &Class = Spec.classAt(Pos);
      if (Class.abstraction().isConstant())
        continue; // Free at class level but constant at quad level.
      std::string Mutated = Base;
      const uint8_t Old = static_cast<uint8_t>(Base[Pos]);
      const uint8_t New =
          Class.nth((Class.rankOf(Old) + 1) % Class.size());
      Mutated[Pos] = static_cast<char>(New);
      if (Old == New)
        continue;
      EXPECT_NE(Hash(Base), Hash(Mutated))
          << familyName(Family) << " format " << GetParam()
          << " ignores position " << Pos;
    }
  }
}

TEST_P(RandomFormatTest, RegexRoundTripPreservesThePattern) {
  const FormatSpec Spec = randomFormat(GetParam());
  const KeyPattern Pattern = Spec.abstract();
  const std::string Regex = printRegex(Pattern);
  Expected<FormatSpec> Reparsed = parseRegex(Regex);
  ASSERT_TRUE(Reparsed) << Regex;
  EXPECT_EQ(Reparsed->abstract(), Pattern) << Regex;
}

TEST_P(RandomFormatTest, PextCollisionFreeOnSamples) {
  const FormatSpec Spec = randomFormat(GetParam());
  if (!hasFreeBits(Spec))
    GTEST_SKIP();
  Expected<HashPlan> Plan =
      synthesize(Spec.abstract(), HashFamily::Pext);
  ASSERT_TRUE(Plan);
  const SynthesizedHash Hash(Plan.take());
  KeyGenerator Gen(Spec, KeyDistribution::Uniform, GetParam() ^ 0xcafe);
  std::unordered_set<uint64_t> Hashes;
  std::unordered_set<std::string> Keys;
  for (int I = 0; I != 500; ++I) {
    const std::string Key = Gen.next();
    if (!Keys.insert(Key).second)
      continue;
    Hashes.insert(Hash(Key));
  }
  EXPECT_GE(Hashes.size() + 2, Keys.size())
      << "format " << GetParam() << " collides unexpectedly often";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFormatTest,
                         ::testing::Range<uint64_t>(1, 41));

// --- Plan inversion ---------------------------------------------------------

/// Hashes \p N keys of \p Spec with its Pext plan, rebuilds each key
/// from its image with invertImage, and expects the key back.
void expectImagesInvert(const FormatSpec &Spec, size_t N, uint64_t Seed,
                        const SynthesisOptions &Options = {}) {
  const KeyPattern Pattern = Spec.abstract();
  Expected<HashPlan> Plan = synthesize(Pattern, HashFamily::Pext, Options);
  ASSERT_TRUE(Plan);
  ASSERT_TRUE(Plan->Bijective) << printRegex(Pattern);
  ASSERT_TRUE(invertible(*Plan, Pattern)) << printRegex(Pattern);
  const SynthesizedHash Hash(Plan.take());
  KeyGenerator Gen(Spec, KeyDistribution::Uniform, Seed);
  std::string Rebuilt(Pattern.maxLength(), '\0');
  for (size_t I = 0; I != N; ++I) {
    const std::string Key = Gen.next();
    invertImage(Hash.plan(), Pattern, Hash(Key), Rebuilt.data());
    ASSERT_EQ(Rebuilt, Key) << printRegex(Pattern);
  }
}

TEST(PlanInverseTest, InvertsEveryBijectivePaperFormat) {
  size_t Bijective = 0;
  for (const PaperKey Key : AllPaperKeys) {
    const FormatSpec Format = paperKeyFormat(Key);
    Expected<HashPlan> Plan = synthesize(Format.abstract(), HashFamily::Pext);
    ASSERT_TRUE(Plan);
    if (!Plan->Bijective)
      continue;
    ++Bijective;
    SCOPED_TRACE(paperKeyName(Key));
    expectImagesInvert(Format, 5000, 0x1d + static_cast<uint64_t>(Key));
  }
  EXPECT_EQ(Bijective, 3u) << "SSN, CPF and IPv4";
}

TEST(PlanInverseTest, InvertsRandomFormatsUpTo64FreeBits) {
  size_t Tested = 0;
  for (uint64_t Seed = 1; Seed != 400; ++Seed) {
    const FormatSpec Spec = randomFormat(Seed);
    const unsigned FreeBits = Spec.abstract().freeBitCount();
    if (!hasFreeBits(Spec) || FreeBits > 64)
      continue;
    ++Tested;
    SCOPED_TRACE(Seed);
    expectImagesInvert(Spec, 300, Seed ^ 0xbeef);
  }
  EXPECT_GE(Tested, 20u) << "too few random formats fit in 64 bits";
}

TEST(PlanInverseTest, InvertsPartialLoadPlans) {
  SynthesisOptions Options;
  Options.AllowShortKeys = true;
  for (const char *Regex :
       {R"([0-9]{5})", R"([A-Z]{2}-[0-9]{3})", R"([a-f]{3})",
        R"([0-9a-z]{7})"}) {
    Expected<FormatSpec> Spec = parseRegex(Regex);
    ASSERT_TRUE(Spec) << Regex;
    SCOPED_TRACE(Regex);
    expectImagesInvert(*Spec, 2000, 0x5407, Options);
  }
}

TEST(PlanInverseTest, InvertibleRequiresThePlansOwnPattern) {
  const KeyPattern Ssn = paperKeyFormat(PaperKey::SSN).abstract();
  Expected<HashPlan> Plan = synthesize(Ssn, HashFamily::Pext);
  ASSERT_TRUE(Plan);
  EXPECT_TRUE(invertible(*Plan, Ssn));
  // A wider pattern of the same length has free bits no mask selects.
  Expected<FormatSpec> Wide = parseRegex(R"([0-9A-Z]\d{2}-\d{2}-\d{4})");
  ASSERT_TRUE(Wide);
  EXPECT_FALSE(invertible(*Plan, Wide->abstract()));
  // Same length and free-bit count, but the dashes moved: the masks
  // select constant bits and miss free ones.
  Expected<FormatSpec> Moved = parseRegex(R"(\d{2}-\d{3}-\d{4})");
  ASSERT_TRUE(Moved);
  EXPECT_FALSE(invertible(*Plan, Moved->abstract()));
  // Not bijective: more than 64 free bits, or not Pext at all.
  const KeyPattern Mac = paperKeyFormat(PaperKey::MAC).abstract();
  Expected<HashPlan> MacPlan = synthesize(Mac, HashFamily::Pext);
  ASSERT_TRUE(MacPlan);
  EXPECT_FALSE(invertible(*MacPlan, Mac));
  Expected<HashPlan> OffXor = synthesize(Ssn, HashFamily::OffXor);
  ASSERT_TRUE(OffXor);
  EXPECT_FALSE(invertible(*OffXor, Ssn));
}

} // namespace
