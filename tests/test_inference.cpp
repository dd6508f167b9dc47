//===- tests/test_inference.cpp - Pattern inference (Section 3.1) ---------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/inference.h"

#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "test_keys.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

using namespace sepe;

namespace {

/// Section 3.1's fold as the paper states it: one BytePattern join per
/// byte position per key, positions past a key's end joining top. The
/// word-at-a-time PatternBuilder must return exactly this.
KeyPattern referenceFold(const std::vector<std::string_view> &Keys) {
  if (Keys.empty())
    return KeyPattern();
  size_t MinLen = Keys[0].size();
  std::vector<BytePattern> Bytes;
  for (const char C : Keys[0])
    Bytes.push_back(BytePattern::fromByte(static_cast<uint8_t>(C)));
  for (size_t K = 1; K < Keys.size(); ++K) {
    const std::string_view Key = Keys[K];
    if (Key.size() > Bytes.size())
      Bytes.resize(Key.size(), BytePattern::top());
    MinLen = std::min(MinLen, Key.size());
    for (size_t I = 0; I != Bytes.size(); ++I)
      Bytes[I] = join(Bytes[I],
                      I < Key.size()
                          ? BytePattern::fromByte(static_cast<uint8_t>(Key[I]))
                          : BytePattern::top());
  }
  if (MinLen == Bytes.size())
    return KeyPattern::fixed(std::move(Bytes));
  return KeyPattern::variable(std::move(Bytes), MinLen);
}

std::string describe(const KeyPattern &P) {
  std::ostringstream Out;
  Out << '[' << P.minLength() << ", " << P.maxLength() << "] " << P.str();
  return Out.str();
}

/// Expects inferPattern(\p Keys) to equal the reference fold.
void expectReference(const std::vector<std::string> &Keys) {
  const KeyPattern Want =
      referenceFold(std::vector<std::string_view>(Keys.begin(), Keys.end()));
  const KeyPattern Got = inferPattern(Keys);
  EXPECT_TRUE(Got == Want) << describe(Got) << "\nreference:\n"
                           << describe(Want);
}

/// \p Count keys with lengths drawn from \p Lengths, built from one
/// template so the pattern keeps a mix of constant, partly constant and
/// top bit pairs: position I varies only in the bits of a per-position
/// mask.
std::vector<std::string> templatedKeys(const std::vector<size_t> &Lengths,
                                       size_t Count, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  const size_t Longest = *std::max_element(Lengths.begin(), Lengths.end());
  std::string Template(Longest, '\0');
  std::vector<uint8_t> Vary(Longest);
  const uint8_t Masks[] = {0x00, 0x01, 0x03, 0x0C, 0x0F, 0x30, 0xC0, 0xFF};
  for (size_t I = 0; I != Longest; ++I) {
    Template[I] = static_cast<char>(Rng());
    Vary[I] = Masks[Rng() % std::size(Masks)];
  }
  std::vector<std::string> Keys;
  for (size_t K = 0; K != Count; ++K) {
    std::string Key = Template.substr(0, Lengths[K % Lengths.size()]);
    for (size_t I = 0; I != Key.size(); ++I)
      Key[I] = static_cast<char>(Key[I] ^ (Rng() & Vary[I]));
    Keys.push_back(std::move(Key));
  }
  return Keys;
}

TEST(InferenceTest, EmptySetYieldsEmptyPattern) {
  EXPECT_TRUE(inferPattern({}).empty());
}

TEST(InferenceTest, SingleKeyIsFullyConstant) {
  const KeyPattern P = inferPattern({"abc"});
  EXPECT_TRUE(P.isFixedLength());
  for (size_t I = 0; I != 3; ++I)
    EXPECT_TRUE(P.byteAt(I).isConstant());
}

TEST(InferenceTest, IataExampleFromPaper) {
  // Example 3.4: JFK v LaX v GRu. The first byte keeps its upper quad
  // (0100 = upper-case letters); the second byte mixes upper and lower
  // case, keeping only 01.
  const KeyPattern P = inferPattern({"JFK", "LaX", "GRu"});
  EXPECT_EQ(P.byteAt(0).quadAt(0), Quad::pair(0b01));
  EXPECT_EQ(P.byteAt(0).quadAt(1), Quad::pair(0b00));
  EXPECT_EQ(P.byteAt(1).quadAt(0), Quad::pair(0b01));
  EXPECT_TRUE(P.byteAt(1).quadAt(1).isTop());
}

TEST(InferenceTest, ShorterKeysTopTheTail) {
  // Example 3.4's ICAO case: a fourth letter missing in the IATA codes
  // makes the tail position all-top.
  const KeyPattern P = inferPattern({"JFK", "LaX", "GRu", "RJTT"});
  EXPECT_EQ(P.minLength(), 3u);
  EXPECT_EQ(P.maxLength(), 4u);
  EXPECT_TRUE(P.byteAt(3).isTop());
}

TEST(InferenceTest, ResultCoversEveryExample) {
  const std::vector<std::string> Keys = {"123-45-6789", "000-00-0000",
                                         "999-99-9999"};
  const KeyPattern P = inferPattern(Keys);
  for (const std::string &Key : Keys)
    EXPECT_TRUE(P.matches(Key)) << Key;
}

TEST(InferenceTest, SeparatorsStayConstant) {
  const KeyPattern P = inferPattern({"123-45-6789", "987-65-4321"});
  EXPECT_TRUE(P.byteAt(3).isConstant());
  EXPECT_EQ(P.byteAt(3).constValue(), '-');
  EXPECT_TRUE(P.byteAt(6).isConstant());
  EXPECT_FALSE(P.byteAt(0).isConstant());
}

TEST(InferenceTest, TwoGoodExamplesExerciseDigitQuads) {
  // Example 3.6: all-0s and all-5s suffice to free the digit nibble.
  const KeyPattern P = inferPattern({"000.000.000.000", "555.555.555.555"});
  for (size_t I : {0u, 1u, 2u, 4u, 5u, 6u}) {
    EXPECT_EQ(P.byteAt(I).constMask(), 0xF0) << "digit at " << I;
  }
  EXPECT_TRUE(P.byteAt(3).isConstant());
}

TEST(InferenceTest, OrderIndependence) {
  const std::vector<std::string> Keys = {"JFK", "LaX", "GRu"};
  const KeyPattern Forward = inferPattern(Keys);
  const KeyPattern Backward = inferPattern({"GRu", "LaX", "JFK"});
  EXPECT_EQ(Forward, Backward);
}

TEST(InferenceTest, BuilderMatchesBatchInference) {
  const std::vector<std::string> Keys = {"aa:bb", "00:ff", "12:34"};
  PatternBuilder Builder;
  for (const std::string &Key : Keys)
    Builder.addKey(Key);
  EXPECT_EQ(Builder.keyCount(), 3u);
  EXPECT_EQ(Builder.pattern(), inferPattern(Keys));
}

TEST(InferenceTest, StreamSkipsBlankLinesAndCr) {
  std::istringstream In("abc\r\n\nabd\r\n");
  const KeyPattern P = inferPatternFromStream(In);
  EXPECT_EQ(P.maxLength(), 3u);
  EXPECT_TRUE(P.matches("abc"));
  EXPECT_TRUE(P.matches("abd"));
}

TEST(InferenceTest, MoreExamplesOnlyLoosenThePattern) {
  // Monotonicity: adding examples can only move positions up-lattice.
  const KeyPattern Small = inferPattern({"AAA", "AAB"});
  const KeyPattern Large = inferPattern({"AAA", "AAB", "AZz"});
  for (size_t I = 0; I != 3; ++I) {
    const uint8_t SmallMask = Small.byteAt(I).constMask();
    const uint8_t LargeMask = Large.byteAt(I).constMask();
    EXPECT_EQ(LargeMask & SmallMask, LargeMask)
        << "constant bits must only shrink";
  }
}

TEST(InferenceTest, PaperFormatsMatchTheReferenceFold) {
  for (const PaperKey Key : AllPaperKeys)
    for (const size_t N : {1u, 2u, 512u, 12288u}) {
      SCOPED_TRACE(std::string(paperKeyName(Key)) + " x " +
                   std::to_string(N));
      KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform,
                       0x1fe7 + N);
      expectReference(Gen.distinct(N));
    }
}

TEST(InferenceTest, RandomFormatsMatchTheReferenceFold) {
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    SCOPED_TRACE("format " + std::to_string(Seed));
    KeyGenerator Gen(test::randomFormat(Seed), KeyDistribution::Uniform,
                     Seed ^ 0x5eed);
    std::vector<std::string> Keys;
    for (const size_t N : {1u, 2u, 3u, 64u, 512u}) {
      while (Keys.size() != N)
        Keys.push_back(Gen.next());
      expectReference(Keys);
    }
  }
}

TEST(InferenceTest, MixedLengthsMatchTheReferenceFold) {
  // Every ordered pair of lengths in [0, 20] leads a set, which covers
  // each length below a word and each 8k +- 1 as first, shortest and
  // longest key; more keys of random lengths follow.
  std::vector<size_t> All(21);
  for (size_t L = 0; L != All.size(); ++L)
    All[L] = L;
  for (const size_t A : All)
    for (const size_t B : All) {
      SCOPED_TRACE("lengths " + std::to_string(A) + ", " + std::to_string(B));
      std::vector<std::string> Keys =
          templatedKeys({A, B}, 2, 0x1e5 + 21 * A + B);
      expectReference(Keys);
      std::mt19937_64 Rng(A * 21 + B);
      std::vector<size_t> Lengths{A, B};
      for (int I = 0; I != 6; ++I)
        Lengths.push_back(Rng() % 21);
      expectReference(templatedKeys(Lengths, 40, 0x2e5 + 21 * A + B));
    }
}

TEST(InferenceTest, WordLoadsStayInsideEachKey) {
  // Each key ends at a PROT_NONE page, so a fold that reads one byte
  // past any key faults. Keys shrink and grow through every length up
  // to 20, so the last word of each fold ends exactly at a page end.
  std::vector<size_t> Lengths;
  for (size_t L = 20; L != 0; --L)
    Lengths.push_back(L);
  for (size_t L = 0; L <= 20; ++L)
    Lengths.push_back(L);
  const std::vector<std::string> Keys =
      templatedKeys(Lengths, Lengths.size(), 0x9a6e);
  test::PageEndKeys Pages(Keys.size());
  for (size_t Start = 0; Start != Keys.size(); ++Start) {
    SCOPED_TRACE("first key " + std::to_string(Start));
    std::vector<std::string_view> Views;
    PatternBuilder Builder;
    for (size_t K = Start; K != Keys.size(); ++K) {
      Views.push_back(Pages.place(K, Keys[K]));
      Builder.addKey(Views.back());
      const KeyPattern Want = referenceFold(Views);
      const KeyPattern Got = Builder.pattern();
      ASSERT_TRUE(Got == Want) << describe(Got) << "\nreference:\n"
                               << describe(Want);
    }
  }
}

TEST(InferenceTest, StreamMatchesTheReferenceFold) {
  // CRLF and LF endings, blank lines of both kinds, a '\r' inside a key
  // (kept) and a last line with no newline.
  const std::string Text = "192.168.000.001\r\n"
                           "\n"
                           "\r\n"
                           "10.0.0.1\n"
                           "172.016.254.001\r\n"
                           "10.0\r.0.12\r\n"
                           "\n"
                           "255.255.255.255";
  const std::vector<std::string_view> Keys = {
      "192.168.000.001", "10.0.0.1", "172.016.254.001", "10.0\r.0.12",
      "255.255.255.255"};
  std::istringstream In(Text);
  const KeyPattern Got = inferPatternFromStream(In);
  const KeyPattern Want = referenceFold(Keys);
  EXPECT_TRUE(Got == Want) << describe(Got) << "\nreference:\n"
                           << describe(Want);
  EXPECT_EQ(Got.minLength(), 8u);
  EXPECT_EQ(Got.maxLength(), 15u);

  std::istringstream Blank("\n\r\n\n");
  EXPECT_TRUE(inferPatternFromStream(Blank).empty());
}

} // namespace
