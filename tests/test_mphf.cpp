//===- tests/test_mphf.cpp - Static-set tier (minimal perfect hashing) ----===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The MPHF subsystem: packed/Elias-Fano storage primitives, the split
// construction from one key up, the bijectivity acceptance matrix over
// every paper format, serialization round-trips (and the loader's
// rejection of plans the evaluator cannot walk) and the explain
// renderings.
//
//===----------------------------------------------------------------------===//

#include "mphf/mphf.h"

#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "mphf/mphf_explain.h"
#include "mphf/mphf_io.h"
#include "mphf/packed.h"
#include "quality/mphf_check.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <string_view>
#include <vector>

using namespace sepe;

namespace {

std::vector<std::string> paperKeys(PaperKey Key, size_t N,
                                   uint64_t Seed = 0x3f1d) {
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  return Gen.distinct(N);
}

MphfBuildOptions formatOptions(PaperKey Key) {
  MphfBuildOptions Options;
  Options.Format = &paperKeyFormat(Key);
  return Options;
}

//===----------------------------------------------------------------------===//
// Storage primitives
//===----------------------------------------------------------------------===//

TEST(PackedArrayTest, RoundTripsEveryWidth) {
  std::mt19937_64 Rng(0x9ac4);
  for (unsigned Bits = 0; Bits <= 57; ++Bits) {
    const uint64_t Mask =
        Bits == 0 ? 0 : (~uint64_t{0} >> (64 - Bits));
    std::vector<uint64_t> Values(129);
    for (uint64_t &V : Values)
      V = Rng() & Mask;
    PackedArray Packed(Bits, Values.size());
    for (size_t I = 0; I != Values.size(); ++I)
      Packed.set(I, Values[I]);
    EXPECT_EQ(Packed.bits(), Bits);
    for (size_t I = 0; I != Values.size(); ++I)
      ASSERT_EQ(Packed.get(I), Values[I]) << "width " << Bits << " @ " << I;
  }
}

TEST(PackedArrayTest, PackUsesTheWidthOfTheLargestValue) {
  const PackedArray Packed = PackedArray::pack({3, 0, 7, 1});
  EXPECT_EQ(Packed.bits(), 3u);
  EXPECT_EQ(Packed.size(), 4u);
  EXPECT_EQ(Packed.get(0), 3u);
  EXPECT_EQ(Packed.get(2), 7u);
  const PackedArray Zeros = PackedArray::pack({0, 0, 0});
  EXPECT_EQ(Zeros.bits(), 0u);
  EXPECT_EQ(Zeros.get(1), 0u);
}

TEST(EliasFanoTest, RandomMonotoneSequencesRoundTrip) {
  std::mt19937_64 Rng(0xef01);
  for (int Round = 0; Round != 8; ++Round) {
    const size_t N = 1 + Rng() % 3000;
    std::vector<uint64_t> Values(N);
    uint64_t Acc = 0;
    for (uint64_t &V : Values) {
      Acc += Rng() % 97; // plenty of repeats and small gaps
      V = Acc;
    }
    const EliasFano EF = EliasFano::encode(Values);
    ASSERT_EQ(EF.size(), N);
    EXPECT_EQ(EF.universe(), Values.back());
    for (size_t I = 0; I != N; ++I)
      ASSERT_EQ(EF.get(I), Values[I]) << "round " << Round << " @ " << I;
    EXPECT_EQ(EF.decode(), Values);
  }
}

TEST(EliasFanoTest, BeatsPlainWordsOnDenseSequences) {
  std::vector<uint64_t> Values(10000);
  for (size_t I = 0; I != Values.size(); ++I)
    Values[I] = I * 32; // bucket-offset-like density
  const EliasFano EF = EliasFano::encode(Values);
  EXPECT_LT(EF.bytesUsed(), Values.size() * sizeof(uint32_t))
      << "Elias-Fano must undercut even 32-bit plain storage here";
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

TEST(MphfBuildTest, LargeSetsUseTheSplitTier) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_GT(F->plan().Pilots.size(), 0u);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
  // The space story: a handful of bits per key, not a stored key set.
  EXPECT_LT(F->plan().bitsPerKey(), 16.0);
}

TEST(MphfBuildTest, SingleKeyAndPairAreHandled) {
  // Every small size through the one construction, over extracted and
  // raw base images. Up to four keys the plan has a single bucket, so
  // bucket selection must not shift the 64-bit hash by 64. Each plan
  // also has to survive the loader's structural checks.
  for (bool Raw : {false, true}) {
    for (size_t N = 1; N <= 64; ++N) {
      std::vector<std::string> Keys;
      if (Raw)
        for (size_t I = 0; I != N; ++I)
          Keys.push_back("raw/" + std::to_string(I * 104729) +
                         std::string(I % 7, '~'));
      else
        Keys = paperKeys(PaperKey::MAC, N);
      Expected<Mphf> F = Raw ? buildMphf(Keys)
                             : buildMphf(Keys, formatOptions(PaperKey::MAC));
      ASSERT_TRUE(F) << "n=" << N << ": " << F.error().Message;
      EXPECT_EQ(F->plan().RawBase, Raw) << "n=" << N;
      if (N <= 4) {
        EXPECT_EQ(F->plan().NumBuckets, 1u) << "n=" << N;
      }
      EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect()) << "n=" << N;
      Expected<MphfPlan> Back = deserializeMphf(serializeMphf(F->plan()));
      ASSERT_TRUE(Back) << "n=" << N << ": " << Back.error().Message;
      const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
      for (const std::string &Key : Keys)
        ASSERT_EQ(G(Key), (*F)(Key)) << "n=" << N << " " << Key;
    }
  }
}

TEST(MphfBuildTest, EmptySetIsAnError) {
  Expected<Mphf> F = buildMphf(std::vector<std::string>{});
  EXPECT_FALSE(F);
}

TEST(MphfBuildTest, DuplicateKeysAreReportedNotLooped) {
  std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 100);
  Keys.push_back(Keys.front());
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_FALSE(F);
  EXPECT_NE(F.error().Message.find("duplicate"), std::string::npos)
      << F.error().Message;
}

TEST(MphfBuildTest, RawBaseHandlesFormatlessKeys) {
  // No format, no extraction plan: arbitrary byte strings of mixed
  // lengths must still build via the seeded raw mix.
  std::vector<std::string> Keys;
  for (int I = 0; I != 500; ++I)
    Keys.push_back("key/" + std::to_string(I * 7919) + "/suffix" +
                   std::string(I % 13, 'x'));
  Expected<Mphf> F = buildMphf(Keys);
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_TRUE(F->plan().RawBase);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());
}

TEST(MphfBuildTest, DeterministicForFixedSeed) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::CPF, 300);
  Expected<Mphf> A = buildMphf(Keys, formatOptions(PaperKey::CPF));
  Expected<Mphf> B = buildMphf(Keys, formatOptions(PaperKey::CPF));
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  EXPECT_EQ(serializeMphf(A->plan()), serializeMphf(B->plan()));
}

TEST(MphfBuildTest, OutOfSetKeysStayInRange) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 2000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  KeyGenerator Gen(paperKeyFormat(PaperKey::SSN), KeyDistribution::Uniform,
                   0x07u);
  for (int I = 0; I != 4000; ++I) {
    const std::string Key = Gen.next();
    EXPECT_LT((*F)(Key), F->size()) << Key;
  }
  // Wildly out-of-format keys too.
  EXPECT_LT((*F)(""), F->size());
  EXPECT_LT((*F)("definitely not an ssn, far too long a key"), F->size());
}

TEST(MphfBuildTest, BatchAgreesWithSingleKeyEval) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::IPv4, 777);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::IPv4));
  ASSERT_TRUE(F) << F.error().Message;
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Out(Views.size());
  F->evalBatch(Views.data(), Out.data(), Views.size());
  for (size_t I = 0; I != Views.size(); ++I)
    ASSERT_EQ(Out[I], (*F)(Views[I])) << I;
}

//===----------------------------------------------------------------------===//
// The acceptance matrix: every paper format, three orders of magnitude
//===----------------------------------------------------------------------===//

TEST(MphfAcceptanceTest, AllPaperFormatsAtSixteenKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 16);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
    EXPECT_TRUE(R.perfect()) << paperKeyName(Key);
  }
}

TEST(MphfAcceptanceTest, AllPaperFormatsAtAThousandKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 1000);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
  }
}

TEST(MphfAcceptanceTest, AllPaperFormatsAtAHundredThousandKeys) {
  for (PaperKey Key : AllPaperKeys) {
    const std::vector<std::string> Keys = paperKeys(Key, 100000);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(F) << paperKeyName(Key) << ": " << F.error().Message;
    quality::MphfReport R = quality::measureMphf(*F, Keys);
    EXPECT_EQ(R.Collisions, 0u) << paperKeyName(Key);
    EXPECT_EQ(R.Coverage, 1.0) << paperKeyName(Key);
    EXPECT_EQ(R.MaxIndex, Keys.size() - 1) << paperKeyName(Key);
  }
}

//===----------------------------------------------------------------------===//
// Serialization and explain
//===----------------------------------------------------------------------===//

TEST(MphfIoTest, SplitTierRoundTrips) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1500);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  const std::string Text = serializeMphf(F->plan());
  Expected<MphfPlan> Back = deserializeMphf(Text);
  ASSERT_TRUE(Back) << Back.error().Message;
  EXPECT_EQ(serializeMphf(*Back), Text) << "serialize is a fixed point";
  const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
  for (const std::string &Key : Keys)
    ASSERT_EQ(G(Key), (*F)(Key)) << Key;
}

TEST(MphfIoTest, RawBasePlansRoundTripWithoutAnEmbeddedPlan) {
  std::vector<std::string> Keys;
  for (int I = 0; I != 200; ++I)
    Keys.push_back("raw-" + std::to_string(I));
  Expected<Mphf> F = buildMphf(Keys);
  ASSERT_TRUE(F) << F.error().Message;
  const std::string Text = serializeMphf(F->plan());
  EXPECT_EQ(Text.find("plan\n"), std::string::npos);
  Expected<MphfPlan> Back = deserializeMphf(Text);
  ASSERT_TRUE(Back) << Back.error().Message;
  EXPECT_TRUE(Back->RawBase);
  const Mphf G(std::make_shared<const MphfPlan>(Back.take()));
  for (const std::string &Key : Keys)
    ASSERT_EQ(G(Key), (*F)(Key));
}

TEST(MphfIoTest, MalformedInputsFailWithLineNumbers) {
  EXPECT_FALSE(deserializeMphf(""));
  EXPECT_FALSE(deserializeMphf("not-a-plan\n"));
  EXPECT_FALSE(deserializeMphf("sepe-mphf v1\nn 4\n"));
  EXPECT_FALSE(deserializeMphf("sepe-mphf v2\nn 4\n"));
  EXPECT_FALSE(deserializeMphf("sepe-mphf v2\ntier Split\nn 4\n"));
  Expected<MphfPlan> Unterminated =
      deserializeMphf("sepe-mphf v2\nn 4\nplan\n");
  ASSERT_FALSE(Unterminated);
  EXPECT_NE(Unterminated.error().Message.find("endplan"),
            std::string::npos);

  // Well-formed line by line, but not a plan the evaluator can walk.
  const auto Split = [](const char *N, const char *Buckets,
                        const char *Offsets, const char *Starts,
                        const char *Pilot = "3") {
    return std::string("sepe-mphf v2\nn ") + N + "\nseed 1\nbuckets " +
           Buckets + "\nleafmax 8\npilots 1\np " + Pilot + "\n" + Offsets +
           Starts;
  };
  // One 40-key bucket needs a 15-node split tree, not one pilot.
  Expected<MphfPlan> ShortTree = deserializeMphf(
      Split("40", "1", "offsets 2\no 0 40\n", "pilotstarts 2\ns 0 1\n"));
  ASSERT_FALSE(ShortTree);
  EXPECT_NE(ShortTree.error().Message.find("bucket 0"), std::string::npos)
      << ShortTree.error().Message;
  // Bucket selection is a shift: the count must be a power of two.
  Expected<MphfPlan> ThreeBuckets =
      deserializeMphf(Split("3", "3", "offsets 4\no 0 1 2 3\n",
                            "pilotstarts 4\ns 0 1 1 1\n"));
  ASSERT_FALSE(ThreeBuckets);
  EXPECT_NE(ThreeBuckets.error().Message.find("line 4"), std::string::npos)
      << ThreeBuckets.error().Message;
  // Past the builder's 2^32-key limit.
  EXPECT_FALSE(deserializeMphf(Split("4294967297", "1",
                                     "offsets 2\no 0 4294967297\n",
                                     "pilotstarts 2\ns 0 1\n")));
  // A pilot wider than the evaluator's 32-bit root-pilot cache.
  EXPECT_FALSE(deserializeMphf(Split("8", "1", "offsets 2\no 0 8\n",
                                     "pilotstarts 2\ns 0 1\n",
                                     "288230376151711744")));
  // The same shape with a consistent tree loads.
  EXPECT_TRUE(deserializeMphf(
      Split("8", "1", "offsets 2\no 0 8\n", "pilotstarts 2\ns 0 1\n")));
}

TEST(MphfExplainTest, AllThreeFormatsRender) {
  const std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 1000);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;

  const std::string Text = explainMphf(F->plan(), ExplainFormat::Text);
  EXPECT_NE(Text.find("splitting tree"), std::string::npos) << Text;
  EXPECT_NE(Text.find("bits/key"), std::string::npos);
  EXPECT_NE(Text.find("extraction plan"), std::string::npos)
      << "embedded front-end must render";
  EXPECT_NE(Text.find("plan Pext"), std::string::npos);

  const std::string Json = explainMphf(F->plan(), ExplainFormat::Json);
  Expected<json::Value> Doc = json::parse(Json);
  ASSERT_TRUE(Doc) << Doc.error().Message;
  EXPECT_EQ(Doc->numberOr("n", 0), 1000.0);
  EXPECT_EQ(Doc->numberOr("buckets", 0),
            static_cast<double>(F->plan().NumBuckets));
  EXPECT_TRUE(Doc->find("extract") != nullptr);

  const std::string Dot = explainMphf(F->plan(), ExplainFormat::Dot);
  EXPECT_NE(Dot.find("digraph sepe_mphf"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

} // namespace
