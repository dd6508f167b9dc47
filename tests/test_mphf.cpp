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

#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "hashes/fnv.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "mphf/mphf_explain.h"
#include "mphf/mphf_io.h"
#include "mphf/packed.h"
#include "quality/mphf_check.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  // 20,000 keys are past the size from which the search runs threaded.
  for (size_t N : {size_t{100}, size_t{20000}}) {
    std::vector<std::string> Keys = paperKeys(PaperKey::SSN, N);
    Keys.push_back(Keys.front());
    Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
    ASSERT_FALSE(F) << "n=" << N;
    EXPECT_NE(F.error().Message.find("duplicate key in MPHF input"),
              std::string::npos)
        << "n=" << N << ": " << F.error().Message;
  }
}

TEST(MphfBuildTest, ExtractionCollisionFallsBackToRawBase) {
  // OffXor folds a 16-byte key into the xor of its two 8-byte words, so
  // a key with its halves swapped has the same extraction image and is
  // a different key: the build must fall back to raw imaging.
  Expected<FormatSpec> Spec = parseRegex("[a-z]{16}");
  ASSERT_TRUE(Spec) << Spec.error().Message;
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::OffXor);
  ASSERT_TRUE(Plan) << Plan.error().Message;
  MphfBuildOptions Options;
  Options.Extract = std::make_shared<const HashPlan>(Plan.take());
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, 0x5a17);
  std::vector<std::string> Keys = Gen.distinct(1000);
  const std::string Swapped = Keys[0].substr(8) + Keys[0].substr(0, 8);
  ASSERT_NE(Swapped, Keys[0]);
  ASSERT_EQ(std::find(Keys.begin(), Keys.end(), Swapped), Keys.end());
  const SynthesizedHash Front(Options.Extract);
  ASSERT_EQ(Front(Swapped), Front(Keys[0]));
  Keys.push_back(Swapped);

  Expected<Mphf> F = buildMphf(Keys, Options);
  ASSERT_TRUE(F) << F.error().Message;
  EXPECT_TRUE(F->plan().RawBase);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());

  // A repeated key among the colliding images is still a duplicate
  // key.
  Keys.push_back(Keys[5]);
  Expected<Mphf> G = buildMphf(Keys, Options);
  ASSERT_FALSE(G);
  EXPECT_NE(G.error().Message.find("duplicate key in MPHF input"),
            std::string::npos)
      << G.error().Message;
}

TEST(MphfBuildTest, ZeroExtractionImageIsAKeyLikeAnyOther) {
  // The distinctness check's set marks empty cells with zero. An SSN
  // of all zero digits has Pext image zero; it must build, and its
  // repeat must be reported as a duplicate key, not found only after
  // every reseed's search has run out.
  const std::string Zero = "000-00-0000";
  std::vector<std::string> Keys = paperKeys(PaperKey::SSN, 2000);
  Keys.erase(std::remove(Keys.begin(), Keys.end(), Zero), Keys.end());
  Keys.push_back(Zero);
  Expected<Mphf> F = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_TRUE(F) << F.error().Message;
  ASSERT_FALSE(F->plan().RawBase);
  ASSERT_EQ(SynthesizedHash(F->plan().Extract)(Zero), 0u);
  EXPECT_TRUE(quality::measureMphf(*F, Keys).perfect());

  Keys.push_back(Zero);
  Expected<Mphf> G = buildMphf(Keys, formatOptions(PaperKey::SSN));
  ASSERT_FALSE(G);
  EXPECT_NE(G.error().Message.find("duplicate key in MPHF input"),
            std::string::npos)
      << G.error().Message;
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
  // The second input is past the size from which the search runs
  // threaded.
  for (auto [Key, N] : {std::pair{PaperKey::CPF, size_t{300}},
                        std::pair{PaperKey::SSN, size_t{100000}}}) {
    const std::vector<std::string> Keys = paperKeys(Key, N);
    Expected<Mphf> A = buildMphf(Keys, formatOptions(Key));
    Expected<Mphf> B = buildMphf(Keys, formatOptions(Key));
    ASSERT_TRUE(A) << paperKeyName(Key);
    ASSERT_TRUE(B) << paperKeyName(Key);
    EXPECT_EQ(serializeMphf(A->plan()), serializeMphf(B->plan()))
        << paperKeyName(Key);
  }
}

TEST(MphfBuildTest, PlansMatchTheParentBuilder) {
  // FNV-1a-64 digests of the plans a one-thread, sort-based build of
  // these inputs serializes to. They pin the bucket order, the leaf
  // acceptance and the pilot layout: making the builder faster, or
  // sharing its search out over threads, must not change a plan.
  const struct {
    PaperKey Key;
    size_t N;
    uint64_t Digest;
  } Golden[] = {{PaperKey::IPv4, 12288, 0x7ad09819c9615181ull},
                {PaperKey::SSN, 100000, 0x10839bc72e3b631cull}};
  for (const auto &G : Golden) {
    const std::vector<std::string> Keys = paperKeys(G.Key, G.N);
    Expected<Mphf> F = buildMphf(Keys, formatOptions(G.Key));
    ASSERT_TRUE(F) << paperKeyName(G.Key) << ": " << F.error().Message;
    const std::string Text = serializeMphf(F->plan());
    EXPECT_EQ(fnv1aHashBytes(Text.data(), Text.size(), FnvOffsetBasis64),
              G.Digest)
        << paperKeyName(G.Key) << " n=" << G.N;
  }
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
  // An embedded plan goes through the plan loader's bounds: a skip
  // table that loads inside an 8-byte key loads, one that loads bytes
  // 4-11 of it does not.
  const auto WithSkip = [&](const char *Skip) {
    return Split("8", "1", "offsets 2\no 0 8\n", "pilotstarts 2\ns 0 1\n") +
           "plan\nsepe-plan v1\nfamily OffXor\nlen 8 16\nflags variable\n"
           "skip " +
           Skip + "\nskipmasks 0xff\nendplan\n";
  };
  EXPECT_TRUE(deserializeMphf(WithSkip("0 8")));
  Expected<MphfPlan> PastTheKey = deserializeMphf(WithSkip("4 8"));
  ASSERT_FALSE(PastTheKey);
  EXPECT_NE(PastTheKey.error().Message.find("line 19"), std::string::npos)
      << PastTheKey.error().Message;
  EXPECT_NE(PastTheKey.error().Message.find("past the key"),
            std::string::npos)
      << PastTheKey.error().Message;
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
