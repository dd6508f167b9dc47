//===- tests/test_quality.cpp - Statistical quality plane -----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The offline harness: free-bit extraction from format class sets, the
// SAC/bias/uniformity report and its invariants (a bijective Pext plan
// must show zero collisions and full free-bit coverage; Aes must
// out-avalanche the xor families), the JSON row shape. The live side:
// the AdaptiveHash in-format reservoir, QualityMonitor generation
// stamping, and the live-stats JSON/Prometheus surfaces.
//
//===----------------------------------------------------------------------===//

#include "quality/avalanche.h"

#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "quality/live_stats.h"
#include "quality/monitor.h"
#include "runtime/adaptive_hash.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

using namespace sepe;
using namespace sepe::quality;

namespace {

FormatSpec ssnSpec() {
  Expected<FormatSpec> Spec = parseRegex(R"(\d{3}-\d{2}-\d{4})");
  EXPECT_TRUE(Spec);
  return *Spec;
}

SynthesizedHash makeHash(const FormatSpec &Format, HashFamily Family) {
  Expected<HashPlan> Plan = synthesize(Format.abstract(), Family);
  EXPECT_TRUE(Plan);
  return SynthesizedHash(Plan.take());
}

TEST(FreeMaskTest, SsnDigitsExposeTheLowNibble) {
  const std::vector<uint8_t> Masks = formatFreeMasks(ssnSpec());
  ASSERT_EQ(Masks.size(), 11u);
  // Digits 0x30..0x39: bits 0..3 vary, bits 4..7 are fixed.
  for (size_t P : {0u, 1u, 2u, 4u, 5u, 7u, 8u, 9u, 10u})
    EXPECT_EQ(Masks[P], 0x0f) << "digit position " << P;
  // The dashes are constant: no free bits.
  EXPECT_EQ(Masks[3], 0x00);
  EXPECT_EQ(Masks[6], 0x00);
}

TEST(FreeMaskTest, SingletonAndFullClassesBracketTheRange) {
  Expected<FormatSpec> Spec = parseRegex(R"(A[a-b])");
  ASSERT_TRUE(Spec);
  const std::vector<uint8_t> Masks = formatFreeMasks(*Spec);
  ASSERT_EQ(Masks.size(), 2u);
  EXPECT_EQ(Masks[0], 0x00) << "singleton class has no free bits";
  EXPECT_EQ(Masks[1], 'a' ^ 'b') << "two-member class frees their xor";
}

TEST(QualityReportTest, BijectivePextHasNoCollisionsAndFullCoverage) {
  const FormatSpec Format = ssnSpec();
  const SynthesizedHash Hash = makeHash(Format, HashFamily::Pext);
  ASSERT_TRUE(Hash.plan().Bijective);
  QualityReport R = measureQuality(Format, Hash);
  R.Format = "SSN";
  EXPECT_EQ(R.Family, "Pext");
  EXPECT_TRUE(R.Bijective);
  EXPECT_EQ(R.FreeBitCount, 36u) << "9 digit positions x 4 free bits";
  EXPECT_EQ(R.Collisions, 0u) << "bijective plan on distinct keys";
  EXPECT_EQ(R.FreeBitCoverage, 1.0) << "no dead free bit in a bijection";
  EXPECT_GT(R.SacKeys, 0u);
  EXPECT_GT(R.UniformKeys, 0u);
  EXPECT_GE(R.SacScore, 0.0);
  EXPECT_LE(R.SacScore, 1.0);
  EXPECT_GE(R.Chi2, 0.0);
  EXPECT_GE(R.MaxSacBias, R.MeanSacBias);
  EXPECT_GE(R.MaxOutputBias, R.MeanOutputBias);
}

TEST(QualityReportTest, AesOutAvalanchesTheXorFamilies) {
  const FormatSpec Format = ssnSpec();
  const QualityReport Aes =
      measureQuality(Format, makeHash(Format, HashFamily::Aes));
  const QualityReport OffXor =
      measureQuality(Format, makeHash(Format, HashFamily::OffXor));
  // OffXor moves each input bit to exactly one output bit, so its SAC
  // matrix is almost entirely 0/1 cells; AES rounds diffuse.
  EXPECT_GT(Aes.SacScore, OffXor.SacScore);
  // A short key gets one effective aesenc round: a byte diffuses to a
  // 4-byte column, not the full state, so ~0.35-0.4 is the honest
  // ceiling here — still an order of magnitude beyond the xor families.
  EXPECT_GT(Aes.SacScore, 0.3);
  EXPECT_LT(OffXor.SacScore, 0.2);
  EXPECT_EQ(OffXor.FreeBitCoverage, 1.0)
      << "xor still may not drop a free bit";
}

TEST(QualityReportTest, MeasuresEveryPaperFamilyAndFormat) {
  // A smoke over the full matrix with small samples: every combination
  // must produce a finite, internally consistent row.
  QualityOptions Small;
  Small.SacKeys = 32;
  Small.BicKeys = 8;
  Small.UniformKeys = 256;
  for (PaperKey Key : AllPaperKeys) {
    const FormatSpec &Format = paperKeyFormat(Key);
    for (HashFamily Family :
         {HashFamily::Naive, HashFamily::OffXor, HashFamily::Aes,
          HashFamily::Pext}) {
      const SynthesizedHash Hash = makeHash(Format, Family);
      QualityReport R = measureQuality(Format, Hash, Small);
      R.Format = paperKeyName(Key);
      EXPECT_GT(R.FreeBitCount, 0u) << R.Format;
      EXPECT_GE(R.SacScore, 0.0) << R.Format << "/" << R.Family;
      EXPECT_LE(R.SacScore, 1.0) << R.Format << "/" << R.Family;
      EXPECT_GT(R.FreeBitCoverage, 0.0) << R.Format << "/" << R.Family;
      if (R.Bijective) {
        EXPECT_EQ(R.Collisions, 0u) << R.Format << "/" << R.Family;
      }
      Expected<json::Value> Doc = json::parse(R.toJson());
      ASSERT_TRUE(Doc) << Doc.error().Message;
      EXPECT_EQ(Doc->stringOr("format", ""), paperKeyName(Key));
      EXPECT_EQ(Doc->stringOr("family", ""), familyName(Family));
      EXPECT_TRUE(Doc->find("sac_score") != nullptr);
      EXPECT_TRUE(Doc->find("max_sac_bias") != nullptr);
      EXPECT_TRUE(Doc->find("chi2") != nullptr);
    }
  }
}

TEST(QualitySamplerTest, AdaptiveHashReservoirsAdmittedKeys) {
  const FormatSpec Format = ssnSpec();
  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.QualitySampleEvery = 1;
  AdaptiveHash Hash(Format.abstract(), Options);

  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x9a11);
  const std::vector<std::string> Keys = Gen.distinct(64);
  for (const std::string &Key : Keys)
    (void)Hash(Key);
  // One out-of-format key: must land in the drift reservoir, not the
  // quality one.
  (void)Hash("not-an-ssn!");

  const std::vector<std::string> Sampled = Hash.sampledInFormatKeys();
  EXPECT_EQ(Sampled.size(), Keys.size());
  for (const std::string &Key : Sampled)
    EXPECT_TRUE(Format.matches(Key)) << Key;

  // Batch path samples too (Every=1 collects everything while capacity
  // lasts).
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Out(Views.size());
  Hash.hashBatch(Views.data(), Out.data(), Views.size());
  EXPECT_GE(Hash.sampledInFormatKeys().size(), Keys.size());
}

TEST(QualitySamplerTest, DisabledByDefault) {
  const FormatSpec Format = ssnSpec();
  AdaptiveOptions Options;
  Options.Background = false;
  AdaptiveHash Hash(Format.abstract(), Options);
  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x9a12);
  for (int I = 0; I != 32; ++I)
    (void)Hash(Gen.next());
  EXPECT_TRUE(Hash.sampledInFormatKeys().empty());
}

TEST(QualityMonitorTest, PumpStampsTheGenerationAndPublishes) {
  const FormatSpec Format = ssnSpec();
  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.QualitySampleEvery = 1;
  AdaptiveHash Hash(Format.abstract(), Options);
  QualityMonitor Monitor(Hash);

  // Below MinKeys: invalid but still generation-stamped and published.
  LiveQualitySample Empty = Monitor.pump(/*MinKeys=*/16);
  EXPECT_FALSE(Empty.Valid);
  EXPECT_EQ(Empty.Generation, Hash.epoch());
  EXPECT_EQ(Empty.SequenceNumber, 1u);

  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x9a13);
  const std::vector<std::string> Keys = Gen.distinct(128);
  for (const std::string &Key : Keys)
    (void)Hash(Key);

  const LiveQualitySample S = Monitor.pump(16);
  EXPECT_TRUE(S.Valid);
  EXPECT_EQ(S.Generation, Hash.epoch());
  EXPECT_EQ(S.SequenceNumber, 2u);
  EXPECT_GE(S.SampleKeys, 16u);
  EXPECT_EQ(S.DuplicateHashes, 0u) << "bijective plan, distinct keys";
  EXPECT_GE(S.OccupancySkew, 1.0) << "max/mean is at least 1";
  EXPECT_GE(S.Chi2, 0.0);
  EXPECT_EQ(Monitor.latest().SequenceNumber, S.SequenceNumber);

  // The process-global slot and both textual surfaces see the sample.
  const LiveQualitySample Latest = latestLiveSample();
  EXPECT_EQ(Latest.SequenceNumber, S.SequenceNumber);
  EXPECT_EQ(Latest.Generation, S.Generation);
  Expected<json::Value> Doc = json::parse(liveStatsJson());
  ASSERT_TRUE(Doc) << Doc.error().Message;
  EXPECT_EQ(Doc->numberOr("generation", -1),
            static_cast<double>(S.Generation));
  EXPECT_EQ(Doc->numberOr("sample_keys", -1),
            static_cast<double>(S.SampleKeys));
  const json::Value *Valid = Doc->find("valid");
  ASSERT_NE(Valid, nullptr);
  EXPECT_TRUE(Valid->boolean());
  const std::string Prom = liveStatsPrometheus();
  EXPECT_NE(Prom.find("sepe_quality_generation"), std::string::npos);
  EXPECT_NE(Prom.find("sepe_quality_occupancy_skew"), std::string::npos);
}

TEST(QualityMonitorTest, SampleTracksTheEpochAcrossASwap) {
  const FormatSpec Format = ssnSpec();
  AdaptiveOptions Options;
  Options.Family = HashFamily::OffXor;
  Options.Background = false;
  Options.QualitySampleEvery = 1;
  Options.DriftWindow = 64;
  Options.Cooldown = std::chrono::milliseconds(0);
  AdaptiveHash Hash(Format.abstract(), Options);
  QualityMonitor Monitor(Hash);

  KeyGenerator Gen(Format, KeyDistribution::Uniform, 0x9a14);
  for (int I = 0; I != 64; ++I)
    (void)Hash(Gen.next());
  ASSERT_EQ(Monitor.pump(8).Generation, 0u);

  // Drift: keys one position longer force a resynthesis.
  Expected<FormatSpec> Wide = parseRegex(R"(\d{3}-\d{2}-\d{4}X)");
  ASSERT_TRUE(Wide);
  KeyGenerator WideGen(*Wide, KeyDistribution::Uniform, 0x9a15);
  for (int I = 0; I != 64; ++I)
    (void)Hash(WideGen.next());
  ASSERT_TRUE(Hash.pumpResynthesis());
  ASSERT_GT(Hash.epoch(), 0u);

  const LiveQualitySample S = Monitor.pump(8);
  EXPECT_EQ(S.Generation, Hash.epoch())
      << "sample must carry the post-swap generation";
}

} // namespace
