//===- tests/test_direct_index_map.cpp - MPHF-backed static map -----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// DirectIndexMap: sealed lookups over an MPHF, the fingerprint
// membership check, and the false-positive-rate property across
// formats (an out-of-set key may only slip through at ~2^-8).
//
//===----------------------------------------------------------------------===//

#include "container/direct_index_map.h"

#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace sepe;

namespace {

struct Fixture {
  std::vector<std::string> Keys;
  std::vector<std::string_view> Views;
  std::vector<uint32_t> Values;
  Mphf F;
};

Fixture makeFixture(PaperKey Key, size_t N, uint64_t Seed = 0xd1d1) {
  Fixture Fx;
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  Fx.Keys = Gen.distinct(N);
  Fx.Views.assign(Fx.Keys.begin(), Fx.Keys.end());
  Fx.Values.resize(N);
  for (size_t I = 0; I != N; ++I)
    Fx.Values[I] = static_cast<uint32_t>(I * 3 + 1);
  MphfBuildOptions Options;
  Options.Format = &paperKeyFormat(Key);
  Expected<Mphf> F = buildMphf(Fx.Keys, Options);
  EXPECT_TRUE(F) << F.error().Message;
  Fx.F = F.take();
  return Fx;
}

TEST(DirectIndexMapTest, EveryInSetKeyFindsItsOwnValue) {
  Fixture Fx = makeFixture(PaperKey::SSN, 5000);
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Views.data(), Fx.Values.data(),
                               Fx.Views.size());
  ASSERT_TRUE(Map.valid());
  EXPECT_EQ(Map.size(), Fx.Keys.size());
  for (size_t I = 0; I != Fx.Keys.size(); ++I) {
    const uint32_t *V = Map.find(Fx.Keys[I]);
    ASSERT_NE(V, nullptr) << Fx.Keys[I];
    EXPECT_EQ(*V, Fx.Values[I]) << "wrong value for " << Fx.Keys[I];
  }
}

TEST(DirectIndexMapTest, FindBatchAgreesWithFind) {
  Fixture Fx = makeFixture(PaperKey::MAC, 900);
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Views.data(), Fx.Values.data(),
                               Fx.Views.size());
  ASSERT_TRUE(Map.valid());
  std::vector<const uint32_t *> Out(Fx.Views.size());
  const size_t Hits =
      Map.findBatch(Fx.Views.data(), Out.data(), Fx.Views.size());
  EXPECT_EQ(Hits, Fx.Views.size());
  for (size_t I = 0; I != Fx.Views.size(); ++I)
    ASSERT_EQ(Out[I], Map.find(Fx.Views[I])) << I;
}

TEST(DirectIndexMapTest, MismatchedMphfIsRejectedAtConstruction) {
  Fixture A = makeFixture(PaperKey::SSN, 100, 0xaaa);
  Fixture B = makeFixture(PaperKey::SSN, 100, 0xbbb);
  // B's keys behind A's MPHF: the construction-time bijection re-walk
  // must fail instead of sealing a silently-wrong map.
  DirectIndexMap<uint32_t> Map(A.F, B.Views.data(), B.Values.data(),
                               B.Views.size());
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find(B.Keys.front()), nullptr);
  EXPECT_EQ(Map.size(), 0u);
}

TEST(DirectIndexMapTest, DefaultConstructedMapRejectsEverything) {
  DirectIndexMap<int> Map;
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find("anything"), nullptr);
}

/// Out-of-set keys must be rejected at a rate consistent with the
/// fingerprint width, across formats.
double measuredFalsePositiveRate(PaperKey Key, size_t N, size_t Probes) {
  Fixture Fx = makeFixture(Key, N);
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Views.data(), Fx.Values.data(),
                               Fx.Views.size());
  EXPECT_TRUE(Map.valid());
  std::unordered_set<std::string> InSet(Fx.Keys.begin(), Fx.Keys.end());
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, 0xface);
  size_t FalsePositives = 0, Checked = 0;
  while (Checked != Probes) {
    const std::string Probe = Gen.next();
    if (InSet.count(Probe) != 0)
      continue; // only out-of-set keys count
    ++Checked;
    if (Map.find(Probe) != nullptr)
      ++FalsePositives;
  }
  return static_cast<double>(FalsePositives) / static_cast<double>(Probes);
}

TEST(DirectIndexMapFpRateTest, EightBitFingerprintsAcrossFormats) {
  // Expected rate 2^-8 ~ 0.39%. 20000 probes put the 5-sigma band at
  // ~0.6% absolute; 2% is a deterministic-failure threshold, not a
  // statistical razor.
  for (PaperKey Key : {PaperKey::SSN, PaperKey::MAC, PaperKey::IPv4,
                       PaperKey::IPv6, PaperKey::URL1}) {
    const double Rate = measuredFalsePositiveRate(Key, 2000, 20000);
    EXPECT_LT(Rate, 0.02) << paperKeyName(Key);
  }
}

} // namespace
