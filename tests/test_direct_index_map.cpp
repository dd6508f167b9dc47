//===- tests/test_direct_index_map.cpp - MPHF-backed static map -----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// DirectIndexMap: sealed lookups over an MPHF, the guarded image
// membership check, and the false-positive property across formats
// (none at all where the extraction plan is invertible for the format).
//
//===----------------------------------------------------------------------===//

#include "container/direct_index_map.h"

#include "core/plan.h"
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
  KeyPattern Pattern;
  Mphf F;
};

Fixture makeFixture(PaperKey Key, size_t N, uint64_t Seed = 0xd1d1) {
  Fixture Fx;
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, Seed);
  Fx.Keys = Gen.distinct(N);
  Fx.Pattern = paperKeyFormat(Key).abstract();
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
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Pattern, Fx.Views.data(),
                               Fx.Values.data(), Fx.Views.size());
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
  DirectIndexMap<uint32_t> Map(Fx.F, Fx.Pattern, Fx.Views.data(),
                               Fx.Values.data(), Fx.Views.size());
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
  DirectIndexMap<uint32_t> Map(A.F, A.Pattern, B.Views.data(),
                               B.Values.data(), B.Views.size());
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find(B.Keys.front()), nullptr);
  EXPECT_EQ(Map.size(), 0u);
}

TEST(DirectIndexMapTest, DefaultConstructedMapRejectsEverything) {
  DirectIndexMap<int> Map;
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find("anything"), nullptr);
}

/// \p Key with one constant bit of its format flipped: the Pext masks
/// select free bits only, so the alias has the key's extraction image,
/// and only the guard can tell the two apart.
std::string constantBitAlias(const KeyPattern &Pattern, std::string Key) {
  for (size_t I = 0; I != Key.size(); ++I)
    if (const uint8_t Const = Pattern.byteAt(I).constMask()) {
      Key[I] = static_cast<char>(Key[I] ^ (Const & -Const));
      return Key;
    }
  ADD_FAILURE() << "no constant bit in " << Pattern.str();
  return Key;
}

struct ProbeHits {
  size_t OutOfSet = 0;
  size_t Aliases = 0;
};

/// Hits of \p Probes out-of-set in-format keys, and of one constant-bit
/// alias per sealed key, through find and findBatch alike.
ProbeHits falsePositives(const Fixture &Fx, const DirectIndexMap<uint32_t> &Map,
                         PaperKey Key, size_t Probes) {
  std::unordered_set<std::string> InSet(Fx.Keys.begin(), Fx.Keys.end());
  KeyGenerator Gen(paperKeyFormat(Key), KeyDistribution::Uniform, 0xface);
  std::vector<std::string> OutOfSet;
  while (OutOfSet.size() != Probes) {
    std::string Probe = Gen.next();
    if (InSet.count(Probe) == 0) // only out-of-set keys count
      OutOfSet.push_back(std::move(Probe));
  }
  std::vector<std::string> Aliases;
  for (const std::string &K : Fx.Keys)
    Aliases.push_back(constantBitAlias(Fx.Pattern, K));
  const auto Hits = [&Map](const std::vector<std::string> &Keys) {
    const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
    std::vector<const uint32_t *> Out(Views.size());
    const size_t BatchHits = Map.findBatch(Views.data(), Out.data(),
                                           Views.size());
    size_t Single = 0;
    for (size_t I = 0; I != Views.size(); ++I) {
      EXPECT_EQ(Out[I], Map.find(Views[I])) << Views[I];
      Single += Out[I] != nullptr;
    }
    EXPECT_EQ(BatchHits, Single);
    return BatchHits;
  };
  return {Hits(OutOfSet), Hits(Aliases)};
}

TEST(DirectIndexMapFpRateTest, NoFalsePositivesUnderInvertiblePlans) {
  for (PaperKey Key : {PaperKey::SSN, PaperKey::CPF, PaperKey::MAC,
                       PaperKey::IPv4, PaperKey::IPv6, PaperKey::URL1}) {
    SCOPED_TRACE(paperKeyName(Key));
    const Fixture Fx = makeFixture(Key, 2000);
    DirectIndexMap<uint32_t> Map(Fx.F, Fx.Pattern, Fx.Views.data(),
                                 Fx.Values.data(), Fx.Views.size());
    ASSERT_TRUE(Map.valid());
    const MphfPlan &Plan = Fx.F.plan();
    const bool Exact = !Plan.RawBase && invertible(*Plan.Extract, Fx.Pattern);
    if (Key == PaperKey::SSN || Key == PaperKey::CPF ||
        Key == PaperKey::IPv4) {
      EXPECT_TRUE(Exact) << "the format's Pext plan is invertible";
    }
    const size_t Probes = 20000;
    const ProbeHits Hits = falsePositives(Fx, Map, Key, Probes);
    // The guard rejects every alias, whatever the plan.
    EXPECT_EQ(Hits.Aliases, 0u);
    if (Exact) {
      EXPECT_EQ(Hits.OutOfSet, 0u);
    } else {
      EXPECT_LT(static_cast<double>(Hits.OutOfSet) / Probes, 0.02);
    }
  }
}

TEST(DirectIndexMapTest, KeyOutsideTheGuardIsRejectedAtConstruction) {
  Fixture Fx = makeFixture(PaperKey::SSN, 100);
  std::vector<std::string_view> Views = Fx.Views;
  const std::string Alias = constantBitAlias(Fx.Pattern, Fx.Keys[7]);
  Views[7] = Alias;
  Expected<Mphf> F = buildMphf(Views);
  ASSERT_TRUE(F) << F.error().Message;
  DirectIndexMap<uint32_t> Map(F.take(), Fx.Pattern, Views.data(),
                               Fx.Values.data(), Views.size());
  EXPECT_FALSE(Map.valid());
  EXPECT_EQ(Map.find(Fx.Keys.front()), nullptr);
}

} // namespace
