//===- tests/test_serving_table.cpp - Adaptive sharded serving layer ------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "runtime/serving_table.h"

#include "core/regex_parser.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>

using namespace sepe;

namespace {

constexpr const char *SsnRegex = R"(\d{3}-\d{2}-\d{4})";

KeyPattern patternOf(const std::string &Regex) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  return Spec->abstract();
}

std::vector<std::string> distinctKeys(const std::string &Regex, size_t N,
                                      uint64_t Seed) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  KeyGenerator Gen(*Spec, KeyDistribution::Uniform, Seed);
  return Gen.distinct(N);
}

/// Deterministic manual-pump options with the bijective family (the
/// fast lane's soundness condition).
AdaptiveOptions servingOptions() {
  AdaptiveOptions Options;
  Options.Family = HashFamily::Pext;
  Options.Background = false;
  Options.Cooldown = std::chrono::milliseconds(0);
  Options.DriftWindow = 256;
  return Options;
}

/// Copies of \p Keys driven out of \p Pattern through its drift probe.
std::vector<std::string> driftedCopies(const std::vector<std::string> &Keys,
                                       const KeyPattern &Pattern) {
  const DriftProbe Probe = findDriftProbe(Pattern);
  EXPECT_TRUE(Probe.Valid);
  std::vector<std::string> Out(Keys);
  for (std::string &Key : Out)
    Key[Probe.Pos] = Probe.Byte;
  return Out;
}

} // namespace

TEST(ServingTableTest, FastLaneEngagesForBijectivePlans) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_TRUE(Table.hasFastLane());

  EXPECT_TRUE(Table.put("123-45-6789", 1));
  EXPECT_FALSE(Table.put("123-45-6789", 2)) << "first insert wins";
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("123-45-6789", V));
  EXPECT_EQ(V, 1u);
  EXPECT_FALSE(Table.get("999-99-9999", V));

  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastSize, 1u) << "conforming key belongs in fast lane";
  EXPECT_EQ(Stats.SpillSize, 0u);

  EXPECT_TRUE(Table.erase("123-45-6789"));
  EXPECT_FALSE(Table.erase("123-45-6789"));
  EXPECT_EQ(Table.size(), 0u);
}

TEST(ServingTableTest, SpillLaneServesNonConformingKeys) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_TRUE(Table.put("definitely-not-an-ssn", 7));
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("definitely-not-an-ssn", V));
  EXPECT_EQ(V, 7u);

  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastSize, 0u);
  EXPECT_EQ(Stats.SpillSize, 1u);

  EXPECT_TRUE(Table.erase("definitely-not-an-ssn"));
  EXPECT_EQ(Table.stats().SpillSize, 0u);
}

TEST(ServingTableTest, ColdStartServesFromSpillOnly) {
  // Empty pattern: no generation to synthesize, so every key takes the
  // spill lane until drift sampling infers one.
  ServingTable<uint64_t> Table(KeyPattern{}, servingOptions());
  EXPECT_FALSE(Table.hasFastLane());
  EXPECT_TRUE(Table.put("123-45-6789", 3));
  uint64_t V = 0;
  ASSERT_TRUE(Table.get("123-45-6789", V));
  EXPECT_EQ(V, 3u);
  EXPECT_EQ(Table.stats().SpillSize, 1u);
}

TEST(ServingTableTest, BatchOpsMatchScalarAcrossBothLanes) {
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions());
  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 300, 1);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);

  // Interleave the lanes so every batch chunk mixes admitted and
  // rejected keys.
  std::vector<std::string_view> Views;
  std::vector<uint64_t> Values;
  for (size_t I = 0; I != InFormat.size(); ++I) {
    Views.push_back(InFormat[I]);
    Values.push_back(2 * I);
    Views.push_back(Drifted[I]);
    Values.push_back(2 * I + 1);
  }
  for (size_t I = 0; I != Views.size(); ++I)
    ASSERT_TRUE(Table.put(Views[I], Values[I]));
  for (size_t I = 0; I != Views.size(); ++I)
    ASSERT_FALSE(Table.put(Views[I], Values[I])) << "re-inserting " << I;
  EXPECT_EQ(Table.stats().FastSize, InFormat.size());
  EXPECT_EQ(Table.stats().SpillSize, Drifted.size());

  std::vector<uint64_t> Out(Views.size(), ~0ull);
  std::vector<uint8_t> Found(Views.size(), 0);
  EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                           Views.size()),
            Views.size());
  for (size_t I = 0; I != Views.size(); ++I) {
    ASSERT_TRUE(Found[I]) << Views[I];
    ASSERT_EQ(Out[I], Values[I]);
    uint64_t Scalar = 0;
    ASSERT_TRUE(Table.get(Views[I], Scalar));
    ASSERT_EQ(Scalar, Values[I]);
  }
}

TEST(ServingTableTest, DriftSwapMigrateSweepKeepsEveryKeyVisible) {
  // The full lifecycle, deterministically: load both lanes, drive
  // drifted traffic until the detector trips, pump the re-synthesis
  // (pattern join admits the drifted keys), then maintain() — fast
  // lane migrates to the new generation and the sweep pulls the spill
  // keys in. Every key must be visible with the right value at every
  // step.
  const KeyPattern Pattern = patternOf(SsnRegex);
  AdaptiveOptions Options = servingOptions();
  ServingTable<uint64_t> Table(Pattern, Options, /*ShardCountHint=*/8);
  ASSERT_TRUE(Table.hasFastLane());

  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 512, 2);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);
  for (size_t I = 0; I != InFormat.size(); ++I) {
    Table.put(InFormat[I], I);
    Table.put(Drifted[I], InFormat.size() + I);
  }
  EXPECT_EQ(Table.stats().SpillSize, Drifted.size());

  // Drifted lookups are guard misses: they feed the sampler and trip
  // the drift window.
  for (int Round = 0; Round != 8; ++Round)
    for (size_t I = 0; I != Drifted.size(); ++I) {
      uint64_t V = 0;
      ASSERT_TRUE(Table.get(Drifted[I], V)) << "pre-swap spill lookup";
      ASSERT_EQ(V, InFormat.size() + I);
    }
  ASSERT_TRUE(Table.adaptive().resynthesisPending());
  if (!Table.adaptive().pumpResynthesis())
    GTEST_SKIP() << "joined pattern did not synthesize; lifecycle not "
                    "exercisable for this format";
  const uint64_t NewEpoch = Table.adaptive().epoch();
  EXPECT_EQ(NewEpoch, 1u);

  // Between swap and maintain: fast lane still labeled with the old
  // epoch, every lookup still correct (the routed get sees route's
  // label is not the lane's epoch and judges the key itself).
  uint64_t V = 0;
  ASSERT_TRUE(Table.get(InFormat[0], V));
  EXPECT_EQ(V, 0u);

  ASSERT_TRUE(Table.maintain());
  const auto Stats = Table.stats();
  EXPECT_EQ(Stats.FastEpoch, NewEpoch) << "fast lane migrated";
  EXPECT_GE(Stats.Migrations, 1u);
  if (Table.adaptive().pattern().matches(Drifted[0])) {
    EXPECT_EQ(Stats.SpillSize, 0u)
        << "widened pattern admits the drifted keys: sweep moves them";
    EXPECT_EQ(Stats.FastSize, InFormat.size() + Drifted.size());
    EXPECT_GE(Stats.SweptKeys, Drifted.size());
  }

  for (size_t I = 0; I != InFormat.size(); ++I) {
    ASSERT_TRUE(Table.get(InFormat[I], V)) << InFormat[I];
    ASSERT_EQ(V, I);
    ASSERT_TRUE(Table.get(Drifted[I], V)) << Drifted[I];
    ASSERT_EQ(V, InFormat.size() + I);
  }

  // maintain() with nothing to do reports no work.
  EXPECT_FALSE(Table.maintain());
}

TEST(ServingTableTest, LaneOneEpochBehindServesEveryOperation) {
  // Between pumpResynthesis() and maintain() route() hashes with the new
  // generation while the fast lane is still keyed by the old one, so
  // every hint the table passes carries a stale label. Each operation
  // must behave as it does once maintain() has migrated the lane: the
  // lane judges each key against its own pattern and plan.
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions(),
                               /*ShardCountHint=*/8);
  ASSERT_TRUE(Table.hasFastLane());
  const std::vector<std::string> Pool = distinctKeys(SsnRegex, 516, 5);
  const std::vector<std::string> InFormat(Pool.begin(), Pool.begin() + 512);
  const std::vector<std::string> Drifted = driftedCopies(InFormat, Pattern);
  for (size_t I = 0; I != InFormat.size(); ++I) {
    ASSERT_TRUE(Table.put(InFormat[I], I));
    ASSERT_TRUE(Table.put(Drifted[I], InFormat.size() + I));
  }
  for (int Round = 0; Round != 8; ++Round)
    for (const std::string &Key : Drifted) {
      uint64_t V = 0;
      ASSERT_TRUE(Table.get(Key, V));
    }
  ASSERT_TRUE(Table.adaptive().resynthesisPending());
  if (!Table.adaptive().pumpResynthesis())
    GTEST_SKIP() << "joined pattern did not synthesize";
  ASSERT_NE(Table.stats().FastEpoch, Table.adaptive().epoch())
      << "the lane must be one epoch behind";

  // Both phases run the same operations on their own keys: Pool[512 + 2P]
  // is put new, InFormat[P] erased.
  const auto Exercise = [&](size_t Phase) {
    SCOPED_TRACE(Phase == 0 ? "lane behind" : "after maintain()");
    const auto Before = Table.stats();
    const std::string &Fresh = Pool[512 + 2 * Phase];
    EXPECT_TRUE(Table.put(Fresh, 7000 + Phase));
    EXPECT_FALSE(Table.put(Fresh, 1)) << "first insert wins";
    EXPECT_TRUE(Table.erase(InFormat[Phase]));
    EXPECT_FALSE(Table.erase(InFormat[Phase]));
    const auto After = Table.stats();
    EXPECT_EQ(After.SpillSize, Before.SpillSize)
        << "an in-format key goes to the fast lane";
    EXPECT_EQ(After.FastSize, Before.FastSize);

    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Fresh, V));
    EXPECT_EQ(V, 7000 + Phase);
    EXPECT_FALSE(Table.get(InFormat[Phase], V));

    std::vector<std::string_view> Views;
    std::vector<uint64_t> Want;
    for (size_t I = 0; I != InFormat.size(); ++I) {
      Views.push_back(InFormat[I]);
      Want.push_back(I);
      Views.push_back(Drifted[I]);
      Want.push_back(InFormat.size() + I);
    }
    std::vector<uint64_t> Out(Views.size(), ~0ull);
    std::vector<uint8_t> Found(Views.size(), 2);
    EXPECT_EQ(Table.getBatch(Views.data(), Out.data(), Found.data(),
                             Views.size()),
              Views.size() - (Phase + 1));
    for (size_t I = 0; I != Views.size(); ++I) {
      const bool Erased = I % 2 == 0 && I / 2 <= Phase;
      ASSERT_EQ(Found[I], Erased ? 0 : 1) << Views[I];
      V = ~0ull;
      ASSERT_EQ(Table.get(Views[I], V), !Erased) << Views[I];
      if (!Erased) {
        ASSERT_EQ(Out[I], Want[I]) << Views[I];
        ASSERT_EQ(V, Want[I]) << Views[I];
      }
    }
  };
  Exercise(0);
  ASSERT_TRUE(Table.maintain());
  ASSERT_EQ(Table.stats().FastEpoch, Table.adaptive().epoch());
  Exercise(1);
  uint64_t V = 0;
  ASSERT_TRUE(Table.get(Pool[512], V)) << "the lane-behind put survived";
  EXPECT_EQ(V, 7000u);
}

TEST(ServingTableTest, HotSwapUnderConcurrentTrafficLosesNoLookups) {
  // The acceptance criterion, in-process (and the TSan target): client
  // threads hammer both lanes while the main thread drives drift ->
  // swap -> migrate -> sweep. Resident keys must hit with the right
  // value on every probe, through every phase.
  const KeyPattern Pattern = patternOf(SsnRegex);
  ServingTable<uint64_t> Table(Pattern, servingOptions(),
                               /*ShardCountHint=*/8);
  ASSERT_TRUE(Table.hasFastLane());

  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 1024, 3);
  const size_t Resident = Keys.size() / 2;
  const std::vector<std::string> Drifted = driftedCopies(
      std::vector<std::string>(Keys.begin(), Keys.begin() + Resident),
      Pattern);
  for (size_t I = 0; I != Resident; ++I) {
    Table.put(Keys[I], I);
    Table.put(Drifted[I], Resident + I);
  }

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> FailedLookups{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&, T] {
      std::mt19937_64 Rng(200 + T);
      while (!Stop.load(std::memory_order_relaxed)) {
        const size_t I = Rng() % Resident;
        uint64_t V = ~0ull;
        if (!Table.get(Keys[I], V) || V != I)
          FailedLookups.fetch_add(1, std::memory_order_relaxed);
        if (!Table.get(Drifted[I], V) || V != Resident + I)
          FailedLookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Workers.emplace_back([&] {
    // Churn writer on the non-resident half of the in-format pool.
    std::mt19937_64 Rng(77);
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = Resident + Rng() % (Keys.size() - Resident);
      if (Rng() & 1)
        Table.put(Keys[I], I);
      else
        Table.erase(Keys[I]);
    }
  });

  // Main thread: drive the lifecycle several times while traffic runs.
  for (int Round = 0; Round != 3; ++Round) {
    if (Table.adaptive().resynthesisPending())
      Table.adaptive().pumpResynthesis();
    Table.maintain();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(FailedLookups.load(), 0u);
  if (Table.adaptive().resynthesisPending())
    Table.adaptive().pumpResynthesis();
  Table.maintain();
  for (size_t I = 0; I != Resident; ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
    ASSERT_TRUE(Table.get(Drifted[I], V));
    ASSERT_EQ(V, Resident + I);
  }
}

TEST(ServingTableStaticTest, SealStaticServesSealedKeysExactly) {
  // A whole table and a three-key one (a single MPHF bucket).
  for (size_t N : {size_t{500}, size_t{3}}) {
    SCOPED_TRACE("n=" + std::to_string(N));
    ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
    const std::vector<std::string> Keys = distinctKeys(SsnRegex, N, 11);
    std::vector<std::string_view> Views(Keys.begin(), Keys.end());
    for (size_t I = 0; I != Keys.size(); ++I)
      Table.put(Keys[I], I);

    EXPECT_FALSE(Table.staticLaneActive());
    EXPECT_EQ(Table.sealStatic(Views), Keys.size());
    ASSERT_TRUE(Table.staticLaneActive());
    const auto Stats = Table.stats();
    EXPECT_TRUE(Stats.StaticActive);
    EXPECT_EQ(Stats.StaticSize, Keys.size());

    for (size_t I = 0; I != Keys.size(); ++I) {
      uint64_t V = ~0ull;
      ASSERT_TRUE(Table.get(Keys[I], V)) << Keys[I];
      ASSERT_EQ(V, I);
    }
    // Out-of-set keys must miss: under an invertible plan the lane's
    // image compare is exact, so the static lane never serves a wrong
    // value.
    const std::vector<std::string> Absent = distinctKeys(SsnRegex, 500, 12);
    for (const std::string &Key : Absent) {
      uint64_t V = 0;
      bool InSealed = false;
      for (const std::string &K : Keys)
        InSealed |= K == Key;
      if (!InSealed) {
        EXPECT_FALSE(Table.get(Key, V)) << Key;
      }
    }

    // The batch path runs through the MPHF's fused base kernels; it
    // must agree with scalar gets.
    std::vector<uint64_t> Out(Views.size(), ~0ull);
    std::vector<uint8_t> Found(Views.size(), 0);
    EXPECT_EQ(
        Table.getBatch(Views.data(), Out.data(), Found.data(), Views.size()),
        Views.size());
    for (size_t I = 0; I != Views.size(); ++I) {
      ASSERT_TRUE(Found[I]) << Views[I];
      ASSERT_EQ(Out[I], I);
    }
  }
}

TEST(ServingTableStaticTest, SealSnapshotsPresentSubsetAcrossBothLanes) {
  // The seal list may name absent keys (skipped) and spill-lane keys
  // (left in the spill lane: the pattern rejects them, so no image can
  // identify them).
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> InFormat = distinctKeys(SsnRegex, 100, 21);
  for (size_t I = 0; I != InFormat.size(); ++I)
    Table.put(InFormat[I], I);
  Table.put("not-an-ssn-at-all", 777);

  std::vector<std::string_view> SealList(InFormat.begin(), InFormat.end());
  SealList.push_back("not-an-ssn-at-all");
  SealList.push_back("999-99-9999"); // Never inserted.
  EXPECT_EQ(Table.sealStatic(SealList), InFormat.size());
  EXPECT_EQ(Table.stats().StaticSize, InFormat.size());

  uint64_t V = 0;
  ASSERT_TRUE(Table.get("not-an-ssn-at-all", V));
  EXPECT_EQ(V, 777u);
  EXPECT_FALSE(Table.get("999-99-9999", V));

  // New puts miss the sealed lane but are served by the dynamic lanes;
  // the lane stays valid because put never overwrites a present key.
  EXPECT_TRUE(Table.put("999-99-9999", 42));
  EXPECT_TRUE(Table.staticLaneActive());
  ASSERT_TRUE(Table.get("999-99-9999", V));
  EXPECT_EQ(V, 42u);
  EXPECT_FALSE(Table.put(InFormat[0], 1000)) << "first insert still wins";
  ASSERT_TRUE(Table.get(InFormat[0], V));
  EXPECT_EQ(V, 0u);
}

TEST(ServingTableStaticTest, ConstantByteAliasMissesTheSealedLane) {
  // The SSN plan extracts only the digits, so a sealed key with its
  // first '-' turned into '+' has the sealed key's image. Only the
  // lane's pattern check tells them apart.
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 61);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());
  std::string Alias = Keys[5];
  ASSERT_EQ(Alias[3], '-');
  Alias[3] = '+';
  std::string_view AliasView = Alias;

  uint64_t V = 0;
  uint8_t Found = 9;
  EXPECT_FALSE(Table.get(Alias, V));
  EXPECT_EQ(Table.getBatch(&AliasView, &V, &Found, 1), 0u);
  EXPECT_EQ(Found, 0);

  EXPECT_TRUE(Table.put(Alias, 4242));
  ASSERT_TRUE(Table.get(Alias, V));
  EXPECT_EQ(V, 4242u) << "served the sealed key's value";
  EXPECT_EQ(Table.getBatch(&AliasView, &V, &Found, 1), 1u);
  EXPECT_EQ(V, 4242u) << "served the sealed key's value";

  EXPECT_TRUE(Table.erase(Alias));
  EXPECT_TRUE(Table.staticLaneActive()) << "the alias is not sealed";
  EXPECT_FALSE(Table.get(Alias, V));
  ASSERT_TRUE(Table.get(Keys[5], V));
  EXPECT_EQ(V, 5u);
}

TEST(ServingTableStaticTest, SealDeclinesWithoutAnInvertiblePlan) {
  // Neither generation's plan is invertible, so an image cannot
  // identify a key: the seal declines and the dynamic lanes serve.
  const auto ExpectDecline = [](const std::string &Regex,
                                const AdaptiveOptions &Options,
                                const std::vector<std::string> &Keys) {
    SCOPED_TRACE(Regex);
    ServingTable<uint64_t> Table(patternOf(Regex), Options);
    std::vector<std::string_view> Views(Keys.begin(), Keys.end());
    for (size_t I = 0; I != Keys.size(); ++I)
      Table.put(Keys[I], I);
    EXPECT_EQ(Table.sealStatic(Views), 0u);
    EXPECT_FALSE(Table.staticLaneActive());
    EXPECT_EQ(Table.stats().StaticSize, 0u);
    for (size_t I = 0; I != Keys.size(); ++I) {
      uint64_t V = ~0ull;
      ASSERT_TRUE(Table.get(Keys[I], V)) << Keys[I];
      ASSERT_EQ(V, I);
    }
  };
  // Not a bijective family.
  AdaptiveOptions OffXor = servingOptions();
  OffXor.Family = HashFamily::OffXor;
  ExpectDecline(SsnRegex, OffXor, distinctKeys(SsnRegex, 200, 71));
  // A variable-length pattern: 4 to 10 bytes.
  std::vector<std::string> VarKeys;
  for (size_t I = 0; I != 200; ++I)
    VarKeys.push_back(std::string{static_cast<char>('a' + I % 26),
                                  static_cast<char>('a' + I / 26), 'z',
                                  'z'} +
                      std::string(I % 7, 'x'));
  ExpectDecline(R"([a-z]{4}(.){0,6})", servingOptions(), VarKeys);
}

TEST(ServingTableStaticTest, ShortKeyAtAPageEndNeverReachesThePlan) {
  // The SSN plan's kernels load 8-byte words at offsets up to 3 without
  // looking at the key's length. A 2-byte key that ends where an
  // unreadable page begins faults if any lookup images it before the
  // lane's pattern check.
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 81);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());

  const size_t Page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  void *Map = mmap(nullptr, 2 * Page, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(Map, MAP_FAILED);
  char *PageEnd = static_cast<char *>(Map) + Page;
  ASSERT_EQ(mprotect(PageEnd, Page, PROT_NONE), 0);
  PageEnd[-2] = '1';
  PageEnd[-1] = '2';
  std::string_view Short(PageEnd - 2, 2);

  uint64_t V = 0;
  uint8_t Found = 9;
  EXPECT_FALSE(Table.get(Short, V));
  EXPECT_EQ(Table.getBatch(&Short, &V, &Found, 1), 0u);
  EXPECT_EQ(Found, 0);
  EXPECT_TRUE(Table.put(Short, 77)); // Into the spill lane.
  ASSERT_TRUE(Table.get(Short, V));
  EXPECT_EQ(V, 77u);
  EXPECT_TRUE(Table.erase(Short));
  EXPECT_TRUE(Table.staticLaneActive());
  munmap(Map, 2 * Page);
}

TEST(ServingTableStaticTest, EraseOfSealedKeyInvalidatesTheLane) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 31);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());

  // Erasing a non-sealed key leaves the lane up.
  Table.put("111-11-1111", 99);
  if (Keys.end() == std::find(Keys.begin(), Keys.end(), "111-11-1111")) {
    EXPECT_TRUE(Table.erase("111-11-1111"));
    EXPECT_TRUE(Table.staticLaneActive());
  }

  // Erasing a sealed key must tear the lane down before erase returns:
  // a stale values[mphf(key)] copy may never be served.
  EXPECT_TRUE(Table.erase(Keys[0]));
  EXPECT_FALSE(Table.staticLaneActive());
  uint64_t V = 0;
  EXPECT_FALSE(Table.get(Keys[0], V));
  for (size_t I = 1; I != Keys.size(); ++I) {
    ASSERT_TRUE(Table.get(Keys[I], V)) << "dynamic lanes keep serving";
    ASSERT_EQ(V, I);
  }

  // Re-seal after the erase: one fewer key, and serving resumes.
  EXPECT_EQ(Table.sealStatic(Views), Keys.size() - 1);
  EXPECT_TRUE(Table.staticLaneActive());
}

TEST(ServingTableStaticTest, StaticHitsCountInTheDriftWindows) {
  // A static-lane hit never reaches route(), but the drift windows must
  // still count it: a detector that sees only the keys the lane misses
  // reads a ratio near 1 on any steady trickle of out-of-format keys.
  // One stream, driven against a sealed and an unsealed table, must
  // read the same window ratio and trip (or not) alike.
  const KeyPattern Pattern = patternOf(SsnRegex);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 1024, 91);
  const std::vector<std::string> Drifted = driftedCopies(Keys, Pattern);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  constexpr size_t StreamKeys = 64000;
  constexpr size_t BatchKeys = 64;
  // One key in every Every is out of format: 0.5%, then 5%.
  for (const size_t Every : {size_t{200}, size_t{20}}) {
    SCOPED_TRACE("one key in " + std::to_string(Every) + " drifted");
    const auto StreamKey = [&](size_t I) -> std::string_view {
      return I % Every == Every - 1 ? Drifted[I % Drifted.size()]
                                    : Keys[I % Keys.size()];
    };
    const bool Trips = Every == 20;
    for (const bool Batched : {false, true}) {
      SCOPED_TRACE(Batched ? "getBatch" : "get");
      ServingTable<uint64_t> Sealed(Pattern, servingOptions());
      ServingTable<uint64_t> Unsealed(Pattern, servingOptions());
      for (size_t I = 0; I != Keys.size(); ++I) {
        Sealed.put(Keys[I], I);
        Unsealed.put(Keys[I], I);
      }
      ASSERT_EQ(Sealed.sealStatic(Views), Keys.size());
      ASSERT_TRUE(Sealed.staticLaneActive());
      // The seal reads every key once through the dynamic lanes; read
      // them from the unsealed table too, so both detectors start the
      // stream from the same state.
      uint64_t V = 0;
      for (const std::string &Key : Keys)
        ASSERT_TRUE(Unsealed.get(Key, V));

      if (!Batched) {
        for (size_t I = 0; I != StreamKeys; ++I) {
          const std::string_view Key = StreamKey(I);
          const bool Hit = Sealed.get(Key, V);
          ASSERT_EQ(Unsealed.get(Key, V), Hit);
        }
        // The same sequence of admitted and rejected keys reached both
        // detectors, so their windows closed alike.
        EXPECT_EQ(Sealed.adaptive().windowMismatchRatio(),
                  Unsealed.adaptive().windowMismatchRatio());
      } else {
        std::string_view Block[BatchKeys];
        uint64_t Out[BatchKeys];
        uint8_t Found[BatchKeys];
        for (size_t I = 0; I != StreamKeys; I += BatchKeys) {
          for (size_t K = 0; K != BatchKeys; ++K)
            Block[K] = StreamKey(I + K);
          const size_t Hits = Sealed.getBatch(Block, Out, Found, BatchKeys);
          ASSERT_EQ(Unsealed.getBatch(Block, Out, Found, BatchKeys), Hits);
        }
      }
      EXPECT_EQ(Sealed.adaptive().resynthesisPending(), Trips);
      EXPECT_EQ(Unsealed.adaptive().resynthesisPending(), Trips);
      EXPECT_TRUE(Sealed.staticLaneActive());
    }
  }
}

TEST(ServingTableStaticTest, DropStaticAndEmptySealAreBenign) {
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  EXPECT_EQ(Table.sealStatic(nullptr, 0), 0u) << "empty seal list";
  EXPECT_FALSE(Table.staticLaneActive());

  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 32, 41);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  EXPECT_EQ(Table.sealStatic(Views), 0u) << "nothing present yet";

  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);
  ASSERT_EQ(Table.sealStatic(Views), Keys.size());
  Table.dropStatic();
  EXPECT_FALSE(Table.staticLaneActive());
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Table.get(Keys[I], V));
    ASSERT_EQ(V, I);
  }
}

TEST(ServingTableStaticTest, ConcurrentReadersSurviveSealAndDropCycles) {
  // TSan target: readers hammer sealed keys while the main thread
  // seals, drops, and re-seals. Every lookup must hit with the right
  // value regardless of which lane serves it — the retired-storage
  // discipline means a reader mid-probe on a dropped lane is safe.
  ServingTable<uint64_t> Table(patternOf(SsnRegex), servingOptions());
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 256, 51);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    Table.put(Keys[I], I);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Failed{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&, T] {
      std::mt19937_64 Rng(300 + T);
      uint64_t Batch[16];
      uint8_t Found[16];
      std::string_view Probe[16];
      while (!Stop.load(std::memory_order_relaxed)) {
        const size_t I = Rng() % Keys.size();
        uint64_t V = ~0ull;
        if (!Table.get(Keys[I], V) || V != I)
          Failed.fetch_add(1, std::memory_order_relaxed);
        for (size_t J = 0; J != 16; ++J)
          Probe[J] = Keys[(I + J) % Keys.size()];
        if (Table.getBatch(Probe, Batch, Found, 16) != 16)
          Failed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (int Round = 0; Round != 20; ++Round) {
    ASSERT_EQ(Table.sealStatic(Views), Keys.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    Table.dropStatic();
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_EQ(Failed.load(), 0u);
}
