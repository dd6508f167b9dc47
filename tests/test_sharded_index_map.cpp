//===- tests/test_sharded_index_map.cpp - Concurrent sharded map ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "container/sharded_index_map.h"

#include "core/inference.h"
#include "core/regex_parser.h"
#include "core/synthesizer.h"
#include "keygen/distributions.h"
#include "keygen/paper_formats.h"
#include "support/json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <malloc.h>
#include <optional>
#include <random>
#include <thread>
#include <unordered_map>

using namespace sepe;

namespace {

SynthesizedHash bijectivePext(const std::string &Regex,
                              IsaLevel Isa = IsaLevel::Native) {
  Expected<FormatSpec> Spec = parseRegex(Regex);
  EXPECT_TRUE(Spec);
  Expected<HashPlan> Plan = synthesize(Spec->abstract(), HashFamily::Pext);
  EXPECT_TRUE(Plan);
  EXPECT_TRUE(Plan->Bijective) << Regex;
  return SynthesizedHash(Plan.take(), Isa);
}

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

constexpr const char *SsnRegex = R"(\d{3}-\d{2}-\d{4})";

} // namespace

// --- Shard partition kernel -------------------------------------------------

TEST(ShardPartitionTest, RoutingScrambleIsDecorrelatedFromGroupScramble) {
  // The shard index must not be a function of the in-shard home group:
  // with the same multiplier, every key landing in shard S would be
  // confined to a 1/NumShards slice of that shard's groups. Check that
  // for images that share a shard, the group-scramble high bits spread.
  std::mt19937_64 Rng(7);
  std::vector<uint64_t> SameShard;
  while (SameShard.size() < 64) {
    const uint64_t Image = Rng();
    if (probe::shardOf(Image, 4) == 3)
      SameShard.push_back(Image);
  }
  std::unordered_map<uint64_t, size_t> TopNibbles;
  for (const uint64_t Image : SameShard)
    ++TopNibbles[probe::scramble(Image) >> 60];
  // 64 keys over 16 nibble values: a same-multiplier collapse would put
  // them all in one bucket; decorrelated routing spreads them widely.
  EXPECT_GE(TopNibbles.size(), 8u);
}

TEST(ShardPartitionTest, PartitionEquivalentToPerKeyShardOfAllFormats) {
  // The batch partition is definitionally a stable counting sort by
  // probe::shardOf. Pin that equivalence for every paper format at
  // every ISA level (the images come from the real batch kernels, so a
  // partition/kernel disagreement would surface here), at several shard
  // widths including the degenerate single-shard map.
  for (const PaperKey Key : AllPaperKeys) {
    const FormatSpec Format = paperKeyFormat(Key);
    Expected<HashPlan> Plan =
        synthesize(Format.abstract(), HashFamily::Pext);
    ASSERT_TRUE(Plan) << paperKeyName(Key);
    const HashPlan Taken = Plan.take();
    KeyGenerator Gen(Format, KeyDistribution::Uniform,
                     0x51ab + static_cast<uint64_t>(Key));
    const std::vector<std::string> Keys = Gen.distinct(shard::ChunkSize);
    const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
    for (const IsaLevel Isa :
         {IsaLevel::Native, IsaLevel::NoBitExtract, IsaLevel::Portable}) {
      const SynthesizedHash Hash(Taken, Isa);
      uint64_t Images[shard::ChunkSize];
      Hash.hashBatch(Views.data(), Images, Views.size());
      for (const unsigned Bits : {0u, 2u, 4u, 8u}) {
        uint16_t Order[shard::ChunkSize];
        uint32_t Offsets[256 + 1];
        shard::partitionChunk(Images, Views.size(), Bits, Order, Offsets);
        const size_t NumShards = size_t{1} << Bits;
        ASSERT_EQ(Offsets[0], 0u);
        ASSERT_EQ(Offsets[NumShards], Views.size());
        std::vector<bool> Seen(Views.size(), false);
        for (size_t S = 0; S != NumShards; ++S) {
          for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
            const uint16_t K = Order[I];
            ASSERT_LT(K, Views.size());
            ASSERT_FALSE(Seen[K]) << "index emitted twice";
            Seen[K] = true;
            ASSERT_EQ(probe::shardOf(Images[K], Bits), S)
                << paperKeyName(Key) << " isa " << static_cast<int>(Isa);
            if (I != Offsets[S]) {
              ASSERT_LT(Order[I - 1], K) << "partition must be stable";
            }
          }
        }
      }
    }
  }
}

// --- Single-threaded semantics ----------------------------------------------

TEST(ShardedIndexMapTest, PutGetEraseBasics) {
  ShardedIndexMap<int> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                           /*EpochLabel=*/7, /*ShardCountHint=*/8);
  EXPECT_EQ(Map.shardCount(), 8u);
  EXPECT_EQ(Map.epoch(), 7u);

  EXPECT_TRUE(Map.put("123-45-6789", 1));
  EXPECT_FALSE(Map.put("123-45-6789", 2)) << "first insert wins";
  EXPECT_TRUE(Map.put("000-00-0001", 3));
  EXPECT_EQ(Map.size(), 2u);

  int V = 0;
  ASSERT_TRUE(Map.get("123-45-6789", V));
  EXPECT_EQ(V, 1);
  EXPECT_FALSE(Map.get("999-99-9999", V));
  EXPECT_TRUE(Map.contains("000-00-0001"));

  EXPECT_TRUE(Map.erase("123-45-6789"));
  EXPECT_FALSE(Map.erase("123-45-6789"));
  EXPECT_FALSE(Map.contains("123-45-6789"));
  EXPECT_EQ(Map.size(), 1u);
}

TEST(ShardedIndexMapTest, ShardCountHintRoundsAndClamps) {
  const KeyPattern P = patternOf(SsnRegex);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 1)
                .shardCount(),
            1u);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 5)
                .shardCount(),
            8u);
  EXPECT_EQ(ShardedIndexMap<int>(bijectivePext(SsnRegex), P, 0, 1000)
                .shardCount(),
            256u);
}

TEST(ShardedIndexMapTest, BatchOpsMatchScalarOps) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex));
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 777, 0xb);
  const std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  std::vector<uint64_t> Values(Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    Values[I] = I * 3 + 1;

  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_TRUE(Map.put(Views[I], Values[I]));
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_FALSE(Map.put(Views[I], Values[I])) << "re-inserting " << I;
  EXPECT_EQ(Map.size(), Keys.size());

  std::vector<uint64_t> Out(Keys.size(), ~0ull);
  std::vector<uint8_t> Found(Keys.size(), 0);
  EXPECT_EQ(Map.getBatch(Views.data(), Out.data(), Found.data(),
                         Views.size()),
            Views.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    ASSERT_TRUE(Found[I]);
    ASSERT_EQ(Out[I], Values[I]);
    uint64_t Scalar = 0;
    ASSERT_TRUE(Map.get(Views[I], Scalar));
    ASSERT_EQ(Scalar, Values[I]);
  }

  // Half-erase, then a mixed batch probe sees exactly the survivors.
  for (size_t I = 0; I < Keys.size(); I += 2)
    ASSERT_TRUE(Map.erase(Views[I]));
  EXPECT_EQ(Map.getBatch(Views.data(), Out.data(), Found.data(),
                         Views.size()),
            Keys.size() / 2);
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_EQ(Found[I] != 0, I % 2 == 1) << I;
}

TEST(ShardedIndexMapTest, EntriesSpreadAcrossShards) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex), 0, 16);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 4096, 0xc);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  size_t Occupied = 0;
  for (size_t S = 0; S != Map.shardCount(); ++S) {
    const auto Stats = Map.shardStats(S);
    if (Stats.Size != 0)
      ++Occupied;
    // No shard should swallow a grossly outsized share (mean is 256).
    EXPECT_LT(Stats.Size, Keys.size() / 4) << "shard " << S;
  }
  EXPECT_EQ(Occupied, Map.shardCount());
}

// --- Routed entry points ---------------------------------------------------

TEST(ShardedIndexMapTest, RoutedEntriesUseACurrentHint) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<int> Map(Hash, patternOf(SsnRegex), /*EpochLabel=*/3);
  using Hint = ShardedIndexMap<int>::Hint;
  const std::string Key = "123-45-6789", Other = "999-99-9999";

  bool Inserted = false;
  ASSERT_TRUE(Map.putRouted(Key, Hint{Hash(Key), 3}, 11, Inserted));
  EXPECT_TRUE(Inserted);
  int V = 0;
  EXPECT_TRUE(Map.getRouted(Key, Hint{Hash(Key), 3}, V));
  EXPECT_EQ(V, 11);
  EXPECT_FALSE(Map.getRouted(Other, Hint{Hash(Other), 3}, V));

  // A hint under the active label is taken as the key's image, unchecked:
  // Other's probe with Key's image finds Key's value.
  V = 0;
  EXPECT_TRUE(Map.getRouted(Other, Hint{Hash(Key), 3}, V));
  EXPECT_EQ(V, 11);
  EXPECT_TRUE(Map.eraseRouted(Key, Hint{Hash(Key), 3}));
  EXPECT_FALSE(Map.contains(Key));
}

TEST(ShardedIndexMapTest, RoutedEntriesIgnoreAHintUnderAnotherLabel) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<int> Map(Hash, patternOf(SsnRegex), /*EpochLabel=*/3);
  using Hint = ShardedIndexMap<int>::Hint;
  const std::string Key = "123-45-6789";
  ASSERT_TRUE(Map.put(Key, 11));

  // Label 4 is not the active table's, so its image — here a wrong one —
  // is ignored and the map hashes the key itself.
  const Hint Stale{Hash("999-99-9999"), 4};
  int V = 0;
  EXPECT_TRUE(Map.getRouted(Key, Stale, V));
  EXPECT_EQ(V, 11);
  bool Inserted = true;
  EXPECT_TRUE(Map.putRouted(Key, Stale, 12, Inserted));
  EXPECT_FALSE(Inserted) << "the key is present";
  EXPECT_EQ(Map.size(), 1u);
  EXPECT_TRUE(Map.eraseRouted(Key, Stale));
  EXPECT_FALSE(Map.contains(Key));

  // Without a hint the map hashes the key itself too.
  ASSERT_TRUE(Map.putRouted(Key, std::nullopt, 13, Inserted));
  EXPECT_TRUE(Inserted);
  EXPECT_TRUE(Map.getRouted(Key, std::nullopt, V));
  EXPECT_EQ(V, 13);
}

TEST(ShardedIndexMapTest, RoutedBatchUnderAStaleLabelJudgesEveryKey) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/9);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 200, 0xd);
  std::vector<std::string_view> Views(Keys.begin(), Keys.end());
  for (size_t I = 0; I != Keys.size(); ++I)
    ASSERT_TRUE(Map.put(Keys[I], I));
  // Then keys that must miss: in-format ones never inserted.
  const std::vector<std::string> Absent = distinctKeys(SsnRegex, 40, 0xd1);
  for (const std::string &K : Absent)
    if (!Map.contains(K))
      Views.push_back(K);
  std::vector<uint64_t> Out(Views.size() + 1);
  std::vector<uint8_t> Found(Views.size() + 1);
  const auto Expect = [&](size_t Hits, size_t N) {
    EXPECT_EQ(Hits, Keys.size());
    for (size_t I = 0; I != N; ++I) {
      ASSERT_EQ(Found[I], I < Keys.size() ? 1 : 0) << Views[I];
      if (I < Keys.size()) {
        ASSERT_EQ(Out[I], I);
      }
    }
  };

  std::vector<uint64_t> Images(Views.size());
  Hash.hashBatch(Views.data(), Images.data(), Views.size());
  Expect(Map.getBatchRouted(Views.data(), Images.data(), 9, Out.data(),
                            Found.data(), Views.size()),
         Views.size());

  // Under a stale label the images — all zero here — are ignored, and a
  // key the pattern rejects misses.
  Views.push_back("not-an-ssn!");
  const std::vector<uint64_t> Zero(Views.size(), 0);
  std::fill(Out.begin(), Out.end(), ~0ull);
  std::fill(Found.begin(), Found.end(), 2);
  Expect(Map.getBatchRouted(Views.data(), Zero.data(), 8, Out.data(),
                            Found.data(), Views.size()),
         Views.size());
}

TEST(ShardedIndexMapTest, RoutedEntriesRejectNonConformingKeys) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<int> Map(Hash, patternOf(SsnRegex), /*EpochLabel=*/5);
  ASSERT_TRUE(Map.put("123-45-6789", 5));
  // '+' where the format has its constant '-': the plan extracts only
  // free bits, so this key has the resident key's image. Only the
  // pattern check keeps it from aliasing that key.
  const std::string Alias = "123+45+6789";
  ASSERT_EQ(Hash(Alias), Hash("123-45-6789"));

  for (const std::optional<ShardedIndexMap<int>::Hint> H :
       {std::optional<ShardedIndexMap<int>::Hint>(),
        std::optional<ShardedIndexMap<int>::Hint>({Hash(Alias), 4})}) {
    int V = 0;
    EXPECT_FALSE(Map.getRouted(Alias, H, V));
    EXPECT_EQ(V, 0) << "a miss leaves Out untouched";
    bool Inserted = false;
    EXPECT_FALSE(Map.putRouted(Alias, H, 6, Inserted)) << "not admitted";
    EXPECT_FALSE(Map.eraseRouted(Alias, H));
    EXPECT_EQ(Map.size(), 1u) << "nothing written";
    ASSERT_TRUE(Map.get("123-45-6789", V));
    EXPECT_EQ(V, 5);
  }
}

// --- Migration --------------------------------------------------------------

TEST(ShardedIndexMapTest, MigratePreservesEveryLiveMapping) {
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 3000, 0xe);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  // Erase a third so the copy must leave dead keys behind.
  for (size_t I = 0; I < Keys.size(); I += 3)
    Map.erase(Keys[I]);
  const size_t LiveBefore = Map.size();

  // Re-synthesize the same format (a fresh equivalent plan) under a new
  // label: keys scatter to new shards through the new plan's images.
  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex),
              /*NewLabel=*/1);
  EXPECT_EQ(Map.epoch(), 1u);
  EXPECT_EQ(Map.migrations(), 1u);
  EXPECT_EQ(Map.size(), LiveBefore);
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    if (I % 3 == 0) {
      EXPECT_FALSE(Map.get(Keys[I], V)) << "erased key resurrected";
    } else {
      ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
      ASSERT_EQ(V, I);
    }
  }

  // And a second migration on top of the first works the same.
  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), 2);
  EXPECT_EQ(Map.size(), LiveBefore);
  uint64_t V = 0;
  ASSERT_TRUE(Map.get(Keys[1], V));
  EXPECT_EQ(V, 1u);
}

TEST(ShardedIndexMapTest, MigrateToAWiderPatternRebuildsKeysFromOldImages) {
  // The copy inverts each image with the *old* table's plan and pattern.
  // Here the two plans differ: widening the first position from a digit
  // to [0-9A-Z] frees four more bits at the bottom of the first chunk,
  // so every bit above them moves and an inversion through the new plan
  // would rebuild the wrong keys.
  const char *WideRegex = R"([0-9A-Z]\d{2}-\d{2}-\d{4})";
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 1500, 0x5a);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);

  const SynthesizedHash WideHash = bijectivePext(WideRegex);
  ASSERT_NE(WideHash(Keys[0]), bijectivePext(SsnRegex)(Keys[0]));
  Map.migrate(WideHash, patternOf(WideRegex), /*NewLabel=*/1);
  EXPECT_EQ(Map.size(), Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
    ASSERT_EQ(V, I);
  }
  // Keys only the wider format admits land beside the migrated ones.
  const std::vector<std::string> Wide = distinctKeys(WideRegex, 200, 0x5b);
  for (const std::string &Key : Wide)
    Map.put(Key, 7);
  for (const std::string &Key : Wide)
    EXPECT_TRUE(Map.contains(Key)) << Key;
}

TEST(ShardedIndexMapTest, ChurnThenMigrateMemoryFollowsLiveSet) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "mallinfo2 does not see the sanitizer allocators";
#else
  // Erase+put churn over a fixed live set must leave the heap where it
  // was: the map holds images and values only, so nothing it keeps
  // grows with the number of inserts ever made. mallinfo2's hblkhd
  // counts mmap'd blocks, where a large per-insert vector would live.
  const auto HeapBytes = [] {
    const struct mallinfo2 Info = mallinfo2();
    return static_cast<int64_t>(Info.uordblks + Info.hblkhd);
  };
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 1024, 0x6c);
  std::vector<uint64_t> Latest(Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);

  const int64_t Before = HeapBytes();
  for (uint64_t Cycle = 0; Cycle != 200000; ++Cycle) {
    const size_t I = Cycle % Keys.size();
    ASSERT_TRUE(Map.erase(Keys[I]));
    ASSERT_TRUE(Map.put(Keys[I], Cycle));
    Latest[I] = Cycle;
  }
  EXPECT_LT(HeapBytes() - Before, 64 * 1024);

  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), /*NewLabel=*/1);
  ASSERT_EQ(Map.size(), Keys.size());
  for (size_t I = 0; I != Keys.size(); ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
    ASSERT_EQ(V, Latest[I]);
  }
#endif
}

TEST(ShardedIndexMapTest, MigrateUnderConcurrentTraffic) {
  // The acceptance property, in-process: resident keys must never miss
  // while migrations run under full read/write load. Also the TSan
  // target for the seal + dual-write protocol.
  const SynthesizedHash Hash = bijectivePext(SsnRegex);
  ShardedIndexMap<uint64_t> Map(Hash, patternOf(SsnRegex),
                                /*EpochLabel=*/0, 8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 2048, 0xf);
  const size_t Resident = Keys.size() / 2;
  for (size_t I = 0; I != Resident; ++I)
    Map.put(Keys[I], I);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> FailedLookups{0};

  std::vector<std::thread> Workers;
  for (int T = 0; T != 2; ++T)
    Workers.emplace_back([&, T] {
      std::mt19937_64 Rng(100 + T);
      uint64_t Out[shard::ChunkSize];
      uint8_t Found[shard::ChunkSize];
      std::string_view Batch[shard::ChunkSize];
      while (!Stop.load(std::memory_order_relaxed)) {
        // Scalar resident lookups...
        for (int R = 0; R != 32; ++R) {
          const size_t I = Rng() % Resident;
          uint64_t V = ~0ull;
          if (!Map.get(Keys[I], V) || V != I)
            FailedLookups.fetch_add(1, std::memory_order_relaxed);
        }
        // ...and a resident batch, which must fully hit too.
        const size_t Base = Rng() % (Resident - shard::ChunkSize);
        for (size_t I = 0; I != shard::ChunkSize; ++I)
          Batch[I] = Keys[Base + I];
        Map.getBatch(Batch, Out, Found, shard::ChunkSize);
        for (size_t I = 0; I != shard::ChunkSize; ++I)
          if (!Found[I] || Out[I] != Base + I)
            FailedLookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  Workers.emplace_back([&] {
    // Churn writer on the non-resident half.
    std::mt19937_64 Rng(55);
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = Resident + Rng() % (Keys.size() - Resident);
      if (Rng() & 1)
        Map.put(Keys[I], I);
      else
        Map.erase(Keys[I]);
    }
  });

  for (uint64_t Label = 1; Label <= 4; ++Label)
    Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), Label);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();

  EXPECT_EQ(FailedLookups.load(), 0u);
  EXPECT_EQ(Map.epoch(), 4u);
  EXPECT_EQ(Map.migrations(), 4u);
  for (size_t I = 0; I != Resident; ++I) {
    uint64_t V = ~0ull;
    ASSERT_TRUE(Map.get(Keys[I], V)) << Keys[I];
    ASSERT_EQ(V, I);
  }
}

TEST(ShardedIndexMapTest, LockFreeReadersSurviveGrowthAndSweeps) {
  // Readers take no lock: they probe with relaxed loads and keep the
  // result only if the shard's write sequence did not move. One-slot
  // shards make the writer grow every shard many times under them, and
  // put/erase churn near the load bound forces same-capacity tombstone
  // sweeps into the spare block, so readers race both kinds of block
  // switch. Resident keys must always be found with their value and
  // never-inserted keys must always miss, through every read path.
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/2,
                                /*InitialCapacityPerShard=*/1);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 4300, 0x10c4);
  constexpr size_t Resident = 64, Growth = 3000, Churn = 700;
  const std::vector<std::string> Absent(Keys.begin() + Resident + Growth +
                                            Churn,
                                        Keys.end());
  for (size_t I = 0; I != Resident; ++I)
    Map.put(Keys[I], I);

  std::atomic<bool> Done{false};
  std::atomic<int> Started{0};
  std::atomic<uint64_t> Wrong{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&, T] {
      Started.fetch_add(1, std::memory_order_relaxed);
      std::mt19937_64 Rng(0x5eed + T);
      const SynthesizedHash Hash = Map.hasher();
      using Hint = ShardedIndexMap<uint64_t>::Hint;
      const auto Check = [&Wrong](bool Ok) {
        if (!Ok)
          Wrong.fetch_add(1, std::memory_order_relaxed);
      };
      std::string_view Batch[shard::ChunkSize];
      uint64_t Images[shard::ChunkSize];
      uint64_t Want[shard::ChunkSize];
      uint64_t Out[shard::ChunkSize];
      uint8_t Found[shard::ChunkSize];
      while (!Done.load(std::memory_order_acquire)) {
        const size_t R = Rng() % Resident;
        uint64_t V = ~0ull;
        Check(Map.get(Keys[R], V) && V == R);
        V = ~0ull;
        Check(Map.getRouted(Keys[R], Hint{Hash(Keys[R]), 0}, V) && V == R);
        V = ~0ull;
        Check(Map.getRouted(Keys[R], std::nullopt, V) && V == R);
        const std::string &Missing = Absent[Rng() % Absent.size()];
        Check(!Map.get(Missing, V));
        Check(!Map.getRouted(Missing, Hint{Hash(Missing), 0}, V));
        Check(!Map.getRouted(Missing, std::nullopt, V));

        // Even slots resident (Want = value), odd slots never inserted.
        for (size_t I = 0; I != shard::ChunkSize; ++I) {
          const size_t K = Rng() % (I % 2 ? Absent.size() : Resident);
          Batch[I] = I % 2 ? std::string_view(Absent[K])
                           : std::string_view(Keys[K]);
          Want[I] = K;
        }
        const auto CheckBatch = [&](size_t Hits) {
          Check(Hits == shard::ChunkSize / 2);
          for (size_t I = 0; I != shard::ChunkSize; ++I)
            Check(I % 2 ? Found[I] == 0 : Found[I] == 1 && Out[I] == Want[I]);
        };
        CheckBatch(Map.getBatch(Batch, Out, Found, shard::ChunkSize));
        Hash.hashBatch(Batch, Images, shard::ChunkSize);
        CheckBatch(
            Map.getBatchRouted(Batch, Images, 0, Out, Found, shard::ChunkSize));
      }
    });

  // The writer watches the shards between its own operations to prove
  // the race happened: a capacity increase is a growth, and tombstones
  // dropping from several to none at the same capacity is a sweep.
  size_t Growths = 0, Sweeps = 0;
  std::vector<ShardedIndexMap<uint64_t>::ShardStats> Last(Map.shardCount());
  const auto Observe = [&] {
    for (size_t S = 0; S != Map.shardCount(); ++S) {
      const auto Now = Map.shardStats(S);
      Growths += Now.Capacity > Last[S].Capacity ? 1 : 0;
      Sweeps += Now.Capacity == Last[S].Capacity && Last[S].Tombstones >= 2 &&
                        Now.Tombstones == 0
                    ? 1
                    : 0;
      Last[S] = Now;
    }
  };
  Observe();
  Growths = 0;
  while (Started.load(std::memory_order_relaxed) != 3)
    std::this_thread::yield();
  for (size_t I = Resident; I != Resident + Growth; ++I) {
    Map.put(Keys[I], I);
    Observe();
  }
  // Churn: swap a random present churn key for a random absent one, so
  // erases land all over the table instead of refilling their own slot.
  std::vector<size_t> Present, Gone;
  for (size_t I = Resident + Growth; I != Resident + Growth + Churn; ++I)
    (I % 2 ? Gone : Present).push_back(I);
  for (size_t I : Present)
    Map.put(Keys[I], I);
  std::mt19937_64 Rng(0xc4);
  for (int Step = 0; Step != 40000; ++Step) {
    std::swap(Present[Rng() % Present.size()], Present.back());
    std::swap(Gone[Rng() % Gone.size()], Gone.back());
    ASSERT_TRUE(Map.erase(Keys[Present.back()]));
    ASSERT_TRUE(Map.put(Keys[Gone.back()], Gone.back()));
    std::swap(Present.back(), Gone.back());
    Observe();
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &R : Readers)
    R.join();

  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_GE(Growths, 2 * Map.shardCount()) << "shards must grow under readers";
  EXPECT_GT(Sweeps, 0u) << "churn must sweep tombstones under readers";
}

TEST(ShardedIndexMapTest, SingleKeyReadsNeverSeeAHalfBuiltBlock) {
  // A tombstone sweep publishes its block before refilling it, so only
  // the seqlock validation keeps a one-key read from reporting a
  // resident key absent mid-sweep. One shard held near its load bound
  // sweeps again and again, each sweep a rebuild of the whole table,
  // while readers hammer the single-key entry points.
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/1);
  constexpr size_t Resident = 1700, Churn = 160;
  const std::vector<std::string> Keys =
      distinctKeys(SsnRegex, Resident + Churn, 0x5ee9);
  for (size_t I = 0; I != Resident + Churn / 2; ++I)
    Map.put(Keys[I], I);

  std::atomic<bool> Done{false};
  std::atomic<int> Started{0};
  std::atomic<uint64_t> Wrong{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 2; ++T)
    Readers.emplace_back([&, T] {
      Started.fetch_add(1, std::memory_order_relaxed);
      std::mt19937_64 Rng(0xbead + T);
      const SynthesizedHash Hash = Map.hasher();
      while (!Done.load(std::memory_order_acquire)) {
        const size_t R = Rng() % Resident;
        uint64_t V = ~0ull;
        bool Ok = Map.get(Keys[R], V) && V == R;
        V = ~0ull;
        Ok &= Map.getRouted(Keys[R], ShardedIndexMap<uint64_t>::Hint{
                                         Hash(Keys[R]), 0},
                            V) &&
              V == R;
        V = ~0ull;
        Ok &= Map.getRouted(Keys[R], std::nullopt, V) && V == R;
        if (!Ok)
          Wrong.fetch_add(1, std::memory_order_relaxed);
      }
    });

  while (Started.load(std::memory_order_relaxed) != 2)
    std::this_thread::yield();
  size_t Sweeps = 0;
  auto Last = Map.shardStats(0);
  for (size_t Step = 0; Step != 20000; ++Step) {
    // Erase one churn key and put another back, alternating halves.
    const size_t Out = Resident + (Step % (Churn / 2)) +
                       (Step / (Churn / 2) % 2 ? Churn / 2 : 0);
    const size_t In = Out < Resident + Churn / 2 ? Out + Churn / 2
                                                 : Out - Churn / 2;
    // EXPECT, not ASSERT: the readers must be joined on every path.
    EXPECT_TRUE(Map.erase(Keys[Out]));
    EXPECT_TRUE(Map.put(Keys[In], In));
    const auto Now = Map.shardStats(0);
    Sweeps += Last.Tombstones >= 2 && Now.Tombstones == 0 ? 1 : 0;
    Last = Now;
  }
  Done.store(true, std::memory_order_release);
  for (std::thread &R : Readers)
    R.join();

  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_GT(Sweeps, 10u) << "churn must sweep tombstones under readers";
}

TEST(ShardedIndexMapTest, NoTornEpochUnderConcurrentMigrations) {
  // Label, hash and pattern live in one published Table: a reader that
  // hashes through hasher() and immediately probes with the epoch it
  // read must hit the sentinel with its value, whether or not the two
  // loads straddled a swap. The routed get compares the label with the
  // table it probes: a label that matches the active epoch pins the
  // hasher() load to that same table (epochs are monotone), and any
  // other label makes the map hash the key itself. A Miss or a wrong
  // value is a torn epoch.
  const std::string Sentinel = "271-82-8182";
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex),
                                patternOf(SsnRegex), 0, 4);
  Map.put(Sentinel, 42);

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Torn{0};
  std::vector<std::thread> Readers;
  for (int T = 0; T != 3; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_relaxed)) {
        const uint64_t Epoch = Map.epoch();
        const uint64_t Image = Map.hasher()(Sentinel);
        uint64_t V = ~0ull;
        if (!Map.getRouted(Sentinel,
                           ShardedIndexMap<uint64_t>::Hint{Image, Epoch}, V) ||
            V != 42)
          Torn.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (uint64_t Label = 1; Label != 30; ++Label)
    Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), Label);
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &R : Readers)
    R.join();
  EXPECT_EQ(Torn.load(), 0u);
}

// --- Per-shard contention counters ------------------------------------------

TEST(ShardedIndexMapTest, ContentionCountersTrackAcquisitions) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/8);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 64, 0xc0de);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  uint64_t V = 0;
  for (const std::string &Key : Keys)
    EXPECT_TRUE(Map.get(Key, V));

  ShardedIndexMap<uint64_t>::ShardContention Sum;
  for (size_t S = 0; S != Map.shardCount(); ++S) {
    const auto C = Map.shardContention(S);
    Sum.SharedAcquires += C.SharedAcquires;
    Sum.SharedContended += C.SharedContended;
    Sum.UniqueAcquires += C.UniqueAcquires;
    Sum.UniqueContended += C.UniqueContended;
  }
  // One write acquisition per put. Gets read lock-free and lock only to
  // fall back after failed validations, which need a concurrent writer;
  // a single thread can never lose a try-lock either.
  EXPECT_EQ(Sum.UniqueAcquires, Keys.size());
  EXPECT_EQ(Sum.SharedAcquires, 0u) << "a plain get takes no lock";
  EXPECT_EQ(Sum.UniqueContended, 0u);
  EXPECT_EQ(Sum.SharedContended, 0u);
}

TEST(ShardedIndexMapTest, ContentionJsonParsesAndSumsMatch) {
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/7, /*ShardCountHint=*/4);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 32, 0x7e57);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);

  Expected<json::Value> Doc = json::parse(Map.contentionJson());
  ASSERT_TRUE(Doc);
  EXPECT_EQ(Doc->numberOr("epoch", -1), 7.0);
  const json::Value *Shards = Doc->find("shards");
  ASSERT_NE(Shards, nullptr);
  ASSERT_TRUE(Shards->isArray());
  ASSERT_EQ(Shards->array().size(), Map.shardCount());
  double Unique = 0;
  for (const json::Value &Row : Shards->array())
    Unique += Row.numberOr("unique_acquires", 0);
  EXPECT_EQ(Unique, static_cast<double>(Keys.size()));
  const json::Value *Totals = Doc->find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->numberOr("unique_acquires", -1),
            static_cast<double>(Keys.size()));
}

TEST(ShardedIndexMapTest, ContentionResetsWithMigration) {
  // Counters live on the active generation's shards: after a migrate
  // the new epoch starts from (nearly) zero — only the migration's own
  // successor-side copy acquisitions (one per copied key) are visible.
  ShardedIndexMap<uint64_t> Map(bijectivePext(SsnRegex), patternOf(SsnRegex),
                                /*EpochLabel=*/0, /*ShardCountHint=*/4);
  const std::vector<std::string> Keys = distinctKeys(SsnRegex, 48, 0x3316);
  for (size_t I = 0; I != Keys.size(); ++I)
    Map.put(Keys[I], I);
  for (size_t I = 0; I != Keys.size(); ++I) {
    Map.erase(Keys[I]);
    Map.put(Keys[I], I);
  }
  const auto UniqueAcquires = [&Map] {
    uint64_t Sum = 0;
    for (size_t S = 0; S != Map.shardCount(); ++S)
      Sum += Map.shardContention(S).UniqueAcquires;
    return Sum;
  };
  EXPECT_EQ(UniqueAcquires(), 3 * Keys.size());

  Map.migrate(bijectivePext(SsnRegex), patternOf(SsnRegex), /*Epoch=*/1);
  EXPECT_EQ(UniqueAcquires(), Keys.size()) << "new generation starts fresh";
}
