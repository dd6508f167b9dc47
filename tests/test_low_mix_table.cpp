//===- tests/test_low_mix_table.cpp - Low-mixing container ----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "container/low_mix_table.h"

#include "hashes/murmur.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace sepe;

namespace {

/// Identity-style hash over decimal strings: entropy in the low bits
/// only, the adversarial shape for a most-significant-bit container.
struct NumericHash {
  size_t operator()(const std::string &Key) const {
    size_t Value = 0;
    for (char C : Key)
      if (C >= '0' && C <= '9')
        Value = Value * 10 + static_cast<size_t>(C - '0');
    return Value;
  }
};

TEST(LowMixTableTest, InsertFindErase) {
  LowMixTable<std::string, MurmurStlHash> Table{MurmurStlHash{}};
  EXPECT_TRUE(Table.insert("alpha"));
  EXPECT_FALSE(Table.insert("alpha")) << "duplicate insert";
  EXPECT_TRUE(Table.contains("alpha"));
  EXPECT_FALSE(Table.contains("beta"));
  EXPECT_EQ(Table.size(), 1u);
  EXPECT_TRUE(Table.erase("alpha"));
  EXPECT_FALSE(Table.erase("alpha"));
  EXPECT_TRUE(Table.empty());
}

TEST(LowMixTableTest, GrowsPastInitialBuckets) {
  LowMixTable<std::string, MurmurStlHash> Table{MurmurStlHash{}, 0, 4};
  for (int I = 0; I != 1000; ++I)
    Table.insert("key-" + std::to_string(I));
  EXPECT_EQ(Table.size(), 1000u);
  EXPECT_GE(Table.bucketCount(), 1000u);
  for (int I = 0; I != 1000; ++I)
    EXPECT_TRUE(Table.contains("key-" + std::to_string(I)));
}

TEST(LowMixTableTest, RehashPreservesContents) {
  LowMixTable<std::string, MurmurStlHash> Table{MurmurStlHash{}};
  for (int I = 0; I != 100; ++I)
    Table.insert(std::to_string(I));
  Table.rehash(4096);
  EXPECT_EQ(Table.bucketCount(), 4096u);
  for (int I = 0; I != 100; ++I)
    EXPECT_TRUE(Table.contains(std::to_string(I)));
}

TEST(LowMixTableTest, ZeroDiscardBehavesLikeModulo) {
  // With DiscardBits = 0 and a well-mixed hash, collisions stay near
  // the birthday bound.
  LowMixTable<std::string, MurmurStlHash> Table{MurmurStlHash{}, 0, 4096};
  for (int I = 0; I != 1000; ++I)
    Table.insert(std::string("k").append(std::to_string(I)));
  EXPECT_LT(Table.bucketCollisions(), 300u);
}

TEST(LowMixTableTest, DiscardingBitsPunishesLowEntropyHashes) {
  // RQ7's central effect: an identity-like hash collapses into few
  // buckets once the low bits are discarded.
  const unsigned Discard = 48;
  LowMixTable<std::string, NumericHash> Table{NumericHash{}, Discard, 4096};
  for (int I = 0; I != 1000; ++I)
    Table.insert(std::to_string(100000 + I));
  // All numeric values < 2^20, so every hash >> 48 is zero: one bucket.
  EXPECT_EQ(Table.bucketCollisions(), 999u);
  EXPECT_EQ(Table.maxBucketSize(), 1000u);
  EXPECT_EQ(Table.occupiedBuckets(), 1u);
}

TEST(LowMixTableTest, MixedHashSurvivesDiscarding) {
  LowMixTable<std::string, MurmurStlHash> Table{MurmurStlHash{}, 48, 4096};
  for (int I = 0; I != 1000; ++I)
    Table.insert(std::to_string(100000 + I));
  // A mixing hash keeps its entropy in the high bits too.
  EXPECT_LT(Table.bucketCollisions(), 300u);
}

TEST(LowMixTableTest, FindAfterRehashWithDiscard) {
  LowMixTable<std::string, NumericHash> Table{NumericHash{}, 16, 8};
  for (int I = 0; I != 500; ++I)
    Table.insert(std::to_string(I * 65536 + 7));
  for (int I = 0; I != 500; ++I)
    EXPECT_TRUE(Table.contains(std::to_string(I * 65536 + 7)));
  EXPECT_FALSE(Table.contains("12345"));
}

TEST(LowMixTableTest, PreHashedEntryPointsMatchPlain) {
  // insertHashed/containsHashed/eraseHashed with H == Hasher(K) must be
  // indistinguishable from the hashing overloads — including across the
  // growth rehashes, which re-derive buckets from the stored keys.
  const MurmurStlHash Hash;
  LowMixTable<std::string, MurmurStlHash> Plain{Hash, 8, 4};
  LowMixTable<std::string, MurmurStlHash> Pre{Hash, 8, 4};
  std::vector<std::string> Keys;
  for (int I = 0; I != 300; ++I)
    Keys.push_back("key-" + std::to_string(I));
  for (const std::string &K : Keys) {
    EXPECT_EQ(Pre.insertHashed(K, Hash(K)), Plain.insert(K));
    EXPECT_FALSE(Pre.insertHashed(K, Hash(K))) << "duplicate " << K;
  }
  EXPECT_EQ(Pre.size(), Plain.size());
  EXPECT_EQ(Pre.bucketCollisions(), Plain.bucketCollisions());
  for (const std::string &K : Keys) {
    EXPECT_TRUE(Pre.containsHashed(K, Hash(K)));
    EXPECT_TRUE(Pre.contains(K)) << "plain lookup sees pre-hashed insert";
  }
  EXPECT_FALSE(Pre.containsHashed("absent", Hash(std::string("absent"))));
  for (size_t I = 0; I < Keys.size(); I += 2)
    EXPECT_TRUE(Pre.eraseHashed(Keys[I], Hash(Keys[I])));
  for (size_t I = 0; I != Keys.size(); ++I)
    EXPECT_EQ(Pre.contains(Keys[I]), I % 2 == 1);
}

} // namespace
