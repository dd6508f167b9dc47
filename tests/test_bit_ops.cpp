//===- tests/test_bit_ops.cpp - Bit-level primitives ----------------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "support/bit_ops.h"

#include <gtest/gtest.h>

#include <random>

using namespace sepe;

namespace {

TEST(BitOpsTest, LoadU64LeIsLittleEndian) {
  const unsigned char Bytes[8] = {0x01, 0x02, 0x03, 0x04,
                                  0x05, 0x06, 0x07, 0x08};
  EXPECT_EQ(loadU64Le(Bytes), 0x0807060504030201ULL);
}

TEST(BitOpsTest, LoadU32LeIsLittleEndian) {
  const unsigned char Bytes[4] = {0xAA, 0xBB, 0xCC, 0xDD};
  EXPECT_EQ(loadU32Le(Bytes), 0xDDCCBBAAu);
}

TEST(BitOpsTest, LoadBytesZeroExtends) {
  const unsigned char Bytes[4] = {0xFF, 0x01, 0x02, 0x03};
  EXPECT_EQ(loadBytesLe(Bytes, 0), 0u);
  EXPECT_EQ(loadBytesLe(Bytes, 1), 0xFFu);
  EXPECT_EQ(loadBytesLe(Bytes, 3), 0x0201FFu);
}

TEST(BitOpsTest, PextSoftMatchesFigure11Semantics) {
  // Extracting the low nibble of every byte compresses digits.
  EXPECT_EQ(pextSoft(0x1234567812345678ULL, 0x0F0F0F0F0F0F0F0FULL),
            0x24682468u);
  EXPECT_EQ(pextSoft(0xFFFFFFFFFFFFFFFFULL, 0), 0u);
  EXPECT_EQ(pextSoft(0xFFFFFFFFFFFFFFFFULL, ~0ULL), ~0ULL);
  EXPECT_EQ(pextSoft(0b1010, 0b1110), 0b101u);
}

TEST(BitOpsTest, PextSoftMatchesHardware) {
  if (!hasHardwarePext())
    GTEST_SKIP() << "BMI2 not compiled in";
  std::mt19937_64 Rng(3);
  for (int I = 0; I != 500; ++I) {
    const uint64_t Src = Rng();
    const uint64_t Mask = Rng() & Rng(); // biased toward sparse masks
    EXPECT_EQ(pextSoft(Src, Mask), pextHw(Src, Mask));
  }
}

TEST(BitOpsTest, PextNetworkMatchesPextSoftOnEdgeMasks) {
  for (const uint64_t Mask :
       {uint64_t{0}, ~uint64_t{0}, uint64_t{1}, uint64_t{0x8000000000000000},
        uint64_t{0x0F0F0F0F0F0F0F0F}, uint64_t{0xF0F0F0F0F0F0F0F0},
        uint64_t{0x5555555555555555}, uint64_t{0xAAAAAAAAAAAAAAAA},
        uint64_t{0x00FF00FF00FF00FF}, uint64_t{0x0000000000000F0F}}) {
    const PextNetwork Net = PextNetwork::compile(Mask);
    for (const uint64_t Src :
         {uint64_t{0}, ~uint64_t{0}, uint64_t{0x123456789ABCDEF0},
          uint64_t{0xDEADBEEFFEEDFACE}}) {
      EXPECT_EQ(Net.apply(Src), pextSoft(Src, Mask))
          << "mask=" << std::hex << Mask << " src=" << Src;
    }
  }
}

TEST(BitOpsTest, PextNetworkMatchesPextSoftRandomized) {
  std::mt19937_64 Rng(17);
  for (int I = 0; I != 2000; ++I) {
    // Mix dense, sparse, and very sparse masks.
    uint64_t Mask = Rng();
    if (I % 3 == 1)
      Mask &= Rng();
    if (I % 3 == 2)
      Mask &= Rng() & Rng();
    const PextNetwork Net = PextNetwork::compile(Mask);
    for (int J = 0; J != 4; ++J) {
      const uint64_t Src = Rng();
      ASSERT_EQ(Net.apply(Src), pextSoft(Src, Mask))
          << "mask=" << std::hex << Mask << " src=" << Src;
    }
  }
}

TEST(BitOpsTest, PextNetworkDropsIdentityRounds) {
  // The all-ones mask moves nothing: zero rounds.
  EXPECT_EQ(PextNetwork::compile(~uint64_t{0}).Rounds, 0);
  EXPECT_EQ(PextNetwork::compile(0).Rounds, 0);
  // The uniform low-nibble mask needs only nibble-granularity moves
  // (shifts 4, 8, 16), so rounds 0-1 are identity but still counted —
  // what matters is that the trailing 32-shift round is dropped.
  EXPECT_LE(PextNetwork::compile(0x0F0F0F0F0F0F0F0FULL).Rounds, 5);
}

TEST(BitOpsTest, Pext16x8CompressesEachLaneIndependently) {
  const uint16_t Src[8] = {0x1234, 0xFFFF, 0x0000, 0xABCD,
                           0x5678, 0x8001, 0x7FFE, 0x9999};
  const uint16_t Mask[8] = {0x0F0F, 0xFFFF, 0xFFFF, 0x00FF,
                            0xF0F0, 0x8001, 0x0001, 0x5555};
  uint16_t Out[8] = {};
  pext16x8(Src, Mask, Out);
  for (int L = 0; L != 8; ++L)
    EXPECT_EQ(Out[L], static_cast<uint16_t>(pextSoft(Src[L], Mask[L])))
        << "lane " << L;
  EXPECT_EQ(Out[0], 0x24u);  // low nibbles of 0x12, 0x34
  EXPECT_EQ(Out[1], 0xFFFFu);
  EXPECT_EQ(Out[3], 0xCDu);
  EXPECT_EQ(Out[5], 0x3u); // both guard bits set
}

TEST(BitOpsTest, Pext16x8AgreesWithPextNetworkLanes) {
  std::mt19937_64 Rng(23);
  for (int I = 0; I != 200; ++I) {
    uint16_t Src[8], Mask[8], Out[8];
    for (int L = 0; L != 8; ++L) {
      Src[L] = static_cast<uint16_t>(Rng());
      Mask[L] = static_cast<uint16_t>(Rng() & Rng());
    }
    pext16x8(Src, Mask, Out);
    for (int L = 0; L != 8; ++L) {
      const PextNetwork Net = PextNetwork::compile(Mask[L]);
      ASSERT_EQ(Out[L], static_cast<uint16_t>(Net.apply(Src[L])));
    }
  }
}

TEST(BitOpsTest, PdepIsInverseOfPextOnMask) {
  std::mt19937_64 Rng(5);
  for (int I = 0; I != 200; ++I) {
    const uint64_t Src = Rng();
    const uint64_t Mask = Rng();
    EXPECT_EQ(pdepSoft(pextSoft(Src, Mask), Mask), Src & Mask);
  }
}

TEST(BitOpsTest, HardwarePdepMatchesSoftware) {
  std::mt19937_64 Rng(6);
  for (int I = 0; I != 1000; ++I) {
    const uint64_t Src = Rng();
    const uint64_t Mask = I % 3 == 0 ? Rng() & Rng() : Rng();
    ASSERT_EQ(pdepHw(Src, Mask), pdepSoft(Src, Mask)) << std::hex << Mask;
  }
  EXPECT_EQ(pdepHw(~0ULL, 0), 0u);
  EXPECT_EQ(pdepHw(~0ULL, ~0ULL), ~0ULL);
}

TEST(BitOpsTest, Mul128KnownProducts) {
  uint64_t Lo, Hi;
  mul128(~0ULL, 2, Lo, Hi);
  EXPECT_EQ(Lo, ~0ULL - 1);
  EXPECT_EQ(Hi, 1u);
  mul128(0x100000000ULL, 0x100000000ULL, Lo, Hi);
  EXPECT_EQ(Lo, 0u);
  EXPECT_EQ(Hi, 1u);
}

TEST(BitOpsTest, MulFoldXorsHalves) {
  uint64_t Lo, Hi;
  mul128(0xdeadbeefULL, 0xfeedfaceULL, Lo, Hi);
  EXPECT_EQ(mulFold(0xdeadbeefULL, 0xfeedfaceULL), Lo ^ Hi);
}

TEST(BitOpsTest, Rotr64) {
  EXPECT_EQ(rotr64(0x1, 1), 0x8000000000000000ULL);
  EXPECT_EQ(rotr64(0x8000000000000000ULL, 63), 0x1u);
  EXPECT_EQ(rotr64(0xABCDULL, 0), 0xABCDULL);
}

} // namespace
