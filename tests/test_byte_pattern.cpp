//===- tests/test_byte_pattern.cpp - Byte-level quad abstraction ----------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/byte_pattern.h"

#include <gtest/gtest.h>

#include <vector>

using namespace sepe;

namespace {

TEST(BytePatternTest, FromByteIsFullyConstant) {
  const BytePattern P = BytePattern::fromByte(0x42);
  EXPECT_TRUE(P.isConstant());
  EXPECT_EQ(P.constMask(), 0xFF);
  EXPECT_EQ(P.constValue(), 0x42);
  EXPECT_EQ(P.constBitCount(), 8u);
  EXPECT_TRUE(P.matches(0x42));
  EXPECT_FALSE(P.matches(0x43));
}

TEST(BytePatternTest, TopMatchesEverything) {
  const BytePattern P = BytePattern::top();
  EXPECT_TRUE(P.isTop());
  EXPECT_EQ(P.constBitCount(), 0u);
  for (unsigned Byte = 0; Byte != 256; ++Byte)
    EXPECT_TRUE(P.matches(static_cast<uint8_t>(Byte)));
}

TEST(BytePatternTest, JoinOfEqualBytesIsIdentity) {
  const BytePattern P = BytePattern::fromByte('7');
  EXPECT_EQ(join(P, P), P);
}

TEST(BytePatternTest, JoinTopsDifferingPairsOnly) {
  // '0' = 0011 0000, '1' = 0011 0001: they differ only in the lowest bit
  // pair, so the three upper pairs stay constant.
  const BytePattern P =
      join(BytePattern::fromByte('0'), BytePattern::fromByte('1'));
  EXPECT_EQ(P.constMask(), 0xFC);
  EXPECT_EQ(P.constValue(), 0x30);
  EXPECT_EQ(P.constBitCount(), 6u);
}

TEST(BytePatternTest, DigitsShareFourConstantBits) {
  // Section 3.1 rationale: the quad lattice finds four constant bits in
  // ASCII digits (the 0x3 high nibble).
  BytePattern Digits = BytePattern::fromByte('0');
  for (char C = '1'; C <= '9'; ++C)
    Digits = join(Digits, BytePattern::fromByte(static_cast<uint8_t>(C)));
  EXPECT_EQ(Digits.constMask(), 0xF0);
  EXPECT_EQ(Digits.constValue(), 0x30);
  EXPECT_EQ(Digits.constBitCount(), 4u);
  EXPECT_EQ(Digits.freeMask(), 0x0F);
}

TEST(BytePatternTest, UpperCaseLettersShareFourConstantBitsAtQuadZero) {
  // Example 3.5: 'J' v 'L' v 'G' keeps the 0100 prefix.
  BytePattern P = BytePattern::fromByte('J');
  P = join(P, BytePattern::fromByte('L'));
  P = join(P, BytePattern::fromByte('G'));
  EXPECT_EQ(P.quadAt(0), Quad::pair(0b01));
  EXPECT_FALSE(P.quadAt(0).isTop());
}

TEST(BytePatternTest, MixedCaseLettersKeepOnlyTwoConstantBits) {
  // Example 3.5: one lower-case letter reduces the invariant to the
  // first bit pair (01).
  BytePattern P = BytePattern::fromByte('J');
  P = join(P, BytePattern::fromByte('a'));
  EXPECT_EQ(P.quadAt(0), Quad::pair(0b01));
  EXPECT_EQ(P.constBitCount(), 2u);
}

TEST(BytePatternTest, QuadAtReadsMostSignificantFirst) {
  // 'J' = 0100 1010: quads are 01, 00, 10, 10.
  const BytePattern P = BytePattern::fromByte('J');
  EXPECT_EQ(P.quadAt(0), Quad::pair(0b01));
  EXPECT_EQ(P.quadAt(1), Quad::pair(0b00));
  EXPECT_EQ(P.quadAt(2), Quad::pair(0b10));
  EXPECT_EQ(P.quadAt(3), Quad::pair(0b10));
}

TEST(BytePatternTest, StrShowsQuads) {
  EXPECT_EQ(BytePattern::fromByte('J').str(), "01001010");
  EXPECT_EQ(BytePattern::top().str(), "TTTTTTTT");
}

TEST(BytePatternTest, JoinIsCommutativeOnRandomBytes) {
  for (unsigned A = 0; A < 256; A += 7)
    for (unsigned B = 0; B < 256; B += 11) {
      const BytePattern PA = BytePattern::fromByte(static_cast<uint8_t>(A));
      const BytePattern PB = BytePattern::fromByte(static_cast<uint8_t>(B));
      EXPECT_EQ(join(PA, PB), join(PB, PA));
    }
}

TEST(BytePatternTest, JoinResultMatchesBothOperandsBytes) {
  // Soundness: the join must admit every byte that either operand
  // admits.
  for (unsigned A = 0; A < 256; A += 5)
    for (unsigned B = 0; B < 256; B += 9) {
      const BytePattern J = join(BytePattern::fromByte(static_cast<uint8_t>(A)),
                                 BytePattern::fromByte(static_cast<uint8_t>(B)));
      EXPECT_TRUE(J.matches(static_cast<uint8_t>(A)));
      EXPECT_TRUE(J.matches(static_cast<uint8_t>(B)));
    }
}

TEST(BytePatternTest, JoinIsThePointwiseQuadJoin) {
  // All 5^4 byte patterns (each bit pair top or one of four values),
  // joined pairwise: every quad of the result must be the quad join of
  // the operands' quads at that position (Definition 3.2).
  std::vector<BytePattern> All;
  for (unsigned Code = 0; Code != 625; ++Code) {
    uint8_t Mask = 0, Value = 0;
    for (unsigned Pair = 0, C = Code; Pair != 4; ++Pair, C /= 5)
      if (C % 5 != 4) {
        Mask = static_cast<uint8_t>(Mask | (0x3 << (2 * Pair)));
        Value = static_cast<uint8_t>(Value | ((C % 5) << (2 * Pair)));
      }
    All.push_back(BytePattern::fromMaskValue(Mask, Value));
  }
  for (const BytePattern A : All)
    for (const BytePattern B : All) {
      const BytePattern J = join(A, B);
      for (unsigned I = 0; I != 4; ++I)
        if (!(J.quadAt(I) == join(A.quadAt(I), B.quadAt(I))))
          FAIL() << A.str() << " v " << B.str() << " gave " << J.str();
    }
}

TEST(BytePatternTest, SpreadPairsTopsEveryPairWithASetBit) {
  EXPECT_EQ(spreadPairs(0), 0u);
  EXPECT_EQ(spreadPairs(0x01), 0x03u);
  EXPECT_EQ(spreadPairs(0x80), 0xC0u);
  EXPECT_EQ(spreadPairs(0x24), 0x3Cu);
  // Eight bytes at once, with no bit crossing into a neighbouring byte.
  EXPECT_EQ(spreadPairs(0x8001000000000100ull), 0xC003000000000300ull);
  EXPECT_EQ(spreadPairs(~uint64_t{0}), ~uint64_t{0});
}

TEST(BytePatternTest, FromMaskValueValidatesPairGranularity) {
  const BytePattern P = BytePattern::fromMaskValue(0xF0, 0x30);
  EXPECT_EQ(P.constMask(), 0xF0);
  EXPECT_TRUE(P.matches('5'));
  EXPECT_FALSE(P.matches('A'));
}

} // namespace
