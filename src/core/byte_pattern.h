//===- core/byte_pattern.h - Quad abstraction of one key byte ---*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstraction of a single key byte as four quad-lattice elements,
/// packed as a (constant-bit mask, constant-bit value) pair. Bit-pair
/// granularity is the paper's deliberate design point: it is fine enough
/// to capture the constant prefixes of ASCII digits (four constant bits)
/// and letters (two constant bits), and coarse enough to keep synthesis
/// linear (Section 3.1, "Rationale").
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_BYTE_PATTERN_H
#define SEPE_CORE_BYTE_PATTERN_H

#include "core/quad.h"

#include <cstdint>
#include <string>

namespace sepe {

/// Widens every bit pair of \p Bits that holds a set bit to a full 11
/// pair. Bit pairs never straddle a byte, so this works on one byte or
/// on eight at once: the quad join and pattern inference both use it to
/// turn "bits that vary" into "pairs that are top".
constexpr uint64_t spreadPairs(uint64_t Bits) {
  const uint64_t Any = (Bits | (Bits >> 1)) & 0x5555555555555555ull;
  return Any | (Any << 1);
}

/// The join of the quad abstractions of a set of bytes. Invariant:
/// ConstMask covers whole bit pairs (each pair of mask bits is 00 or 11)
/// and ConstValue is zero outside ConstMask.
class BytePattern {
public:
  /// Constructs the unconstrained byte (all four quads top).
  constexpr BytePattern() : ConstMask(0), ConstValue(0) {}

  /// Constructs the abstraction of the single byte \p Value (all four
  /// quads concrete).
  static constexpr BytePattern fromByte(uint8_t Value) {
    return BytePattern(0xFF, Value);
  }

  /// Constructs the fully unconstrained byte.
  static constexpr BytePattern top() { return BytePattern(); }

  /// Builds a pattern from explicit mask/value; \p Mask must cover whole
  /// bit pairs.
  static constexpr BytePattern fromMaskValue(uint8_t Mask, uint8_t Value) {
    assert(isPairMask(Mask) && "mask must have bit-pair granularity");
    assert((Value & ~Mask) == 0 && "value bits outside the mask");
    return BytePattern(Mask, Value);
  }

  /// Bits that hold the same value in every byte this pattern abstracts.
  constexpr uint8_t constMask() const { return ConstMask; }

  /// The value of the constant bits (zero outside constMask()).
  constexpr uint8_t constValue() const { return ConstValue; }

  /// Bits free to vary; the complement of constMask().
  constexpr uint8_t freeMask() const { return static_cast<uint8_t>(~ConstMask); }

  /// True when all four quads are concrete: the byte is a constant.
  constexpr bool isConstant() const { return ConstMask == 0xFF; }

  /// True when no quad is concrete.
  constexpr bool isTop() const { return ConstMask == 0; }

  /// Number of constant bits (always even).
  constexpr unsigned constBitCount() const {
    return static_cast<unsigned>(__builtin_popcount(ConstMask));
  }

  /// The quad at index \p I, where index 0 is the most significant bit
  /// pair (matching the left-to-right rendering in the paper's figures).
  constexpr Quad quadAt(unsigned I) const {
    assert(I < 4 && "a byte holds four quads");
    const unsigned Shift = 2 * (3 - I);
    if (((ConstMask >> Shift) & 0x3) != 0x3)
      return Quad::top();
    return Quad::pair(static_cast<uint8_t>((ConstValue >> Shift) & 0x3));
  }

  /// True when \p Byte is admitted by this pattern.
  constexpr bool matches(uint8_t Byte) const {
    return (Byte & ConstMask) == ConstValue;
  }

  /// Pointwise quad join (the least upper bound in the product lattice).
  friend constexpr BytePattern join(BytePattern A, BytePattern B) {
    // A bit pair stays constant iff it is constant on both sides and the
    // values agree: drop every pair holding a bit that is free on either
    // side or differs between them.
    const uint8_t Unsettled = static_cast<uint8_t>(
        static_cast<uint8_t>(~(A.ConstMask & B.ConstMask)) |
        (A.ConstValue ^ B.ConstValue));
    const uint8_t Mask = static_cast<uint8_t>(~spreadPairs(Unsettled));
    return BytePattern(Mask, static_cast<uint8_t>(A.ConstValue & Mask));
  }

  friend constexpr bool operator==(BytePattern A, BytePattern B) {
    return A.ConstMask == B.ConstMask && A.ConstValue == B.ConstValue;
  }

  /// Renders the four quads left to right, e.g. "0100TT01".
  std::string str() const {
    std::string Out;
    for (unsigned I = 0; I != 4; ++I)
      Out += quadAt(I).str();
    return Out;
  }

private:
  constexpr BytePattern(uint8_t Mask, uint8_t Value)
      : ConstMask(Mask), ConstValue(Value) {}

  static constexpr bool isPairMask(uint8_t Mask) {
    for (unsigned Shift = 0; Shift < 8; Shift += 2) {
      const uint8_t Pair = (Mask >> Shift) & 0x3;
      if (Pair == 0x1 || Pair == 0x2)
        return false;
    }
    return true;
  }

  uint8_t ConstMask;
  uint8_t ConstValue;
};

} // namespace sepe

#endif // SEPE_CORE_BYTE_PATTERN_H
