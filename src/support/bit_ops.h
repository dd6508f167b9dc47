//===- support/bit_ops.h - Low-level bit utilities --------------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Endian-safe unaligned loads, parallel bit extraction (hardware pext when
/// compiled for BMI2 plus a bit-exact software fallback), and 128-bit
/// multiply folding. Every synthesized hash function bottoms out in these
/// primitives.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_BIT_OPS_H
#define SEPE_SUPPORT_BIT_OPS_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>

#if defined(SEPE_HAVE_BMI2)
#include <immintrin.h>
#endif

namespace sepe {

/// Loads a 64-bit little-endian word from \p Ptr without alignment
/// requirements.
inline uint64_t loadU64Le(const void *Ptr) {
  uint64_t Value;
  std::memcpy(&Value, Ptr, sizeof(Value));
  if constexpr (std::endian::native == std::endian::big)
    Value = __builtin_bswap64(Value);
  return Value;
}

/// Loads a 32-bit little-endian word from \p Ptr.
inline uint32_t loadU32Le(const void *Ptr) {
  uint32_t Value;
  std::memcpy(&Value, Ptr, sizeof(Value));
  if constexpr (std::endian::native == std::endian::big)
    Value = __builtin_bswap32(Value);
  return Value;
}

/// Loads the \p Len least significant bytes (0 <= Len <= 8) starting at
/// \p Ptr, zero-extending the rest. Mirrors libstdc++'s load_bytes helper.
inline uint64_t loadBytesLe(const void *Ptr, size_t Len) {
  assert(Len <= 8 && "loadBytesLe only handles up to one machine word");
  uint64_t Value = 0;
  const auto *Bytes = static_cast<const unsigned char *>(Ptr);
  for (size_t I = 0; I != Len; ++I)
    Value |= static_cast<uint64_t>(Bytes[I]) << (8 * I);
  return Value;
}

/// Software parallel bit extraction with the exact semantics of x86's
/// pext instruction (Figure 11 of the paper): every bit of \p Src selected
/// by \p Mask is compressed into the contiguous low-order bits of the
/// result.
inline uint64_t pextSoft(uint64_t Src, uint64_t Mask) {
  uint64_t Result = 0;
  for (unsigned K = 0; Mask != 0; Mask &= Mask - 1, ++K) {
    const uint64_t LowBit = Mask & -Mask;
    if (Src & LowBit)
      Result |= uint64_t{1} << K;
  }
  return Result;
}

/// Hardware pext when available; falls back to the software routine.
inline uint64_t pextHw(uint64_t Src, uint64_t Mask) {
#if defined(SEPE_HAVE_BMI2)
  return _pext_u64(Src, Mask);
#else
  return pextSoft(Src, Mask);
#endif
}

/// True when this binary was compiled with BMI2 enabled, i.e. pextHw maps
/// onto a single instruction.
constexpr bool hasHardwarePext() {
#if defined(SEPE_HAVE_BMI2)
  return true;
#else
  return false;
#endif
}

/// A precompiled shift-mask compaction network with the exact semantics
/// of pext(Src, Mask): Hacker's Delight's compress (7-4), split into a
/// per-mask compile step and a cheap apply step. Compiling costs ~60
/// scalar ops; applying costs at most six rounds of and/xor/or/shift —
/// branch-free, data-independent, and therefore directly liftable onto
/// 64-bit SIMD lanes. The executor's AVX2 wide kernels apply one
/// network per plan step across four keys per register, and the
/// software-pext batch kernels use the scalar apply to replace the
/// bit-at-a-time pextSoft loop on the hot path (the masks of a plan are
/// fixed, so the compile step amortizes over the whole batch).
struct PextNetwork {
  /// Bits still selected before each round; Round I moves the bits in
  /// Move[I] right by 1 << I.
  uint64_t Move[6] = {0, 0, 0, 0, 0, 0};
  /// The original extraction mask.
  uint64_t SourceMask = 0;
  /// Number of leading non-identity rounds; trailing rounds with
  /// Move[I] == 0 are dropped at compile time.
  int Rounds = 0;

  static PextNetwork compile(uint64_t Mask) {
    PextNetwork Net;
    Net.SourceMask = Mask;
    uint64_t M = Mask;
    uint64_t Mk = ~M << 1; // Bits to the left of each selected bit.
    for (int I = 0; I != 6; ++I) {
      // Parallel prefix (xor) of Mk: Mp identifies the selected bits
      // that must move in this round.
      uint64_t Mp = Mk ^ (Mk << 1);
      Mp ^= Mp << 2;
      Mp ^= Mp << 4;
      Mp ^= Mp << 8;
      Mp ^= Mp << 16;
      Mp ^= Mp << 32;
      const uint64_t Mv = Mp & M;
      Net.Move[I] = Mv;
      if (Mv != 0)
        Net.Rounds = I + 1;
      M = (M ^ Mv) | (Mv >> (1u << I));
      Mk &= ~Mp;
    }
    return Net;
  }

  /// Bit-identical to pextSoft(Src, SourceMask).
  uint64_t apply(uint64_t Src) const {
    uint64_t X = Src & SourceMask;
    for (int I = 0; I != Rounds; ++I) {
      const uint64_t T = X & Move[I];
      X = (X ^ T) | (T >> (1u << I));
    }
    return X;
  }
};

/// Lane-wise parallel bit extraction: compresses eight independent
/// 16-bit lanes at once, Out[L] = pext(Src[L], Mask[L]) packed at each
/// lane's bottom. This is the portable, bit-exact reference for one
/// 128-bit register's worth of lanes in the wide kernels' shift-mask
/// compaction, shared by the tests that pin the vector path down and by
/// anything that wants sub-word compaction without a full 64-bit
/// network per lane.
inline void pext16x8(const uint16_t Src[8], const uint16_t Mask[8],
                     uint16_t Out[8]) {
  for (int L = 0; L != 8; ++L)
    Out[L] = static_cast<uint16_t>(pextSoft(Src[L], Mask[L]));
}

/// Software parallel bit deposit (inverse of pext): the low popcount(Mask)
/// bits of \p Src are scattered, in order, onto the bits \p Mask selects.
inline uint64_t pdepSoft(uint64_t Src, uint64_t Mask) {
  uint64_t Result = 0;
  for (unsigned K = 0; Mask != 0; Mask &= Mask - 1, ++K) {
    const uint64_t LowBit = Mask & -Mask;
    if (Src & (uint64_t{1} << K))
      Result |= LowBit;
  }
  return Result;
}

/// Hardware pdep when available; falls back to the software routine.
inline uint64_t pdepHw(uint64_t Src, uint64_t Mask) {
#if defined(SEPE_HAVE_BMI2)
  return _pdep_u64(Src, Mask);
#else
  return pdepSoft(Src, Mask);
#endif
}

/// 128-bit multiply returning (low, high); the mixing primitive of
/// wyhash-style hashes such as Abseil's LowLevelHash.
inline void mul128(uint64_t A, uint64_t B, uint64_t &Lo, uint64_t &Hi) {
  const unsigned __int128 Product =
      static_cast<unsigned __int128>(A) * static_cast<unsigned __int128>(B);
  Lo = static_cast<uint64_t>(Product);
  Hi = static_cast<uint64_t>(Product >> 64);
}

/// Folds a 128-bit product into 64 bits by xoring its halves.
inline uint64_t mulFold(uint64_t A, uint64_t B) {
  uint64_t Lo, Hi;
  mul128(A, B, Lo, Hi);
  return Lo ^ Hi;
}

/// Rotates \p Value right by \p Shift bits.
inline uint64_t rotr64(uint64_t Value, unsigned Shift) {
  return std::rotr(Value, static_cast<int>(Shift));
}

/// Hints the cache hierarchy to pull the line holding \p Ptr for a
/// read. Batch lookup loops issue these a pass ahead of the dependent
/// loads so out-of-cache tables overlap their misses.
inline void prefetchRead(const void *Ptr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(Ptr, /*rw=*/0, /*locality=*/1);
#else
  (void)Ptr;
#endif
}

} // namespace sepe

#endif // SEPE_SUPPORT_BIT_OPS_H
