//===- core/key_pattern.h - Quad abstraction of a key format ----*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A KeyPattern is the paper's "regular expression" in lattice form: one
/// BytePattern per position plus length bounds. It is the interchange
/// format between inference (Section 3.1) and code generation
/// (Section 3.2).
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_KEY_PATTERN_H
#define SEPE_CORE_KEY_PATTERN_H

#include "core/byte_pattern.h"
#include "support/bit_ops.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

/// The per-position quad abstraction of a key format.
class KeyPattern {
public:
  KeyPattern() = default;

  /// Builds a fixed-length pattern from \p Bytes.
  static KeyPattern fixed(std::vector<BytePattern> Bytes) {
    KeyPattern P;
    P.MinLen = P.MaxLen = Bytes.size();
    P.Bytes = std::move(Bytes);
    P.buildWords();
    return P;
  }

  /// Builds a variable-length pattern: positions in [MinLen, MaxLen) are
  /// optional. \p Bytes must have MaxLen entries.
  static KeyPattern variable(std::vector<BytePattern> Bytes, size_t MinLen) {
    assert(MinLen <= Bytes.size() && "MinLen exceeds pattern width");
    KeyPattern P;
    P.MinLen = MinLen;
    P.MaxLen = Bytes.size();
    P.Bytes = std::move(Bytes);
    P.buildWords();
    return P;
  }

  size_t minLength() const { return MinLen; }
  size_t maxLength() const { return MaxLen; }
  bool isFixedLength() const { return MinLen == MaxLen; }
  bool empty() const { return Bytes.empty(); }
  size_t size() const { return Bytes.size(); }

  const BytePattern &byteAt(size_t I) const {
    assert(I < Bytes.size() && "byte index out of range");
    return Bytes[I];
  }

  const std::vector<BytePattern> &bytes() const { return Bytes; }

  /// True when \p Key is admitted: its length lies in [MinLen, MaxLen]
  /// and every byte satisfies the pattern at its position. Word-at-a-time:
  /// the per-position (ConstMask, ConstValue) pairs are precomputed into
  /// 8-byte words at construction, so membership costs one masked
  /// compare-and-branch per 8 key bytes instead of a per-byte loop —
  /// cheap enough to guard every key on a hashing fast path.
  bool matches(std::string_view Key) const {
    if (!FixedChecks.empty()) {
      if (Key.size() != MaxLen)
        return false;
      // FixedChecks exist only when MaxLen >= 8 (buildWords). Saying so
      // costs no instruction and lets the compiler drop this path for a
      // shorter constant key instead of flagging its 8-byte loads.
      if (Key.size() < 8)
        __builtin_unreachable();
      const char *P = Key.data();
      for (const WordCheck &C : FixedChecks)
        if ((loadU64Le(P + C.Offset) & C.Mask) != C.Value)
          return false;
      return true;
    }
    return matchesGeneral(Key);
  }

  /// Batch membership: Out[I] = matches(Keys[I]) for I in [0, N); returns
  /// the number of admitted keys. The batch shape lets a guarded
  /// dispatcher test a whole block before committing it to the
  /// specialized batch kernel (core/executor.h GuardedHash, for the
  /// plan shapes it does not fuse).
  size_t matchesBatch(const std::string_view *Keys, uint8_t *Out,
                      size_t N) const {
    size_t Admitted = 0;
    if (!FixedChecks.empty()) {
      // Hoist the check table out of the key loop: Out is a byte
      // pointer, so without locals every Out[I] store would force the
      // member vectors to be reloaded. The inner compare is branchless
      // (&=) — on an in-format stream every check passes, so early
      // exits buy nothing and cost a branch per word.
      const WordCheck *Checks = FixedChecks.data();
      const size_t NumChecks = FixedChecks.size();
      const size_t Len = MaxLen;
      for (size_t I = 0; I != N; ++I) {
        bool M = Keys[I].size() == Len;
        if (M) {
          const char *P = Keys[I].data();
          for (size_t C = 0; C != NumChecks; ++C)
            M &= (loadU64Le(P + Checks[C].Offset) & Checks[C].Mask) ==
                 Checks[C].Value;
        }
        Out[I] = M;
        Admitted += M;
      }
      return Admitted;
    }
    for (size_t I = 0; I != N; ++I) {
      const bool M = matchesGeneral(Keys[I]);
      Out[I] = M;
      Admitted += M;
    }
    return Admitted;
  }

  /// Total number of free (non-constant) bits over all positions; the
  /// "relevant bits" count of Section 4.2.
  unsigned freeBitCount() const {
    unsigned Count = 0;
    for (const BytePattern &B : Bytes)
      Count += 8 - B.constBitCount();
    return Count;
  }

  /// Pointwise join of two patterns (used when merging inferred patterns
  /// from separate example sets). Positions beyond the shorter pattern
  /// become top, and length bounds widen.
  friend KeyPattern join(const KeyPattern &A, const KeyPattern &B) {
    const size_t MaxLen = std::max(A.MaxLen, B.MaxLen);
    std::vector<BytePattern> Bytes(MaxLen, BytePattern::top());
    const size_t Common = std::min(A.Bytes.size(), B.Bytes.size());
    for (size_t I = 0; I != Common; ++I)
      Bytes[I] = join(A.Bytes[I], B.Bytes[I]);
    return KeyPattern::variable(std::move(Bytes),
                                std::min(A.MinLen, B.MinLen));
  }

  friend bool operator==(const KeyPattern &A, const KeyPattern &B) {
    return A.MinLen == B.MinLen && A.MaxLen == B.MaxLen && A.Bytes == B.Bytes;
  }

  /// Debug rendering: one quad string per byte, '|' separated.
  std::string str() const {
    std::string Out;
    for (size_t I = 0; I != Bytes.size(); ++I) {
      if (I != 0)
        Out += '|';
      Out += Bytes[I].str();
    }
    return Out;
  }

  /// One word compare of the pattern's constant bits:
  /// (loadU64Le(Key + Offset) & Mask) == Value. The fixed-length fast
  /// path of matches() runs them, and so do the fused guarded kernels
  /// (core/executor.h GuardedHash).
  struct WordCheck {
    uint32_t Offset = 0;
    uint64_t Mask = 0;
    uint64_t Value = 0;
  };

  /// Packs a window of eight BytePatterns starting at \p Offset into one
  /// (mask, value) word compare.
  WordCheck packWindow(size_t Offset) const {
    WordCheck C;
    C.Offset = static_cast<uint32_t>(Offset);
    for (size_t I = 0; I != 8; ++I) {
      C.Mask |= uint64_t{Bytes[Offset + I].constMask()} << (8 * I);
      C.Value |= uint64_t{Bytes[Offset + I].constValue()} << (8 * I);
    }
    return C;
  }

private:

  /// The slow path: variable-length and sub-word patterns. Walks the
  /// aligned word tables with a masked partial load for the tail.
  bool matchesGeneral(std::string_view Key) const {
    if (Key.size() < MinLen || Key.size() > MaxLen)
      return false;
    const char *P = Key.data();
    size_t I = 0, W = 0;
    for (; I + 8 <= Key.size(); I += 8, ++W)
      if ((loadU64Le(P + I) & MaskWords[W]) != ValueWords[W])
        return false;
    const size_t Tail = Key.size() - I;
    if (Tail != 0) {
      // Exclude positions past the key's end from the compare: they are
      // optional (length already checked), and the zero-padding of the
      // partial load must not be tested against their constant bits.
      const uint64_t TailMask = ~uint64_t{0} >> (8 * (8 - Tail));
      if ((loadBytesLe(P + I, Tail) & MaskWords[W] & TailMask) !=
          (ValueWords[W] & TailMask))
        return false;
    }
    return true;
  }

  /// Packs the per-position (ConstMask, ConstValue) pairs into little-
  /// endian 8-byte words, zero-padded past MaxLen (a zero mask admits
  /// anything, so the padding can never reject). Derived state: every
  /// factory rebuilds it, operator== ignores it.
  void buildWords() {
    const size_t NumWords = (Bytes.size() + 7) / 8;
    MaskWords.assign(NumWords, 0);
    ValueWords.assign(NumWords, 0);
    for (size_t I = 0; I != Bytes.size(); ++I) {
      const unsigned Shift = 8 * (I % 8);
      MaskWords[I / 8] |= uint64_t{Bytes[I].constMask()} << Shift;
      ValueWords[I / 8] |= uint64_t{Bytes[I].constValue()} << Shift;
    }
    // Fixed-length patterns of at least a word get full-word checks with
    // an overlapping final window ending exactly at the key's last byte
    // — no partial tail load, every compare is one unaligned 8-byte
    // read. Reading backwards from the end never runs past the buffer
    // because the guard only fires on keys of exactly MaxLen bytes.
    FixedChecks.clear();
    if (MinLen == MaxLen && MaxLen >= 8) {
      size_t Off = 0;
      for (; Off + 8 <= MaxLen; Off += 8)
        FixedChecks.push_back(packWindow(Off));
      if (Off != MaxLen) {
        const WordCheck Overlap = packWindow(MaxLen - 8);
        // An all-constant key would leave the window mask-only zero;
        // keep the check anyway — Mask 0 compares 0 == 0 and is free.
        FixedChecks.push_back(Overlap);
      }
    }
  }

  std::vector<BytePattern> Bytes;
  std::vector<uint64_t> MaskWords;
  std::vector<uint64_t> ValueWords;
  std::vector<WordCheck> FixedChecks;
  size_t MinLen = 0;
  size_t MaxLen = 0;
};

} // namespace sepe

#endif // SEPE_CORE_KEY_PATTERN_H
