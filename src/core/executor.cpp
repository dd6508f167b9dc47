//===- core/executor.cpp - Runtime evaluation of HashPlans ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/executor.h"

#include "core/jit.h"
#include "hashes/aes_round.h"
#include "hashes/murmur.h"
#include "support/bit_ops.h"
#include "support/cpu_features.h"
#include "support/unreachable.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#if defined(__AVX2__)
#define SEPE_EXEC_AVX2 1
#endif

#if defined(SEPE_HAVE_AESNI) || defined(SEPE_EXEC_AVX2)
#include <immintrin.h>
#endif

using namespace sepe;

namespace {

/// Initial AES state; arbitrary odd constants (first digits of pi/e) —
/// the Aes family derives its dispersion from the round function, not
/// the seed.
constexpr Block128 AesInitState{0x243f6a8885a308d3ULL,
                                0x13198a2e03707344ULL};

using EvalFnT = uint64_t (*)(const HashPlan &, const char *, size_t);
using BatchFnT = void (*)(const HashPlan &, const std::string_view *,
                          uint64_t *, size_t);

uint64_t evalFallback(const HashPlan &, const char *Data, size_t Len) {
  return murmurHashBytes(Data, Len, StlHashSeed);
}

// --- Fixed-length paths ---------------------------------------------------
//
// One single-key body (fixedOne) and one four-way interleaved batch
// body (fixedInterleaved) serve every fixed-length Naive, OffXor and
// Pext kernel, guarded or not. Two template parameters pick the
// variant: how a step combines its loaded word into the hash, and
// whether the guard's constant-bit check rides on that same word. The
// step count is a third for the common plan sizes (NSteps != 0), so the
// step loop unrolls away and the kernel is the same straight-line code
// codegen.h would emit; NSteps == 0 is the generic runtime-count
// variant.

/// How a step folds its loaded word W into the hash.
enum class Combine {
  Xor,      ///< W itself (Naive, OffXor).
  PextHw,   ///< rotl(pext(W, Mask), Shift), hardware pext.
  PextSoft, ///< The same through the bit-at-a-time software pext.
  PextNet,  ///< The same through the step's precompiled PextNetwork.
};

/// What a fixed-length kernel reads besides the keys.
struct FixedArgs {
  const PlanStep *Steps = nullptr;
  size_t M = 0;
  /// Guarded only: one window per step over the step's own word, then
  /// windows over constant positions no step loads, up to ChecksEnd.
  const KeyPattern::WordCheck *Checks = nullptr;
  const KeyPattern::WordCheck *ChecksEnd = nullptr;
  /// PextNet only: one network per step.
  const PextNetwork *Nets = nullptr;
};

FixedArgs argsOf(const HashPlan &Plan) {
  return {Plan.Steps.data(), Plan.Steps.size()};
}

template <Combine C>
inline uint64_t combine(const FixedArgs &A, size_t S, uint64_t W) {
  // Chunks are *rotated* into place rather than shifted so formats with
  // more than 64 relevant bits wrap around without losing entropy
  // (Section 4.2: zero T-Coll even on 400-relevant-bit keys). For
  // chunks that fit, rotl is identical to the shift in Figure 12.
  const PlanStep &Step = A.Steps[S];
  if constexpr (C == Combine::Xor)
    return W;
  else if constexpr (C == Combine::PextHw)
    return std::rotl(pextHw(W, Step.Mask), Step.Shift);
  else if constexpr (C == Combine::PextSoft)
    return std::rotl(pextSoft(W, Step.Mask), Step.Shift);
  else
    return std::rotl(A.Nets[S].apply(W), Step.Shift);
}

/// The guard residue of word \p W under window \p C: zero iff the
/// word's constant bits match.
inline uint64_t residue(const KeyPattern::WordCheck &C, uint64_t W) {
  return (W & C.Mask) ^ C.Value;
}

/// Hashes the key at \p D. Guarded also ORs the key's guard residue
/// into \p Bad. The caller has checked the key's length.
template <Combine C, bool Guarded, size_t NSteps>
inline uint64_t fixedOne(const FixedArgs &A, const char *D, uint64_t &Bad) {
  const size_t M = NSteps != 0 ? NSteps : A.M;
  uint64_t Hash = 0;
  for (size_t S = 0; S != M; ++S) {
    const uint64_t W = loadU64Le(D + A.Steps[S].Offset);
    Hash ^= combine<C>(A, S, W);
    if constexpr (Guarded)
      Bad |= residue(A.Checks[S], W);
  }
  // The early exit changes no verdict; it keeps the compiler from
  // vectorizing a loop that runs at most a few times, whose prologue
  // would otherwise land on every key.
  if constexpr (Guarded)
    for (const KeyPattern::WordCheck *X = A.Checks + M;
         X != A.ChecksEnd && Bad == 0; ++X)
      Bad |= residue(*X, loadU64Le(D + X->Offset));
  return Hash;
}

template <Combine C, size_t NSteps = 0>
uint64_t evalFixed(const HashPlan &Plan, const char *Data, size_t) {
  uint64_t Unused = 0;
  return fixedOne<C, false, NSteps>(argsOf(Plan), Data, Unused);
}

template <Block128 (*Round)(Block128, Block128)>
uint64_t evalFixedAes(const HashPlan &Plan, const char *Data, size_t Len) {
  Block128 State = AesInitState;
  State.Lo ^= Len;
  const std::vector<PlanStep> &Steps = Plan.Steps;
  size_t I = 0;
  for (; I + 1 < Steps.size(); I += 2) {
    const Block128 Chunk{loadU64Le(Data + Steps[I].Offset),
                         loadU64Le(Data + Steps[I + 1].Offset)};
    State = Round(State, Chunk);
  }
  if (I < Steps.size()) {
    // Odd number of loads: replicate the last word to fill the block,
    // the behavior that costs the Aes family a handful of collisions on
    // keys shorter than 16 bytes (Section 4.2).
    const uint64_t Last = loadU64Le(Data + Steps[I].Offset);
    State = Round(State, Block128{Last, Last});
  }
  State = Round(State, AesInitState);
  return State.Lo ^ State.Hi;
}

#if defined(SEPE_HAVE_AESNI)
/// Register-resident variant of evalFixedAes: bit-identical to the
/// template instantiated with aesEncRoundHw, but the 128-bit state stays
/// in an xmm register across rounds instead of round-tripping through
/// Block128.
uint64_t evalFixedAesNative(const HashPlan &Plan, const char *Data,
                            size_t Len) {
  const __m128i Init = _mm_set_epi64x(
      static_cast<long long>(0x13198a2e03707344ULL),
      static_cast<long long>(0x243f6a8885a308d3ULL));
  __m128i State = _mm_set_epi64x(
      static_cast<long long>(0x13198a2e03707344ULL),
      static_cast<long long>(0x243f6a8885a308d3ULL ^ Len));
  const std::vector<PlanStep> &Steps = Plan.Steps;
  size_t I = 0;
  for (; I + 1 < Steps.size(); I += 2) {
    const __m128i Chunk = _mm_set_epi64x(
        static_cast<long long>(loadU64Le(Data + Steps[I + 1].Offset)),
        static_cast<long long>(loadU64Le(Data + Steps[I].Offset)));
    State = _mm_aesenc_si128(State, Chunk);
  }
  if (I < Steps.size()) {
    const long long Last =
        static_cast<long long>(loadU64Le(Data + Steps[I].Offset));
    State = _mm_aesenc_si128(State, _mm_set_epi64x(Last, Last));
  }
  State = _mm_aesenc_si128(State, Init);
  const uint64_t Lo = static_cast<uint64_t>(_mm_cvtsi128_si64(State));
  const uint64_t Hi = static_cast<uint64_t>(
      _mm_cvtsi128_si64(_mm_unpackhi_epi64(State, State)));
  return Lo ^ Hi;
}
#endif

// --- Short forced-specialization path (RQ7) -------------------------------

uint64_t evalPartialXor(const HashPlan &Plan, const char *Data, size_t Len) {
  (void)Plan;
  return loadBytesLe(Data, Len < 8 ? Len : 8);
}

template <uint64_t (*Pext)(uint64_t, uint64_t)>
uint64_t evalPartialPext(const HashPlan &Plan, const char *Data, size_t Len) {
  const uint64_t Word = loadBytesLe(Data, Len < 8 ? Len : 8);
  return Pext(Word, Plan.Steps.front().Mask);
}

template <Block128 (*Round)(Block128, Block128)>
uint64_t evalPartialAes(const HashPlan &Plan, const char *Data, size_t Len) {
  (void)Plan;
  const uint64_t Word = loadBytesLe(Data, Len < 8 ? Len : 8);
  Block128 State = AesInitState;
  State.Lo ^= Len;
  State = Round(State, Block128{Word, Word});
  State = Round(State, AesInitState);
  return State.Lo ^ State.Hi;
}

// --- Variable-length (skip table) paths: Figure 8 -------------------------

/// Walks the skip table, handing each loaded word and then each tail
/// byte to the callbacks.
template <typename WordFn, typename ByteFn>
void walkSkipTable(const HashPlan &Plan, const char *Data, size_t Len,
                   WordFn Word, ByteFn Byte) {
  const SkipTable &Table = Plan.Skip;
  const char *P = Data;
  const char *End = Data + Len;
  if (!Table.Skip.empty()) {
    P += Table.Skip[0];
    for (size_t C = 1; C != Table.Skip.size(); ++C) {
      Word(loadU64Le(P), C - 1);
      P += Table.Skip[C];
    }
  }
  while (P < End) {
    Byte(static_cast<uint8_t>(*P));
    ++P;
  }
}

uint64_t evalVarXor(const HashPlan &Plan, const char *Data, size_t Len) {
  uint64_t Hash = Len;
  unsigned TailShift = 0;
  walkSkipTable(
      Plan, Data, Len, [&](uint64_t W, size_t) { Hash ^= W; },
      [&](uint8_t B) {
        Hash ^= std::rotl(static_cast<uint64_t>(B),
                          static_cast<int>(TailShift));
        TailShift = (TailShift + 8) & 63;
      });
  return Hash;
}

template <uint64_t (*Pext)(uint64_t, uint64_t)>
uint64_t evalVarPext(const HashPlan &Plan, const char *Data, size_t Len) {
  uint64_t Hash = Len;
  unsigned BitOffset = 0;
  unsigned TailShift = 0;
  walkSkipTable(
      Plan, Data, Len,
      [&](uint64_t W, size_t C) {
        const uint64_t Mask = Plan.Skip.Masks[C];
        Hash ^= std::rotl(Pext(W, Mask), static_cast<int>(BitOffset & 63));
        BitOffset += static_cast<unsigned>(__builtin_popcountll(Mask));
      },
      [&](uint8_t B) {
        Hash ^= std::rotl(static_cast<uint64_t>(B),
                          static_cast<int>((BitOffset + TailShift) & 63));
        TailShift = (TailShift + 8) & 63;
      });
  return Hash;
}

template <Block128 (*Round)(Block128, Block128)>
uint64_t evalVarAes(const HashPlan &Plan, const char *Data, size_t Len) {
  Block128 State = AesInitState;
  State.Lo ^= Len;
  uint64_t Pending = 0;
  bool HavePending = false;
  uint64_t TailAcc = 0;
  unsigned TailShift = 0;
  walkSkipTable(
      Plan, Data, Len,
      [&](uint64_t W, size_t) {
        if (HavePending) {
          State = Round(State, Block128{Pending, W});
          HavePending = false;
          return;
        }
        Pending = W;
        HavePending = true;
      },
      [&](uint8_t B) {
        TailAcc ^= static_cast<uint64_t>(B) << TailShift;
        TailShift = (TailShift + 8) & 63;
      });
  if (HavePending)
    State = Round(State, Block128{Pending, Pending});
  if (TailShift != 0 || TailAcc != 0)
    State = Round(State, Block128{TailAcc, Len});
  State = Round(State, AesInitState);
  return State.Lo ^ State.Hi;
}

// --- Batch evaluators -----------------------------------------------------
//
// The fixed-length batch kernels process four keys per iteration: the
// four hash states live in registers at once, so the (independent) key
// loads overlap instead of serializing behind each key's combine chain —
// the memory-level parallelism a per-key call can never expose. The
// variable-length and partial-load shapes fall back to a per-key loop
// over the already-selected single kernel; they still amortize the
// indirect call but keep one code path.

template <EvalFnT Eval>
void batchViaSingle(const HashPlan &Plan, const std::string_view *Keys,
                    uint64_t *Out, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Out[I] = Eval(Plan, Keys[I].data(), Keys[I].size());
}

/// Step cap for the kernels that precompute per-step state on the
/// stack; plans beyond it (128-byte fixed keys) take the plain paths.
constexpr size_t MaxPrecomputedSteps = 16;

/// Out[I] = the hash of Keys[I] for I in [0, N). Guarded also stores
/// each key's guard residue in Bad[I] and returns their OR. Key lengths
/// are the caller's to check.
template <Combine C, bool Guarded, size_t NSteps>
uint64_t fixedInterleaved(const FixedArgs &A, const std::string_view *Keys,
                          uint64_t *Out, uint64_t *Bad, size_t N) {
  const size_t M = NSteps != 0 ? NSteps : A.M;
  uint64_t AnyBad = 0;
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    const char *D0 = Keys[I + 0].data();
    const char *D1 = Keys[I + 1].data();
    const char *D2 = Keys[I + 2].data();
    const char *D3 = Keys[I + 3].data();
    uint64_t H0 = 0, H1 = 0, H2 = 0, H3 = 0;
    uint64_t B0 = 0, B1 = 0, B2 = 0, B3 = 0;
    for (size_t S = 0; S != M; ++S) {
      const uint32_t Off = A.Steps[S].Offset;
      // Each word dies right after its two uses, which keeps the four
      // lanes' state in registers.
      const auto Step = [&](const char *D, uint64_t &H, uint64_t &B) {
        const uint64_t W = loadU64Le(D + Off);
        H ^= combine<C>(A, S, W);
        if constexpr (Guarded)
          B |= residue(A.Checks[S], W);
      };
      Step(D0, H0, B0);
      Step(D1, H1, B1);
      Step(D2, H2, B2);
      Step(D3, H3, B3);
    }
    if constexpr (Guarded) {
      for (const KeyPattern::WordCheck *X = A.Checks + M; X != A.ChecksEnd;
           ++X) {
        B0 |= residue(*X, loadU64Le(D0 + X->Offset));
        B1 |= residue(*X, loadU64Le(D1 + X->Offset));
        B2 |= residue(*X, loadU64Le(D2 + X->Offset));
        B3 |= residue(*X, loadU64Le(D3 + X->Offset));
      }
      Bad[I + 0] = B0;
      Bad[I + 1] = B1;
      Bad[I + 2] = B2;
      Bad[I + 3] = B3;
      AnyBad |= B0 | B1 | B2 | B3;
    }
    Out[I + 0] = H0;
    Out[I + 1] = H1;
    Out[I + 2] = H2;
    Out[I + 3] = H3;
  }
  for (; I != N; ++I) {
    uint64_t B = 0;
    Out[I] = fixedOne<C, Guarded, NSteps>(A, Keys[I].data(), B);
    if constexpr (Guarded) {
      Bad[I] = B;
      AnyBad |= B;
    }
  }
  return AnyBad;
}

/// The unguarded fixed-length batch kernel. At Portable/NoBitExtract
/// the per-key pextSoft walks the mask bit by bit — tolerable for one
/// call, painful across a batch — so the PextNet variant compiles each
/// step's PextNetwork (support/bit_ops.h) once per call and every key
/// pays only the network's few shift-mask rounds. Bit-identical to
/// pextSoft by the network's contract, pinned by the batch property
/// tests.
template <Combine C, size_t NSteps = 0>
void batchFixed(const HashPlan &Plan, const std::string_view *Keys,
                uint64_t *Out, size_t N) {
  FixedArgs A = argsOf(Plan);
  if constexpr (C == Combine::PextNet) {
    PextNetwork Nets[MaxPrecomputedSteps];
    for (size_t S = 0; S != A.M; ++S)
      Nets[S] = PextNetwork::compile(A.Steps[S].Mask);
    A.Nets = Nets;
    fixedInterleaved<C, false, NSteps>(A, Keys, Out, nullptr, N);
  } else {
    fixedInterleaved<C, false, NSteps>(A, Keys, Out, nullptr, N);
  }
}

#if defined(SEPE_HAVE_AESNI)
/// Four interleaved copies of evalFixedAesNative: the AES round has a
/// multi-cycle latency but single-cycle throughput, so four independent
/// states keep the AES unit busy instead of stalling on one chain.
void batchFixedAesNative(const HashPlan &Plan, const std::string_view *Keys,
                         uint64_t *Out, size_t N) {
  const __m128i Init = _mm_set_epi64x(
      static_cast<long long>(0x13198a2e03707344ULL),
      static_cast<long long>(0x243f6a8885a308d3ULL));
  const std::vector<PlanStep> &Steps = Plan.Steps;
  const size_t M = Steps.size();
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    const char *D0 = Keys[I + 0].data();
    const char *D1 = Keys[I + 1].data();
    const char *D2 = Keys[I + 2].data();
    const char *D3 = Keys[I + 3].data();
    __m128i S0 = _mm_xor_si128(
        Init, _mm_set_epi64x(0, static_cast<long long>(Keys[I + 0].size())));
    __m128i S1 = _mm_xor_si128(
        Init, _mm_set_epi64x(0, static_cast<long long>(Keys[I + 1].size())));
    __m128i S2 = _mm_xor_si128(
        Init, _mm_set_epi64x(0, static_cast<long long>(Keys[I + 2].size())));
    __m128i S3 = _mm_xor_si128(
        Init, _mm_set_epi64x(0, static_cast<long long>(Keys[I + 3].size())));
    size_t S = 0;
    for (; S + 1 < M; S += 2) {
      const uint32_t OffLo = Steps[S].Offset;
      const uint32_t OffHi = Steps[S + 1].Offset;
      const auto Chunk = [OffLo, OffHi](const char *D) {
        return _mm_set_epi64x(
            static_cast<long long>(loadU64Le(D + OffHi)),
            static_cast<long long>(loadU64Le(D + OffLo)));
      };
      S0 = _mm_aesenc_si128(S0, Chunk(D0));
      S1 = _mm_aesenc_si128(S1, Chunk(D1));
      S2 = _mm_aesenc_si128(S2, Chunk(D2));
      S3 = _mm_aesenc_si128(S3, Chunk(D3));
    }
    if (S < M) {
      const uint32_t Off = Steps[S].Offset;
      const auto Last = [Off](const char *D) {
        const long long W = static_cast<long long>(loadU64Le(D + Off));
        return _mm_set_epi64x(W, W);
      };
      S0 = _mm_aesenc_si128(S0, Last(D0));
      S1 = _mm_aesenc_si128(S1, Last(D1));
      S2 = _mm_aesenc_si128(S2, Last(D2));
      S3 = _mm_aesenc_si128(S3, Last(D3));
    }
    S0 = _mm_aesenc_si128(S0, Init);
    S1 = _mm_aesenc_si128(S1, Init);
    S2 = _mm_aesenc_si128(S2, Init);
    S3 = _mm_aesenc_si128(S3, Init);
    const auto Fold = [](__m128i State) {
      const uint64_t Lo = static_cast<uint64_t>(_mm_cvtsi128_si64(State));
      const uint64_t Hi = static_cast<uint64_t>(
          _mm_cvtsi128_si64(_mm_unpackhi_epi64(State, State)));
      return Lo ^ Hi;
    };
    Out[I + 0] = Fold(S0);
    Out[I + 1] = Fold(S1);
    Out[I + 2] = Fold(S2);
    Out[I + 3] = Fold(S3);
  }
  for (; I != N; ++I)
    Out[I] = evalFixedAesNative(Plan, Keys[I].data(), Keys[I].size());
}
#endif

#if defined(SEPE_EXEC_AVX2)
// --- AVX2 wide batch kernels ----------------------------------------------
//
// The xor family is pure load-xor, so its wide kernel attacks the load
// count rather than the combine: runs of stride-8 step offsets collapse
// into one 32-byte (or 16-byte) load per key whose 64-bit lanes ARE the
// run's step words, cutting a 13-load INTS key to four loads. Four keys'
// accumulators then lane-reduce together through an unpack/permute
// shuffle tree (xor commutes, so no full transpose is needed) and leave
// in one vector store. Every fused load stays inside [data, data+len):
// a 32-byte load at base B is only emitted when the plan has a step at
// B+24, whose own 8-byte scalar load already reaches B+32.

/// The step's word from four keys, lane L holding key L's word.
inline __m256i gatherStep4(const char *D0, const char *D1, const char *D2,
                           const char *D3, uint32_t Off) {
  return _mm256_set_epi64x(static_cast<long long>(loadU64Le(D3 + Off)),
                           static_cast<long long>(loadU64Le(D2 + Off)),
                           static_cast<long long>(loadU64Le(D1 + Off)),
                           static_cast<long long>(loadU64Le(D0 + Off)));
}

/// Attach-once load schedule for the fused wide xor kernel: each quad
/// is a 32-byte load covering four stride-8 step offsets; a triple is
/// the same load placed one lane early (or late) with the dead lane
/// masked off; each pair a 16-byte load covering two; leftovers stay
/// 8-byte step loads.
struct WideXorSchedule {
  uint32_t QuadBase[MaxPrecomputedSteps];
  uint32_t TriLoBase[MaxPrecomputedSteps]; // steps in lanes 1-3
  uint32_t TriHiBase[MaxPrecomputedSteps]; // steps in lanes 0-2
  uint32_t PairBase[MaxPrecomputedSteps];
  uint32_t SingleOff[MaxPrecomputedSteps];
  size_t NQuads = 0;
  size_t NTriLo = 0;
  size_t NTriHi = 0;
  size_t NPairs = 0;
  size_t NSingles = 0;

  size_t loadsPerKey() const {
    return NQuads + NTriLo + NTriHi + NPairs + NSingles;
  }
};

WideXorSchedule compileWideXor(const HashPlan &Plan) {
  uint32_t Off[MaxPrecomputedSteps];
  const size_t M = Plan.Steps.size();
  for (size_t I = 0; I != M; ++I)
    Off[I] = Plan.Steps[I].Offset;
  std::sort(Off, Off + M);

  WideXorSchedule Sched;
  bool Used[MaxPrecomputedSteps] = {};
  const auto Find = [&](uint32_t Target) -> size_t {
    for (size_t I = 0; I != M; ++I)
      if (!Used[I] && Off[I] == Target)
        return I;
    return SIZE_MAX;
  };
  for (size_t I = 0; I != M; ++I) {
    if (Used[I])
      continue;
    Used[I] = true;
    const size_t A = Find(Off[I] + 8);
    if (A == SIZE_MAX) {
      Sched.SingleOff[Sched.NSingles++] = Off[I];
      continue;
    }
    const size_t B = Find(Off[I] + 16);
    const size_t C = B == SIZE_MAX ? SIZE_MAX : Find(Off[I] + 24);
    if (C != SIZE_MAX) {
      Used[A] = Used[B] = Used[C] = true;
      Sched.QuadBase[Sched.NQuads++] = Off[I];
      continue;
    }
    if (B != SIZE_MAX) {
      // Three stride-8 steps: one 32-byte load with a masked lane.
      // Base Off[I]-8 reads up to Off[I]+24, which the step at
      // Off[I]+16 already reaches; base Off[I] reads up to Off[I]+32
      // and needs the explicit length check.
      if (Off[I] >= 8) {
        Used[A] = Used[B] = true;
        Sched.TriLoBase[Sched.NTriLo++] = Off[I] - 8;
        continue;
      }
      if (Off[I] + 32 <= Plan.MaxKeyLen) {
        Used[A] = Used[B] = true;
        Sched.TriHiBase[Sched.NTriHi++] = Off[I];
        continue;
      }
    }
    Used[A] = true;
    Sched.PairBase[Sched.NPairs++] = Off[I];
  }
  return Sched;
}

void batchWideXor(const HashPlan &Plan, const std::string_view *Keys,
                  uint64_t *Out, size_t N) {
  const WideXorSchedule Sched = compileWideXor(Plan);
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    const char *D0 = Keys[I + 0].data();
    const char *D1 = Keys[I + 1].data();
    const char *D2 = Keys[I + 2].data();
    const char *D3 = Keys[I + 3].data();
    __m256i Q0 = _mm256_setzero_si256();
    __m256i Q1 = _mm256_setzero_si256();
    __m256i Q2 = _mm256_setzero_si256();
    __m256i Q3 = _mm256_setzero_si256();
    for (size_t Q = 0; Q != Sched.NQuads; ++Q) {
      const uint32_t B = Sched.QuadBase[Q];
      Q0 = _mm256_xor_si256(
          Q0, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(D0 + B)));
      Q1 = _mm256_xor_si256(
          Q1, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(D1 + B)));
      Q2 = _mm256_xor_si256(
          Q2, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(D2 + B)));
      Q3 = _mm256_xor_si256(
          Q3, _mm256_loadu_si256(reinterpret_cast<const __m256i *>(D3 + B)));
    }
    for (size_t T = 0; T != Sched.NTriLo; ++T) {
      const uint32_t B = Sched.TriLoBase[T];
      const __m256i Keep = _mm256_set_epi64x(-1, -1, -1, 0);
      Q0 = _mm256_xor_si256(
          Q0, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D0 + B))));
      Q1 = _mm256_xor_si256(
          Q1, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D1 + B))));
      Q2 = _mm256_xor_si256(
          Q2, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D2 + B))));
      Q3 = _mm256_xor_si256(
          Q3, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D3 + B))));
    }
    for (size_t T = 0; T != Sched.NTriHi; ++T) {
      const uint32_t B = Sched.TriHiBase[T];
      const __m256i Keep = _mm256_set_epi64x(0, -1, -1, -1);
      Q0 = _mm256_xor_si256(
          Q0, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D0 + B))));
      Q1 = _mm256_xor_si256(
          Q1, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D1 + B))));
      Q2 = _mm256_xor_si256(
          Q2, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D2 + B))));
      Q3 = _mm256_xor_si256(
          Q3, _mm256_and_si256(Keep, _mm256_loadu_si256(
                                         reinterpret_cast<const __m256i *>(
                                             D3 + B))));
    }
    for (size_t P = 0; P != Sched.NPairs; ++P) {
      const uint32_t B = Sched.PairBase[P];
      Q0 = _mm256_xor_si256(
          Q0, _mm256_zextsi128_si256(
                  _mm_loadu_si128(reinterpret_cast<const __m128i *>(D0 + B))));
      Q1 = _mm256_xor_si256(
          Q1, _mm256_zextsi128_si256(
                  _mm_loadu_si128(reinterpret_cast<const __m128i *>(D1 + B))));
      Q2 = _mm256_xor_si256(
          Q2, _mm256_zextsi128_si256(
                  _mm_loadu_si128(reinterpret_cast<const __m128i *>(D2 + B))));
      Q3 = _mm256_xor_si256(
          Q3, _mm256_zextsi128_si256(
                  _mm_loadu_si128(reinterpret_cast<const __m128i *>(D3 + B))));
    }
    // Reduce all four keys' lanes at once: unpack pairs the lanes of
    // two keys so one xor folds halves, the cross-half permute folds
    // the rest, and the result vector is already in key order.
    const __m256i R = _mm256_xor_si256(_mm256_unpacklo_epi64(Q0, Q1),
                                       _mm256_unpackhi_epi64(Q0, Q1));
    const __m256i S = _mm256_xor_si256(_mm256_unpacklo_epi64(Q2, Q3),
                                       _mm256_unpackhi_epi64(Q2, Q3));
    __m256i H = _mm256_xor_si256(_mm256_permute2x128_si256(R, S, 0x20),
                                 _mm256_permute2x128_si256(R, S, 0x31));
    for (size_t S2 = 0; S2 != Sched.NSingles; ++S2)
      H = _mm256_xor_si256(H, gatherStep4(D0, D1, D2, D3,
                                          Sched.SingleOff[S2]));
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(Out + I), H);
  }
  for (; I != N; ++I)
    Out[I] = evalFixed<Combine::Xor>(Plan, Keys[I].data(), Keys[I].size());
}
#endif // SEPE_EXEC_AVX2

// --- Kernel selection helpers ---------------------------------------------
//
// The attach-time "compilation": pick the fused instantiation matching
// the plan's step count (paper formats have 1-4 loads) or the generic
// runtime-count kernel beyond that.

/// Returns \p Make's kernel for a plan of \p M steps: Make receives the
/// step count as a std::integral_constant, 1-4 for the fused
/// instantiations and 0 (the generic runtime-count kernel) otherwise.
template <typename MakeFn> auto byStepCount(size_t M, MakeFn Make) {
  switch (M) {
  case 1:
    return Make(std::integral_constant<size_t, 1>{});
  case 2:
    return Make(std::integral_constant<size_t, 2>{});
  case 3:
    return Make(std::integral_constant<size_t, 3>{});
  case 4:
    return Make(std::integral_constant<size_t, 4>{});
  default:
    return Make(std::integral_constant<size_t, 0>{});
  }
}

/// The kernels of a fixed-length plan of \p M steps that combine as
/// \p C: the single-key kernel, the per-key loop over it, and the
/// interleaved batch kernel.
template <Combine C> EvalFnT fixedEval(size_t M) {
  return byStepCount(M, [](auto S) -> EvalFnT { return evalFixed<C, S>; });
}
template <Combine C> BatchFnT fixedScalarBatch(size_t M) {
  return byStepCount(
      M, [](auto S) -> BatchFnT { return batchViaSingle<evalFixed<C, S>>; });
}
template <Combine C> BatchFnT fixedBatch(size_t M) {
  return byStepCount(M, [](auto S) -> BatchFnT { return batchFixed<C, S>; });
}

} // namespace

const char *sepe::batchPathName(BatchPath Path) {
  switch (Path) {
  case BatchPath::Auto:
    return "auto";
  case BatchPath::Scalar:
    return "scalar";
  case BatchPath::Interleaved:
    return "interleaved";
  case BatchPath::Avx2:
    return "avx2";
  case BatchPath::Jit:
    return "jit";
  }
  unreachable("covered enum");
}

SynthesizedHash::EvalFn SynthesizedHash::selectEval(const HashPlan &Plan,
                                                    IsaLevel Isa) {
  if (Plan.FallbackToStl)
    return evalFallback;

  // pext hardware is available only at Native; AES hardware also at
  // NoBitExtract (the Jetson's situation).
  const bool HwPext = Isa == IsaLevel::Native;
  const bool Hw = Isa != IsaLevel::Portable;
  if (Plan.PartialLoad) {
    switch (Plan.Family) {
    case HashFamily::Naive:
    case HashFamily::OffXor:
      return evalPartialXor;
    case HashFamily::Pext:
      return HwPext ? evalPartialPext<pextHw> : evalPartialPext<pextSoft>;
    case HashFamily::Aes:
      return Hw ? evalPartialAes<aesEncRoundHw>
                : evalPartialAes<aesEncRoundSoft>;
    }
  }

  if (Plan.FixedLength) {
    const size_t M = Plan.Steps.size();
    switch (Plan.Family) {
    case HashFamily::Naive:
    case HashFamily::OffXor:
      return fixedEval<Combine::Xor>(M);
    case HashFamily::Pext:
      return HwPext ? fixedEval<Combine::PextHw>(M)
                    : fixedEval<Combine::PextSoft>(M);
    case HashFamily::Aes:
#if defined(SEPE_HAVE_AESNI)
      if (Hw)
        return evalFixedAesNative;
#endif
      return Hw ? evalFixedAes<aesEncRoundHw>
                : evalFixedAes<aesEncRoundSoft>;
    }
  }

  switch (Plan.Family) {
  case HashFamily::Naive:
  case HashFamily::OffXor:
    return evalVarXor;
  case HashFamily::Pext:
    return HwPext ? evalVarPext<pextHw> : evalVarPext<pextSoft>;
  case HashFamily::Aes:
    return Hw ? evalVarAes<aesEncRoundHw> : evalVarAes<aesEncRoundSoft>;
  }
  unreachable("all plan shapes handled above");
}

SynthesizedHash::BatchChoice
SynthesizedHash::selectBatch(const HashPlan &Plan, IsaLevel Isa,
                             BatchPath Preferred) {
  // The degenerate shapes only have the per-key loop; any preference
  // resolves to Scalar.
  if (Plan.FallbackToStl)
    return {batchViaSingle<evalFallback>, BatchPath::Scalar};

  const bool HwPext = Isa == IsaLevel::Native;
  const bool Hw = Isa != IsaLevel::Portable;
  if (Plan.PartialLoad) {
    switch (Plan.Family) {
    case HashFamily::Naive:
    case HashFamily::OffXor:
      return {batchViaSingle<evalPartialXor>, BatchPath::Scalar};
    case HashFamily::Pext:
      return {HwPext ? batchViaSingle<evalPartialPext<pextHw>>
                     : batchViaSingle<evalPartialPext<pextSoft>>,
              BatchPath::Scalar};
    case HashFamily::Aes:
      return {Hw ? batchViaSingle<evalPartialAes<aesEncRoundHw>>
                 : batchViaSingle<evalPartialAes<aesEncRoundSoft>>,
              BatchPath::Scalar};
    }
  }

  if (Plan.FixedLength) {
    const size_t M = Plan.Steps.size();
    // A forced Scalar batch over a fixed-length plan loops the same
    // step-specialized single-key kernel the per-key operator uses, so
    // sepedriver's scalar-vs-interleaved-vs-avx2 comparison isolates
    // kernel width rather than step-loop overhead.
    if (Preferred == BatchPath::Scalar) {
      switch (Plan.Family) {
      case HashFamily::Naive:
      case HashFamily::OffXor:
        return {fixedScalarBatch<Combine::Xor>(M), BatchPath::Scalar};
      case HashFamily::Pext:
        return {HwPext ? fixedScalarBatch<Combine::PextHw>(M)
                       : fixedScalarBatch<Combine::PextSoft>(M),
                BatchPath::Scalar};
      case HashFamily::Aes:
#if defined(SEPE_HAVE_AESNI)
        if (Hw)
          return {batchViaSingle<evalFixedAesNative>, BatchPath::Scalar};
#endif
        return {Hw ? batchViaSingle<evalFixedAes<aesEncRoundHw>>
                   : batchViaSingle<evalFixedAes<aesEncRoundSoft>>,
                BatchPath::Scalar};
      }
    }

#if defined(SEPE_EXEC_AVX2)
    // The wide rung: compiled in, requested (Auto or Avx2), ISA ceiling
    // at Native, host CPU confirms AVX2 at runtime, the plan's step
    // state fits the precomputed tables, and an xor family. Under Auto
    // the rung only takes plans whose stride-8 offset runs fuse into
    // fewer loads (the kernels are load-bound, so a wide combine alone
    // merely ties the interleaved rung); a full quad is what amortizes
    // the kernel's shuffle-reduce tree, so plans that only fuse
    // pairs/triples stay interleaved. Pext has no wide kernel — one-cycle
    // hardware pext already beats any lane network — and Aes stays on the
    // interleaved AES-NI kernel, whose sequential 128-bit rounds don't
    // widen onto 64-bit lanes; a forced Avx2 on either lands below.
    if ((Preferred == BatchPath::Auto || Preferred == BatchPath::Avx2) &&
        (Plan.Family == HashFamily::Naive ||
         Plan.Family == HashFamily::OffXor) &&
        Isa == IsaLevel::Native && M <= MaxPrecomputedSteps &&
        avx2BatchAvailable() &&
        (Preferred == BatchPath::Avx2 || compileWideXor(Plan).NQuads != 0))
      return {batchWideXor, BatchPath::Avx2};
#endif

    // The interleaved rung (also where an unhonorable Avx2 request
    // lands). The soft-pext arm runs the compaction-network kernel so
    // Portable/NoBitExtract batches skip the bit-at-a-time loop.
    switch (Plan.Family) {
    case HashFamily::Naive:
    case HashFamily::OffXor:
      return {fixedBatch<Combine::Xor>(M), BatchPath::Interleaved};
    case HashFamily::Pext:
      if (HwPext)
        return {fixedBatch<Combine::PextHw>(M), BatchPath::Interleaved};
      return {M <= MaxPrecomputedSteps ? fixedBatch<Combine::PextNet>(M)
                                       : fixedBatch<Combine::PextSoft>(M),
              BatchPath::Interleaved};
    case HashFamily::Aes:
#if defined(SEPE_HAVE_AESNI)
      if (Hw)
        return {batchFixedAesNative, BatchPath::Interleaved};
#endif
      return {Hw ? batchViaSingle<evalFixedAes<aesEncRoundHw>>
                 : batchViaSingle<evalFixedAes<aesEncRoundSoft>>,
              BatchPath::Scalar};
    }
  }

  switch (Plan.Family) {
  case HashFamily::Naive:
  case HashFamily::OffXor:
    return {batchViaSingle<evalVarXor>, BatchPath::Scalar};
  case HashFamily::Pext:
    return {HwPext ? batchViaSingle<evalVarPext<pextHw>>
                   : batchViaSingle<evalVarPext<pextSoft>>,
            BatchPath::Scalar};
  case HashFamily::Aes:
    return {Hw ? batchViaSingle<evalVarAes<aesEncRoundHw>>
               : batchViaSingle<evalVarAes<aesEncRoundSoft>>,
            BatchPath::Scalar};
  }
  unreachable("all plan shapes handled above");
}

namespace sepe {

/// The two entries of a GuardedHash, in one of three shapes: fused
/// (fixed-length Naive, OffXor and Pext plans whose loads lie inside
/// the pattern's length, by combine and step count), two-pass (every
/// other plan), or pattern-only (no hash).
struct GuardedKernels {
  static FixedArgs args(const GuardedHash &G) {
    return {G.Steps, G.Hash.plan().Steps.size(), G.Checks.data(),
            std::to_address(G.Checks.end()), G.Nets.data()};
  }

  template <Combine C, size_t NSteps>
  static GuardedHash::Verdict fusedOne(const GuardedHash &G, const char *D,
                                       size_t Len) {
    if (Len != G.KeyLen)
      return {0, false};
    uint64_t Bad = 0;
    const uint64_t Image = fixedOne<C, true, NSteps>(args(G), D, Bad);
    return {Image, Bad == 0};
  }

  /// Branch-free on a clean stream: per-key residues go to a side array
  /// and one chunk-level OR, so the guard costs an AND, an XOR and an OR
  /// on each word the hash loads anyway plus one predictable branch per
  /// chunk. Key lengths are swept per chunk before any plan-offset
  /// load: a wrong-length key must not be loaded at the plan's offsets,
  /// so a chunk holding one (rare under drift, impossible on a steady
  /// stream) takes its keys one at a time.
  template <Combine C, size_t NSteps>
  static size_t fusedBatch(const GuardedHash &G, const std::string_view *Keys,
                           uint64_t *Out, size_t N, uint32_t *MissIdx) {
    const FixedArgs A = args(G);
    const size_t Len = G.KeyLen;
    constexpr size_t Chunk = 64;
    uint64_t Bad[Chunk];
    size_t Misses = 0;
    for (size_t Base = 0; Base < N; Base += Chunk) {
      const size_t Count = std::min(Chunk, N - Base);
      const std::string_view *K = Keys + Base;
      uint64_t AnyBad = 0;
      for (size_t I = 0; I != Count; ++I)
        AnyBad |= K[I].size() ^ Len;
      if (AnyBad == 0) {
        AnyBad =
            fixedInterleaved<C, true, NSteps>(A, K, Out + Base, Bad, Count);
      } else {
        for (size_t I = 0; I != Count; ++I) {
          Bad[I] = K[I].size() ^ Len;
          if (Bad[I] == 0)
            Out[Base + I] = fixedOne<C, true, NSteps>(A, K[I].data(), Bad[I]);
        }
      }
      if (AnyBad != 0)
        for (size_t I = 0; I != Count; ++I)
          if (Bad[I] != 0)
            MissIdx[Misses++] = static_cast<uint32_t>(Base + I);
    }
    return Misses;
  }

  static GuardedHash::Verdict twoPassOne(const GuardedHash &G, const char *D,
                                         size_t Len) {
    const std::string_view Key(D, Len);
    if (!G.Pattern.matches(Key))
      return {0, false};
    return {G.Hash.valid() ? G.Hash(Key) : 0, true};
  }

  /// A membership sweep per block, then the hash's batch kernel over the
  /// admitted keys: in place when the whole block is admitted, compacted
  /// otherwise, so the batch kernel still runs wide.
  static size_t twoPassBatch(const GuardedHash &G, const std::string_view *Keys,
                             uint64_t *Out, size_t N, uint32_t *MissIdx) {
    // Stack-block size mirrors FlatIndexMap::insertBatch: big enough to
    // amortize the per-call dispatch, small enough to stay in L1.
    constexpr size_t Block = 256;
    uint8_t Admit[Block];
    std::string_view Pass[Block];
    uint64_t PassOut[Block];
    uint32_t PassIdx[Block];
    size_t Misses = 0;
    for (size_t Base = 0; Base < N; Base += Block) {
      const size_t Count = std::min(Block, N - Base);
      if (G.Pattern.matchesBatch(Keys + Base, Admit, Count) == Count) {
        hashAdmitted(G, Keys + Base, Out + Base, Count);
        continue;
      }
      size_t P = 0;
      for (size_t I = 0; I != Count; ++I) {
        if (Admit[I]) {
          Pass[P] = Keys[Base + I];
          PassIdx[P] = static_cast<uint32_t>(Base + I);
          ++P;
        } else {
          MissIdx[Misses++] = static_cast<uint32_t>(Base + I);
        }
      }
      if (P != 0) {
        hashAdmitted(G, Pass, PassOut, P);
        for (size_t I = 0; I != P; ++I)
          Out[PassIdx[I]] = PassOut[I];
      }
    }
    return Misses;
  }

  static void hashAdmitted(const GuardedHash &G, const std::string_view *Keys,
                           uint64_t *Out, size_t N) {
    if (G.Hash.valid())
      G.Hash.hashBatch(Keys, Out, N);
    else
      std::fill_n(Out, N, 0);
  }

  /// Compiles \p G's pattern against its plan's load schedule and
  /// selects the fused entries, when the plan's shape allows.
  static void fuse(GuardedHash &G) {
    if (!G.Hash.valid())
      return;
    const HashPlan &Plan = G.Hash.plan();
    if (Plan.FallbackToStl || Plan.PartialLoad || !Plan.FixedLength ||
        Plan.Family == HashFamily::Aes)
      return;
    const KeyPattern &P = G.Pattern;
    if (!P.isFixedLength() || P.maxLength() < 8)
      return;
    const size_t Len = P.maxLength();
    for (const PlanStep &S : Plan.Steps)
      if (S.Offset + 8 > Len)
        return; // The plan loads outside the guarded length.

    // Express the pattern's constant bits on the windows the kernel
    // loads.
    std::vector<bool> Covered(Len, false);
    for (const PlanStep &S : Plan.Steps) {
      G.Checks.push_back(P.packWindow(S.Offset));
      std::fill_n(Covered.begin() + S.Offset, 8, true);
    }
    // Constant positions the hash never loads (e.g. the URL formats'
    // literal prefix, which the synthesizer's skip table elides) get
    // standalone windows, clamped so they never read past the key.
    for (size_t Pos = 0; Pos != Len; ++Pos) {
      if (Covered[Pos] || P.byteAt(Pos).constMask() == 0)
        continue;
      const size_t Offset = std::min(Pos, Len - 8);
      G.Checks.push_back(P.packWindow(Offset));
      std::fill_n(Covered.begin() + Offset, 8, true);
    }
    G.KeyLen = Len;
    G.Steps = Plan.Steps.data();

    const size_t M = Plan.Steps.size();
    if (Plan.Family != HashFamily::Pext)
      return select<Combine::Xor>(G, M);
    if (G.Hash.isa() == IsaLevel::Native && hasHardwarePext())
      return select<Combine::PextHw>(G, M);
    for (const PlanStep &S : Plan.Steps)
      G.Nets.push_back(PextNetwork::compile(S.Mask));
    select<Combine::PextNet>(G, M);
  }

  template <Combine C> static void select(GuardedHash &G, size_t M) {
    G.One = byStepCount(
        M, [](auto S) -> GuardedHash::OneFn { return fusedOne<C, S>; });
    G.Batch = byStepCount(
        M, [](auto S) -> GuardedHash::BatchFn { return fusedBatch<C, S>; });
  }
};

} // namespace sepe

GuardedHash::GuardedHash(SynthesizedHash HashIn, KeyPattern PatternIn)
    : One(GuardedKernels::twoPassOne), Batch(GuardedKernels::twoPassBatch),
      Hash(std::move(HashIn)), Pattern(std::move(PatternIn)) {
  GuardedKernels::fuse(*this);
}

SynthesizedHash::SynthesizedHash(std::shared_ptr<const HashPlan> Plan,
                                 IsaLevel Isa, BatchPath Preferred)
    : Plan(std::move(Plan)), Isa(Isa) {
  assert(this->Plan && "SynthesizedHash requires a plan");
  Eval = selectEval(*this->Plan, Isa);
  // A Jit preference resolves through the interpreted ladder first (as
  // if Auto) so an unhonorable request lands on the same rung Auto
  // would pick; the takeover below then upgrades to compiled code when
  // host and shape allow.
  const BatchPath Want =
      Preferred == BatchPath::Jit ? BatchPath::Auto : Preferred;
  const BatchChoice Choice = selectBatch(*this->Plan, Isa, Want);
  Batch = Choice.Fn;
  Resolved = Choice.Path;
  // The JIT rung. Gated on the request (Auto or an explicit Jit pin —
  // a forced interpreted rung must stay interpreted, the property
  // tests use it as the reference), the IsaLevel ceiling, the runtime
  // cpuid gate, and the plan shape. Under Auto the AVX2 quad-xor
  // wins are kept (the wide kernel's fused loads beat four scalar
  // lanes); an explicit Jit pin overrides them. compileJitProgram can
  // still refuse (mmap denied), in which case the interpreted choice
  // above simply stands — the fallback lane is always attached first.
  if ((Preferred == BatchPath::Auto || Preferred == BatchPath::Jit) &&
      Isa == IsaLevel::Native && jitAvailable() &&
      jitSupportsPlan(*this->Plan) &&
      (Preferred == BatchPath::Jit || Resolved != BatchPath::Avx2)) {
    if (std::shared_ptr<const JitProgram> Prog =
            compileJitProgram(*this->Plan)) {
      Jit = std::move(Prog);
      Eval = Jit->eval();
      Batch = Jit->batch();
      Resolved = BatchPath::Jit;
      SEPE_EVENT("jit.register", 0, Jit->codeBytes());
    }
  }
#if defined(SEPE_TELEMETRY)
  // Attach-time kernel selection: how often each rung wins, and how
  // often a non-Auto request could not be honored as asked (resolved
  // downward by plan shape, ISA ceiling, or missing host support).
  SEPE_COUNT("executor.attach.total");
  switch (Resolved) {
  case BatchPath::Auto:
    break; // Resolved is never Auto.
  case BatchPath::Scalar:
    SEPE_COUNT("executor.attach.batch_path.scalar");
    break;
  case BatchPath::Interleaved:
    SEPE_COUNT("executor.attach.batch_path.interleaved");
    break;
  case BatchPath::Avx2:
    SEPE_COUNT("executor.attach.batch_path.avx2");
    break;
  case BatchPath::Jit:
    SEPE_COUNT("executor.attach.batch_path.jit");
    break;
  }
  if (Preferred != BatchPath::Auto && Preferred != Resolved)
    SEPE_COUNT("executor.attach.request_downgraded");
#endif
}
