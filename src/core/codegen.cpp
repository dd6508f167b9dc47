//===- core/codegen.cpp - Emit C++ source for a HashPlan -----------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "core/codegen.h"

#include "hashes/aes_round.h"
#include "support/telemetry.h"

#include <cassert>
#include <cstdio>

using namespace sepe;

namespace {

std::string hex64(uint64_t Value) {
  char Buffer[32];
  std::snprintf(Buffer, sizeof(Buffer), "0x%016llxULL",
                static_cast<unsigned long long>(Value));
  return Buffer;
}

std::string defaultName(const HashPlan &Plan) {
  return std::string("Sepe") + familyName(Plan.Family) + "Hash";
}

void emitLine(std::string &Out, int Indent, const std::string &Line) {
  Out.append(static_cast<size_t>(Indent) * 2, ' ');
  Out += Line;
  Out += '\n';
}

/// The pext expression for one load at the given source offset.
std::string pextExpr(Target Isa, const std::string &LoadExpr,
                     uint64_t Mask) {
  if (Isa == Target::X86)
    return "_pext_u64(" + LoadExpr + ", " + hex64(Mask) + ")";
  // aarch64 (no bext on the paper's Jetson) and portable targets use the
  // software bit gather from the preamble.
  return "sepe_pext_soft(" + LoadExpr + ", " + hex64(Mask) + ")";
}

void emitFixedXorBody(std::string &Out, const HashPlan &Plan, Target Isa) {
  emitLine(Out, 2, "uint64_t Hash = 0;");
  const bool UsesPext = Plan.Family == HashFamily::Pext;
  for (const PlanStep &S : Plan.Steps) {
    const std::string Load =
        "sepe_load_u64(Ptr + " + std::to_string(S.Offset) + ")";
    std::string Expr = UsesPext ? pextExpr(Isa, Load, S.Mask) : Load;
    // Rotation (not shift) so chunks beyond 64 packed bits wrap around
    // instead of being truncated; identical to Figure 12's shift when
    // the chunk fits.
    if (UsesPext && S.Shift != 0)
      Expr = "sepe_rotl(" + Expr + ", " + std::to_string(S.Shift) + ")";
    emitLine(Out, 2, "Hash ^= " + Expr + ";");
  }
  emitLine(Out, 2, "return Hash;");
}

void emitFixedAesBody(std::string &Out, const HashPlan &Plan) {
  emitLine(Out, 2, "SepeBlock State = sepe_aes_init(Key.size());");
  size_t I = 0;
  for (; I + 1 < Plan.Steps.size(); I += 2) {
    const std::string C0 =
        "sepe_load_u64(Ptr + " + std::to_string(Plan.Steps[I].Offset) + ")";
    const std::string C1 = "sepe_load_u64(Ptr + " +
                           std::to_string(Plan.Steps[I + 1].Offset) + ")";
    emitLine(Out, 2,
             "State = sepe_aesenc(State, sepe_make_block(" + C0 + ", " + C1 +
                 "));");
  }
  if (I < Plan.Steps.size()) {
    const std::string C = "sepe_load_u64(Ptr + " +
                          std::to_string(Plan.Steps[I].Offset) + ")";
    emitLine(Out, 2, "const uint64_t Last = " + C + ";");
    emitLine(Out, 2,
             "State = sepe_aesenc(State, sepe_make_block(Last, Last));");
  }
  emitLine(Out, 2, "return sepe_aes_fold(State);");
}

void emitPartialBody(std::string &Out, const HashPlan &Plan, Target Isa) {
  emitLine(Out, 2, "const uint64_t Word = sepe_load_bytes(Ptr, Key.size());");
  switch (Plan.Family) {
  case HashFamily::Naive:
  case HashFamily::OffXor:
    emitLine(Out, 2, "return Word;");
    return;
  case HashFamily::Pext:
    emitLine(Out, 2,
             "return " +
                 pextExpr(Isa, "Word", Plan.Steps.front().Mask) + ";");
    return;
  case HashFamily::Aes:
    emitLine(Out, 2, "SepeBlock State = sepe_aes_init(Key.size());");
    emitLine(Out, 2,
             "State = sepe_aesenc(State, sepe_make_block(Word, Word));");
    emitLine(Out, 2, "return sepe_aes_fold(State);");
    return;
  }
}

void emitSkipArrays(std::string &Out, const HashPlan &Plan) {
  std::string Skips = "static constexpr size_t Skip[] = {";
  for (size_t I = 0; I != Plan.Skip.Skip.size(); ++I) {
    if (I != 0)
      Skips += ", ";
    Skips += std::to_string(Plan.Skip.Skip[I]);
  }
  Skips += "};";
  emitLine(Out, 2, Skips);
  if (Plan.Family == HashFamily::Pext) {
    std::string Masks = "static constexpr uint64_t Mask[] = {";
    for (size_t I = 0; I != Plan.Skip.Masks.size(); ++I) {
      if (I != 0)
        Masks += ", ";
      Masks += hex64(Plan.Skip.Masks[I]);
    }
    Masks += "};";
    emitLine(Out, 2, Masks);
  }
}

void emitVariableAesBody(std::string &Out, const HashPlan &Plan);

/// The pext call with a runtime mask expression (variable-length loop).
std::string pextCall(Target Isa, const std::string &LoadExpr,
                     const std::string &MaskExpr) {
  if (Isa == Target::X86)
    return "_pext_u64(" + LoadExpr + ", " + MaskExpr + ")";
  return "sepe_pext_soft(" + LoadExpr + ", " + MaskExpr + ")";
}

/// Variable-length body following the shape of Figure 8: skip-table
/// driven word loop plus a byte-at-a-time tail.
void emitVariableBody(std::string &Out, const HashPlan &Plan, Target Isa) {
  const size_t LoadCount = Plan.Skip.loadCount();
  if (Plan.Family == HashFamily::Aes) {
    emitVariableAesBody(Out, Plan);
    return;
  }
  emitLine(Out, 2, "uint64_t Hash = Key.size();");
  if (Plan.Family == HashFamily::Pext)
    emitLine(Out, 2, "unsigned BitOffset = 0;");
  if (LoadCount != 0) {
    emitSkipArrays(Out, Plan);
    emitLine(Out, 2, "Ptr += Skip[0];");
    if (Plan.Family == HashFamily::Pext) {
      emitLine(Out, 2,
               "for (size_t C = 0; C != " + std::to_string(LoadCount) +
                   "; ++C) {");
      emitLine(Out, 3,
               "Hash ^= sepe_rotl(" +
                   pextCall(Isa, "sepe_load_u64(Ptr)", "Mask[C]") +
                   ", BitOffset & 63);");
      emitLine(Out, 3,
               "BitOffset += (unsigned)__builtin_popcountll(Mask[C]);");
      emitLine(Out, 3, "Ptr += Skip[C + 1];");
      emitLine(Out, 2, "}");
    } else {
      emitLine(Out, 2,
               "for (size_t C = 0; C != " + std::to_string(LoadCount) +
                   "; ++C) {");
      emitLine(Out, 3, "Hash ^= sepe_load_u64(Ptr);");
      emitLine(Out, 3, "Ptr += Skip[C + 1];");
      emitLine(Out, 2, "}");
    }
  }
  emitLine(Out, 2, "const char *End = Key.data() + Key.size();");
  if (Plan.Family == HashFamily::Pext)
    emitLine(Out, 2, "unsigned TailShift = BitOffset;");
  else
    emitLine(Out, 2, "unsigned TailShift = 0;");
  emitLine(Out, 2, "while (Ptr < End) {");
  emitLine(Out, 3, "Hash ^= sepe_rotl((uint64_t)(unsigned char)*Ptr, "
                   "TailShift & 63);");
  emitLine(Out, 3, "TailShift += 8;");
  emitLine(Out, 3, "++Ptr;");
  emitLine(Out, 2, "}");
  emitLine(Out, 2, "return Hash;");
}

void emitVariableAesBody(std::string &Out, const HashPlan &Plan) {
  const size_t LoadCount = Plan.Skip.loadCount();
  emitLine(Out, 2, "SepeBlock State = sepe_aes_init(Key.size());");
  emitLine(Out, 2, "uint64_t Pending = 0;");
  emitLine(Out, 2, "bool HavePending = false;");
  if (LoadCount != 0) {
    emitSkipArrays(Out, Plan);
    emitLine(Out, 2, "Ptr += Skip[0];");
    emitLine(Out, 2,
             "for (size_t C = 0; C != " + std::to_string(LoadCount) +
                 "; ++C) {");
    emitLine(Out, 3, "const uint64_t W = sepe_load_u64(Ptr);");
    emitLine(Out, 3, "if (HavePending) {");
    emitLine(Out, 4,
             "State = sepe_aesenc(State, sepe_make_block(Pending, W));");
    emitLine(Out, 4, "HavePending = false;");
    emitLine(Out, 3, "} else {");
    emitLine(Out, 4, "Pending = W;");
    emitLine(Out, 4, "HavePending = true;");
    emitLine(Out, 3, "}");
    emitLine(Out, 3, "Ptr += Skip[C + 1];");
    emitLine(Out, 2, "}");
  }
  emitLine(Out, 2, "const char *End = Key.data() + Key.size();");
  emitLine(Out, 2, "uint64_t TailAcc = 0;");
  emitLine(Out, 2, "unsigned TailShift = 0;");
  emitLine(Out, 2, "while (Ptr < End) {");
  emitLine(Out, 3,
           "TailAcc ^= (uint64_t)(unsigned char)*Ptr << (TailShift & 63);");
  emitLine(Out, 3, "TailShift += 8;");
  emitLine(Out, 3, "++Ptr;");
  emitLine(Out, 2, "}");
  emitLine(Out, 2, "if (HavePending)");
  emitLine(Out, 3,
           "State = sepe_aesenc(State, sepe_make_block(Pending, Pending));");
  emitLine(Out, 2, "if (TailShift != 0 || TailAcc != 0)");
  emitLine(Out, 3, "State = sepe_aesenc(State, "
                   "sepe_make_block(TailAcc, Key.size()));");
  emitLine(Out, 2, "return sepe_aes_fold(State);");
}

} // namespace

const char *sepe::targetName(Target T) {
  switch (T) {
  case Target::X86:
    return "x86";
  case Target::AArch64:
    return "aarch64";
  case Target::Portable:
    return "portable";
  }
  return "<invalid>";
}

std::string sepe::emitPreamble(Target Isa) {
  std::string Out;
  Out += "// Generated by sepe keysynth; target: ";
  Out += targetName(Isa);
  Out += "\n#ifndef SEPE_GENERATED_PREAMBLE\n#define "
         "SEPE_GENERATED_PREAMBLE\n";
  Out += "#include <cstddef>\n#include <cstdint>\n#include <cstring>\n"
         "#include <string>\n";
  if (Isa == Target::X86)
    Out += "#include <immintrin.h>\n";
  if (Isa == Target::AArch64)
    Out += "#include <arm_neon.h>\n";

  Out += R"(
static inline uint64_t sepe_load_u64(const char *P) {
  uint64_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}
static inline uint64_t sepe_load_bytes(const char *P, size_t N) {
  uint64_t V = 0;
  for (size_t I = 0; I < N && I < 8; ++I)
    V |= (uint64_t)(unsigned char)P[I] << (8 * I);
  return V;
}
static inline uint64_t sepe_pext_soft(uint64_t Src, uint64_t Mask) {
  uint64_t Dst = 0;
  for (unsigned K = 0; Mask != 0; Mask &= Mask - 1, ++K)
    if (Src & (Mask & -Mask))
      Dst |= (uint64_t)1 << K;
  return Dst;
}
static inline uint64_t sepe_rotl(uint64_t V, unsigned S) {
  return S == 0 ? V : (V << S) | (V >> (64 - S));
}
)";

  if (Isa == Target::X86) {
    Out += R"(
typedef __m128i SepeBlock;
static inline SepeBlock sepe_make_block(uint64_t Lo, uint64_t Hi) {
  return _mm_set_epi64x((long long)Hi, (long long)Lo);
}
static inline SepeBlock sepe_aes_init(size_t Len) {
  return sepe_make_block(0x243f6a8885a308d3ULL ^ Len, 0x13198a2e03707344ULL);
}
static inline SepeBlock sepe_aesenc(SepeBlock State, SepeBlock Chunk) {
  return _mm_aesenc_si128(State, Chunk);
}
static inline uint64_t sepe_aes_fold(SepeBlock FinalState) {
  SepeBlock State = _mm_aesenc_si128(FinalState, sepe_aes_init(0));
  const uint64_t Lo = (uint64_t)_mm_cvtsi128_si64(State);
  const uint64_t Hi = (uint64_t)_mm_cvtsi128_si64(
      _mm_unpackhi_epi64(State, State));
  return Lo ^ Hi;
}
)";
  } else if (Isa == Target::AArch64) {
    // AESE xors the round key before SubBytes/ShiftRows, so x86's aesenc
    // is AESMC(AESE(State, 0)) ^ Chunk.
    Out += R"(
typedef uint8x16_t SepeBlock;
static inline SepeBlock sepe_make_block(uint64_t Lo, uint64_t Hi) {
  const uint64x2_t V = {Lo, Hi};
  return vreinterpretq_u8_u64(V);
}
static inline SepeBlock sepe_aes_init(size_t Len) {
  return sepe_make_block(0x243f6a8885a308d3ULL ^ Len, 0x13198a2e03707344ULL);
}
static inline SepeBlock sepe_aesenc(SepeBlock State, SepeBlock Chunk) {
  return veorq_u8(vaesmcq_u8(vaeseq_u8(State, vdupq_n_u8(0))), Chunk);
}
static inline uint64_t sepe_aes_fold(SepeBlock FinalState) {
  const SepeBlock State = sepe_aesenc(FinalState, sepe_aes_init(0));
  const uint64x2_t V = vreinterpretq_u64_u8(State);
  return vgetq_lane_u64(V, 0) ^ vgetq_lane_u64(V, 1);
}
)";
  } else {
    Out += R"(
struct SepeBlock { uint64_t Lo, Hi; };
static inline SepeBlock sepe_make_block(uint64_t Lo, uint64_t Hi) {
  return SepeBlock{Lo, Hi};
}
static inline SepeBlock sepe_aes_init(size_t Len) {
  return SepeBlock{0x243f6a8885a308d3ULL ^ Len, 0x13198a2e03707344ULL};
}
// Portable single AES round (SubBytes, ShiftRows, MixColumns, xor key).
static inline unsigned char sepe_gmul2(unsigned char X) {
  return (unsigned char)((X << 1) ^ ((X & 0x80) ? 0x1b : 0));
}
@SEPE_SBOX_TABLE@
static inline SepeBlock sepe_aesenc(SepeBlock State, SepeBlock Chunk) {
  unsigned char In[16], Sh[16], Mx[16];
  std::memcpy(In, &State.Lo, 8);
  std::memcpy(In + 8, &State.Hi, 8);
  for (int Col = 0; Col != 4; ++Col)
    for (int Row = 0; Row != 4; ++Row)
      Sh[Row + 4 * Col] = SepeAesSBox[In[Row + 4 * ((Col + Row) % 4)]];
  for (int Col = 0; Col != 4; ++Col) {
    const unsigned char *C = Sh + 4 * Col;
    unsigned char *M = Mx + 4 * Col;
    M[0] = (unsigned char)(sepe_gmul2(C[0]) ^ sepe_gmul2(C[1]) ^ C[1] ^
                           C[2] ^ C[3]);
    M[1] = (unsigned char)(C[0] ^ sepe_gmul2(C[1]) ^ sepe_gmul2(C[2]) ^
                           C[2] ^ C[3]);
    M[2] = (unsigned char)(C[0] ^ C[1] ^ sepe_gmul2(C[2]) ^
                           sepe_gmul2(C[3]) ^ C[3]);
    M[3] = (unsigned char)(sepe_gmul2(C[0]) ^ C[0] ^ C[1] ^ C[2] ^
                           sepe_gmul2(C[3]));
  }
  SepeBlock Result;
  std::memcpy(&Result.Lo, Mx, 8);
  std::memcpy(&Result.Hi, Mx + 8, 8);
  Result.Lo ^= Chunk.Lo;
  Result.Hi ^= Chunk.Hi;
  return Result;
}
static inline uint64_t sepe_aes_fold(SepeBlock FinalState) {
  const SepeBlock State = sepe_aesenc(FinalState, sepe_aes_init(0));
  return State.Lo ^ State.Hi;
}
)";
  }
  Out += "#endif // SEPE_GENERATED_PREAMBLE\n";

  // Splice in the compile-time generated S-box so portable AES code is
  // self-contained.
  const std::string Placeholder = "@SEPE_SBOX_TABLE@";
  const size_t Pos = Out.find(Placeholder);
  if (Pos != std::string::npos) {
    std::string Table = "static const unsigned char SepeAesSBox[256] = {";
    for (unsigned I = 0; I != 256; ++I) {
      if (I % 12 == 0)
        Table += "\n    ";
      char Buffer[8];
      std::snprintf(Buffer, sizeof(Buffer), "0x%02x,", AesSBox[I]);
      Table += Buffer;
    }
    Table += "};";
    Out.replace(Pos, Placeholder.size(), Table);
  }
  return Out;
}

std::string sepe::emitHashFunction(const HashPlan &Plan,
                                   const CodegenOptions &Options) {
  SEPE_SPAN("synthesis.codegen");
  const std::string Name =
      Options.StructName.empty() ? defaultName(Plan) : Options.StructName;
  std::string Out;
  Out += "/// Synthesized ";
  Out += familyName(Plan.Family);
  Out += " hash for keys of length ";
  if (Plan.FixedLength) {
    Out += std::to_string(Plan.MaxKeyLen);
  } else {
    Out += '[';
    Out += std::to_string(Plan.MinKeyLen);
    Out += ", ";
    Out += std::to_string(Plan.MaxKeyLen);
    Out += ']';
  }
  Out += " (" + std::to_string(Plan.FreeBits) + " free bits).\n";
  emitLine(Out, 0, "struct " + Name + " {");
  emitLine(Out, 1, "size_t operator()(const std::string &Key) const {");
  if (Plan.FallbackToStl) {
    emitLine(Out, 2, "// Keys shorter than one machine word: SEPE defers");
    emitLine(Out, 2, "// to the standard hash (paper, footnote 5).");
    emitLine(Out, 2, "return std::hash<std::string>{}(Key);");
  } else {
    emitLine(Out, 2, "const char *Ptr = Key.data();");
    if (Plan.PartialLoad)
      emitPartialBody(Out, Plan, Options.Isa);
    else if (Plan.FixedLength && Plan.Family == HashFamily::Aes)
      emitFixedAesBody(Out, Plan);
    else if (Plan.FixedLength)
      emitFixedXorBody(Out, Plan, Options.Isa);
    else
      emitVariableBody(Out, Plan, Options.Isa);
  }
  emitLine(Out, 1, "}");
  emitLine(Out, 0, "};");

  if (Options.EmitCWrapper) {
    emitLine(Out, 0, "");
    emitLine(Out, 0, "extern \"C\" uint64_t " + Name +
                         "_hash(const char *Data, size_t Len) {");
    emitLine(Out, 1, "return " + Name + "{}(std::string(Data, Len));");
    emitLine(Out, 0, "}");
  }
  return Out;
}

std::string sepe::emitTranslationUnit(const std::vector<HashPlan> &Plans,
                                      const CodegenOptions &Options) {
  std::string Out = emitPreamble(Options.Isa);
  for (const HashPlan &Plan : Plans) {
    CodegenOptions PerPlan = Options;
    if (!Options.StructName.empty() && Plans.size() > 1)
      PerPlan.StructName = Options.StructName + familyName(Plan.Family);
    Out += '\n';
    Out += emitHashFunction(Plan, PerPlan);
  }
  return Out;
}
