//===- core/jit.cpp - Attach-time x86-64 JIT for HashPlans ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
//
// The emitter is a few hundred lines of direct instruction encoding, in
// the hash-prospector style: no assembler framework, just the handful
// of x86-64 forms the plan kernels need, each encoded by a dedicated
// method whose bytes were checked against an external assembler.
//
// Encoding notes (all operations are 64-bit, so REX.W is always set):
//
//   mov   r64, [base+disp]   REX.W 8B /r
//   mov   [base+disp], r64   REX.W 89 /r
//   movzx r64, byte [b+d]    REX.W 0F B6 /r        (future byte loads)
//   xor   r64, [base+disp]   REX.W 33 /r
//   xor   r64, r64           REX.W 31 /r
//   imul  r64, r64           REX.W 0F AF /r        (future mixers)
//   mov   r64, imm64         REX.W B8+rd imm64
//   rol   r64, imm8          REX.W C1 /0 ib
//   add/sub/cmp r64, imm8    REX.W 83 /0|/5|/7 ib
//   test  r64, r64           REX.W 85 /r
//   dec   r64                REX.W FF /1
//   pext  r64, r64, r64      VEX.NDS.LZ.F3.0F38.W1 F5 /r
//
// Memory operands always carry an explicit disp8/disp32 (mod is never
// 00), which sidesteps the RBP/R13 special case; RSP/R12 are never used
// as bases, so no SIB bytes are needed anywhere.
//
//===----------------------------------------------------------------------===//

#include "core/jit.h"

#include "support/cpu_features.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <cassert>
#include <cstring>
#include <vector>

#if defined(__x86_64__) && defined(__linux__) && !defined(SEPE_DISABLE_JIT)
#define SEPE_EXEC_JIT 1
#include <sys/mman.h>
#include <unistd.h>
#endif

using namespace sepe;

namespace {

/// Where a std::string_view keeps its data pointer, probed at runtime
/// instead of assuming the libstdc++ {size_t, const char *} layout: a
/// known view is copied into raw words and the word equal to the buffer
/// address names the offset. SIZE_MAX (neither word matched — a
/// hypothetical packed or reordered ABI) disables the JIT entirely.
size_t svDataOffset() {
  static const size_t Off = [] {
    static_assert(sizeof(std::string_view) == 2 * sizeof(uintptr_t),
                  "batch kernel assumes a two-word string_view");
    static const char Buf[2] = {'x', '\0'};
    const std::string_view Sv(Buf, 1);
    uintptr_t Words[2];
    std::memcpy(Words, &Sv, sizeof(Words));
    if (Words[0] == reinterpret_cast<uintptr_t>(Buf))
      return size_t{0};
    if (Words[1] == reinterpret_cast<uintptr_t>(Buf))
      return sizeof(uintptr_t);
    return SIZE_MAX;
  }();
  return Off;
}

#if defined(SEPE_EXEC_JIT)

/// Register numbers as ModRM/REX encode them.
enum Reg : unsigned {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// Condition codes for jcc (the 0F 8x second opcode byte).
enum Cond : uint8_t { JB = 0x82, JZ = 0x84, JNZ = 0x85 };

class Assembler {
public:
  std::vector<uint8_t> Code;

  size_t size() const { return Code.size(); }

  void emit8(uint8_t B) { Code.push_back(B); }
  void emit32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      emit8(static_cast<uint8_t>(V >> (8 * I)));
  }
  void emit64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      emit8(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// REX.W prefix; R extends the reg field, B the r/m (or opcode-reg)
  /// field. X is never needed — no SIB, no index registers.
  void rexW(unsigned Reg, unsigned Base) {
    emit8(static_cast<uint8_t>(0x48 | ((Reg >> 3) << 2) | (Base >> 3)));
  }

  /// ModRM for [Base + Disp]: always an explicit disp8 or disp32.
  void memOperand(unsigned Reg, unsigned Base, uint32_t Disp) {
    assert((Base & 7) != RSP && "rsp/r12 bases need a SIB byte");
    if (Disp <= 0x7F) {
      emit8(static_cast<uint8_t>(0x40 | ((Reg & 7) << 3) | (Base & 7)));
      emit8(static_cast<uint8_t>(Disp));
    } else {
      emit8(static_cast<uint8_t>(0x80 | ((Reg & 7) << 3) | (Base & 7)));
      emit32(Disp);
    }
  }

  void regOperand(unsigned Reg, unsigned Rm) {
    emit8(static_cast<uint8_t>(0xC0 | ((Reg & 7) << 3) | (Rm & 7)));
  }

  /// mov Dst, qword [Base + Disp]
  void loadQ(unsigned Dst, unsigned Base, uint32_t Disp) {
    rexW(Dst, Base);
    emit8(0x8B);
    memOperand(Dst, Base, Disp);
  }

  /// movzx Dst, byte [Base + Disp] — kept for future byte-granular
  /// families; unused by the xor/pext kernels.
  void loadByteZx(unsigned Dst, unsigned Base, uint32_t Disp) {
    rexW(Dst, Base);
    emit8(0x0F);
    emit8(0xB6);
    memOperand(Dst, Base, Disp);
  }

  /// mov qword [Base + Disp], Src
  void storeQ(unsigned Base, uint32_t Disp, unsigned Src) {
    rexW(Src, Base);
    emit8(0x89);
    memOperand(Src, Base, Disp);
  }

  /// xor Dst, qword [Base + Disp]
  void xorLoadQ(unsigned Dst, unsigned Base, uint32_t Disp) {
    rexW(Dst, Base);
    emit8(0x33);
    memOperand(Dst, Base, Disp);
  }

  /// xor Dst, Src
  void xorReg(unsigned Dst, unsigned Src) {
    rexW(Src, Dst);
    emit8(0x31);
    regOperand(Src, Dst);
  }

  /// imul Dst, Src — kept for future multiply mixers.
  void imulReg(unsigned Dst, unsigned Src) {
    rexW(Dst, Src);
    emit8(0x0F);
    emit8(0xAF);
    regOperand(Dst, Src);
  }

  /// movabs Dst, Imm
  void movImm64(unsigned Dst, uint64_t Imm) {
    emit8(static_cast<uint8_t>(0x48 | (Dst >> 3)));
    emit8(static_cast<uint8_t>(0xB8 | (Dst & 7)));
    emit64(Imm);
  }

  /// rol Dst, Imm — elided when the rotate is a no-op, matching
  /// std::rotl's modular count.
  void rolImm(unsigned Dst, unsigned Imm) {
    Imm &= 63;
    if (Imm == 0)
      return;
    rexW(0, Dst);
    emit8(0xC1);
    regOperand(0, Dst);
    emit8(static_cast<uint8_t>(Imm));
  }

  void addImm8(unsigned Dst, uint8_t Imm) { aluImm8(0, Dst, Imm); }
  void subImm8(unsigned Dst, uint8_t Imm) { aluImm8(5, Dst, Imm); }
  void cmpImm8(unsigned Dst, uint8_t Imm) { aluImm8(7, Dst, Imm); }

  /// test A, B
  void testReg(unsigned A, unsigned B) {
    rexW(B, A);
    emit8(0x85);
    regOperand(B, A);
  }

  /// dec Dst
  void decReg(unsigned Dst) {
    rexW(0, Dst);
    emit8(0xFF);
    regOperand(1, Dst);
  }

  void push(unsigned R) {
    if (R >= 8)
      emit8(0x41);
    emit8(static_cast<uint8_t>(0x50 | (R & 7)));
  }

  void pop(unsigned R) {
    if (R >= 8)
      emit8(0x41);
    emit8(static_cast<uint8_t>(0x58 | (R & 7)));
  }

  void ret() { emit8(0xC3); }

  /// pext Dst, Src, Mask. Three-byte VEX: byte 1 carries inverted
  /// R/X/B and selects the 0F38 map, byte 2 is W=1 | ~vvvv (the source
  /// value) | L=0 | pp=F3.
  void pext(unsigned Dst, unsigned Src, unsigned Mask) {
    emit8(0xC4);
    emit8(static_cast<uint8_t>((Dst >= 8 ? 0 : 0x80) | 0x40 |
                               (Mask >= 8 ? 0 : 0x20) | 0x02));
    emit8(static_cast<uint8_t>(0x80 | ((~Src & 0xF) << 3) | 0x02));
    emit8(0xF5);
    regOperand(Dst, Mask);
  }

  /// Forward jcc rel32 with the displacement left as a fixup; returns
  /// the fixup position for patch32.
  size_t jcc32(Cond C) {
    emit8(0x0F);
    emit8(C);
    const size_t Fixup = size();
    emit32(0);
    return Fixup;
  }

  /// jnz rel32 to a known (backward) target.
  void jnzTo(size_t Target) {
    emit8(0x0F);
    emit8(JNZ);
    emit32(static_cast<uint32_t>(Target - (size() + 4)));
  }

  /// jmp rel32 to a known (backward) target.
  void jmpTo(size_t Target) {
    emit8(0xE9);
    emit32(static_cast<uint32_t>(Target - (size() + 4)));
  }

  /// Resolves a jcc32 fixup to the current position.
  void patch32(size_t Fixup) {
    const uint32_t Rel = static_cast<uint32_t>(size() - (Fixup + 4));
    for (int I = 0; I != 4; ++I)
      Code[Fixup + I] = static_cast<uint8_t>(Rel >> (8 * I));
  }

  /// Pads to a 16-byte boundary with int3 so a stray jump into the gap
  /// traps instead of sliding.
  void align16() {
    while (size() % 16 != 0)
      emit8(0xCC);
  }

private:
  /// 83 /Op ib group: add/or/adc/sbb/and/sub/xor/cmp by sub-opcode.
  void aluImm8(unsigned Op, unsigned Dst, uint8_t Imm) {
    rexW(0, Dst);
    emit8(0x83);
    regOperand(Op, Dst);
    emit8(Imm);
  }
};

/// One pext step against one key: Scratch = rotl(pext(load, Mask),
/// Shift), folded into Acc (or becoming Acc on the first step). The
/// mask is expected in MaskReg already — the batch kernel loads it once
/// per step for all four lanes.
void emitPextStep(Assembler &A, unsigned Acc, unsigned Base, unsigned MaskReg,
                  unsigned Scratch, const PlanStep &St, bool First) {
  A.loadQ(Scratch, Base, St.Offset);
  if (First) {
    A.pext(Acc, Scratch, MaskReg);
    A.rolImm(Acc, St.Shift);
  } else {
    A.pext(Scratch, Scratch, MaskReg);
    A.rolImm(Scratch, St.Shift);
    A.xorReg(Acc, Scratch);
  }
}

/// The straight-line one-key body, result in RAX — the whole single-key
/// entry point, and the batch kernel's tail. Base holds the key data
/// pointer; MaskReg/Scratch are clobbered (pext family only).
void emitSingleBody(Assembler &A, const HashPlan &Plan, unsigned Base,
                    unsigned MaskReg, unsigned Scratch) {
  const std::vector<PlanStep> &Steps = Plan.Steps;
  if (Plan.Family == HashFamily::Pext) {
    for (size_t S = 0; S != Steps.size(); ++S) {
      A.movImm64(MaskReg, Steps[S].Mask);
      emitPextStep(A, RAX, Base, MaskReg, Scratch, Steps[S], S == 0);
    }
    return;
  }
  // Naive/OffXor: a pure load-xor chain, exactly evalFixedXor.
  A.loadQ(RAX, Base, Steps[0].Offset);
  for (size_t S = 1; S != Steps.size(); ++S)
    A.xorLoadQ(RAX, Base, Steps[S].Offset);
}

/// The batch entry point: four keys per main-loop iteration with the
/// step sequence interleaved across lanes (the JIT rendering of the
/// interleaved scalar kernels), then a per-key tail. Arguments arrive
/// as (plan ignored) rdi, keys rsi, out rdx, n rcx; SvOff is the probed
/// data-pointer offset inside std::string_view.
void emitBatchKernel(Assembler &A, const HashPlan &Plan, size_t SvOff) {
  const std::vector<PlanStep> &Steps = Plan.Steps;
  const unsigned Acc[4] = {RAX, RBX, R12, R13};
  const unsigned Ptr[4] = {R8, R9, R10, R11};

  A.push(RBX);
  A.push(R12);
  A.push(R13);
  A.push(R14);
  A.push(R15);

  const size_t MainLoop = A.size();
  A.cmpImm8(RCX, 4);
  const size_t ToTail = A.jcc32(JB);
  for (unsigned K = 0; K != 4; ++K)
    A.loadQ(Ptr[K], RSI, K * sizeof(std::string_view) + SvOff);
  if (Plan.Family == HashFamily::Pext) {
    for (size_t S = 0; S != Steps.size(); ++S) {
      // One movabs of the step mask serves all four lanes; scratch
      // alternates r14/r15 so adjacent lanes' loads overlap.
      A.movImm64(RDI, Steps[S].Mask);
      for (unsigned K = 0; K != 4; ++K)
        emitPextStep(A, Acc[K], Ptr[K], RDI, (K & 1) ? R15 : R14, Steps[S],
                     S == 0);
    }
  } else {
    for (unsigned K = 0; K != 4; ++K)
      A.loadQ(Acc[K], Ptr[K], Steps[0].Offset);
    for (size_t S = 1; S != Steps.size(); ++S)
      for (unsigned K = 0; K != 4; ++K)
        A.xorLoadQ(Acc[K], Ptr[K], Steps[S].Offset);
  }
  for (unsigned K = 0; K != 4; ++K)
    A.storeQ(RDX, K * 8, Acc[K]);
  A.addImm8(RSI, 4 * sizeof(std::string_view));
  A.addImm8(RDX, 4 * 8);
  A.subImm8(RCX, 4);
  A.jmpTo(MainLoop);

  A.patch32(ToTail);
  A.testReg(RCX, RCX);
  const size_t ToDone = A.jcc32(JZ);
  const size_t TailLoop = A.size();
  A.loadQ(R8, RSI, SvOff);
  emitSingleBody(A, Plan, R8, RDI, R14);
  A.storeQ(RDX, 0, RAX);
  A.addImm8(RSI, sizeof(std::string_view));
  A.addImm8(RDX, 8);
  A.decReg(RCX);
  A.jnzTo(TailLoop);

  A.patch32(ToDone);
  A.pop(R15);
  A.pop(R14);
  A.pop(R13);
  A.pop(R12);
  A.pop(RBX);
  A.ret();
}

#endif // SEPE_EXEC_JIT

} // namespace

bool sepe::jitCompiledIn() {
#if defined(SEPE_EXEC_JIT)
  return true;
#else
  return false;
#endif
}

bool sepe::jitAvailable() {
  return jitCompiledIn() && cpuFeatures().Bmi2;
}

bool sepe::jitSupportsPlan(const HashPlan &Plan) {
  if (!Plan.FixedLength || Plan.PartialLoad || Plan.FallbackToStl)
    return false;
  if (Plan.Family != HashFamily::Naive && Plan.Family != HashFamily::OffXor &&
      Plan.Family != HashFamily::Pext)
    return false;
  if (Plan.Steps.empty() || Plan.Steps.size() > 16)
    return false;
  return svDataOffset() != SIZE_MAX;
}

JitProgram::~JitProgram() {
#if defined(SEPE_EXEC_JIT)
  if (Mapping != nullptr) {
    SEPE_TRACE_INSTANT(JitRetire, 0, CodeLen);
    munmap(Mapping, MapLen);
  }
#endif
}

std::shared_ptr<const JitProgram>
sepe::compileJitProgram(const HashPlan &Plan) {
  if (!jitAvailable() || !jitSupportsPlan(Plan))
    return nullptr;
#if defined(SEPE_EXEC_JIT)
  SEPE_SPAN("jit.compile");
  SEPE_TRACE_SPAN(TraceSpan, JitCompile, 0);

  Assembler A;
  // Single-key entry at offset 0: rdi = plan (ignored), rsi = data,
  // rdx = len (ignored — the plan is fixed-length, offsets are baked).
  emitSingleBody(A, Plan, RSI, RCX, RDX);
  A.ret();
  A.align16();
  const size_t BatchOff = A.size();
  emitBatchKernel(A, Plan, svDataOffset());

  // W^X lifecycle: the buffer is writable only while this function owns
  // it, executable only after the bytes are final, and never both.
  const long Page = sysconf(_SC_PAGESIZE);
  const size_t PageLen = Page > 0 ? static_cast<size_t>(Page) : 4096;
  const size_t MapLen = (A.size() + PageLen - 1) & ~(PageLen - 1);
  void *Map = mmap(nullptr, MapLen, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    return nullptr;
  std::memcpy(Map, A.Code.data(), A.size());
  if (mprotect(Map, MapLen, PROT_READ | PROT_EXEC) != 0) {
    munmap(Map, MapLen);
    return nullptr;
  }

  std::shared_ptr<JitProgram> Prog(new JitProgram());
  Prog->Mapping = Map;
  Prog->MapLen = MapLen;
  Prog->CodeLen = A.size();
  Prog->EvalEntry = reinterpret_cast<JitProgram::EvalFn>(Map);
  Prog->BatchEntry = reinterpret_cast<JitProgram::BatchFn>(
      static_cast<uint8_t *>(Map) + BatchOff);

  SEPE_COUNT("jit.attach.programs");
  SEPE_RECORD("jit.attach.code_bytes", A.size());
  TraceSpan.setArg(A.size());
  return Prog;
#else
  return nullptr;
#endif
}
