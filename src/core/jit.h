//===- core/jit.h - Attach-time x86-64 JIT for HashPlans --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-process x86-64 code generation for HashPlans. Where the executor
/// interprets a plan's step list (core/executor.h) and codegen emits C++
/// source for offline compilation (core/codegen.h), the JIT closes the
/// loop at attach time: it encodes the plan's load/pext/rotate/xor
/// sequence directly into machine code in an anonymous mmap buffer —
/// masks, shifts, and offsets baked in as immediates — then flips the
/// buffer from writable to executable (W^X: PROT_READ|PROT_WRITE while
/// emitting, PROT_READ|PROT_EXEC forever after, never both).
///
/// A compiled JitProgram carries two entry points whose signatures match
/// the executor's internal kernel types exactly (the leading HashPlan&
/// argument is accepted and ignored), so compiled code drops into the
/// same function-pointer slots as the interpreted kernels with no
/// trampoline. Lifetime is shared_ptr-managed: SynthesizedHash keeps the
/// program alive as long as any copy of the hash exists, which is
/// precisely the RCU retirement story the adaptive runtime and the
/// sharded containers already implement for plan generations — retired
/// Table generations hold SynthesizedHash copies until no reader can
/// touch them, so the code buffer is never unmapped under a running
/// caller.
///
/// Eligibility is two separate questions, split so the dispatch ladder
/// can report them independently: jitAvailable() is about the *host*
/// (compiled in, BMI2 in cpuid) and jitSupportsPlan() is about the
/// *shape* (fixed-length, whole-word loads, a Naive/OffXor/Pext family,
/// a step count the emitter unrolls).
/// Everything else resolves downward onto the interpreted rungs.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_JIT_H
#define SEPE_CORE_JIT_H

#include "core/plan.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

namespace sepe {

class JitProgram;

/// Compiled in at all? True only on x86-64 Linux builds without
/// -DSEPE_DISABLE_JIT (mmap/mprotect and the encodings are host
/// specific; the forced-fallback CI job proves every caller behaves
/// with this false).
bool jitCompiledIn();

/// Host gate: compiled in and BMI2 present in the runtime cpuid probe
/// (pext is encoded unconditionally for the Pext family and the gate is
/// kept uniform).
bool jitAvailable();

/// Shape gate: fixed-length Naive/OffXor/Pext plans with whole-word
/// loads and 1..16 steps. Variable-length, partial-load, Aes, and
/// fallback shapes stay on the interpreted ladder.
bool jitSupportsPlan(const HashPlan &Plan);

/// Compiles \p Plan to native code. Returns nullptr when
/// !jitAvailable(), !jitSupportsPlan(Plan), or the kernel refuses the
/// mapping — callers must be ready to stay on the interpreter.
std::shared_ptr<const JitProgram> compileJitProgram(const HashPlan &Plan);

/// One W^X code buffer holding a single-key evaluator and a 4-wide
/// unrolled batch kernel for one plan. Immutable once built (the
/// factory is the only writer and it seals the mapping before
/// publishing); move-only at the unique_ptr/shared_ptr level — the
/// object itself is pinned to its mapping.
class JitProgram {
public:
  using EvalFn = uint64_t (*)(const HashPlan &, const char *, size_t);
  using BatchFn = void (*)(const HashPlan &, const std::string_view *,
                           uint64_t *, size_t);

  JitProgram(const JitProgram &) = delete;
  JitProgram &operator=(const JitProgram &) = delete;
  ~JitProgram();

  /// Single-key entry point: rdi = ignored plan, rsi = data, rdx = len
  /// (ignored; the length is baked in). Bit-identical to the
  /// interpreter's fixed-length kernel for the same plan.
  EvalFn eval() const { return EvalEntry; }

  /// Batch entry point: rdi = ignored plan, rsi = string_view array,
  /// rdx = out array, rcx = count. Four keys per main-loop iteration,
  /// per-key tail.
  BatchFn batch() const { return BatchEntry; }

  /// Bytes of machine code emitted (not the page-rounded mapping size);
  /// what telemetry reports as jit.attach.code_bytes.
  size_t codeBytes() const { return CodeLen; }

  /// Base of the executable mapping — exposed so tests can walk
  /// /proc/self/maps and assert the W^X property on the live region.
  const void *code() const { return Mapping; }

private:
  JitProgram() = default;
  friend std::shared_ptr<const JitProgram>
  compileJitProgram(const HashPlan &Plan);

  void *Mapping = nullptr;
  size_t MapLen = 0;
  size_t CodeLen = 0;
  EvalFn EvalEntry = nullptr;
  BatchFn BatchEntry = nullptr;
};

} // namespace sepe

#endif // SEPE_CORE_JIT_H
