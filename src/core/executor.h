//===- core/executor.h - Runtime evaluation of HashPlans --------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SynthesizedHash evaluates a HashPlan at runtime — the in-process
/// equivalent of compiling the C++ source that core/codegen.h emits —
/// and GuardedHash pairs one with the KeyPattern that guards it, so a
/// served key is checked and hashed in one pass. The
/// plan is compiled once, at attach time, into a pair of fused kernels:
/// a per-key routine (one indirect call plus the plan's straight-line
/// steps, with the common step counts specialized so even the step loop
/// disappears) and a batch routine that hashes many keys per call. The
/// batch dispatch is a ladder: the attach-time JIT (core/jit.h), a
/// fused-load AVX2 kernel for fixed-length Naive/OffXor plans (both
/// gated on a runtime cpuid probe), the four-way interleaved scalar
/// kernels otherwise, and a per-key loop for the variable-length/
/// partial shapes. A "portable"
/// mode forces the software pext / AES paths, which is how the aarch64
/// experiment of RQ4 is reproduced on this host.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CORE_EXECUTOR_H
#define SEPE_CORE_EXECUTOR_H

#include "core/key_pattern.h"
#include "core/plan.h"
#include "support/bit_ops.h"
#include "support/telemetry.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

class JitProgram;

/// Which specialized instructions the executor may use. NoBitExtract
/// models the paper's Jetson (RQ4): AES hardware present, pext/bext
/// absent. Portable forces the bit-exact software routines for
/// everything. The IsaLevel is an *upper bound*: at Native the executor
/// additionally consults the runtime cpuid probe (support/cpu_features.h)
/// before dispatching to the AVX2 wide kernel, so the same binary
/// degrades to the interleaved scalar kernels on hosts without AVX2.
enum class IsaLevel { Native, NoBitExtract, Portable };

/// The batch kernel families hashBatch can dispatch to, in increasing
/// width: a per-key loop over the single-key kernel, the four-way
/// interleaved scalar kernels, the fused-load AVX2 xor kernel, and the
/// attach-time JIT (core/jit.h) — straight-line machine code emitted
/// for the exact plan, no interpreter dispatch at all. Auto picks the
/// widest path the plan shape, the IsaLevel, and the host CPU allow;
/// the explicit values exist so the driver and benchmarks can measure
/// the ladder rung by rung. A request the plan or host cannot honor
/// resolves downward (Jit -> Avx2 -> Interleaved -> Scalar), never
/// upward.
enum class BatchPath { Auto, Scalar, Interleaved, Avx2, Jit };

/// Lower-case path name ("auto", "scalar", "interleaved", "avx2",
/// "jit") — the strings BENCH_*.json records so trajectories name the
/// kernel actually dispatched at runtime, not the compiled-in ceiling.
const char *batchPathName(BatchPath Path);

#if defined(SEPE_TELEMETRY)
/// Per-call batch dispatch accounting: which rung ran, how many keys
/// the call carried, and how many tail keys fell off the end of the
/// 4-wide interleave groups (the stragglers every batch kernel finishes
/// on its per-key epilogue). Names must be literals per rung so the
/// macro's static caching applies.
inline void recordBatchDispatch(BatchPath Resolved, size_t N) {
  switch (Resolved) {
  case BatchPath::Auto: // Resolved is never Auto; keep -Wswitch happy.
    break;
  case BatchPath::Scalar:
    SEPE_COUNT("executor.batch.calls.scalar");
    SEPE_RECORD("executor.batch.keys.scalar", N);
    break;
  case BatchPath::Interleaved:
    SEPE_COUNT("executor.batch.calls.interleaved");
    SEPE_RECORD("executor.batch.keys.interleaved", N);
    break;
  case BatchPath::Avx2:
    SEPE_COUNT("executor.batch.calls.avx2");
    SEPE_RECORD("executor.batch.keys.avx2", N);
    break;
  case BatchPath::Jit:
    SEPE_COUNT("executor.batch.calls.jit");
    SEPE_RECORD("executor.batch.keys.jit", N);
    break;
  }
  SEPE_RECORD("executor.batch.tail_keys", N % 4);
}
#endif

/// A container-ready hash functor backed by a HashPlan. Copyable and
/// cheap to copy (shared plan ownership), so it can be handed to
/// std::unordered_map like any other hasher.
class SynthesizedHash {
public:
  SynthesizedHash() = default;

  /// Wraps \p Plan, selecting evaluation routines for \p Isa.
  /// \p Preferred pins the batch kernel family; Auto (the default)
  /// dispatches on the plan shape and the host CPU.
  explicit SynthesizedHash(std::shared_ptr<const HashPlan> Plan,
                           IsaLevel Isa = IsaLevel::Native,
                           BatchPath Preferred = BatchPath::Auto);

  /// Convenience: takes ownership of a plan by value.
  explicit SynthesizedHash(HashPlan Plan, IsaLevel Isa = IsaLevel::Native,
                           BatchPath Preferred = BatchPath::Auto)
      : SynthesizedHash(std::make_shared<const HashPlan>(std::move(Plan)),
                        Isa, Preferred) {}

  bool valid() const { return Plan != nullptr; }
  const HashPlan &plan() const {
    assert(Plan && "no plan attached");
    return *Plan;
  }

  /// The IsaLevel the kernels were selected for.
  IsaLevel isa() const { return Isa; }

  /// Hashes \p Key. Precondition: Key conforms to the plan's key format
  /// (length within bounds); out-of-format keys still produce a value
  /// but no dispersion guarantees hold — exactly the contract of the
  /// paper's generated functions.
  size_t operator()(std::string_view Key) const {
    assert(Plan && "hashing with an empty SynthesizedHash");
    SEPE_COUNT("executor.single.calls");
    return Eval(*Plan, Key.data(), Key.size());
  }

  /// Hashes \p N keys in one call: Out[i] = (*this)(Keys[i]),
  /// bit-identical to the per-key operator. The batch kernel is selected
  /// at attach time alongside the per-key kernel; fixed-length plans run
  /// an evaluator that interleaves four keys per iteration so their
  /// loads overlap. Same precondition as operator(): every key conforms
  /// to the plan's format.
  void hashBatch(const std::string_view *Keys, uint64_t *Out,
                 size_t N) const {
    assert(Plan && "hashing with an empty SynthesizedHash");
#if defined(SEPE_TELEMETRY)
    recordBatchDispatch(Resolved, N);
#endif
    Batch(*Plan, Keys, Out, N);
  }

  /// The batch kernel family hashBatch resolved to at attach time —
  /// never Auto; reflects what actually runs on this host.
  BatchPath batchPath() const { return Resolved; }

  /// Name of the resolved batch path ("scalar" | "interleaved" |
  /// "avx2" | "jit"); what the benchmarks record.
  const char *batchPathName() const { return sepe::batchPathName(Resolved); }

  /// The compiled program when the JIT rung resolved, nullptr on every
  /// interpreted rung — exposed so tests can assert the W^X property
  /// of the live mapping and benchmarks can report code bytes. The
  /// shared_ptr rides along with every copy of the hash, which is what
  /// keeps emitted code alive RCU-style inside retired adaptive-runtime
  /// generations until their last reader drops them.
  const JitProgram *jitProgram() const { return Jit.get(); }

private:
  using EvalFn = uint64_t (*)(const HashPlan &, const char *, size_t);
  using BatchFn = void (*)(const HashPlan &, const std::string_view *,
                           uint64_t *, size_t);

  struct BatchChoice {
    BatchFn Fn;
    BatchPath Path;
  };

  static EvalFn selectEval(const HashPlan &Plan, IsaLevel Isa);
  static BatchChoice selectBatch(const HashPlan &Plan, IsaLevel Isa,
                                 BatchPath Preferred);

  std::shared_ptr<const HashPlan> Plan;
  std::shared_ptr<const JitProgram> Jit;
  EvalFn Eval = nullptr;
  BatchFn Batch = nullptr;
  BatchPath Resolved = BatchPath::Scalar;
  IsaLevel Isa = IsaLevel::Native;
};

/// A SynthesizedHash and the KeyPattern that guards it, compiled
/// together once per (plan, pattern) pair. Both entries return the
/// pattern's verdict on each key and, for an admitted key, the image
/// the hash's operator() gives it.
///
/// Fixed-length Naive, OffXor and Pext plans whose loads lie inside the
/// pattern's length run *fused*: the pattern's constant-bit checks are
/// re-expressed as (mask, value) words aligned to the offsets the
/// kernel loads, so each word is loaded once, checked with an AND and
/// an XOR, and combined into the image in the same pass. Constant
/// positions no step loads (the URL formats' literal prefix) get
/// standalone Extra windows. The kernels are the executor's own
/// fixed-length bodies with the check compiled in. Every other shape (variable-length,
/// partial-load, STL-fallback, Aes) checks the pattern first and then
/// runs the attached kernel, inside the same two entries, so no caller
/// branches on the plan's shape.
///
/// Without a hash (an invalid SynthesizedHash) the object is its
/// pattern alone: admitted keys get image 0.
class GuardedHash {
public:
  GuardedHash() : GuardedHash(SynthesizedHash(), KeyPattern()) {}
  GuardedHash(SynthesizedHash Hash, KeyPattern Pattern);

  bool valid() const { return Hash.valid(); }
  const SynthesizedHash &hash() const { return Hash; }
  const KeyPattern &pattern() const { return Pattern; }

  /// True when the verdict and the image come from one pass over the
  /// key's words.
  bool fused() const { return KeyLen != 0; }

  /// True when the pattern admits \p Key; \p Image then holds
  /// hash()(Key). Image is unspecified for a rejected key.
  bool admit(std::string_view Key, uint64_t &Image) const {
    const Verdict V = One(*this, Key.data(), Key.size());
    Image = V.Image;
    return V.Admitted;
  }

  /// Batch form of admit(): every admitted key's image lands in Out at
  /// its own index; the indices of the rejected keys are appended to
  /// \p MissIdx in increasing order (caller provides capacity for N),
  /// and their Out slots are unspecified. Returns the number of misses.
  size_t admitBatch(const std::string_view *Keys, uint64_t *Out, size_t N,
                    uint32_t *MissIdx) const {
    return Batch(*this, Keys, Out, N, MissIdx);
  }

private:
  friend struct GuardedKernels;

  struct Verdict {
    uint64_t Image;
    bool Admitted;
  };
  using OneFn = Verdict (*)(const GuardedHash &, const char *, size_t);
  using BatchFn = size_t (*)(const GuardedHash &, const std::string_view *,
                             uint64_t *, size_t, uint32_t *);

  OneFn One = nullptr;
  BatchFn Batch = nullptr;
  /// The guarded length of a fused object; 0 when not fused.
  size_t KeyLen = 0;
  /// Fused only: the steps of Hash's plan, which every copy of this
  /// object shares, so a key's first load waits on one pointer, not
  /// two.
  const PlanStep *Steps = nullptr;
  /// Fused only: one window per plan step (index for index, over the
  /// word the step loads), then the Extra windows.
  std::vector<KeyPattern::WordCheck> Checks;
  /// Fused soft-pext only: each step's precompiled PextNetwork.
  std::vector<PextNetwork> Nets;
  SynthesizedHash Hash;
  KeyPattern Pattern;
};

} // namespace sepe

#endif // SEPE_CORE_EXECUTOR_H
