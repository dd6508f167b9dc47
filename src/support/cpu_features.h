//===- support/cpu_features.h - Runtime ISA feature probe -------*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One cpuid probe, cached for the process lifetime. The executor's
/// kernel selection is layered: the IsaLevel override (Portable /
/// NoBitExtract) decides which *algorithms* may run, and this probe
/// decides which *instruction sets* the Native level may actually
/// dispatch to on the running machine — so a binary compiled with
/// -mavx2 still degrades gracefully to the interleaved scalar kernels
/// on a host without AVX2 instead of faulting.
///
/// On non-x86 builds every optional bit reports false and the portable
/// paths are selected, which is exactly the aarch64 story of RQ4.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_SUPPORT_CPU_FEATURES_H
#define SEPE_SUPPORT_CPU_FEATURES_H

#include <string>

namespace sepe {

/// The instruction-set extensions the executor and containers care
/// about. Sse2 is baseline on x86-64 but probed anyway so the group
/// scan in FlatIndexMap can document its fallback honestly.
struct CpuFeatures {
  bool Sse2 = false;
  bool Ssse3 = false;
  bool Avx2 = false;
  bool Bmi2 = false;
  bool Aesni = false;
};

/// The host CPU's features, probed once via cpuid (x86) and cached.
const CpuFeatures &cpuFeatures();

/// True when the AVX2 wide batch kernels are both compiled into this
/// binary (built with -mavx2, i.e. SEPE_NATIVE_ISA) and supported by the
/// running CPU. The single gate every AVX2 dispatch decision goes
/// through.
bool avx2BatchAvailable();

/// The probed host features as one self-describing string, e.g.
/// "sse2+ssse3+avx2+bmi2+aesni" ("none" when no optional set is
/// present — the non-x86 case). What sepedriver prints in its report
/// header and BENCH_*.json records as "cpu_features", so trajectory
/// files name the hardware they were measured on.
std::string cpuFeatureString();

} // namespace sepe

#endif // SEPE_SUPPORT_CPU_FEATURES_H
