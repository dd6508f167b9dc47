//===- support/cpu_features.cpp - Runtime ISA feature probe ---------------===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//

#include "support/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

using namespace sepe;

namespace {

CpuFeatures probe() {
  CpuFeatures Features;
#if defined(__x86_64__) || defined(__i386__)
  unsigned Eax = 0, Ebx = 0, Ecx = 0, Edx = 0;
  if (__get_cpuid(1, &Eax, &Ebx, &Ecx, &Edx)) {
    Features.Sse2 = (Edx & (1u << 26)) != 0;
    Features.Ssse3 = (Ecx & (1u << 9)) != 0;
    Features.Aesni = (Ecx & (1u << 25)) != 0;

    // AVX2 additionally requires the OS to save/restore the ymm state:
    // OSXSAVE plus XCR0 bits 1-2 (XMM and YMM), the standard dance.
    const bool OsXsave = (Ecx & (1u << 27)) != 0;
    const bool Avx = (Ecx & (1u << 28)) != 0;
    bool YmmEnabled = false;
    if (OsXsave && Avx) {
      unsigned XcrLo = 0, XcrHi = 0;
      __asm__ volatile("xgetbv" : "=a"(XcrLo), "=d"(XcrHi) : "c"(0));
      YmmEnabled = (XcrLo & 0x6) == 0x6;
    }

    unsigned Eax7 = 0, Ebx7 = 0, Ecx7 = 0, Edx7 = 0;
    if (__get_cpuid_count(7, 0, &Eax7, &Ebx7, &Ecx7, &Edx7)) {
      Features.Avx2 = YmmEnabled && (Ebx7 & (1u << 5)) != 0;
      Features.Bmi2 = (Ebx7 & (1u << 8)) != 0;
    }
  }
#endif
  return Features;
}

} // namespace

const CpuFeatures &sepe::cpuFeatures() {
  static const CpuFeatures Features = probe();
  return Features;
}

std::string sepe::cpuFeatureString() {
  const CpuFeatures &F = cpuFeatures();
  std::string Out;
  const auto Append = [&Out](bool Present, const char *Name) {
    if (!Present)
      return;
    if (!Out.empty())
      Out += '+';
    Out += Name;
  };
  Append(F.Sse2, "sse2");
  Append(F.Ssse3, "ssse3");
  Append(F.Avx2, "avx2");
  Append(F.Bmi2, "bmi2");
  Append(F.Aesni, "aesni");
  return Out.empty() ? "none" : Out;
}

bool sepe::avx2BatchAvailable() {
#if defined(__AVX2__)
  return cpuFeatures().Avx2;
#else
  return false;
#endif
}
