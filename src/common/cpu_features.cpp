#include "common/cpu_features.hpp"

#include <cstring>
#include <thread>

#include "common/env.hpp"
#include "common/log.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#define PLT_X86 1
#endif
#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace plt {
namespace {

CpuFeatures detect() {
  CpuFeatures f;
  f.logical_cores = static_cast<int>(std::thread::hardware_concurrency());
  if (f.logical_cores <= 0) f.logical_cores = 1;
#if defined(PLT_X86)
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.avx2 = (ebx >> 5) & 1;
    f.avx512f = (ebx >> 16) & 1;
    f.avx512dq = (ebx >> 17) & 1;
    f.avx512bw = (ebx >> 30) & 1;
    f.avx512vl = (ebx >> 31) & 1;
    f.amx_bf16 = (edx >> 22) & 1;
    f.amx_tile = (edx >> 24) & 1;
  }
  if (__get_cpuid_count(7, 1, &eax, &ebx, &ecx, &edx)) {
    f.avx512_bf16 = (eax >> 5) & 1;
  }
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.fma = (ecx >> 12) & 1;
    const bool osxsave = (ecx >> 27) & 1;
    if (osxsave && f.amx_tile) {
      unsigned int xcr0_lo = 0, xcr0_hi = 0;
      __asm__ volatile("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
      f.amx_os = ((xcr0_lo >> 17) & 3u) == 3u;
    }
  }
  // Brand string (leaves 0x80000002..4).
  unsigned int brand[12] = {};
  bool ok = true;
  for (unsigned i = 0; i < 3 && ok; ++i) {
    ok = __get_cpuid(0x80000002u + i, &brand[4 * i + 0], &brand[4 * i + 1],
                     &brand[4 * i + 2], &brand[4 * i + 3]);
  }
  if (ok) {
    char buf[49] = {};
    std::memcpy(buf, brand, 48);
    f.brand = buf;
  }
#endif
  return f;
}

// Linux keeps the 8 KiB tile-data state off until a process asks for it;
// the first tile instruction without the permission raises SIGILL.
bool request_amx_permission() {
#if defined(PLT_X86) && defined(__linux__) && defined(SYS_arch_prctl)
  constexpr long kArchReqXcompPerm = 0x1023;
  constexpr long kXfeatureXtiledata = 18;
  return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
#else
  return false;
#endif
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

IsaLevel effective_isa() {
  static const IsaLevel level = [] {
    const CpuFeatures& f = cpu_features();
    IsaLevel best = IsaLevel::kScalar;
#if defined(PLT_KERNELS_AVX2)
    if (f.avx2 && f.fma) best = IsaLevel::kAVX2;
#endif
#if defined(PLT_KERNELS_AVX512)
    if (f.avx512f && f.avx512bw && f.avx512vl && f.avx512dq)
      best = IsaLevel::kAVX512;
    if (best == IsaLevel::kAVX512 && f.avx512_bf16) best = IsaLevel::kAVX512BF16;
#endif
#if defined(PLT_KERNELS_AMX)
    if (best == IsaLevel::kAVX512BF16 && f.amx_bf16 && f.amx_tile && f.amx_os)
      best = IsaLevel::kAMX;
#endif
    const std::string s = common::env_enum(
        "PLT_ISA", "", {"scalar", "avx2", "avx512", "avx512_bf16"});
    if (!s.empty()) {
      IsaLevel cap = best;
      if (s == "scalar") cap = IsaLevel::kScalar;
      else if (s == "avx2") cap = IsaLevel::kAVX2;
      else if (s == "avx512") cap = IsaLevel::kAVX512;
      else if (s == "avx512_bf16") cap = IsaLevel::kAVX512BF16;
      if (static_cast<int>(cap) < static_cast<int>(best)) best = cap;
    }
    if (best == IsaLevel::kAMX && !request_amx_permission()) {
      PLT_LOG_WARN << "cpu_features: the kernel refused the AMX tile-data "
                      "permission; using the vdpbf16ps kernels";
      best = IsaLevel::kAVX512BF16;
    }
    return best;
  }();
  return level;
}

const char* isa_name(IsaLevel l) {
  switch (l) {
    case IsaLevel::kScalar: return "scalar";
    case IsaLevel::kAVX2: return "avx2";
    case IsaLevel::kAVX512: return "avx512";
    case IsaLevel::kAVX512BF16: return "avx512_bf16";
    case IsaLevel::kAMX: return "amx";
  }
  return "?";
}

}  // namespace plt
