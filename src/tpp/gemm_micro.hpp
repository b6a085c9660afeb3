// Internal microkernel entry points for the (BR)GEMM TPP.
//
// One entry per ISA level, all with identical semantics:
//   C(m x n, col-major ldc) {=, +=} sum_{i<count} A_i(m x k) * B_i(k x n)
// where `acc` selects overwrite (false) vs accumulate (true) for the first
// term. The whole batch is reduced in registers (or AMX tiles): C is read
// once and written once per call. A is col-major (lda) in the flat layout,
// or VNNI2-packed ([ceil(k/2)][m][2], lda = m stride in pairs) for the
// low-precision fast paths. B is always col-major (ldb). bf16 inputs
// accumulate in fp32; a bf16 C (MicroArgs::c_bf16) is widened exactly on
// load and rounded to nearest even (bf16::from_f32, bit for bit) on store.
//
// Declarations are unconditional; definitions for the vector paths live in
// per-ISA translation units compiled with the matching -m flags, and the
// selector in brgemm.cpp only references them when the corresponding
// PLT_KERNELS_* macro is on (the same macros gate cpu_features.cpp, so a
// kernel is referenced iff it is compiled).
#pragma once

#include <cstdint>

#include "common/bf16.hpp"

namespace plt::tpp::detail {

struct AmxPlan;

struct MicroArgs {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t lda = 0;
  std::int64_t ldb = 0;
  std::int64_t ldc = 0;
  bool c_bf16 = false;             // C is stored as bf16 (else fp32)
  const AmxPlan* amx = nullptr;    // tile plan, read by the AMX kernel only
};

// a[i] / b[i] point at the i-th A / B block (float or bf16 per the kernel).
using Micro = void (*)(const MicroArgs&, const void* const* a,
                       const void* const* b, std::int64_t count, void* c,
                       bool acc);

// Scalar reference paths (always available; numerics ground truth).
void gemm_f32_ref(const MicroArgs&, const void* const*, const void* const*,
                  std::int64_t, void*, bool);
void gemm_bf16_flat_ref(const MicroArgs&, const void* const*,
                        const void* const*, std::int64_t, void*, bool);
void gemm_bf16_vnni_ref(const MicroArgs&, const void* const*,
                        const void* const*, std::int64_t, void*, bool);

// AVX2 + FMA.
void gemm_f32_avx2(const MicroArgs&, const void* const*, const void* const*,
                   std::int64_t, void*, bool);

// AVX-512 (F/BW/VL/DQ); the bf16 kernel widens to fp32 in registers.
void gemm_f32_avx512(const MicroArgs&, const void* const*, const void* const*,
                     std::int64_t, void*, bool);
void gemm_bf16_vnni_avx512(const MicroArgs&, const void* const*,
                           const void* const*, std::int64_t, void*, bool);

// AVX-512 BF16 (vdpbf16ps).
void gemm_bf16_vnni_avx512bf16(const MicroArgs&, const void* const*,
                               const void* const*, std::int64_t, void*, bool);

// --- AMX (TDPBF16PS) ---------------------------------------------------------
//
// The tile engine computes C^T: the tile "A" operand is B^T (rows n, k
// contiguous), the tile "B" operand is the VNNI2 A block (rows are k-pairs)
// and the fp32 accumulator tile is C^T [n][m]. A 32x32 C block uses 2x2
// accumulator tiles plus 2+2 operand tiles; the batch and the k chunks are
// reduced inside the tiles.

// The 64-byte LDTILECFG operand (palette 1).
struct TileConfig {
  std::uint8_t palette = 0;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64, "LDTILECFG operand is 64 bytes");

// Per-descriptor tile plan: one config for the full 32-column n blocks and
// one for the last partial block. Keys identify a config so a thread only
// reloads when its last-loaded config differs.
struct AmxPlan {
  std::int64_t kc = 0;  // k per tile step: the largest even divisor of k <= 32
  TileConfig body, tail;
  std::uint64_t body_key = 0, tail_key = 0;
};

// The AMX kernel's shape rule: even k and m a multiple of 16. It depends on
// m and k only, never on n, so batched and one-column calls of the same
// layer run the same kernel and agree per column bit for bit.
inline bool amx_eligible(std::int64_t m, std::int64_t k) {
  return m % 16 == 0 && k % 2 == 0;
}
AmxPlan make_amx_plan(std::int64_t n, std::int64_t k);
void gemm_bf16_vnni_amx(const MicroArgs&, const void* const*,
                        const void* const*, std::int64_t, void*, bool);

}  // namespace plt::tpp::detail
