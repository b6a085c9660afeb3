// AMX BF16 tile microkernel (TDPBF16PS), the SPR tensor-contraction path
// of the paper. Compiled with -mamx-tile -mamx-bf16 plus the AVX-512 BF16
// flags (see CMakeLists); referenced only when cpu_features reports usable
// AMX (CPUID, XCR0 and the kernel's XTILEDATA permission).
//
// The existing layouts fit the tile instruction with the operand roles
// swapped (see gemm_micro.hpp): src1 = B^T [n][k] (stride ldb*2 bytes),
// src2 = the VNNI2 A block [k/2][m][2] (stride lda*4 bytes), and the fp32
// accumulator is C^T [n][m] (stride ldc*4 bytes). A 32x32 C block uses tiles
//   tmm0..3  C^T (n half, m half)       tmm4,5  B^T (n half)
//   tmm6,7   A   (m half)
// and reduces the whole batch and every k chunk inside the tiles. A bf16 C
// is staged through a 32x32 fp32 block on the stack.
#include <immintrin.h>

#include <algorithm>

#include "tpp/gemm_template.hpp"

namespace plt::tpp::detail {

namespace {

constexpr std::int64_t kHalf = 16;  // tile rows of n, tile columns of m
constexpr std::int64_t kBlock = 2 * kHalf;

// GCC's tile intrinsics are asm statements that do not tell the compiler
// which memory they read: tileloadd has no memory operand and ldtilecfg
// names 8 of its 64 bytes. Stores they depend on are published first, or
// the compiler may sink or drop them (a dropped config store makes the
// first tileloadd raise SIGILL).
inline void publish_stores() { __asm__ volatile("" ::: "memory"); }

// Key of the config the calling thread loaded last (0: none). LDTILECFG also
// zeroes every tile, so it is only issued when the key changes.
thread_local std::uint64_t t_loaded_key = 0;

void ensure_config(const TileConfig& cfg, std::uint64_t key) {
  if (t_loaded_key == key) return;
  publish_stores();
  _tile_loadconfig(&cfg);
  t_loaded_key = key;
}

// One C block of up to 32 columns (two n tiles when N2) by 32 (M2) or 16
// rows of m. `c` points at C(i0, j0), or at the fp32 staging block.
template <bool N2, bool M2>
void tile_block(const MicroArgs& s, const void* const* a,
                const void* const* b, std::int64_t count, float* c,
                std::int64_t ldc, bool acc, std::int64_t i0, std::int64_t j0,
                std::int64_t kc) {
  const std::int64_t cs = ldc * 4;
  publish_stores();  // C (or its staging block) and the operands
  if (acc) {
    _tile_loadd(0, c, cs);
    if constexpr (M2) _tile_loadd(1, c + kHalf, cs);
    if constexpr (N2) _tile_loadd(2, c + kHalf * ldc, cs);
    if constexpr (N2 && M2) _tile_loadd(3, c + kHalf * ldc + kHalf, cs);
  } else {
    _tile_zero(0);
    if constexpr (M2) _tile_zero(1);
    if constexpr (N2) _tile_zero(2);
    if constexpr (N2 && M2) _tile_zero(3);
  }
  const std::int64_t bs = s.ldb * 2;
  const std::int64_t as = s.lda * 4;
  for (std::int64_t e = 0; e < count; ++e) {
    const bf16* ae = static_cast<const bf16*>(a[e]) + i0 * 2;
    const bf16* be = static_cast<const bf16*>(b[e]) + j0 * s.ldb;
    for (std::int64_t k0 = 0; k0 < s.k; k0 += kc) {
      _tile_loadd(4, be + k0, bs);
      if constexpr (N2) _tile_loadd(5, be + kHalf * s.ldb + k0, bs);
      const bf16* ak = ae + k0 * s.lda;  // pair row k0/2
      _tile_loadd(6, ak, as);
      if constexpr (M2) _tile_loadd(7, ak + 2 * kHalf, as);
      _tile_dpbf16ps(0, 4, 6);
      if constexpr (M2) _tile_dpbf16ps(1, 4, 7);
      if constexpr (N2) _tile_dpbf16ps(2, 5, 6);
      if constexpr (N2 && M2) _tile_dpbf16ps(3, 5, 7);
    }
  }
  _tile_stored(0, c, cs);
  if constexpr (M2) _tile_stored(1, c + kHalf, cs);
  if constexpr (N2) _tile_stored(2, c + kHalf * ldc, cs);
  if constexpr (N2 && M2) _tile_stored(3, c + kHalf * ldc + kHalf, cs);
}

template <bool N2>
void tile_block_m(bool m2, const MicroArgs& s, const void* const* a,
                  const void* const* b, std::int64_t count, float* c,
                  std::int64_t ldc, bool acc, std::int64_t i0,
                  std::int64_t j0, std::int64_t kc) {
  if (m2) {
    tile_block<N2, true>(s, a, b, count, c, ldc, acc, i0, j0, kc);
  } else {
    tile_block<N2, false>(s, a, b, count, c, ldc, acc, i0, j0, kc);
  }
}

void fill_config(std::int64_t nb, std::int64_t kc, TileConfig& cfg,
                 std::uint64_t& key) {
  const auto r0 = static_cast<std::uint8_t>(std::min(nb, kHalf));
  const auto r1 = static_cast<std::uint8_t>(nb - r0);
  const auto kbytes = static_cast<std::uint16_t>(kc * 2);
  cfg = TileConfig{};
  cfg.palette = 1;
  const std::uint8_t rows[8] = {r0, r0, r1, r1, r0, r1,
                                static_cast<std::uint8_t>(kc / 2),
                                static_cast<std::uint8_t>(kc / 2)};
  const std::uint16_t colsb[8] = {64, 64, 64, 64, kbytes, kbytes, 64, 64};
  for (int t = 0; t < 8; ++t) {
    cfg.rows[t] = rows[t];
    cfg.colsb[t] = rows[t] != 0 ? colsb[t] : 0;
  }
  key = (std::uint64_t{1} << 32) | r0 | (std::uint64_t{r1} << 8) |
        (static_cast<std::uint64_t>(kc) << 16);
}

}  // namespace

AmxPlan make_amx_plan(std::int64_t n, std::int64_t k) {
  AmxPlan plan;
  plan.kc = std::min<std::int64_t>(k, 32) & ~std::int64_t{1};
  while (k % plan.kc != 0) plan.kc -= 2;
  fill_config(std::min(n, kBlock), plan.kc, plan.body, plan.body_key);
  if (n > kBlock && n % kBlock != 0)
    fill_config(n % kBlock, plan.kc, plan.tail, plan.tail_key);
  return plan;
}

void gemm_bf16_vnni_amx(const MicroArgs& s, const void* const* a,
                        const void* const* b, std::int64_t count, void* c,
                        bool acc) {
  const AmxPlan& plan = *s.amx;
  alignas(64) float stage[kBlock * kBlock];
  for (std::int64_t j0 = 0; j0 < s.n; j0 += kBlock) {
    const std::int64_t nb = std::min(kBlock, s.n - j0);
    if (nb == std::min(s.n, kBlock)) {
      ensure_config(plan.body, plan.body_key);
    } else {
      ensure_config(plan.tail, plan.tail_key);
    }
    for (std::int64_t i0 = 0; i0 < s.m; i0 += kBlock) {
      const bool m2 = s.m - i0 >= kBlock;
      const std::int64_t mv = m2 ? 2 : 1;  // 16-wide pieces per column
      float* cb = stage;
      std::int64_t ldcb = kBlock;
      bf16* c16 = nullptr;
      if (s.c_bf16) {
        c16 = static_cast<bf16*>(c) + i0 + j0 * s.ldc;
        if (acc) {
          for (std::int64_t j = 0; j < nb; ++j)
            for (std::int64_t v = 0; v < mv; ++v)
              Avx512Io::store_c<true>(
                  stage + j * kBlock + v * kHalf, 0,
                  Avx512Io::load_c_bf16<true>(c16 + j * s.ldc + v * kHalf, 0));
        }
      } else {
        cb = static_cast<float*>(c) + i0 + j0 * s.ldc;
        ldcb = s.ldc;
      }
      if (nb > kHalf) {
        tile_block_m<true>(m2, s, a, b, count, cb, ldcb, acc, i0, j0, plan.kc);
      } else {
        tile_block_m<false>(m2, s, a, b, count, cb, ldcb, acc, i0, j0,
                            plan.kc);
      }
      if (c16 != nullptr) {
        for (std::int64_t j = 0; j < nb; ++j)
          for (std::int64_t v = 0; v < mv; ++v)
            Avx512Io::store_c_bf16<true>(
                c16 + j * s.ldc + v * kHalf, 0,
                Avx512Io::load_c<true>(stage + j * kBlock + v * kHalf, 0));
      }
    }
  }
}

}  // namespace plt::tpp::detail
