// The register-blocked batch-reduce microkernel shared by every vector ISA.
//
// Included only by the per-ISA translation units, each compiled with its
// own -m flags; everything here has internal linkage so every unit gets its
// own instantiations.
//
// A C block of MV vectors of m by NB columns of n lives in MV*NB
// accumulator registers while the kernel walks all `count` (A_i, B_i) pairs
// and every k step of each: C is loaded once and stored once per call. Each
// output element sees the same chain of fused multiply-adds as `count`
// chained count=1 calls that store and reload an fp32 C, so the blocking and
// the in-register batch change no bit.
//
// An ISA traits type T supplies:
//   Vec, Mask, AElem, AOp, BOp       register and operand types
//   kLanes                           fp32 lanes per Vec
//   kNB                              widest n block (accumulator budget)
//   kKStep                           k per step: 1 (flat A) or 2 (VNNI2 A)
//   mask(rem)                        lanes [0, min(rem, kLanes)) active
//   zero()
//   load_c<Full> / load_c_bf16<Full> C column piece (bf16 widened exactly)
//   store_c<Full> / store_c_bf16<Full>  (bf16 rounded as bf16::from_f32)
//   load_a<Full>(a, lda, step, i, mask) -> AOp
//   bcast_b(bj, step) -> BOp         B(step, j) broadcast
//   bcast_b_tail(bj, step) -> BOp    odd-k tail pair, VNNI only
//   fma(acc, AOp, BOp)
// `Full` means every lane is in range, so the masks can be skipped.
#pragma once

#include <immintrin.h>

#include <cstdint>

#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {
namespace {

template <class T, int MV, int NB, bool Full>
void micro_block(const MicroArgs& s, const void* const* a,
                 const void* const* b, std::int64_t count, void* c, bool acc,
                 std::int64_t i0, std::int64_t j0) {
  using E = typename T::AElem;
  constexpr std::int64_t L = T::kLanes;
  typename T::Mask mask[MV];
#pragma GCC unroll 4
  for (int v = 0; v < MV; ++v) mask[v] = T::mask(s.m - i0 - v * L);

  typename T::Vec accv[MV][NB];
#pragma GCC unroll 16
  for (int jj = 0; jj < NB; ++jj) {
#pragma GCC unroll 4
    for (int v = 0; v < MV; ++v) {
      const std::int64_t off = i0 + v * L + (j0 + jj) * s.ldc;
      if (!acc) {
        accv[v][jj] = T::zero();
      } else if (s.c_bf16) {
        accv[v][jj] = T::template load_c_bf16<Full>(
            static_cast<const bf16*>(c) + off, mask[v]);
      } else {
        accv[v][jj] = T::template load_c<Full>(
            static_cast<const float*>(c) + off, mask[v]);
      }
    }
  }

  const std::int64_t steps = s.k / T::kKStep;
  for (std::int64_t e = 0; e < count; ++e) {
    const E* ae = static_cast<const E*>(a[e]);
    const E* be = static_cast<const E*>(b[e]) + j0 * s.ldb;
    for (std::int64_t p = 0; p < steps; ++p) {
      typename T::AOp av[MV];
#pragma GCC unroll 4
      for (int v = 0; v < MV; ++v)
        av[v] = T::template load_a<Full>(ae, s.lda, p, i0 + v * L, mask[v]);
#pragma GCC unroll 16
      for (int jj = 0; jj < NB; ++jj) {
        const typename T::BOp bv = T::bcast_b(be + jj * s.ldb, p);
#pragma GCC unroll 4
        for (int v = 0; v < MV; ++v) T::fma(accv[v][jj], av[v], bv);
      }
    }
    if constexpr (T::kKStep == 2) {
      if (s.k % 2 != 0) {
        typename T::AOp av[MV];
#pragma GCC unroll 4
        for (int v = 0; v < MV; ++v)
          av[v] = T::template load_a<Full>(ae, s.lda, steps, i0 + v * L,
                                           mask[v]);
#pragma GCC unroll 16
        for (int jj = 0; jj < NB; ++jj) {
          const typename T::BOp bv = T::bcast_b_tail(be + jj * s.ldb, steps);
#pragma GCC unroll 4
          for (int v = 0; v < MV; ++v) T::fma(accv[v][jj], av[v], bv);
        }
      }
    }
  }

#pragma GCC unroll 16
  for (int jj = 0; jj < NB; ++jj) {
#pragma GCC unroll 4
    for (int v = 0; v < MV; ++v) {
      const std::int64_t off = i0 + v * L + (j0 + jj) * s.ldc;
      if (s.c_bf16) {
        T::template store_c_bf16<Full>(static_cast<bf16*>(c) + off, mask[v],
                                       accv[v][jj]);
      } else {
        T::template store_c<Full>(static_cast<float*>(c) + off, mask[v],
                                  accv[v][jj]);
      }
    }
  }
}

// All n columns of one m block: kNB-wide blocks, then at most one each of
// 8, 4, 2 and 1 for the remainder.
template <class T, int MV, bool Full>
void micro_cols(const MicroArgs& s, const void* const* a,
                const void* const* b, std::int64_t count, void* c, bool acc,
                std::int64_t i0) {
  static_assert(T::kNB <= 16, "the remainder blocks cover fewer than 16");
  std::int64_t j = 0;
  for (; j + T::kNB <= s.n; j += T::kNB)
    micro_block<T, MV, T::kNB, Full>(s, a, b, count, c, acc, i0, j);
  if constexpr (T::kNB > 8) {
    if (j + 8 <= s.n) {
      micro_block<T, MV, 8, Full>(s, a, b, count, c, acc, i0, j);
      j += 8;
    }
  }
  if constexpr (T::kNB > 4) {
    if (j + 4 <= s.n) {
      micro_block<T, MV, 4, Full>(s, a, b, count, c, acc, i0, j);
      j += 4;
    }
  }
  if constexpr (T::kNB > 2) {
    if (j + 2 <= s.n) {
      micro_block<T, MV, 2, Full>(s, a, b, count, c, acc, i0, j);
      j += 2;
    }
  }
  if (j < s.n) micro_block<T, MV, 1, Full>(s, a, b, count, c, acc, i0, j);
}

// The Micro entry body: 2-vector m blocks, then a masked 1- or 2-vector tail.
template <class T>
void brgemm_micro(const MicroArgs& s, const void* const* a,
                  const void* const* b, std::int64_t count, void* c,
                  bool acc) {
  constexpr std::int64_t L = T::kLanes;
  std::int64_t i = 0;
  for (; i + 2 * L <= s.m; i += 2 * L)
    micro_cols<T, 2, true>(s, a, b, count, c, acc, i);
  const std::int64_t rem = s.m - i;
  if (rem == L) {
    micro_cols<T, 1, true>(s, a, b, count, c, acc, i);
  } else if (rem > L) {
    micro_cols<T, 2, false>(s, a, b, count, c, acc, i);
  } else if (rem > 0) {
    micro_cols<T, 1, false>(s, a, b, count, c, acc, i);
  }
}

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
// C-side loads and stores shared by the AVX-512 kernels (and the AMX
// kernel's bf16 staging).
struct Avx512Io {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr std::int64_t kLanes = 16;

  static Mask mask(std::int64_t rem) {
    return rem >= 16 ? static_cast<Mask>(0xffffu)
                     : static_cast<Mask>((1u << rem) - 1u);
  }
  static Vec zero() { return _mm512_setzero_ps(); }

  template <bool Full>
  static Vec load_c(const float* p, Mask m) {
    if constexpr (Full) return _mm512_loadu_ps(p);
    return _mm512_maskz_loadu_ps(m, p);
  }
  template <bool Full>
  static void store_c(float* p, Mask m, Vec v) {
    if constexpr (Full) {
      _mm512_storeu_ps(p, v);
    } else {
      _mm512_mask_storeu_ps(p, m, v);
    }
  }
  template <bool Full>
  static Vec load_c_bf16(const bf16* p, Mask m) {
    __m256i h;
    if constexpr (Full) {
      h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    } else {
      h = _mm256_maskz_loadu_epi16(m, p);
    }
    return _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_cvtepu16_epi32(h), 16));
  }
  template <bool Full>
  static void store_c_bf16(bf16* p, Mask m, Vec v) {
    const __m256i h = to_bf16(v);
    if constexpr (Full) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), h);
    } else {
      _mm256_mask_storeu_epi16(p, m, h);
    }
  }

  // bf16::from_f32 on 16 lanes: round to nearest even, NaN quietened.
  // vcvtneps2bf16 is not used because it flushes denormal inputs to zero.
  static __m256i to_bf16(Vec v) {
    const __m512i u = _mm512_castps_si512(v);
    const __m512i lsb =
        _mm512_and_si512(_mm512_srli_epi32(u, 16), _mm512_set1_epi32(1));
    const __m512i rounded =
        _mm512_add_epi32(u, _mm512_add_epi32(lsb, _mm512_set1_epi32(0x7fff)));
    const __m512i quiet = _mm512_or_si512(u, _mm512_set1_epi32(0x00400000));
    const __mmask16 nan = _mm512_cmp_ps_mask(v, v, _CMP_UNORD_Q);
    const __m512i r = _mm512_mask_blend_epi32(nan, rounded, quiet);
    return _mm512_cvtepi32_epi16(_mm512_srli_epi32(r, 16));
  }
};
#endif

}  // namespace
}  // namespace plt::tpp::detail
