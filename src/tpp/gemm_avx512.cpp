// AVX-512 fp32 and bf16-VNNI microkernels. Compiled with
// -mavx512f/bw/vl/dq (see CMakeLists); only referenced when CPUID agrees.
//
// Both instantiate the register-blocked template of gemm_template.hpp with
// 2 zmm of m x 8 columns of n accumulators. The bf16 kernel widens the
// VNNI2-packed A pairs to fp32 in registers (two FMAs per k pair) so it runs
// on any AVX-512 machine; gemm_bf16_vnni_avx512bf16 (separate TU) uses the
// native vdpbf16ps dot-product.
#include <cstring>

#include "tpp/gemm_template.hpp"

namespace plt::tpp::detail {

namespace {

struct Avx512F32 : Avx512Io {
  using AElem = float;
  using AOp = __m512;
  using BOp = __m512;
  static constexpr int kNB = 12;
  static constexpr int kKStep = 1;

  template <bool Full>
  static AOp load_a(const float* a, std::int64_t lda, std::int64_t kk,
                    std::int64_t i, Mask m) {
    return load_c<Full>(a + i + kk * lda, m);
  }
  static BOp bcast_b(const float* bj, std::int64_t kk) {
    return _mm512_set1_ps(bj[kk]);
  }
  static void fma(Vec& acc, AOp a, BOp b) { acc = _mm512_fmadd_ps(a, b, acc); }
};

// Splits 16 packed (k, k+1) bf16 pairs into their even and odd halves as
// fp32 (bf16 is the top 16 bits of fp32).
struct Pair {
  __m512 even, odd;
  Pair() = default;
  explicit Pair(__m512i packed)
      : even(_mm512_castsi512_ps(_mm512_slli_epi32(packed, 16))),
        odd(_mm512_castsi512_ps(
            _mm512_and_si512(packed, _mm512_set1_epi32(0xffff0000)))) {}
};

struct Avx512Bf16Widen : Avx512Io {
  using AElem = bf16;
  using AOp = Pair;
  using BOp = Pair;
  static constexpr int kNB = 8;
  static constexpr int kKStep = 2;

  template <bool Full>
  static AOp load_a(const bf16* a, std::int64_t lda, std::int64_t p,
                    std::int64_t i, Mask m) {
    const bf16* src = a + (p * lda + i) * 2;
    if constexpr (Full) return Pair(_mm512_loadu_si512(src));
    return Pair(_mm512_maskz_loadu_epi32(m, src));
  }
  static BOp bcast_b(const bf16* bj, std::int64_t p) {
    std::int32_t word;
    std::memcpy(&word, bj + 2 * p, sizeof(word));
    return Pair(_mm512_set1_epi32(word));
  }
  // Odd-k tail: the missing second element of the pair is zero.
  static BOp bcast_b_tail(const bf16* bj, std::int64_t p) {
    return Pair(_mm512_set1_epi32(static_cast<std::int32_t>(bj[2 * p].bits)));
  }
  static void fma(Vec& acc, const AOp& a, const BOp& b) {
    acc = _mm512_fmadd_ps(a.even, b.even, acc);
    acc = _mm512_fmadd_ps(a.odd, b.odd, acc);
  }
};

}  // namespace

void gemm_f32_avx512(const MicroArgs& s, const void* const* a,
                     const void* const* b, std::int64_t count, void* c,
                     bool acc) {
  brgemm_micro<Avx512F32>(s, a, b, count, c, acc);
}

void gemm_bf16_vnni_avx512(const MicroArgs& s, const void* const* a,
                           const void* const* b, std::int64_t count, void* c,
                           bool acc) {
  brgemm_micro<Avx512Bf16Widen>(s, a, b, count, c, acc);
}

}  // namespace plt::tpp::detail
