// AVX-512-BF16 microkernel using the native vdpbf16ps dot-product: the
// vector fallback of the AMX tile path (gemm_amx.cpp) for shapes the tiles
// do not take, and the bf16 kernel on AVX-512-BF16 hosts without AMX.
// Compiled with -mavx512bf16; referenced only when CPUID reports the
// feature. Instantiates the template of gemm_template.hpp with 2 zmm of m x
// 8 columns of n accumulators.
#include <cstring>

#include "tpp/gemm_template.hpp"

namespace plt::tpp::detail {

namespace {

struct Avx512Dp : Avx512Io {
  using AElem = bf16;
  using AOp = __m512i;  // 16 packed (k, k+1) pairs of A
  using BOp = __m512i;  // one (k, k+1) pair of B broadcast
  static constexpr int kNB = 12;
  static constexpr int kKStep = 2;

  template <bool Full>
  static AOp load_a(const bf16* a, std::int64_t lda, std::int64_t p,
                    std::int64_t i, Mask m) {
    const bf16* src = a + (p * lda + i) * 2;
    if constexpr (Full) return _mm512_loadu_si512(src);
    return _mm512_maskz_loadu_epi32(m, src);
  }
  // A full pair is a single vpbroadcastd from memory.
  static BOp bcast_b(const bf16* bj, std::int64_t p) {
    std::int32_t word;
    std::memcpy(&word, bj + 2 * p, sizeof(word));
    return _mm512_set1_epi32(word);
  }
  // Odd-k tail: the high half of the pair is zero-padded.
  static BOp bcast_b_tail(const bf16* bj, std::int64_t p) {
    return _mm512_set1_epi32(static_cast<std::int32_t>(bj[2 * p].bits));
  }
  static void fma(Vec& acc, AOp a, BOp b) {
    acc = _mm512_dpbf16_ps(acc, reinterpret_cast<__m512bh>(a),
                           reinterpret_cast<__m512bh>(b));
  }
};

}  // namespace

void gemm_bf16_vnni_avx512bf16(const MicroArgs& s, const void* const* a,
                               const void* const* b, std::int64_t count,
                               void* c, bool acc) {
  brgemm_micro<Avx512Dp>(s, a, b, count, c, acc);
}

}  // namespace plt::tpp::detail
