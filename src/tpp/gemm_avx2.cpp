// AVX2+FMA fp32 microkernel. Compiled with -mavx2 -mfma (see CMakeLists);
// only referenced when CPUID reports the features at runtime.
//
// Instantiates the register-blocked template of gemm_template.hpp with 2 ymm
// of m x 4 columns of n accumulators (8 of the 16 ymm registers).
#include <cstring>

#include "tpp/gemm_template.hpp"

namespace plt::tpp::detail {

namespace {

struct Avx2F32 {
  using Vec = __m256;
  using Mask = __m256i;  // lane i active iff its sign bit is set
  using AElem = float;
  using AOp = __m256;
  using BOp = __m256;
  static constexpr std::int64_t kLanes = 8;
  static constexpr int kNB = 6;
  static constexpr int kKStep = 1;

  static Mask mask(std::int64_t rem) {
    const int active = rem >= 8 ? 8 : static_cast<int>(rem);
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(active),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
  static int active_lanes(Mask m) {
    return __builtin_popcount(
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(m))));
  }
  static Vec zero() { return _mm256_setzero_ps(); }

  template <bool Full>
  static Vec load_c(const float* p, Mask m) {
    if constexpr (Full) return _mm256_loadu_ps(p);
    return _mm256_maskload_ps(p, m);
  }
  template <bool Full>
  static void store_c(float* p, Mask m, Vec v) {
    if constexpr (Full) {
      _mm256_storeu_ps(p, v);
    } else {
      _mm256_maskstore_ps(p, m, v);
    }
  }
  // No 16-bit masked moves before AVX-512: tails go through a lane buffer.
  template <bool Full>
  static Vec load_c_bf16(const bf16* p, Mask m) {
    __m128i h;
    if constexpr (Full) {
      h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    } else {
      alignas(16) std::uint16_t lanes[8] = {};
      std::memcpy(lanes, p, sizeof(bf16) * active_lanes(m));
      h = _mm_load_si128(reinterpret_cast<const __m128i*>(lanes));
    }
    return _mm256_castsi256_ps(
        _mm256_slli_epi32(_mm256_cvtepu16_epi32(h), 16));
  }
  template <bool Full>
  static void store_c_bf16(bf16* p, Mask m, Vec v) {
    const __m128i h = to_bf16(v);
    if constexpr (Full) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(p), h);
    } else {
      alignas(16) std::uint16_t lanes[8];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes), h);
      std::memcpy(p, lanes, sizeof(bf16) * active_lanes(m));
    }
  }
  // bf16::from_f32 on 8 lanes: round to nearest even, NaN quietened.
  static __m128i to_bf16(Vec v) {
    const __m256i u = _mm256_castps_si256(v);
    const __m256i lsb =
        _mm256_and_si256(_mm256_srli_epi32(u, 16), _mm256_set1_epi32(1));
    const __m256i rounded =
        _mm256_add_epi32(u, _mm256_add_epi32(lsb, _mm256_set1_epi32(0x7fff)));
    const __m256i quiet = _mm256_or_si256(u, _mm256_set1_epi32(0x00400000));
    const __m256 nan = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
    const __m256i r = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(rounded), _mm256_castsi256_ps(quiet), nan));
    // The top halves are zero after the shift, so the unsigned pack is
    // exact; it packs within 128-bit lanes, so gather quadwords 0 and 2.
    const __m256i packed = _mm256_packus_epi32(_mm256_srli_epi32(r, 16),
                                               _mm256_setzero_si256());
    return _mm256_castsi256_si128(_mm256_permute4x64_epi64(packed, 0x08));
  }

  template <bool Full>
  static AOp load_a(const float* a, std::int64_t lda, std::int64_t kk,
                    std::int64_t i, Mask m) {
    return load_c<Full>(a + i + kk * lda, m);
  }
  static BOp bcast_b(const float* bj, std::int64_t kk) {
    return _mm256_broadcast_ss(bj + kk);
  }
  static void fma(Vec& acc, AOp a, BOp b) { acc = _mm256_fmadd_ps(a, b, acc); }
};

}  // namespace

void gemm_f32_avx2(const MicroArgs& s, const void* const* a,
                   const void* const* b, std::int64_t count, void* c,
                   bool acc) {
  brgemm_micro<Avx2F32>(s, a, b, count, c, acc);
}

}  // namespace plt::tpp::detail
