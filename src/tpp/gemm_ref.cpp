// Scalar reference microkernels. These define the numerics contract: every
// vectorized path must agree with these to within accumulation-order
// tolerance, and the test suite enforces it.
#include "tpp/gemm_micro.hpp"

namespace plt::tpp::detail {

namespace {

// Walks every C element once: seeds it from C (widened when bf16) or zero,
// lets `dot(e, i, j, sum)` add batch entry e's k-reduction in order, and
// writes it back in C's storage type.
template <typename Dot>
void ref_batch(const MicroArgs& s, std::int64_t count, void* c, bool acc,
               Dot&& dot) {
  for (std::int64_t j = 0; j < s.n; ++j) {
    for (std::int64_t i = 0; i < s.m; ++i) {
      const std::int64_t idx = i + j * s.ldc;
      float sum = 0.0f;
      if (acc) {
        sum = s.c_bf16 ? static_cast<const bf16*>(c)[idx].to_f32()
                       : static_cast<const float*>(c)[idx];
      }
      for (std::int64_t e = 0; e < count; ++e) sum = dot(e, i, j, sum);
      if (s.c_bf16) {
        static_cast<bf16*>(c)[idx] = bf16::from_f32(sum);
      } else {
        static_cast<float*>(c)[idx] = sum;
      }
    }
  }
}

}  // namespace

void gemm_f32_ref(const MicroArgs& s, const void* const* a,
                  const void* const* b, std::int64_t count, void* c,
                  bool acc) {
  ref_batch(s, count, c, acc,
            [&](std::int64_t e, std::int64_t i, std::int64_t j, float sum) {
              const float* ae = static_cast<const float*>(a[e]);
              const float* bj = static_cast<const float*>(b[e]) + j * s.ldb;
              for (std::int64_t kk = 0; kk < s.k; ++kk) {
                sum += ae[i + kk * s.lda] * bj[kk];
              }
              return sum;
            });
}

void gemm_bf16_flat_ref(const MicroArgs& s, const void* const* a,
                        const void* const* b, std::int64_t count, void* c,
                        bool acc) {
  ref_batch(s, count, c, acc,
            [&](std::int64_t e, std::int64_t i, std::int64_t j, float sum) {
              const bf16* ae = static_cast<const bf16*>(a[e]);
              const bf16* bj = static_cast<const bf16*>(b[e]) + j * s.ldb;
              for (std::int64_t kk = 0; kk < s.k; ++kk) {
                sum += ae[i + kk * s.lda].to_f32() * bj[kk].to_f32();
              }
              return sum;
            });
}

void gemm_bf16_vnni_ref(const MicroArgs& s, const void* const* a,
                        const void* const* b, std::int64_t count, void* c,
                        bool acc) {
  // A is [ceil(k/2)][m][2]; mirror the pairwise accumulation of vdpbf16ps
  // (acc += a0*b0 + a1*b1 per pair) so the fast path matches bit-for-bit on
  // the same accumulation order.
  const std::int64_t kp = (s.k + 1) / 2;
  ref_batch(s, count, c, acc,
            [&](std::int64_t e, std::int64_t i, std::int64_t j, float sum) {
              const bf16* ae = static_cast<const bf16*>(a[e]);
              const bf16* bj = static_cast<const bf16*>(b[e]) + j * s.ldb;
              for (std::int64_t p = 0; p < kp; ++p) {
                const bf16* ap = ae + (p * s.lda + i) * 2;
                const float b0 = bj[2 * p].to_f32();
                const float b1 =
                    (2 * p + 1 < s.k) ? bj[2 * p + 1].to_f32() : 0.0f;
                sum += ap[0].to_f32() * b0 + ap[1].to_f32() * b1;
              }
              return sum;
            });
}

}  // namespace plt::tpp::detail
