#include "dl/attention.hpp"

#include <cmath>

#include "tpp/brgemm.hpp"
#include "tpp/equations.hpp"
#include "tpp/transforms.hpp"

namespace plt::dl {

namespace {

// Packs a [seq][dh] slice (row stride ld) into a contiguous dh-major panel
// p[t * dh + d].
void pack_panel(const float* slice, std::int64_t seq, std::int64_t dh,
                std::int64_t ld, float* panel) {
  for (std::int64_t t = 0; t < seq; ++t)
    for (std::int64_t d = 0; d < dh; ++d) panel[t * dh + d] = slice[t * ld + d];
}

}  // namespace

void AttentionHead::forward(const float* q, const float* k, const float* v,
                            float* out, float* probs_t) const {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // One scratch block per call: a seq x seq score panel and a dh-major
  // panel reused by K^T and then V. Heads run concurrently on the team, so
  // each call keeps its own, as small as the steps allow.
  std::vector<float> scratch(static_cast<std::size_t>(seq * seq + seq * dh));
  float* st = scratch.data();
  float* panel = st + seq * seq;

  // KT: col-major (seq_k x dh) panel so scores^T = KT x Q is one GEMM.
  tpp::transpose_2d(k, panel, dh, seq, ld, seq);

  // scores^T (key-major): st(j, i) = K_j . Q_i.
  tpp::GemmTPP score_gemm(seq, seq, dh, 0.0f, DType::F32, DType::F32,
                          DType::F32, tpp::ALayout::kFlat,
                          /*lda=*/seq, /*ldb=*/ld, /*ldc=*/seq);
  score_gemm(panel, q, st);

  // Each query's distribution is one contiguous column of st: softmax over
  // "rows" of the transposed view.
  tpp::softmax_scale_mask_rows(st, probs_t, seq, seq, seq, seq, scale,
                               nullptr);

  // ctx(d, i) = sum_j V(j, d) P(i, j): A = dh-major V panel, B = probs_t.
  pack_panel(v, seq, dh, ld, panel);
  tpp::GemmTPP ctx_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32,
                        DType::F32, tpp::ALayout::kFlat,
                        /*lda=*/dh, /*ldb=*/seq, /*ldc=*/ld);
  ctx_gemm(panel, probs_t, out);
}

void AttentionHead::backward(const float* q, const float* k, const float* v,
                             const float* probs_t, const float* dout,
                             float* dq, float* dk, float* dv) const {
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // Two seq x seq panels and one dh-major panel, each reused once its
  // previous contents are dead (see forward).
  std::vector<float> scratch(
      static_cast<std::size_t>(2 * seq * seq + seq * dh));
  float* sq0 = scratch.data();
  float* dst = sq0 + seq * seq;
  float* panel = dst + seq * seq;

  // dP^T (key-major): dpt(j, i) = sum_d dout(i, d) V(j, d).
  tpp::transpose_2d(v, panel, dh, seq, ld, seq);
  float* dpt = sq0;
  tpp::GemmTPP dp_gemm(seq, seq, dh, 0.0f, DType::F32, DType::F32, DType::F32,
                       tpp::ALayout::kFlat, seq, ld, seq);
  dp_gemm(panel, dout, dpt);

  // Softmax backward per query distribution (contiguous columns).
  tpp::softmax_rows_bwd(dpt, probs_t, dst, seq, seq, seq);

  // dV(j, d): dv_cm(d, j) = sum_i dout(i, d) P(i, j) — A = dh-major dout
  // panel, B = probs_t read query-major, i.e. the transpose of probs_t.
  pack_panel(dout, seq, dh, ld, panel);
  float* p_qmajor = sq0;
  tpp::transpose_2d(probs_t, p_qmajor, seq, seq, seq, seq);
  tpp::GemmTPP dv_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32, DType::F32,
                       tpp::ALayout::kFlat, dh, seq, ld);
  dv_gemm(panel, p_qmajor, dv);

  // dQ(i, d) = scale * sum_j dS(i, j) K(j, d): A = dh-major K panel,
  // B = dst (key-major columns per query).
  pack_panel(k, seq, dh, ld, panel);
  tpp::GemmTPP dq_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32, DType::F32,
                       tpp::ALayout::kFlat, dh, seq, ld);
  dq_gemm(panel, dst, dq);

  // dK(j, d) = scale * sum_i dS(i, j) Q(i, d): B must be query-major, so
  // transpose dst once.
  float* ds_qmajor = sq0;
  tpp::transpose_2d(dst, ds_qmajor, seq, seq, seq, seq);
  pack_panel(q, seq, dh, ld, panel);
  tpp::GemmTPP dk_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32, DType::F32,
                       tpp::ALayout::kFlat, dh, seq, ld);
  dk_gemm(panel, ds_qmajor, dk);

  // Apply the attention scale to dQ and dK.
  for (std::int64_t t = 0; t < seq; ++t)
    for (std::int64_t d = 0; d < dh; ++d) {
      dq[t * ld + d] *= scale;
      dk[t * ld + d] *= scale;
    }
}

}  // namespace plt::dl
