#include "dl/sparse_fc.hpp"

#include "common/check.hpp"
#include "tpp/unary.hpp"

namespace plt::dl {

SparseFcLayer::SparseFcLayer(SparseFcConfig cfg, const Tensor& dense_weight,
                             const Tensor& bias)
    : cfg_([&] {
        if (cfg.bn == 0) cfg.bn = cfg.tokens;
        return cfg;
      }()),
      a_([&] {
        PLT_CHECK(dense_weight.dim(0) == cfg_.out_features &&
                      dense_weight.dim(1) == cfg_.in_features,
                  "sparse fc: weight shape mismatch");
        // The SpMM's A is column-major (out x in); the master weights are
        // row-major (out x in) — transpose while densifying.
        std::vector<float> cm(static_cast<std::size_t>(cfg_.out_features *
                                                       cfg_.in_features));
        for (std::int64_t o = 0; o < cfg_.out_features; ++o)
          for (std::int64_t i = 0; i < cfg_.in_features; ++i)
            cm[static_cast<std::size_t>(o + i * cfg_.out_features)] =
                dense_weight[static_cast<std::size_t>(o * cfg_.in_features + i)];
        return tpp::BcscMatrix::prune_from_dense(
            cm.data(), cfg_.out_features, cfg_.in_features, cfg_.block,
            cfg_.block, cfg_.dtype, cfg_.sparsity);
      }()),
      bias_(bias),
      bias_add_(tpp::BinaryKind::kAdd, cfg_.out_features, cfg_.tokens,
                DType::F32, tpp::Broadcast::kCol) {
  kernels::SpmmConfig sc;
  sc.M = cfg_.out_features;
  sc.N = cfg_.tokens;
  sc.K = cfg_.in_features;
  sc.bm = cfg_.block;
  sc.bk = cfg_.block;
  sc.bn = cfg_.bn;
  sc.dtype = cfg_.dtype;
  sc.loop_spec = cfg_.loop_spec;
  kernel_ = std::make_unique<kernels::SpmmKernel>(sc);
  if (cfg_.gelu) {
    gelu_.emplace(tpp::UnaryKind::kGelu, cfg_.out_features, cfg_.tokens);
  }
  if (cfg_.dtype == DType::BF16) {
    stage_.emplace(tpp::UnaryKind::kCopy, cfg_.in_features, cfg_.tokens,
                   DType::F32, DType::BF16);
    in_stage_.resize(static_cast<std::size_t>(cfg_.tokens * cfg_.in_features));
  }
}

void SparseFcLayer::forward(const float* input, float* output) const {
  // Row-major [S][in] is column-major in x S — exactly the dense B panel.
  const void* b = input;
  if (stage_) {
    (*stage_)(input, in_stage_.data());
    b = in_stage_.data();
  }
  kernel_->run(a_, b, output);

  // Bias + optional activation on the full (out x S col-major) output.
  bias_add_(bias_.data(), output, output);
  if (gelu_) (*gelu_)(output, output);
}

double SparseFcLayer::effective_flops() const { return kernel_->flops(a_); }
double SparseFcLayer::dense_flops() const { return kernel_->dense_flops(); }

}  // namespace plt::dl
