// Block-sparse fully-connected layer (Section IV-B): the dense BRGEMM of
// FcLayer replaced by the Block-SpMM kernel over magnitude-pruned weights.
// Inference only — the paper's sparse path targets latency-oriented BERT
// inference (Fig. 10).
#pragma once

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "dl/tensor.hpp"
#include "kernels/spmm_kernel.hpp"
#include "tpp/binary.hpp"
#include "tpp/unary.hpp"

namespace plt::dl {

struct SparseFcConfig {
  std::int64_t in_features = 0;
  std::int64_t out_features = 0;
  std::int64_t tokens = 0;
  std::int64_t block = 8;       // bm = bk = block (the paper uses 8x8)
  std::int64_t bn = 0;          // N tile (0 => tokens)
  double sparsity = 0.8;
  DType dtype = DType::F32;     // block precision (bf16 uses VNNI blocks)
  bool gelu = false;
  std::string loop_spec = "AB";
};

class SparseFcLayer {
 public:
  // Prunes the given dense row-major (out x in) weights to the target
  // block sparsity (largest-Frobenius-norm blocks survive).
  SparseFcLayer(SparseFcConfig cfg, const Tensor& dense_weight,
                const Tensor& bias);

  // input: S x in row-major fp32; output: S x out row-major fp32.
  void forward(const float* input, float* output) const;

  double effective_flops() const;  // per forward call
  double dense_flops() const;
  double density() const { return a_.density(); }
  const SparseFcConfig& config() const { return cfg_; }

 private:
  SparseFcConfig cfg_;
  tpp::BcscMatrix a_;
  std::unique_ptr<kernels::SpmmKernel> kernel_;
  Tensor bias_;
  // The epilogue on the out x S col-major output: bias add, then GeLU.
  tpp::BinaryTPP bias_add_;
  std::optional<tpp::UnaryTPP> gelu_;
  std::optional<tpp::UnaryTPP> stage_;    // fp32 -> bf16 input panel
  mutable AlignedBuffer<bf16> in_stage_;  // bf16 activation panel
};

}  // namespace plt::dl
