// BERT encoder implemented with PARLOOPER/TPP building blocks (Section IV-A):
// fused FC layers (BRGEMM + bias + activation), scaled-dot-product attention
// heads, dropout-with-mask, residual adds and layernorm equations —
// forward AND backward, so the Fig. 9 fine-tuning throughput experiment runs
// a real training step (fwd + bwd + SGD).
//
// A block-sparse inference variant (Section IV-B / Fig. 10) replaces the
// four FC contractions with Block-SpMM over magnitude-pruned weights.
#pragma once

#include <memory>
#include <vector>

#include "dl/attention.hpp"
#include "dl/fc_layer.hpp"
#include "dl/layernorm.hpp"
#include "dl/sparse_fc.hpp"
#include "tpp/equations.hpp"

namespace plt::dl {

struct BertConfig {
  std::int64_t hidden = 256;
  std::int64_t heads = 4;
  std::int64_t intermediate = 1024;
  std::int64_t layers = 2;
  std::int64_t seq_len = 128;
  std::int64_t batch = 1;
  DType dtype = DType::F32;
  float dropout_p = 0.0f;
  std::int64_t bm = 32, bn = 32, bk = 32;
  std::string loop_spec = "BCa";

  std::int64_t tokens() const { return seq_len * batch; }
  std::int64_t head_dim() const { return hidden / heads; }

  // Scaled-down stand-ins for the paper's BERT-base / BERT-large (full-size
  // configs run on a single CI core, just slowly; pass --full to benches).
  static BertConfig base_scaled();
  static BertConfig large_scaled();
};

class BertEncoderLayer {
 public:
  BertEncoderLayer(const BertConfig& cfg, Xoshiro256& rng);

  // x, y: [tokens][hidden] row-major fp32.
  void forward(const float* x, float* y, Xoshiro256& rng) const;

  // dy -> dx; accumulates all parameter gradients. Must follow a forward
  // call (uses the saved activations); `x` must be that call's input.
  void backward(const float* x, const float* dy, float* dx);

  void zero_grad();
  void sgd_step(float lr);
  double forward_flops() const;

 private:
  const BertConfig cfg_;
  FcLayer q_, k_, v_, attn_out_, inter_, out_;
  LayerNorm ln1_, ln2_;
  // Attention forward/backward over (batch, head): one head slice per
  // iteration, each owning its context/gradient columns.
  parlooper::LoopNest attn_fwd_nest_, attn_bwd_nest_;

  // Saved forward state (one training step in flight at a time).
  mutable Tensor qb_, kb_, vb_, ctx_, proj_, res1_, ln1_out_, inter_in_,
      proj2_, res2_;
  mutable Tensor probs_t_;  // [batch*heads][seq][seq]
  mutable std::vector<std::uint8_t> mask1_, mask2_;
};

// Minimal embedding front-end: token lookup + layernorm + dropout
// (Bert-Embeddings of Section IV-A).
class BertEmbeddings {
 public:
  BertEmbeddings(const BertConfig& cfg, std::int64_t vocab, Xoshiro256& rng);
  void forward(const std::int32_t* token_ids, float* out,
               Xoshiro256& rng) const;

 private:
  const BertConfig cfg_;
  std::int64_t vocab_;
  Tensor table_;  // [vocab][hidden]
  std::unique_ptr<LayerNorm> ln_;
};

class BertEncoder {
 public:
  BertEncoder(BertConfig cfg, Xoshiro256& rng);

  void forward(const float* x, float* y, Xoshiro256& rng) const;

  // One fine-tuning step with an L2 loss against `target`; returns the loss.
  double training_step(const float* x, const float* target, float lr,
                       Xoshiro256& rng);

  const BertConfig& config() const { return cfg_; }
  double forward_flops() const;

 private:
  BertConfig cfg_;
  std::vector<std::unique_ptr<BertEncoderLayer>> layers_;
  mutable std::vector<Tensor> acts_;  // per-layer inputs + final output
};

// Inference-only encoder layer with block-sparse FC contractions.
class SparseBertEncoderLayer {
 public:
  SparseBertEncoderLayer(const BertConfig& cfg, double sparsity,
                         std::int64_t block, Xoshiro256& rng);
  void forward(const float* x, float* y) const;
  double dense_flops() const;
  double effective_flops() const;

 private:
  const BertConfig cfg_;
  std::unique_ptr<SparseFcLayer> q_, k_, v_, attn_out_, inter_, out_;
  LayerNorm ln1_, ln2_;
  mutable Tensor qb_, kb_, vb_, ctx_, proj_, res1_, ln1_out_, inter_out_,
      proj2_, res2_, probs_t_;
};

}  // namespace plt::dl
