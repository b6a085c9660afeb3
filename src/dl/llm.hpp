// Decoder-only LLM inference pipeline (Section IV-A / Fig. 11): GPT-J- and
// Llama2-style transformer decoders with a KV cache, split into the two
// phases the paper reports — the compute-bound prefill ("first token") and
// the bandwidth-bound autoregressive generation ("next tokens").
#pragma once

#include <memory>
#include <vector>

#include "dl/fc_layer.hpp"
#include "dl/layernorm.hpp"
#include "dl/tensor.hpp"

namespace plt::dl {

struct LlmConfig {
  std::int64_t hidden = 256;
  std::int64_t heads = 4;
  std::int64_t layers = 4;
  std::int64_t ffn = 1024;       // MLP width
  std::int64_t vocab = 4096;
  std::int64_t max_seq = 1152;   // prompt + generated tokens
  DType dtype = DType::F32;
  std::int64_t bm = 32, bn = 32, bk = 32;
  std::string loop_spec = "BCa";

  std::int64_t head_dim() const { return hidden / heads; }

  // Scaled stand-ins for GPT-J-6B and Llama2-13B (same architecture family,
  // different depth/width ratios).
  static LlmConfig gptj_scaled();
  static LlmConfig llama2_scaled();
};

class DecoderLayer {
 public:
  DecoderLayer(const LlmConfig& cfg, Xoshiro256& rng);

  // Prefill: processes `seq` tokens at once with a causal mask and fills
  // positions [0, seq) of the KV cache. x/y: [seq][hidden].
  void prefill(const float* x, std::int64_t seq, float* y);

  // Decode: processes one token at position `pos` against the cache
  // (positions [0, pos] become visible). x/y: [hidden].
  void decode_one(const float* x, std::int64_t pos, float* y);

 private:
  void attention_prefill(const float* q, std::int64_t seq, float* out) const;
  void attention_decode(const float* q, std::int64_t pos, float* out) const;

  const LlmConfig cfg_;
  FcLayer q_, k_, v_, o_, up_, down_;
  LayerNorm ln1_, ln2_;
  Tensor k_cache_, v_cache_;  // [max_seq][hidden]
  Tensor qb_, ctx_, proj_, res1_, ln1_out_, ffn_mid_, ffn_out_;
  // Single-token decode scratch, preallocated: the decode path is called
  // per generated token per layer, so per-call heap traffic would dominate
  // its bandwidth-bound profile.
  Tensor dec_normed_, dec_qv_, dec_ctx_, dec_proj_, dec_r1_, dec_mid_,
      dec_down_;
  mutable std::vector<float> dec_scores_;  // [max_seq]
};

class LlmModel {
 public:
  LlmModel(LlmConfig cfg, Xoshiro256& rng);

  // Runs prefill over `prompt_len` synthetic token embeddings, then
  // generates `gen_tokens` tokens. Returns per-phase wall times.
  struct Timing {
    double first_token_ms = 0.0;   // prefill + first generation step
    double per_next_token_ms = 0.0;
  };
  Timing generate(std::int64_t prompt_len, std::int64_t gen_tokens,
                  Xoshiro256& rng);

  const LlmConfig& config() const { return cfg_; }
  double prefill_flops(std::int64_t seq) const;
  // One generated token at cache position `pos` (positions [0, pos]
  // visible): the same projections and MLP as one prefill token plus
  // attention over pos + 1 cached keys and values, so the count grows
  // linearly with the KV position. Like prefill_flops, the LM head is not
  // counted.
  double decode_flops(std::int64_t pos) const;

 private:
  LlmConfig cfg_;
  std::vector<std::unique_ptr<DecoderLayer>> layers_;
  Tensor lm_head_;  // [vocab][hidden]
};

}  // namespace plt::dl
