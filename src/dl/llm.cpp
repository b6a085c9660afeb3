#include "dl/llm.hpp"

#include <cmath>
#include <cstring>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/equations.hpp"
#include "tpp/transforms.hpp"

namespace plt::dl {

namespace {

FcConfig proj_cfg(const LlmConfig& c, std::int64_t in_f, std::int64_t out_f,
                  FcActivation act) {
  FcConfig f;
  f.in_features = in_f;
  f.out_features = out_f;
  f.tokens = c.max_seq;
  f.bm = c.bm;
  f.bn = c.bn;
  f.bk = c.bk;
  f.dtype = c.dtype;
  f.act = act;
  f.loop_spec = c.loop_spec;
  return f;
}

}  // namespace

LlmConfig LlmConfig::gptj_scaled() {
  LlmConfig c;
  c.hidden = 256;
  c.heads = 4;
  c.layers = 6;
  c.ffn = 1024;
  return c;
}

LlmConfig LlmConfig::llama2_scaled() {
  LlmConfig c;
  c.hidden = 320;
  c.heads = 5;
  c.layers = 8;   // deeper, like Llama2-13B vs GPT-J-6B
  c.ffn = 864;    // ~2.7x hidden, Llama-style
  return c;
}

DecoderLayer::DecoderLayer(const LlmConfig& cfg, Xoshiro256& rng)
    : cfg_(cfg),
      q_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      k_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      v_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      o_(proj_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      up_(proj_cfg(cfg, cfg.hidden, cfg.ffn, FcActivation::kGelu), rng),
      down_(proj_cfg(cfg, cfg.ffn, cfg.hidden, FcActivation::kNone), rng),
      ln1_(cfg.max_seq, cfg.hidden),
      ln2_(cfg.max_seq, cfg.hidden) {
  PLT_CHECK(cfg_.hidden % cfg_.heads == 0, "llm: heads must divide hidden");
  k_cache_.reshape({cfg_.max_seq, cfg_.hidden});
  v_cache_.reshape({cfg_.max_seq, cfg_.hidden});
  qb_.reshape({cfg_.max_seq, cfg_.hidden});
  ctx_.reshape({cfg_.max_seq, cfg_.hidden});
  proj_.reshape({cfg_.max_seq, cfg_.hidden});
  res1_.reshape({cfg_.max_seq, cfg_.hidden});
  ln1_out_.reshape({cfg_.max_seq, cfg_.hidden});
  ffn_mid_.reshape({cfg_.max_seq, cfg_.ffn});
  ffn_out_.reshape({cfg_.max_seq, cfg_.hidden});
  dec_normed_.reshape({cfg_.hidden});
  dec_qv_.reshape({cfg_.hidden});
  dec_ctx_.reshape({cfg_.hidden});
  dec_proj_.reshape({cfg_.hidden});
  dec_r1_.reshape({cfg_.hidden});
  dec_mid_.reshape({cfg_.ffn});
  dec_down_.reshape({cfg_.hidden});
  dec_scores_.resize(static_cast<std::size_t>(cfg_.max_seq));
}

void DecoderLayer::attention_prefill(const float* q, std::int64_t seq,
                                     float* out) const {
  const std::int64_t H = cfg_.hidden, dh = cfg_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  // Causal mask: query i sees keys [0, i].
  std::vector<std::int32_t> valid(static_cast<std::size_t>(seq));
  for (std::int64_t i = 0; i < seq; ++i)
    valid[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i + 1);

  std::vector<float> kt(static_cast<std::size_t>(seq * dh));
  std::vector<float> st(static_cast<std::size_t>(seq * seq));
  std::vector<float> vp(static_cast<std::size_t>(seq * dh));
  for (std::int64_t h = 0; h < cfg_.heads; ++h) {
    const float* kh = k_cache_.data() + h * dh;
    const float* vh = v_cache_.data() + h * dh;
    const float* qh = q + h * dh;
    float* oh = out + h * dh;

    tpp::transpose_2d(kh, kt.data(), dh, seq, H, seq);
    tpp::GemmTPP score_gemm(seq, seq, dh, 0.0f, DType::F32, DType::F32,
                            DType::F32, tpp::ALayout::kFlat, seq, H, seq);
    score_gemm(kt.data(), qh, st.data());
    tpp::softmax_scale_mask_rows(st.data(), st.data(), seq, seq, seq, seq,
                                 scale, valid.data());
    for (std::int64_t t = 0; t < seq; ++t)
      for (std::int64_t d = 0; d < dh; ++d)
        vp[static_cast<std::size_t>(t * dh + d)] = vh[t * H + d];
    tpp::GemmTPP ctx_gemm(dh, seq, seq, 0.0f, DType::F32, DType::F32,
                          DType::F32, tpp::ALayout::kFlat, dh, seq, H);
    ctx_gemm(vp.data(), st.data(), oh);
  }
}

void DecoderLayer::attention_decode(const float* q, std::int64_t pos,
                                    float* out) const {
  const std::int64_t H = cfg_.hidden, dh = cfg_.head_dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t len = pos + 1;
  std::vector<float>& scores = dec_scores_;
  for (std::int64_t h = 0; h < cfg_.heads; ++h) {
    const float* qh = q + h * dh;
    float mx = -1e30f;
    for (std::int64_t j = 0; j < len; ++j) {
      const float* kj = k_cache_.data() + j * H + h * dh;
      float dot = 0.0f;
      for (std::int64_t d = 0; d < dh; ++d) dot += qh[d] * kj[d];
      scores[static_cast<std::size_t>(j)] = dot * scale;
      mx = std::max(mx, dot * scale);
    }
    float sum = 0.0f;
    for (std::int64_t j = 0; j < len; ++j) {
      scores[static_cast<std::size_t>(j)] =
          std::exp(scores[static_cast<std::size_t>(j)] - mx);
      sum += scores[static_cast<std::size_t>(j)];
    }
    const float inv = 1.0f / sum;
    float* oh = out + h * dh;
    for (std::int64_t d = 0; d < dh; ++d) oh[d] = 0.0f;
    for (std::int64_t j = 0; j < len; ++j) {
      const float p = scores[static_cast<std::size_t>(j)] * inv;
      const float* vj = v_cache_.data() + j * H + h * dh;
      for (std::int64_t d = 0; d < dh; ++d) oh[d] += p * vj[d];
    }
  }
}

void DecoderLayer::prefill(const float* x, std::int64_t seq, float* y) {
  const std::int64_t H = cfg_.hidden;
  PLT_CHECK(seq <= cfg_.max_seq, "llm: sequence exceeds max_seq");
  // Pre-norm transformer block.
  tpp::LayerNormFwd ln{seq, H, 1e-5f};
  std::vector<float> mean(static_cast<std::size_t>(seq)), var(mean.size());
  ln(x, ln1_.gamma().data(), ln1_.beta().data(), mean.data(), var.data(),
     ln1_out_.data());

  q_.forward_tokens(ln1_out_.data(), seq, qb_.data());
  k_.forward_tokens(ln1_out_.data(), seq, k_cache_.data());
  v_.forward_tokens(ln1_out_.data(), seq, v_cache_.data());
  attention_prefill(qb_.data(), seq, ctx_.data());
  o_.forward_tokens(ctx_.data(), seq, proj_.data());
  for (std::int64_t i = 0; i < seq * H; ++i)
    res1_[static_cast<std::size_t>(i)] = x[i] + proj_[static_cast<std::size_t>(i)];

  ln(res1_.data(), ln2_.gamma().data(), ln2_.beta().data(), mean.data(),
     var.data(), ln1_out_.data());
  up_.forward_tokens(ln1_out_.data(), seq, ffn_mid_.data());
  down_.forward_tokens(ffn_mid_.data(), seq, ffn_out_.data());
  for (std::int64_t i = 0; i < seq * H; ++i)
    y[i] = res1_[static_cast<std::size_t>(i)] + ffn_out_[static_cast<std::size_t>(i)];
}

void DecoderLayer::decode_one(const float* x, std::int64_t pos, float* y) {
  const std::int64_t H = cfg_.hidden;
  PLT_CHECK(pos < cfg_.max_seq, "llm: position exceeds max_seq");
  tpp::LayerNormFwd ln{1, H, 1e-5f};
  float mean, var;
  float* normed = dec_normed_.data();
  ln(x, ln1_.gamma().data(), ln1_.beta().data(), &mean, &var, normed);

  float* qv = dec_qv_.data();
  q_.forward_tokens(normed, 1, qv);
  k_.forward_tokens(normed, 1, k_cache_.data() + pos * H);
  v_.forward_tokens(normed, 1, v_cache_.data() + pos * H);

  float* ctx = dec_ctx_.data();
  attention_decode(qv, pos, ctx);
  float* proj = dec_proj_.data();
  o_.forward_tokens(ctx, 1, proj);
  float* r1 = dec_r1_.data();
  for (std::int64_t i = 0; i < H; ++i) r1[i] = x[i] + proj[i];

  ln(r1, ln2_.gamma().data(), ln2_.beta().data(), &mean, &var, normed);
  float* mid = dec_mid_.data();
  up_.forward_tokens(normed, 1, mid);
  float* down = dec_down_.data();
  down_.forward_tokens(mid, 1, down);
  for (std::int64_t i = 0; i < H; ++i) y[i] = r1[i] + down[i];
}

LlmModel::LlmModel(LlmConfig cfg, Xoshiro256& rng) : cfg_(cfg) {
  for (std::int64_t l = 0; l < cfg_.layers; ++l)
    layers_.push_back(std::make_unique<DecoderLayer>(cfg_, rng));
  lm_head_.reshape({cfg_.vocab, cfg_.hidden});
  lm_head_.randn_uniform(rng, -0.05f, 0.05f);
}

LlmModel::Timing LlmModel::generate(std::int64_t prompt_len,
                                    std::int64_t gen_tokens, Xoshiro256& rng) {
  const std::int64_t H = cfg_.hidden;
  PLT_CHECK(prompt_len + gen_tokens <= cfg_.max_seq,
            "llm: prompt + generation exceeds max_seq");
  Tensor x({prompt_len, H}), y({prompt_len, H});
  x.randn_uniform(rng, -1.0f, 1.0f);

  Timing t;
  WallTimer prefill_timer;
  for (auto& layer : layers_) {
    layer->prefill(x.data(), prompt_len, y.data());
    std::swap(x, y);
  }
  // LM head for the first generated token (argmax over the vocabulary).
  std::vector<float> logits(static_cast<std::size_t>(cfg_.vocab));
  const float* last = x.data() + (prompt_len - 1) * H;
  for (std::int64_t o = 0; o < cfg_.vocab; ++o) {
    float acc = 0.0f;
    for (std::int64_t d = 0; d < H; ++d)
      acc += lm_head_[static_cast<std::size_t>(o * H + d)] * last[d];
    logits[static_cast<std::size_t>(o)] = acc;
  }
  t.first_token_ms = prefill_timer.millis();

  std::vector<float> tok(static_cast<std::size_t>(H)), tok_out(tok.size());
  for (std::int64_t d = 0; d < H; ++d)
    tok[static_cast<std::size_t>(d)] = last[d] * 0.5f;

  WallTimer decode_timer;
  for (std::int64_t g = 0; g < gen_tokens; ++g) {
    const std::int64_t pos = prompt_len + g;
    for (auto& layer : layers_) {
      layer->decode_one(tok.data(), pos, tok_out.data());
      std::swap(tok, tok_out);
    }
    for (std::int64_t o = 0; o < cfg_.vocab; ++o) {
      float acc = 0.0f;
      for (std::int64_t d = 0; d < H; ++d)
        acc += lm_head_[static_cast<std::size_t>(o * H + d)] *
               tok[static_cast<std::size_t>(d)];
      logits[static_cast<std::size_t>(o)] = acc;
    }
  }
  t.per_next_token_ms =
      gen_tokens > 0 ? decode_timer.millis() / static_cast<double>(gen_tokens)
                     : 0.0;
  return t;
}

double LlmModel::prefill_flops(std::int64_t seq) const {
  const double h = static_cast<double>(cfg_.hidden);
  const double per_layer = 2.0 * seq * h * h * 4.0 +              // q,k,v,o
                           2.0 * seq * h * cfg_.ffn * 2.0 +       // up, down
                           4.0 * seq * seq * h;                   // attention
  return per_layer * static_cast<double>(cfg_.layers);
}

double LlmModel::decode_flops(std::int64_t pos) const {
  const double h = static_cast<double>(cfg_.hidden);
  const double len = static_cast<double>(pos + 1);
  const double per_layer = 2.0 * h * h * 4.0 +                    // q,k,v,o
                           2.0 * h * cfg_.ffn * 2.0 +             // up, down
                           4.0 * len * h;                         // attention
  return per_layer * static_cast<double>(cfg_.layers);
}

}  // namespace plt::dl
