#include "dl/bert.hpp"

#include <cstring>

#include "common/check.hpp"

namespace plt::dl {

namespace {

FcConfig fc_cfg(const BertConfig& c, std::int64_t in_f, std::int64_t out_f,
                FcActivation act) {
  FcConfig f;
  f.in_features = in_f;
  f.out_features = out_f;
  f.tokens = c.tokens();
  f.bm = c.bm;
  f.bn = c.bn;
  f.bk = c.bk;
  f.dtype = c.dtype;
  f.act = act;
  f.loop_spec = c.loop_spec;
  return f;
}

// The (batch, head) attention nest. A head slice is S rows of dh columns of
// a [tokens][hidden] activation; forward reads the q/k/v slices and writes
// the context slice and the head's probs_t block, backward reads those and
// writes the dq/dk/dv slices.
parlooper::LoopNest attention_nest(const BertConfig& c, bool backward) {
  const std::int64_t S = c.seq_len, H = c.hidden, dh = c.head_dim();
  const std::vector<std::int64_t> slice = {S * H, dh};
  const std::vector<std::int64_t> probs = {c.heads * S * S, S * S};
  parlooper::AccessMap access;
  for (const char* t : {"q", "k", "v"}) access.add_read(t, slice, dh, S, H);
  if (backward) {
    access.add_read("dctx", slice, dh, S, H).add_read("probs_t", probs, S * S);
    for (const char* t : {"dq", "dk", "dv"}) access.add_write(t, slice, dh, S, H);
  } else {
    access.add_write("ctx", slice, dh, S, H).add_write("probs_t", probs, S * S);
  }
  return parlooper::LoopNest(
      {parlooper::LoopSpecs{0, c.batch, 1}, parlooper::LoopSpecs{0, c.heads, 1}},
      "AB", parlooper::Backend::kAuto, access);
}

}  // namespace

BertConfig BertConfig::base_scaled() {
  BertConfig c;
  c.hidden = 256;
  c.heads = 4;
  c.intermediate = 1024;
  c.layers = 4;
  c.seq_len = 128;
  c.batch = 1;
  return c;
}

BertConfig BertConfig::large_scaled() {
  BertConfig c;
  c.hidden = 512;
  c.heads = 8;
  c.intermediate = 2048;
  c.layers = 6;
  c.seq_len = 192;  // stands in for the paper's max sequence length 384
  c.batch = 1;
  return c;
}

BertEncoderLayer::BertEncoderLayer(const BertConfig& cfg, Xoshiro256& rng)
    : cfg_(cfg),
      q_(fc_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      k_(fc_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      v_(fc_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      attn_out_(fc_cfg(cfg, cfg.hidden, cfg.hidden, FcActivation::kNone), rng),
      inter_(fc_cfg(cfg, cfg.hidden, cfg.intermediate, FcActivation::kGelu),
             rng),
      out_(fc_cfg(cfg, cfg.intermediate, cfg.hidden, FcActivation::kNone),
           rng),
      ln1_(cfg.tokens(), cfg.hidden),
      ln2_(cfg.tokens(), cfg.hidden),
      attn_fwd_nest_(attention_nest(cfg, /*backward=*/false)),
      attn_bwd_nest_(attention_nest(cfg, /*backward=*/true)) {
  PLT_CHECK(cfg_.hidden % cfg_.heads == 0, "bert: heads must divide hidden");
  const std::int64_t T = cfg_.tokens(), H = cfg_.hidden;
  qb_.reshape({T, H});
  kb_.reshape({T, H});
  vb_.reshape({T, H});
  ctx_.reshape({T, H});
  proj_.reshape({T, H});
  res1_.reshape({T, H});
  ln1_out_.reshape({T, H});
  inter_in_.reshape({T, cfg_.intermediate});
  proj2_.reshape({T, H});
  res2_.reshape({T, H});
  probs_t_.reshape({cfg_.batch * cfg_.heads, cfg_.seq_len, cfg_.seq_len});
  mask1_.resize(static_cast<std::size_t>(T * H));
  mask2_.resize(static_cast<std::size_t>(T * H));
}

void BertEncoderLayer::forward(const float* x, float* y,
                               Xoshiro256& rng) const {
  const std::int64_t T = cfg_.tokens(), H = cfg_.hidden, S = cfg_.seq_len;
  const std::int64_t dh = cfg_.head_dim();

  q_.forward(x, qb_.data());
  k_.forward(x, kb_.data());
  v_.forward(x, vb_.data());

  const AttentionHead head{S, dh, H};
  attn_fwd_nest_([&](const std::int64_t* ind) {
    const std::int64_t b = ind[0], h = ind[1];
    const std::int64_t off = b * S * H + h * dh;
    head.forward(qb_.data() + off, kb_.data() + off, vb_.data() + off,
                 ctx_.data() + off,
                 probs_t_.data() + (b * cfg_.heads + h) * S * S);
  });

  // The dropout masks are written and read only when dropout_p > 0.
  attn_out_.forward(ctx_.data(), proj_.data());
  if (cfg_.dropout_p > 0.0f) {
    tpp::DropoutFwd drop{T, H, cfg_.dropout_p};
    drop(proj_.data(), rng, proj_.data(), mask1_.data());
  }
  ln1_.forward_sum(x, proj_.data(), res1_.data(), ln1_out_.data());

  inter_.forward(ln1_out_.data(), inter_in_.data());
  out_.forward(inter_in_.data(), proj2_.data());
  if (cfg_.dropout_p > 0.0f) {
    tpp::DropoutFwd drop{T, H, cfg_.dropout_p};
    drop(proj2_.data(), rng, proj2_.data(), mask2_.data());
  }
  ln2_.forward_sum(ln1_out_.data(), proj2_.data(), res2_.data(), y);
}

void BertEncoderLayer::backward(const float* x, const float* dy, float* dx) {
  const std::int64_t T = cfg_.tokens(), H = cfg_.hidden, S = cfg_.seq_len;
  const std::int64_t dh = cfg_.head_dim();

  Tensor dres2({T, H}), dinter({T, cfg_.intermediate}), dln1({T, H});
  Tensor dctx({T, H}), dqb({T, H}), dkb({T, H}), dvb({T, H});
  Tensor dropped;  // the dropout branch's gradient, when dropout_p > 0
  // The gradient of a residual branch out = skip + dropout(branch): the
  // skip path's gradient itself without dropout.
  const auto through_dropout = [&](const float* g, const std::uint8_t* mask) {
    if (cfg_.dropout_p == 0.0f) return g;
    dropped.reshape({T, H});
    tpp::DropoutBwd drop{T, H, cfg_.dropout_p};
    drop(g, mask, dropped.data());
    return static_cast<const float*>(dropped.data());
  };

  ln2_.backward(dy, res2_.data(), dres2.data());

  // res2 = ln1_out + dropout(proj2): the gradient reaches both summands.
  out_.backward(inter_in_.data(), through_dropout(dres2.data(), mask2_.data()),
                dinter.data());
  inter_.backward(ln1_out_.data(), dinter.data(), dln1.data());
  // dln1 += dres2 (the residual path), fused into the layernorm nest. Its
  // input gradient is the residual path's share of dx.
  ln1_.backward_sum(dln1.data(), dres2.data(), res1_.data(), dx);

  attn_out_.backward(ctx_.data(), through_dropout(dx, mask1_.data()),
                     dctx.data());

  const AttentionHead head{S, dh, H};
  attn_bwd_nest_([&](const std::int64_t* ind) {
    const std::int64_t b = ind[0], h = ind[1];
    const std::int64_t off = b * S * H + h * dh;
    head.backward(qb_.data() + off, kb_.data() + off, vb_.data() + off,
                  probs_t_.data() + (b * cfg_.heads + h) * S * S,
                  dctx.data() + off, dqb.data() + off, dkb.data() + off,
                  dvb.data() + off);
  });

  // dx += the three projections' input gradients, each added inside its
  // dgrad contraction.
  q_.backward(x, dqb.data(), dx, /*accumulate_grad_in=*/true);
  k_.backward(x, dkb.data(), dx, /*accumulate_grad_in=*/true);
  v_.backward(x, dvb.data(), dx, /*accumulate_grad_in=*/true);
}

void BertEncoderLayer::zero_grad() {
  for (FcLayer* fc : {&q_, &k_, &v_, &attn_out_, &inter_, &out_}) fc->zero_grad();
  ln1_.zero_grad();
  ln2_.zero_grad();
}

void BertEncoderLayer::sgd_step(float lr) {
  for (FcLayer* fc : {&q_, &k_, &v_, &attn_out_, &inter_, &out_}) fc->sgd_step(lr);
  ln1_.sgd_step(lr);
  ln2_.sgd_step(lr);
}

double BertEncoderLayer::forward_flops() const {
  double f = 0.0;
  for (const FcLayer* fc : {&q_, &k_, &v_, &attn_out_, &inter_, &out_})
    f += fc->forward_flops();
  // Attention: scores + context GEMMs per (batch, head).
  f += 4.0 * static_cast<double>(cfg_.batch) * cfg_.heads * cfg_.seq_len *
       cfg_.seq_len * cfg_.head_dim();
  return f;
}

BertEmbeddings::BertEmbeddings(const BertConfig& cfg, std::int64_t vocab,
                               Xoshiro256& rng)
    : cfg_(cfg), vocab_(vocab) {
  table_.reshape({vocab, cfg.hidden});
  table_.randn_uniform(rng, -0.1f, 0.1f);
  ln_ = std::make_unique<LayerNorm>(cfg.tokens(), cfg.hidden);
}

void BertEmbeddings::forward(const std::int32_t* token_ids, float* out,
                             Xoshiro256& rng) const {
  const std::int64_t T = cfg_.tokens(), H = cfg_.hidden;
  std::vector<float> looked(static_cast<std::size_t>(T * H));
  for (std::int64_t t = 0; t < T; ++t) {
    const std::int64_t id = token_ids[t] % vocab_;
    std::memcpy(looked.data() + t * H, table_.data() + id * H,
                static_cast<std::size_t>(H) * sizeof(float));
  }
  ln_->forward(looked.data(), out);
  if (cfg_.dropout_p > 0.0f) {
    std::vector<std::uint8_t> mask(static_cast<std::size_t>(T * H));
    tpp::DropoutFwd drop{T, H, cfg_.dropout_p};
    drop(out, rng, out, mask.data());
  }
}

BertEncoder::BertEncoder(BertConfig cfg, Xoshiro256& rng) : cfg_(cfg) {
  for (std::int64_t l = 0; l < cfg_.layers; ++l) {
    layers_.push_back(std::make_unique<BertEncoderLayer>(cfg_, rng));
  }
  acts_.resize(static_cast<std::size_t>(cfg_.layers) + 1);
  for (auto& a : acts_) a.reshape({cfg_.tokens(), cfg_.hidden});
}

void BertEncoder::forward(const float* x, float* y, Xoshiro256& rng) const {
  const std::size_t bytes =
      static_cast<std::size_t>(cfg_.tokens() * cfg_.hidden) * sizeof(float);
  std::memcpy(acts_[0].data(), x, bytes);
  for (std::int64_t l = 0; l < cfg_.layers; ++l) {
    layers_[static_cast<std::size_t>(l)]->forward(
        acts_[static_cast<std::size_t>(l)].data(),
        acts_[static_cast<std::size_t>(l) + 1].data(), rng);
  }
  std::memcpy(y, acts_[static_cast<std::size_t>(cfg_.layers)].data(), bytes);
}

double BertEncoder::training_step(const float* x, const float* target,
                                  float lr, Xoshiro256& rng) {
  const std::int64_t n = cfg_.tokens() * cfg_.hidden;
  Tensor y({cfg_.tokens(), cfg_.hidden});
  forward(x, y.data(), rng);

  // L2 loss and its gradient.
  double loss = 0.0;
  Tensor grad({cfg_.tokens(), cfg_.hidden});
  for (std::int64_t i = 0; i < n; ++i) {
    const float d = y[static_cast<std::size_t>(i)] - target[i];
    loss += 0.5 * static_cast<double>(d) * d;
    grad[static_cast<std::size_t>(i)] = d / static_cast<float>(n);
  }
  loss /= static_cast<double>(n);

  Tensor dx({cfg_.tokens(), cfg_.hidden});
  for (std::int64_t l = cfg_.layers - 1; l >= 0; --l) {
    auto& layer = *layers_[static_cast<std::size_t>(l)];
    layer.zero_grad();
    layer.backward(acts_[static_cast<std::size_t>(l)].data(), grad.data(),
                   dx.data());
    std::swap(grad, dx);
    layer.sgd_step(lr);
  }
  return loss;
}

double BertEncoder::forward_flops() const {
  double f = 0.0;
  for (const auto& l : layers_) f += l->forward_flops();
  return f;
}

SparseBertEncoderLayer::SparseBertEncoderLayer(const BertConfig& cfg,
                                               double sparsity,
                                               std::int64_t block,
                                               Xoshiro256& rng)
    : cfg_(cfg),
      ln1_(cfg.tokens(), cfg.hidden),
      ln2_(cfg.tokens(), cfg.hidden) {
  const std::int64_t T = cfg.tokens(), H = cfg.hidden, I = cfg.intermediate;
  const auto make = [&](std::int64_t in_f, std::int64_t out_f, bool gelu) {
    Tensor w({out_f, in_f}), b({out_f});
    w.randn_uniform(rng, -0.05f, 0.05f);
    b.randn_uniform(rng, -0.01f, 0.01f);
    SparseFcConfig sc;
    sc.in_features = in_f;
    sc.out_features = out_f;
    sc.tokens = T;
    sc.block = block;
    sc.sparsity = sparsity;
    sc.dtype = cfg.dtype;
    sc.gelu = gelu;
    return std::make_unique<SparseFcLayer>(sc, w, b);
  };
  q_ = make(H, H, false);
  k_ = make(H, H, false);
  v_ = make(H, H, false);
  attn_out_ = make(H, H, false);
  inter_ = make(H, I, true);
  out_ = make(I, H, false);
  qb_.reshape({T, H});
  kb_.reshape({T, H});
  vb_.reshape({T, H});
  ctx_.reshape({T, H});
  proj_.reshape({T, H});
  res1_.reshape({T, H});
  ln1_out_.reshape({T, H});
  inter_out_.reshape({T, I});
  proj2_.reshape({T, H});
  res2_.reshape({T, H});
  probs_t_.reshape({cfg.batch * cfg.heads, cfg.seq_len, cfg.seq_len});
}

void SparseBertEncoderLayer::forward(const float* x, float* y) const {
  const std::int64_t H = cfg_.hidden, S = cfg_.seq_len;
  const std::int64_t dh = cfg_.head_dim();
  q_->forward(x, qb_.data());
  k_->forward(x, kb_.data());
  v_->forward(x, vb_.data());
  AttentionHead head{S, dh, H};
  for (std::int64_t b = 0; b < cfg_.batch; ++b)
    for (std::int64_t h = 0; h < cfg_.heads; ++h) {
      const std::int64_t off = b * S * H + h * dh;
      head.forward(qb_.data() + off, kb_.data() + off, vb_.data() + off,
                   ctx_.data() + off,
                   probs_t_.data() + (b * cfg_.heads + h) * S * S);
    }
  attn_out_->forward(ctx_.data(), proj_.data());
  ln1_.forward_sum(x, proj_.data(), res1_.data(), ln1_out_.data());
  inter_->forward(ln1_out_.data(), inter_out_.data());
  out_->forward(inter_out_.data(), proj2_.data());
  ln2_.forward_sum(ln1_out_.data(), proj2_.data(), res2_.data(), y);
}

double SparseBertEncoderLayer::dense_flops() const {
  double f = 0.0;
  for (const auto* fc : {q_.get(), k_.get(), v_.get(), attn_out_.get(),
                         inter_.get(), out_.get()})
    f += fc->dense_flops();
  return f;
}

double SparseBertEncoderLayer::effective_flops() const {
  double f = 0.0;
  for (const auto* fc : {q_.get(), k_.get(), v_.get(), attn_out_.get(),
                         inter_.get(), out_.get()})
    f += fc->effective_flops();
  return f;
}

}  // namespace plt::dl
