#include "dl/layernorm.hpp"

#include <algorithm>

#include "tpp/equations.hpp"

namespace plt::dl {

namespace {

// Block b owns rows [b * tb, (b + 1) * tb) of every [tokens][hidden]
// operand, its tb statistics and its row of the gradient partials.
parlooper::AccessMap forward_map(std::int64_t tb, std::int64_t H) {
  const std::int64_t rows = tb * H;
  parlooper::AccessMap access;
  access.add_read("a", {rows}, rows)
      .add_read("b", {rows}, rows)
      .add_write("sum", {rows}, rows)
      .add_read("sum", {rows}, rows)
      .add_read("gamma", {0}, H)
      .add_read("beta", {0}, H)
      .add_write("mean", {tb}, tb)
      .add_write("var", {tb}, tb)
      .add_write("out", {rows}, rows);
  return access;
}

parlooper::AccessMap backward_map(std::int64_t tb, std::int64_t H) {
  const std::int64_t rows = tb * H;
  parlooper::AccessMap access;
  access.add_read("grad_out", {rows}, rows)
      .add_read("grad_res", {rows}, rows)
      .add_write("grad_sum", {rows}, rows)
      .add_read("grad_sum", {rows}, rows)
      .add_read("in", {rows}, rows)
      .add_read("gamma", {0}, H)
      .add_read("mean", {tb}, tb)
      .add_read("var", {tb}, tb)
      .add_write("grad_in", {rows}, rows)
      .add_write("dgamma_part", {H}, H)
      .add_write("dbeta_part", {H}, H);
  return access;
}

// The largest divisor of `tokens` up to 16.
std::int64_t token_block(std::int64_t tokens) {
  std::int64_t tb = 16;
  while (tokens % tb != 0) --tb;
  return tb;
}

std::optional<parlooper::LoopNest> block_nest(
    std::int64_t blocks, const parlooper::AccessMap& access) {
  if (blocks == 1) return std::nullopt;
  return parlooper::LoopNest({parlooper::LoopSpecs{0, blocks, 1}}, "A",
                             parlooper::Backend::kAuto, access);
}

}  // namespace

LayerNorm::LayerNorm(std::int64_t tokens, std::int64_t hidden)
    : tokens_(tokens),
      hidden_(hidden),
      tb_(token_block(tokens)),
      add_(tpp::BinaryKind::kAdd, tb_ * hidden, 1),
      fwd_nest_(block_nest(tokens / tb_, forward_map(tb_, hidden))),
      bwd_nest_(block_nest(tokens / tb_, backward_map(tb_, hidden))) {
  gamma_.reshape({hidden});
  beta_.reshape({hidden});
  dgamma_.reshape({hidden});
  dbeta_.reshape({hidden});
  dgamma_part_.reshape({tokens / tb_, hidden});
  dbeta_part_.reshape({tokens / tb_, hidden});
  mean_.reshape({tokens});
  var_.reshape({tokens});
  gamma_.fill(1.0f);
  beta_.zero();
}

void LayerNorm::forward(const float* in, float* out) const {
  run_forward(in, nullptr, nullptr, out);
}

void LayerNorm::forward_sum(const float* a, const float* b, float* sum,
                            float* out) const {
  run_forward(a, b, sum, out);
}

void LayerNorm::backward(const float* grad_out, const float* in,
                         float* grad_in) {
  run_backward(grad_out, nullptr, nullptr, in, grad_in);
}

void LayerNorm::backward_sum(float* grad_out, const float* grad_res,
                             const float* in, float* grad_in) {
  run_backward(grad_out, grad_res, grad_out, in, grad_in);
}

template <typename Body>
void LayerNorm::over_blocks(const std::optional<parlooper::LoopNest>& nest,
                            Body&& body) const {
  if (!nest) {
    body(std::int64_t{0});
    return;
  }
  (*nest)([&](const std::int64_t* ind) { body(ind[0]); });
}

void LayerNorm::run_forward(const float* a, const float* b, float* sum,
                            float* out) const {
  const std::int64_t rows = tb_ * hidden_;
  const tpp::LayerNormFwd ln{tb_, hidden_, 1e-5f};
  over_blocks(fwd_nest_, [&](std::int64_t blk) {
    const std::int64_t r0 = blk * tb_, off = blk * rows;
    const float* in = a + off;
    if (b != nullptr) {
      add_(a + off, b + off, sum + off);
      in = sum + off;
    }
    ln(in, gamma_.data(), beta_.data(), mean_.data() + r0, var_.data() + r0,
       out + off);
  });
}

void LayerNorm::run_backward(const float* grad_out, const float* grad_res,
                             float* grad_sum, const float* in,
                             float* grad_in) {
  const std::int64_t rows = tb_ * hidden_, H = hidden_;
  const tpp::LayerNormBwd ln{tb_, hidden_};
  float* dgp = dgamma_part_.data();
  float* dbp = dbeta_part_.data();
  over_blocks(bwd_nest_, [&](std::int64_t blk) {
    const std::int64_t r0 = blk * tb_, off = blk * rows;
    const float* g = grad_out + off;
    if (grad_res != nullptr) {
      add_(grad_out + off, grad_res + off, grad_sum + off);
      g = grad_sum + off;
    }
    std::fill(dgp + blk * H, dgp + (blk + 1) * H, 0.0f);
    std::fill(dbp + blk * H, dbp + (blk + 1) * H, 0.0f);
    ln(g, in + off, gamma_.data(), mean_.data() + r0,
       var_.data() + r0, grad_in + off, dgp + blk * H, dbp + blk * H);
  });
  // One owner adds the block partials in block order.
  for (std::int64_t blk = 0; blk < tokens_ / tb_; ++blk) {
    for (std::int64_t c = 0; c < H; ++c) {
      dgamma_[static_cast<std::size_t>(c)] += dgp[blk * H + c];
      dbeta_[static_cast<std::size_t>(c)] += dbp[blk * H + c];
    }
  }
}

}  // namespace plt::dl
