// LayerNorm layer: parameters + saved statistics around the layernorm
// equation TPPs (the layernorm_tpp_eqn of Listing 6), run on the team as
// PARLOOPER nests over token blocks.
//
// The rows of a [tokens][hidden] activation are cut into blocks of the
// largest divisor of tokens up to 16 rows: a count fixed by the shape, never
// by the team. A single block runs inline, without a team region. The
// forward output and grad_in are per row. dgamma/dbeta get one partial
// per block, and one owner adds the partials into the accumulated gradients
// in block order. Serial, pool and omp runs, on any team size or partition
// count, therefore agree bitwise.
#pragma once

#include <optional>

#include "dl/tensor.hpp"
#include "parlooper/threaded_loop.hpp"
#include "tpp/binary.hpp"

namespace plt::dl {

class LayerNorm {
 public:
  LayerNorm(std::int64_t tokens, std::int64_t hidden);

  // out = LN(in).
  void forward(const float* in, float* out) const;
  // sum = a + b, then out = LN(sum): a residual add fused into the same
  // nest. `sum` is the forward input the backward pass takes.
  void forward_sum(const float* a, const float* b, float* sum,
                   float* out) const;

  // `in` must be the forward input; accumulates dgamma/dbeta.
  void backward(const float* grad_out, const float* in, float* grad_in);
  // grad_out += grad_res in place (a residual branch's gradient joining),
  // then as backward.
  void backward_sum(float* grad_out, const float* grad_res, const float* in,
                    float* grad_in);

  void zero_grad() {
    dgamma_.zero();
    dbeta_.zero();
  }
  void sgd_step(float lr) {
    for (std::int64_t i = 0; i < hidden_; ++i) {
      gamma_[static_cast<std::size_t>(i)] -= lr * dgamma_[static_cast<std::size_t>(i)];
      beta_[static_cast<std::size_t>(i)] -= lr * dbeta_[static_cast<std::size_t>(i)];
    }
  }

  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }
  const Tensor& grad_gamma() const { return dgamma_; }
  const Tensor& grad_beta() const { return dbeta_; }

 private:
  void run_forward(const float* a, const float* b, float* sum,
                   float* out) const;
  void run_backward(const float* grad_out, const float* grad_res,
                    float* grad_sum, const float* in, float* grad_in);
  // body(block) for every token block, through `nest` when there is one.
  template <typename Body>
  void over_blocks(const std::optional<parlooper::LoopNest>& nest,
                   Body&& body) const;

  std::int64_t tokens_, hidden_, tb_;
  Tensor gamma_, beta_, dgamma_, dbeta_;
  Tensor dgamma_part_, dbeta_part_;  // [blocks][hidden]
  mutable Tensor mean_, var_;
  tpp::BinaryTPP add_;  // one token block, as tb * hidden contiguous rows
  std::optional<parlooper::LoopNest> fwd_nest_, bwd_nest_;  // blocks > 1
};

}  // namespace plt::dl
