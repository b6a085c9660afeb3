// Unary TPPs: elementwise operators, activation functions and reductions on
// 2D column-major tensors (Section II-A's zero_tpp, relu_tpp, ... family).
// On AVX-512 hosts the fp32 activations, copies and the column reduction run
// vectorized (tpp/eltwise_micro.hpp has the numerics contract); every other
// kind, and every kind under PLT_ISA=scalar, runs the scalar loops.
#pragma once

#include <functional>
#include <memory>

#include "tpp/tpp_types.hpp"

namespace plt::tpp {

class UnaryTPP {
 public:
  // Resolves the descriptor to a kernel (cached process-wide by key).
  explicit UnaryTPP(UnaryDesc desc);

  // Convenience constructor for the common square-shape case.
  UnaryTPP(UnaryKind kind, std::int64_t rows, std::int64_t cols,
           DType in = DType::F32, DType out = DType::F32);

  // in:  rows x cols (ldi), except kReluBwd/kGeluBwd where `in` is the
  //      gradient and `extra` the saved forward input.
  // out: rows x cols (ldo) for elementwise ops; 1 x cols for row-reductions;
  //      rows x 1 for column-reductions (both written densely).
  void operator()(const void* in, void* out, const void* extra = nullptr) const;

  const UnaryDesc& desc() const { return desc_; }

 private:
  UnaryDesc desc_;
  std::shared_ptr<std::function<void(const void*, void*, const void*)>> fn_;
};

// The scalar path's per-element math (fp32), also used by tests.
float unary_scalar_op(UnaryKind kind, float x, float alpha);
float gelu_fwd_scalar(float x);
float gelu_bwd_scalar(float grad, float x);

}  // namespace plt::tpp
