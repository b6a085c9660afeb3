// Internal entry points of the vectorized elementwise TPPs.
//
// The same seam as gemm_micro.hpp: the declarations are unconditional, the
// definitions live in a per-ISA translation unit compiled with the matching
// -m flags, and the selectors in unary.cpp / binary.cpp only reference them
// when PLT_KERNELS_AVX512 is on and effective_isa() reaches AVX-512, once
// per descriptor at kernel creation.
//
// Numerics. Every lane of a vector runs the same instruction sequence and a
// row tail is a masked load and store, never a scalar remainder loop, so an
// element's result depends on its inputs alone: any tiling of a tensor (bm x
// bn tiles, 1-wide token blocks, batched or sequential serving) gives the
// same bits. Against the scalar path:
//  * copy, zero, scale, relu, relu-bwd, every binary op, the column
//    reduction (sequential over columns) and the fp32 -> bf16 copy (rounded
//    as bf16::from_f32) are bitwise equal;
//  * GeLU uses the sigmoid form x / (1 + exp(-2u)) of the tanh
//    approximation with a range-reduced polynomial exp, and its backward is
//    derived from the same exp; both are checked against an fp64 reference,
//    not against the scalar std::tanh path.
#pragma once

#include "tpp/tpp_types.hpp"

namespace plt::tpp::detail {

using UnaryKernel = void (*)(const UnaryDesc&, const void* in, void* out,
                             const void* extra);
using BinaryKernel = void (*)(const BinaryDesc&, const void* in0,
                              const void* in1, void* out);

// The AVX-512 kernel for a descriptor whose leading dimensions are resolved,
// or nullptr when the unit does not cover its kind and dtypes.
UnaryKernel unary_avx512(const UnaryDesc& d);
BinaryKernel binary_avx512(const BinaryDesc& d);

}  // namespace plt::tpp::detail
