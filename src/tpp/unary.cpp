#include "tpp/unary.hpp"

#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/cpu_features.hpp"
#include "tpp/eltwise_micro.hpp"
#include "tpp/kernel_cache.hpp"

namespace plt::tpp {

float gelu_fwd_scalar(float x) {
  // tanh approximation: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))
  const float c = 0.7978845608028654f;
  const float x3 = x * x * x;
  return 0.5f * x * (1.0f + std::tanh(c * (x + 0.044715f * x3)));
}

float gelu_bwd_scalar(float grad, float x) {
  const float c = 0.7978845608028654f;
  const float x2 = x * x;
  const float t = std::tanh(c * (x + 0.044715f * x * x2));
  const float dt = (1.0f - t * t) * c * (1.0f + 3.0f * 0.044715f * x2);
  return grad * (0.5f * (1.0f + t) + 0.5f * x * dt);
}

float unary_scalar_op(UnaryKind kind, float x, float alpha) {
  switch (kind) {
    case UnaryKind::kZero: return 0.0f;
    case UnaryKind::kCopy: return x;
    case UnaryKind::kRelu: return x > 0.0f ? x : 0.0f;
    case UnaryKind::kGelu: return gelu_fwd_scalar(x);
    case UnaryKind::kTanh: return std::tanh(x);
    case UnaryKind::kSigmoid: return 1.0f / (1.0f + std::exp(-x));
    case UnaryKind::kExp: return std::exp(x);
    case UnaryKind::kSqrt: return std::sqrt(x);
    case UnaryKind::kRsqrt: return 1.0f / std::sqrt(x);
    case UnaryKind::kReciprocal: return 1.0f / x;
    case UnaryKind::kNegate: return -x;
    case UnaryKind::kSquare: return x * x;
    case UnaryKind::kAbs: return std::fabs(x);
    case UnaryKind::kScale: return alpha * x;
    case UnaryKind::kLeakyRelu: return x > 0.0f ? x : alpha * x;
    default: break;
  }
  PLT_CHECK(false, "unary_scalar_op: kind has no scalar elementwise form");
  return 0.0f;
}

namespace {

bool is_reduction(UnaryKind k) {
  return k == UnaryKind::kReduceSumRows || k == UnaryKind::kReduceSumCols ||
         k == UnaryKind::kReduceMaxRows || k == UnaryKind::kReduceMaxCols;
}

[[maybe_unused]] bool needs_extra(UnaryKind k) {
  return k == UnaryKind::kReluBwd || k == UnaryKind::kGeluBwd;
}

template <typename TI, typename TO>
void run_elementwise(const UnaryDesc& d, const void* in_v, void* out_v,
                     const void* extra_v) {
  const TI* in = static_cast<const TI*>(in_v);
  TO* out = static_cast<TO*>(out_v);
  const TI* extra = static_cast<const TI*>(extra_v);
  const auto kind = d.kind;
  if (kind == UnaryKind::kZero) {
    // zero_tpp never reads its input (callers may pass nullptr, Listing 1).
    for (std::int64_t j = 0; j < d.cols; ++j) {
      TO* co = out + j * d.ldo;
      for (std::int64_t i = 0; i < d.rows; ++i) store_f32(&co[i], 0.0f);
    }
    return;
  }
  for (std::int64_t j = 0; j < d.cols; ++j) {
    const TI* ci = in + j * d.ldi;
    TO* co = out + j * d.ldo;
    const TI* ce = extra ? extra + j * d.ldi : nullptr;
    for (std::int64_t i = 0; i < d.rows; ++i) {
      float v;
      if (kind == UnaryKind::kReluBwd) {
        v = load_f32(&ce[i]) > 0.0f ? load_f32(&ci[i]) : 0.0f;
      } else if (kind == UnaryKind::kGeluBwd) {
        v = gelu_bwd_scalar(load_f32(&ci[i]), load_f32(&ce[i]));
      } else {
        v = unary_scalar_op(kind, load_f32(&ci[i]), d.alpha);
      }
      store_f32(&co[i], v);
    }
  }
}

template <typename TI, typename TO>
void run_reduction(const UnaryDesc& d, const void* in_v, void* out_v) {
  const TI* in = static_cast<const TI*>(in_v);
  TO* out = static_cast<TO*>(out_v);
  const float kNegInf = -std::numeric_limits<float>::infinity();
  switch (d.kind) {
    case UnaryKind::kReduceSumRows:
      for (std::int64_t j = 0; j < d.cols; ++j) {
        float acc = 0.0f;
        for (std::int64_t i = 0; i < d.rows; ++i) acc += load_f32(&in[i + j * d.ldi]);
        store_f32(&out[j], acc);
      }
      break;
    case UnaryKind::kReduceMaxRows:
      for (std::int64_t j = 0; j < d.cols; ++j) {
        float acc = kNegInf;
        for (std::int64_t i = 0; i < d.rows; ++i)
          acc = std::max(acc, load_f32(&in[i + j * d.ldi]));
        store_f32(&out[j], acc);
      }
      break;
    case UnaryKind::kReduceSumCols:
      for (std::int64_t i = 0; i < d.rows; ++i) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < d.cols; ++j) acc += load_f32(&in[i + j * d.ldi]);
        store_f32(&out[i], acc);
      }
      break;
    case UnaryKind::kReduceMaxCols:
      for (std::int64_t i = 0; i < d.rows; ++i) {
        float acc = kNegInf;
        for (std::int64_t j = 0; j < d.cols; ++j)
          acc = std::max(acc, load_f32(&in[i + j * d.ldi]));
        store_f32(&out[i], acc);
      }
      break;
    default:
      PLT_CHECK(false, "not a reduction kind");
  }
}

using UnaryFn = std::function<void(const void*, void*, const void*)>;

template <typename TI, typename TO>
UnaryFn make_typed(const UnaryDesc& d) {
  if (is_reduction(d.kind)) {
    return [d](const void* in, void* out, const void*) {
      run_reduction<TI, TO>(d, in, out);
    };
  }
  return [d](const void* in, void* out, const void* extra) {
    run_elementwise<TI, TO>(d, in, out, extra);
  };
}

UnaryFn make_kernel(const UnaryDesc& d) {
#if defined(PLT_KERNELS_AVX512)
  if (effective_isa() >= IsaLevel::kAVX512) {
    if (const detail::UnaryKernel k = detail::unary_avx512(d)) {
      return [d, k](const void* in, void* out, const void* extra) {
        k(d, in, out, extra);
      };
    }
  }
#endif
  if (d.in == DType::F32 && d.out == DType::F32) return make_typed<float, float>(d);
  if (d.in == DType::BF16 && d.out == DType::BF16) return make_typed<bf16, bf16>(d);
  if (d.in == DType::F32 && d.out == DType::BF16) return make_typed<float, bf16>(d);
  if (d.in == DType::BF16 && d.out == DType::F32) return make_typed<bf16, float>(d);
  PLT_CHECK(false, "unary TPP: unsupported dtype combination");
  return {};
}

KernelCache<UnaryFn>& cache() {
  static KernelCache<UnaryFn> c;
  return c;
}

}  // namespace

UnaryTPP::UnaryTPP(UnaryDesc desc) : desc_(desc) {
  PLT_CHECK(desc_.rows > 0 && desc_.cols > 0, "unary TPP: empty shape");
  if (desc_.ldi == 0) desc_.ldi = desc_.rows;
  if (desc_.ldo == 0) desc_.ldo = desc_.rows;
  PLT_CHECK(desc_.ldi >= desc_.rows && desc_.ldo >= desc_.rows,
            "unary TPP: leading dimension smaller than rows");
  const UnaryDesc d = desc_;
  fn_ = cache().get_or_create(d.key(), [d] {
    return std::make_shared<UnaryFn>(make_kernel(d));
  });
}

UnaryTPP::UnaryTPP(UnaryKind kind, std::int64_t rows, std::int64_t cols,
                   DType in, DType out)
    : UnaryTPP(UnaryDesc{kind, rows, cols, 0, 0, in, out, 1.0f}) {}

void UnaryTPP::operator()(const void* in, void* out, const void* extra) const {
  PLT_DCHECK(!needs_extra(desc_.kind) || extra != nullptr,
             "unary TPP: kind requires the saved forward input");
  (*fn_)(in, out, extra);
}

}  // namespace plt::tpp
