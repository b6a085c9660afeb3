// AVX-512 elementwise TPPs: the unary activations, copies and the column
// reduction, and every binary op and broadcast, at fp32 (plus the
// fp32 -> bf16 copy). Compiled with -mavx512f/bw/vl/dq (see CMakeLists);
// only referenced when CPUID agrees. The numerics contract is in
// eltwise_micro.hpp.
#include "tpp/eltwise_micro.hpp"

#include "tpp/gemm_template.hpp"  // Avx512Io: tail masks, bf16 rounding

namespace plt::tpp::detail {

namespace {

using Io = Avx512Io;
using Vec = __m512;
using Mask = __mmask16;

constexpr std::int64_t kL = Io::kLanes;

Vec load(Mask m, const float* p) { return _mm512_maskz_loadu_ps(m, p); }
void store(Mask m, float* p, Vec v) { _mm512_mask_storeu_ps(p, m, v); }
Vec set1(float v) { return _mm512_set1_ps(v); }

// exp(y) per lane: y is clamped to [-88, 88], so exp never overflows and
// 1 + exp(y) stays finite; n = round(y / ln 2), r = y - n ln 2 in two FMA
// steps (Cody-Waite), the Cephes expf polynomial on |r| <= ln2 / 2, and
// scalef applies 2^n (down into the denormals for y near -88).
Vec exp_ps(Vec y) {
  // min/max return their second operand on NaN, so a NaN y stays NaN.
  y = _mm512_max_ps(set1(-88.0f), _mm512_min_ps(set1(88.0f), y));
  const Vec n = _mm512_roundscale_ps(_mm512_mul_ps(y, set1(1.44269504088896341f)),
                                     _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  Vec r = _mm512_fnmadd_ps(n, set1(0.693359375f), y);
  r = _mm512_fnmadd_ps(n, set1(-2.12194440e-4f), r);
  Vec p = set1(1.9875691500e-4f);
  p = _mm512_fmadd_ps(p, r, set1(1.3981999507e-3f));
  p = _mm512_fmadd_ps(p, r, set1(8.3334519073e-3f));
  p = _mm512_fmadd_ps(p, r, set1(4.1665795894e-2f));
  p = _mm512_fmadd_ps(p, r, set1(1.6666665459e-1f));
  p = _mm512_fmadd_ps(p, r, set1(5.0000001201e-1f));
  p = _mm512_fmadd_ps(p, _mm512_mul_ps(r, r), r);
  return _mm512_scalef_ps(_mm512_add_ps(p, set1(1.0f)), n);
}

// GeLU's tanh form, 0.5 x (1 + tanh u) with u = c (x + 0.044715 x^3),
// through 0.5 (1 + tanh u) = 1 / (1 + e), e = exp(-2u): no 1 + tanh
// cancellation for negative x.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2 / pi)
constexpr float kGeluA = 0.044715f;

Vec gelu_e(Vec x) {
  const Vec x3a = _mm512_mul_ps(_mm512_mul_ps(x, x), set1(kGeluA));
  return exp_ps(_mm512_mul_ps(set1(-2.0f * kGeluC), _mm512_fmadd_ps(x3a, x, x)));
}

// Each op maps (in, extra, alpha) lanes to out lanes; `in` is the gradient
// and `extra` the saved forward input for the backward kinds.
struct Copy {
  static constexpr bool kExtra = false;
  static Vec apply(Vec x, Vec, Vec) { return x; }
};
struct Scale {
  static constexpr bool kExtra = false;
  static Vec apply(Vec x, Vec, Vec alpha) { return _mm512_mul_ps(alpha, x); }
};
struct Relu {  // x > 0 ? x : 0, NaN -> 0 as in the scalar path
  static constexpr bool kExtra = false;
  static Vec apply(Vec x, Vec, Vec) {
    return _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ), x);
  }
};
struct ReluBwd {
  static constexpr bool kExtra = true;
  static Vec apply(Vec g, Vec x, Vec) {
    return _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(x, _mm512_setzero_ps(), _CMP_GT_OQ), g);
  }
};
struct Gelu {
  static constexpr bool kExtra = false;
  static Vec apply(Vec x, Vec, Vec) {
    return _mm512_div_ps(x, _mm512_add_ps(set1(1.0f), gelu_e(x)));
  }
};
// d/dx = s + x s (1 - s) 2c (1 + 3 * 0.044715 x^2) with s = 1 / (1 + e):
// the sigmoid-form derivative of the tanh approximation, where
// 1 - s = e s carries no cancellation.
struct GeluBwd {
  static constexpr bool kExtra = true;
  static Vec apply(Vec g, Vec x, Vec) {
    const Vec e = gelu_e(x);
    const Vec s = _mm512_div_ps(set1(1.0f), _mm512_add_ps(set1(1.0f), e));
    const Vec x2 = _mm512_mul_ps(x, x);
    const Vec poly = _mm512_fmadd_ps(set1(3.0f * kGeluA), x2, set1(1.0f));
    const Vec t = _mm512_mul_ps(_mm512_mul_ps(x, set1(2.0f * kGeluC)), poly);
    const Vec d = _mm512_fmadd_ps(_mm512_mul_ps(t, _mm512_mul_ps(e, s)), s, s);
    return _mm512_mul_ps(g, d);
  }
};

template <class Op>
void unary_map(const UnaryDesc& d, const void* in_v, void* out_v,
               const void* extra_v) {
  const float* in = static_cast<const float*>(in_v);
  const float* extra = static_cast<const float*>(extra_v);
  float* out = static_cast<float*>(out_v);
  const Vec alpha = set1(d.alpha);
  for (std::int64_t j = 0; j < d.cols; ++j) {
    for (std::int64_t i = 0; i < d.rows; i += kL) {
      const Mask m = Io::mask(d.rows - i);
      const Vec x = load(m, in + i + j * d.ldi);
      Vec e = x;
      if constexpr (Op::kExtra) e = load(m, extra + i + j * d.ldi);
      store(m, out + i + j * d.ldo, Op::apply(x, e, alpha));
    }
  }
}

// zero_tpp never reads its input (callers may pass nullptr).
void zero_f32(const UnaryDesc& d, const void*, void* out_v, const void*) {
  float* out = static_cast<float*>(out_v);
  for (std::int64_t j = 0; j < d.cols; ++j)
    for (std::int64_t i = 0; i < d.rows; i += kL)
      store(Io::mask(d.rows - i), out + i + j * d.ldo, _mm512_setzero_ps());
}

void copy_f32_to_bf16(const UnaryDesc& d, const void* in_v, void* out_v,
                      const void*) {
  const float* in = static_cast<const float*>(in_v);
  bf16* out = static_cast<bf16*>(out_v);
  for (std::int64_t j = 0; j < d.cols; ++j) {
    for (std::int64_t i = 0; i < d.rows; i += kL) {
      const Mask m = Io::mask(d.rows - i);
      _mm256_mask_storeu_epi16(out + i + j * d.ldo, m,
                               Io::to_bf16(load(m, in + i + j * d.ldi)));
    }
  }
}

// out[i] = sum_j in(i, j), vectorized over rows, sequential over columns
// from 0.0f: the scalar path's order, bit for bit.
void reduce_sum_cols_f32(const UnaryDesc& d, const void* in_v, void* out_v,
                         const void*) {
  const float* in = static_cast<const float*>(in_v);
  float* out = static_cast<float*>(out_v);
  for (std::int64_t i = 0; i < d.rows; i += kL) {
    const Mask m = Io::mask(d.rows - i);
    Vec acc = _mm512_setzero_ps();
    for (std::int64_t j = 0; j < d.cols; ++j)
      acc = _mm512_add_ps(acc, load(m, in + i + j * d.ldi));
    store(m, out + i, acc);
  }
}

// --- binary -------------------------------------------------------------------

struct Add { static Vec apply(Vec a, Vec b) { return _mm512_add_ps(a, b); } };
struct Sub { static Vec apply(Vec a, Vec b) { return _mm512_sub_ps(a, b); } };
struct Mul { static Vec apply(Vec a, Vec b) { return _mm512_mul_ps(a, b); } };
struct Div { static Vec apply(Vec a, Vec b) { return _mm512_div_ps(a, b); } };
struct Max {  // std::max(a, b): a < b ? b : a
  static Vec apply(Vec a, Vec b) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(a, b, _CMP_LT_OQ), a, b);
  }
};
struct Min {  // std::min(a, b): b < a ? b : a
  static Vec apply(Vec a, Vec b) {
    return _mm512_mask_blend_ps(_mm512_cmp_ps_mask(b, a, _CMP_LT_OQ), a, b);
  }
};

template <class Op, Broadcast B>
void binary_map(const BinaryDesc& d, const void* in0_v, const void* in1_v,
                void* out_v) {
  const float* in0 = static_cast<const float*>(in0_v);
  const float* in1 = static_cast<const float*>(in1_v);
  float* out = static_cast<float*>(out_v);
  for (std::int64_t j = 0; j < d.cols; ++j) {
    Vec a_col{};
    if constexpr (B == Broadcast::kRow) a_col = set1(in0[j]);
    if constexpr (B == Broadcast::kScalar) a_col = set1(in0[0]);
    for (std::int64_t i = 0; i < d.rows; i += kL) {
      const Mask m = Io::mask(d.rows - i);
      Vec a = a_col;
      if constexpr (B == Broadcast::kNone) a = load(m, in0 + i + j * d.ldi0);
      if constexpr (B == Broadcast::kCol) a = load(m, in0 + i);
      store(m, out + i + j * d.ldo, Op::apply(a, load(m, in1 + i + j * d.ldi1)));
    }
  }
}

template <class Op>
BinaryKernel binary_for(Broadcast b) {
  switch (b) {
    case Broadcast::kNone: return binary_map<Op, Broadcast::kNone>;
    case Broadcast::kRow: return binary_map<Op, Broadcast::kRow>;
    case Broadcast::kCol: return binary_map<Op, Broadcast::kCol>;
    case Broadcast::kScalar: return binary_map<Op, Broadcast::kScalar>;
  }
  return nullptr;
}

}  // namespace

UnaryKernel unary_avx512(const UnaryDesc& d) {
  if (d.in != DType::F32) return nullptr;
  if (d.out == DType::BF16)
    return d.kind == UnaryKind::kCopy ? copy_f32_to_bf16 : nullptr;
  if (d.out != DType::F32) return nullptr;
  switch (d.kind) {
    case UnaryKind::kZero: return zero_f32;
    case UnaryKind::kCopy: return unary_map<Copy>;
    case UnaryKind::kScale: return unary_map<Scale>;
    case UnaryKind::kRelu: return unary_map<Relu>;
    case UnaryKind::kReluBwd: return unary_map<ReluBwd>;
    case UnaryKind::kGelu: return unary_map<Gelu>;
    case UnaryKind::kGeluBwd: return unary_map<GeluBwd>;
    case UnaryKind::kReduceSumCols: return reduce_sum_cols_f32;
    default: return nullptr;
  }
}

BinaryKernel binary_avx512(const BinaryDesc& d) {
  if (d.in0 != DType::F32 || d.in1 != DType::F32 || d.out != DType::F32)
    return nullptr;
  switch (d.kind) {
    case BinaryKind::kAdd: return binary_for<Add>(d.bcast0);
    case BinaryKind::kSub: return binary_for<Sub>(d.bcast0);
    case BinaryKind::kMul: return binary_for<Mul>(d.bcast0);
    case BinaryKind::kDiv: return binary_for<Div>(d.bcast0);
    case BinaryKind::kMax: return binary_for<Max>(d.bcast0);
    case BinaryKind::kMin: return binary_for<Min>(d.bcast0);
  }
  return nullptr;
}

}  // namespace plt::tpp::detail
