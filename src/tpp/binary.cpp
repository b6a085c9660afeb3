#include "tpp/binary.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/cpu_features.hpp"
#include "tpp/eltwise_micro.hpp"
#include "tpp/kernel_cache.hpp"

namespace plt::tpp {

float binary_scalar_op(BinaryKind kind, float a, float b) {
  switch (kind) {
    case BinaryKind::kAdd: return a + b;
    case BinaryKind::kSub: return a - b;
    case BinaryKind::kMul: return a * b;
    case BinaryKind::kDiv: return a / b;
    case BinaryKind::kMax: return std::max(a, b);
    case BinaryKind::kMin: return std::min(a, b);
  }
  return 0.0f;
}

namespace {

using BinaryFn = std::function<void(const void*, const void*, void*)>;

template <typename T0, typename T1, typename TO>
void run(const BinaryDesc& d, const void* in0_v, const void* in1_v,
         void* out_v) {
  const T0* in0 = static_cast<const T0*>(in0_v);
  const T1* in1 = static_cast<const T1*>(in1_v);
  TO* out = static_cast<TO*>(out_v);
  for (std::int64_t j = 0; j < d.cols; ++j) {
    const T1* c1 = in1 + j * d.ldi1;
    TO* co = out + j * d.ldo;
    for (std::int64_t i = 0; i < d.rows; ++i) {
      float a;
      switch (d.bcast0) {
        case Broadcast::kNone:   a = load_f32(&in0[i + j * d.ldi0]); break;
        case Broadcast::kRow:    a = load_f32(&in0[j]); break;   // 1 x cols
        case Broadcast::kCol:    a = load_f32(&in0[i]); break;   // rows x 1
        case Broadcast::kScalar: a = load_f32(&in0[0]); break;
        default: a = 0.0f; break;
      }
      store_f32(&co[i], binary_scalar_op(d.kind, a, load_f32(&c1[i])));
    }
  }
}

template <typename T0, typename T1>
BinaryFn make_out(const BinaryDesc& d) {
  switch (d.out) {
    case DType::F32:
      return [d](const void* a, const void* b, void* o) { run<T0, T1, float>(d, a, b, o); };
    case DType::BF16:
      return [d](const void* a, const void* b, void* o) { run<T0, T1, bf16>(d, a, b, o); };
    default: break;
  }
  PLT_CHECK(false, "binary TPP: unsupported output dtype");
  return {};
}

template <typename T0>
BinaryFn make_in1(const BinaryDesc& d) {
  switch (d.in1) {
    case DType::F32: return make_out<T0, float>(d);
    case DType::BF16: return make_out<T0, bf16>(d);
    default: break;
  }
  PLT_CHECK(false, "binary TPP: unsupported in1 dtype");
  return {};
}

BinaryFn make_kernel(const BinaryDesc& d) {
#if defined(PLT_KERNELS_AVX512)
  if (effective_isa() >= IsaLevel::kAVX512) {
    if (const detail::BinaryKernel k = detail::binary_avx512(d)) {
      return [d, k](const void* a, const void* b, void* o) { k(d, a, b, o); };
    }
  }
#endif
  switch (d.in0) {
    case DType::F32: return make_in1<float>(d);
    case DType::BF16: return make_in1<bf16>(d);
    default: break;
  }
  PLT_CHECK(false, "binary TPP: unsupported in0 dtype");
  return {};
}

KernelCache<BinaryFn>& cache() {
  static KernelCache<BinaryFn> c;
  return c;
}

}  // namespace

BinaryTPP::BinaryTPP(BinaryDesc desc) : desc_(desc) {
  PLT_CHECK(desc_.rows > 0 && desc_.cols > 0, "binary TPP: empty shape");
  if (desc_.ldi0 == 0) desc_.ldi0 = desc_.rows;
  if (desc_.ldi1 == 0) desc_.ldi1 = desc_.rows;
  if (desc_.ldo == 0) desc_.ldo = desc_.rows;
  const BinaryDesc d = desc_;
  fn_ = cache().get_or_create(d.key(), [d] {
    return std::make_shared<BinaryFn>(make_kernel(d));
  });
}

BinaryTPP::BinaryTPP(BinaryKind kind, std::int64_t rows, std::int64_t cols,
                     DType dt, Broadcast bcast0)
    : BinaryTPP(BinaryDesc{kind, rows, cols, 0, 0, 0, dt, dt, dt, bcast0}) {}

void BinaryTPP::operator()(const void* in0, const void* in1, void* out) const {
  (*fn_)(in0, in1, out);
}

}  // namespace plt::tpp
