#include "tpp/brgemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.hpp"

namespace plt::tpp {

namespace {

struct Pick {
  detail::Micro fn;
  IsaLevel isa;
};

Pick pick_f32([[maybe_unused]] IsaLevel isa) {
#if defined(PLT_KERNELS_AVX512)
  if (isa >= IsaLevel::kAVX512)
    return {detail::gemm_f32_avx512, IsaLevel::kAVX512};
#endif
#if defined(PLT_KERNELS_AVX2)
  if (isa >= IsaLevel::kAVX2) return {detail::gemm_f32_avx2, IsaLevel::kAVX2};
#endif
  return {detail::gemm_f32_ref, IsaLevel::kScalar};
}

// The choice depends on the dtypes, the layout, m and k only, never on n.
Pick pick_bf16_vnni([[maybe_unused]] IsaLevel isa,
                    [[maybe_unused]] std::int64_t m,
                    [[maybe_unused]] std::int64_t k) {
#if defined(PLT_KERNELS_AMX)
  if (isa >= IsaLevel::kAMX && detail::amx_eligible(m, k))
    return {detail::gemm_bf16_vnni_amx, IsaLevel::kAMX};
#endif
#if defined(PLT_KERNELS_AVX512BF16)
  if (isa >= IsaLevel::kAVX512BF16)
    return {detail::gemm_bf16_vnni_avx512bf16, IsaLevel::kAVX512BF16};
#endif
#if defined(PLT_KERNELS_AVX512)
  if (isa >= IsaLevel::kAVX512)
    return {detail::gemm_bf16_vnni_avx512, IsaLevel::kAVX512};
#endif
  return {detail::gemm_bf16_vnni_ref, IsaLevel::kScalar};
}

// Per-thread address list (A pointers, then B pointers) that the stride and
// offset variants fill for the microkernel.
const void** address_list(std::int64_t brcount) {
  thread_local std::vector<const void*> buf;
  const auto need =
      static_cast<std::size_t>(std::max<std::int64_t>(brcount, 0) * 2);
  if (buf.size() < need) buf.resize(need);
  return buf.data();
}

}  // namespace

BrgemmTPP::BrgemmTPP(BrgemmDesc desc, IsaLevel isa) : desc_(desc) {
  PLT_CHECK(desc_.m > 0 && desc_.n > 0 && desc_.k > 0, "brgemm: empty shape");
  PLT_CHECK(desc_.beta == 0.0f || desc_.beta == 1.0f,
            "brgemm: beta must be 0 or 1");
  if (desc_.lda == 0) desc_.lda = desc_.m;
  if (desc_.ldb == 0) desc_.ldb = desc_.k;
  if (desc_.ldc == 0) desc_.ldc = desc_.m;
  const bool f32_all = desc_.a == DType::F32 && desc_.b == DType::F32 &&
                       (desc_.c == DType::F32 || desc_.c == DType::BF16);
  const bool bf16_in = desc_.a == DType::BF16 && desc_.b == DType::BF16 &&
                       (desc_.c == DType::F32 || desc_.c == DType::BF16);
  PLT_CHECK(f32_all || bf16_in, "brgemm: unsupported dtype combination");
  isa = std::min(isa, effective_isa());
  Pick pick{detail::gemm_bf16_flat_ref, IsaLevel::kScalar};
  if (f32_all) {
    PLT_CHECK(desc_.a_layout == ALayout::kFlat,
              "brgemm: VNNI layout is a low-precision feature");
    pick = pick_f32(isa);
  } else if (desc_.a_layout == ALayout::kVnni2) {
    pick = pick_bf16_vnni(isa, desc_.m, desc_.k);
  }
  micro_ = pick.fn;
  isa_ = pick.isa;
#if defined(PLT_KERNELS_AMX)
  if (isa_ == IsaLevel::kAMX) amx_ = detail::make_amx_plan(desc_.n, desc_.k);
#endif
}

BrgemmTPP::BrgemmTPP(std::int64_t m, std::int64_t n, std::int64_t k,
                     std::int64_t stride_a, std::int64_t stride_b, float beta,
                     DType a, DType b, DType c, ALayout a_layout)
    : BrgemmTPP(BrgemmDesc{m, n, k, 0, 0, 0, a, b, c, beta,
                           BrgemmVariant::kStride, a_layout, stride_a,
                           stride_b}) {}

void BrgemmTPP::run_lists(const void* const* a, const void* const* b,
                          void* c, std::int64_t brcount) const {
  if (brcount <= 0) {
    if (desc_.beta == 0.0f) {
      // libxsmm semantics: beta=0 with an empty batch still zeroes C.
      const std::size_t esz = dtype_size(desc_.c);
      char* cp = static_cast<char*>(c);
      for (std::int64_t j = 0; j < desc_.n; ++j)
        std::memset(cp + static_cast<std::size_t>(j * desc_.ldc) * esz, 0,
                    static_cast<std::size_t>(desc_.m) * esz);
    }
    return;
  }
  const detail::MicroArgs args{desc_.m,   desc_.n,   desc_.k,
                               desc_.lda, desc_.ldb, desc_.ldc,
                               desc_.c == DType::BF16, &amx_};
  micro_(args, a, b, brcount, c, desc_.beta == 1.0f);
}

void BrgemmTPP::operator()(const void* a, const void* b, void* c,
                           std::int64_t brcount) const {
  PLT_DCHECK(desc_.variant == BrgemmVariant::kStride,
             "brgemm: operator() is the stride variant");
  const std::size_t esz_a = dtype_size(desc_.a);
  const std::size_t esz_b = dtype_size(desc_.b);
  const char* ap = static_cast<const char*>(a);
  const char* bp = static_cast<const char*>(b);
  const void** list = address_list(brcount);
  for (std::int64_t i = 0; i < brcount; ++i) {
    list[i] = ap + static_cast<std::size_t>(i * desc_.stride_a) * esz_a;
    list[brcount + i] =
        bp + static_cast<std::size_t>(i * desc_.stride_b) * esz_b;
  }
  run_lists(list, list + brcount, c, brcount);
}

void BrgemmTPP::run_address(const void* const* a, const void* const* b,
                            void* c, std::int64_t brcount) const {
  run_lists(a, b, c, brcount);
}

void BrgemmTPP::run_offset(const void* a, const void* b, void* c,
                           const std::int64_t* offs_a,
                           const std::int64_t* offs_b,
                           std::int64_t brcount) const {
  const std::size_t esz_a = dtype_size(desc_.a);
  const std::size_t esz_b = dtype_size(desc_.b);
  const char* ap = static_cast<const char*>(a);
  const char* bp = static_cast<const char*>(b);
  const void** list = address_list(brcount);
  for (std::int64_t i = 0; i < brcount; ++i) {
    list[i] = ap + static_cast<std::size_t>(offs_a[i]) * esz_a;
    list[brcount + i] = bp + static_cast<std::size_t>(offs_b[i]) * esz_b;
  }
  run_lists(list, list + brcount, c, brcount);
}

GemmTPP::GemmTPP(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
                 DType a, DType b, DType c, ALayout a_layout, std::int64_t lda,
                 std::int64_t ldb, std::int64_t ldc)
    : impl_(BrgemmDesc{m, n, k, lda, ldb, ldc, a, b, c, beta,
                       BrgemmVariant::kStride, a_layout, 0, 0}) {}

}  // namespace plt::tpp
