// Batch-Reduce GEMM (BRGEMM) TPP — the main tensor-contraction building
// block (Section II-A):
//
//   C = beta * C + sum_{i=0}^{brcount-1} A_i x B_i
//
// with the three address-generation variants of the paper: stride-based,
// address-based and offset-based. Every variant hands the microkernel the
// whole batch as an address list, and the microkernel reduces it in
// registers (or AMX tiles): C is read once and written once per call. bf16
// inputs accumulate in fp32; a bf16 C is rounded once, at the final store.
#pragma once

#include <cstdint>
#include <memory>

#include "common/cpu_features.hpp"
#include "tpp/gemm_micro.hpp"
#include "tpp/tpp_types.hpp"

namespace plt::tpp {

class BrgemmTPP {
 public:
  // Builds the kernel for the highest ISA level <= `isa` (capped at
  // effective_isa()) that has one for this descriptor.
  explicit BrgemmTPP(BrgemmDesc desc, IsaLevel isa = effective_isa());

  // Convenience constructor for the stride-based variant (Listing 1 usage).
  BrgemmTPP(std::int64_t m, std::int64_t n, std::int64_t k,
            std::int64_t stride_a, std::int64_t stride_b, float beta,
            DType a = DType::F32, DType b = DType::F32, DType c = DType::F32,
            ALayout a_layout = ALayout::kFlat);

  // Stride variant: A_i = a + i*stride_a, B_i = b + i*stride_b (elements).
  void operator()(const void* a, const void* b, void* c,
                  std::int64_t brcount) const;

  // Address variant: explicit pointer arrays of length brcount.
  void run_address(const void* const* a, const void* const* b, void* c,
                   std::int64_t brcount) const;

  // Offset variant: A_i = a + offs_a[i], B_i = b + offs_b[i] (elements).
  void run_offset(const void* a, const void* b, void* c,
                  const std::int64_t* offs_a, const std::int64_t* offs_b,
                  std::int64_t brcount) const;

  const BrgemmDesc& desc() const { return desc_; }
  // ISA level of the dispatched kernel (kAMX only for AMX-eligible bf16
  // VNNI shapes; see detail::amx_eligible).
  IsaLevel kernel_isa() const { return isa_; }
  double flops(std::int64_t brcount) const {
    return GemmFlops::of(desc_.m, desc_.n, desc_.k) *
           static_cast<double>(brcount);
  }

 private:
  void run_lists(const void* const* a, const void* const* b, void* c,
                 std::int64_t brcount) const;

  BrgemmDesc desc_;
  detail::Micro micro_ = nullptr;
  IsaLevel isa_ = IsaLevel::kScalar;
  detail::AmxPlan amx_;
};

// Plain GEMM TPP: C = beta * C + A x B. Thin wrapper over a brcount=1
// BRGEMM, mirroring the TPP collection where GEMM is the degenerate case.
class GemmTPP {
 public:
  GemmTPP(std::int64_t m, std::int64_t n, std::int64_t k, float beta,
          DType a = DType::F32, DType b = DType::F32, DType c = DType::F32,
          ALayout a_layout = ALayout::kFlat,
          std::int64_t lda = 0, std::int64_t ldb = 0, std::int64_t ldc = 0);

  void operator()(const void* a, const void* b, void* c) const { impl_(a, b, c, 1); }
  const BrgemmDesc& desc() const { return impl_.desc(); }

 private:
  BrgemmTPP impl_;
};

}  // namespace plt::tpp
