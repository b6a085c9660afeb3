#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <tuple>
#include <vector>

#include "common/cpu_features.hpp"
#include "test_utils.hpp"
#include "tpp/brgemm.hpp"
#include "tpp/transforms.hpp"

namespace plt::tpp {
namespace {

using plt::test::expect_allclose;
using plt::test::naive_gemm;
using plt::test::random_vec;
using plt::test::to_bf16;

// ---------- fp32 shape sweep against the naive reference ----------

using ShapeParam = std::tuple<std::int64_t, std::int64_t, std::int64_t, float>;

class GemmF32P : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GemmF32P, MatchesNaive) {
  const auto [m, n, k, beta] = GetParam();
  auto a = random_vec(static_cast<std::size_t>(m * k), 1);
  auto b = random_vec(static_cast<std::size_t>(k * n), 2);
  auto c0 = random_vec(static_cast<std::size_t>(m * n), 3);
  std::vector<float> got = c0, want = c0;
  GemmTPP gemm(m, n, k, beta);
  gemm(a.data(), b.data(), got.data());
  naive_gemm(a.data(), b.data(), want.data(), m, n, k, m, k, m, beta);
  expect_allclose(got.data(), want.data(), got.size(),
                  1e-5f * static_cast<float>(k), "gemm f32");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmF32P,
    ::testing::Combine(::testing::Values<std::int64_t>(1, 3, 8, 16, 17, 33),
                       ::testing::Values<std::int64_t>(1, 2, 5, 16),
                       ::testing::Values<std::int64_t>(1, 7, 32),
                       ::testing::Values(0.0f, 1.0f)));

// ---------- vectorized paths agree with the scalar reference ----------

TEST(GemmMicro, VectorPathsMatchScalar) {
  const detail::MicroArgs args{33, 9, 21, 40, 25, 35};
  auto a = random_vec(static_cast<std::size_t>(args.lda * args.k), 5);
  auto b = random_vec(static_cast<std::size_t>(args.ldb * args.n), 6);
  auto c0 = random_vec(static_cast<std::size_t>(args.ldc * args.n), 7);

  const void* ap[] = {a.data()};
  const void* bp[] = {b.data()};
  std::vector<float> want = c0;
  detail::gemm_f32_ref(args, ap, bp, 1, want.data(), true);

#if defined(PLT_KERNELS_AVX2)
  if (cpu_features().avx2 && cpu_features().fma) {
    std::vector<float> got = c0;
    detail::gemm_f32_avx2(args, ap, bp, 1, got.data(), true);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx2");
  }
#endif
#if defined(PLT_KERNELS_AVX512)
  if (cpu_features().avx512f && cpu_features().avx512bw &&
      cpu_features().avx512vl) {
    std::vector<float> got = c0;
    detail::gemm_f32_avx512(args, ap, bp, 1, got.data(), true);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx512");
  }
#endif
}

TEST(GemmMicro, Bf16VnniPathsMatchScalarRef) {
  const std::int64_t m = 29, n = 7, k = 18;
  auto af = random_vec(static_cast<std::size_t>(m * k), 8);
  auto bflat = to_bf16(random_vec(static_cast<std::size_t>(k * n), 9));
  auto aflat = to_bf16(af);
  std::vector<bf16> avnni(static_cast<std::size_t>(vnni2_elems(m, k)));
  vnni2_pack(aflat.data(), avnni.data(), m, k, m);

  const detail::MicroArgs args{m, n, k, m, k, m};
  const void* ap[] = {avnni.data()};
  const void* bp[] = {bflat.data()};
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  detail::gemm_bf16_vnni_ref(args, ap, bp, 1, want.data(), false);

#if defined(PLT_KERNELS_AVX512)
  if (cpu_features().avx512f && cpu_features().avx512bw &&
      cpu_features().avx512vl) {
    std::vector<float> got(want.size(), 0.0f);
    detail::gemm_bf16_vnni_avx512(args, ap, bp, 1, got.data(), false);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "avx512 up");
  }
#endif
#if defined(PLT_KERNELS_AVX512BF16)
  if (cpu_features().avx512_bf16) {
    std::vector<float> got(want.size(), 0.0f);
    detail::gemm_bf16_vnni_avx512bf16(args, ap, bp, 1, got.data(), false);
    expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "vdpbf16ps");
  }
#endif
}

// ---------- bf16 end-to-end against an fp32 reference ----------

using Bf16Param = std::tuple<std::int64_t, std::int64_t, std::int64_t, bool>;

class GemmBf16P : public ::testing::TestWithParam<Bf16Param> {};

TEST_P(GemmBf16P, VnniGemmTracksF32Reference) {
  const auto [m, n, k, c_bf16] = GetParam();
  auto af = random_vec(static_cast<std::size_t>(m * k), 11);
  auto bf = random_vec(static_cast<std::size_t>(k * n), 12);
  auto a16 = to_bf16(af);
  auto b16 = to_bf16(bf);
  std::vector<bf16> avnni(static_cast<std::size_t>(vnni2_elems(m, k)));
  vnni2_pack(a16.data(), avnni.data(), m, k, m);

  // Reference on the rounded values (isolates accumulation error).
  auto ar = plt::test::to_f32(a16);
  auto br = plt::test::to_f32(b16);
  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  naive_gemm(ar.data(), br.data(), want.data(), m, n, k, m, k, m, 0.0f);

  if (c_bf16) {
    std::vector<bf16> got(static_cast<std::size_t>(m * n));
    GemmTPP gemm(m, n, k, 0.0f, DType::BF16, DType::BF16, DType::BF16,
                 ALayout::kVnni2);
    gemm(avnni.data(), b16.data(), got.data());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const float scale = std::max(1.0f, std::fabs(want[i]));
      EXPECT_NEAR(got[i].to_f32(), want[i], 0.02f * scale) << i;
    }
  } else {
    std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
    GemmTPP gemm(m, n, k, 0.0f, DType::BF16, DType::BF16, DType::F32,
                 ALayout::kVnni2);
    gemm(avnni.data(), b16.data(), got.data());
    expect_allclose(got.data(), want.data(), got.size(),
                    1e-5f * static_cast<float>(k), "bf16->f32");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmBf16P,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 31),
                       ::testing::Values<std::int64_t>(1, 6),
                       ::testing::Values<std::int64_t>(2, 9, 32),
                       ::testing::Bool()));

// ---------- batch-reduce semantics and the three variants ----------

TEST(Brgemm, StrideVariantReducesBatch) {
  const std::int64_t m = 8, n = 6, k = 4, count = 5;
  const std::int64_t stride_a = m * k, stride_b = k * n;
  auto a = random_vec(static_cast<std::size_t>(stride_a * count), 21);
  auto b = random_vec(static_cast<std::size_t>(stride_b * count), 22);
  std::vector<float> got(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> want(got.size(), 0.0f);
  BrgemmTPP brgemm(m, n, k, stride_a, stride_b, 0.0f);
  brgemm(a.data(), b.data(), got.data(), count);
  for (std::int64_t i = 0; i < count; ++i) {
    naive_gemm(a.data() + i * stride_a, b.data() + i * stride_b, want.data(),
               m, n, k, m, k, m, 1.0f);
  }
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "stride");
}

TEST(Brgemm, AddressAndOffsetVariantsMatchStride) {
  const std::int64_t m = 7, n = 5, k = 6, count = 4;
  const std::int64_t stride_a = m * k, stride_b = k * n;
  auto a = random_vec(static_cast<std::size_t>(stride_a * count), 31);
  auto b = random_vec(static_cast<std::size_t>(stride_b * count), 32);

  std::vector<float> want(static_cast<std::size_t>(m * n), 0.0f);
  BrgemmTPP stride(m, n, k, stride_a, stride_b, 0.0f);
  stride(a.data(), b.data(), want.data(), count);

  std::vector<const void*> ap, bp;
  std::vector<std::int64_t> oa, ob;
  for (std::int64_t i = 0; i < count; ++i) {
    ap.push_back(a.data() + i * stride_a);
    bp.push_back(b.data() + i * stride_b);
    oa.push_back(i * stride_a);
    ob.push_back(i * stride_b);
  }

  std::vector<float> got(want.size(), 0.0f);
  BrgemmTPP addr(BrgemmDesc{m, n, k, 0, 0, 0, DType::F32, DType::F32,
                            DType::F32, 0.0f, BrgemmVariant::kAddress,
                            ALayout::kFlat, 0, 0});
  addr.run_address(ap.data(), bp.data(), got.data(), count);
  expect_allclose(got.data(), want.data(), got.size(), 1e-6f, "address");

  std::fill(got.begin(), got.end(), 0.0f);
  BrgemmTPP offs(BrgemmDesc{m, n, k, 0, 0, 0, DType::F32, DType::F32,
                            DType::F32, 0.0f, BrgemmVariant::kOffset,
                            ALayout::kFlat, 0, 0});
  offs.run_offset(a.data(), b.data(), got.data(), oa.data(), ob.data(), count);
  expect_allclose(got.data(), want.data(), got.size(), 1e-6f, "offset");
}

TEST(Brgemm, EmptyBatchHonoursBeta) {
  const std::int64_t m = 4, n = 3;
  std::vector<float> c(static_cast<std::size_t>(m * n), 2.0f);
  BrgemmTPP beta0(m, n, 2, 0, 0, 0.0f);
  beta0(nullptr, nullptr, c.data(), 0);
  for (float v : c) EXPECT_EQ(v, 0.0f);

  std::fill(c.begin(), c.end(), 2.0f);
  BrgemmTPP beta1(m, n, 2, 0, 0, 1.0f);
  beta1(nullptr, nullptr, c.data(), 0);
  for (float v : c) EXPECT_EQ(v, 2.0f);
}

TEST(Brgemm, Bf16AccumulationStaysFp32AcrossBatch) {
  // Summing `count` copies of small values would lose bits if the batch
  // accumulated in bf16; the fp32 scratch must keep them.
  const std::int64_t m = 2, n = 2, k = 2, count = 64;
  std::vector<bf16> a(static_cast<std::size_t>(vnni2_elems(m, k)) *
                      static_cast<std::size_t>(count));
  std::vector<bf16> b(static_cast<std::size_t>(k * n * count));
  std::vector<bf16> flat(static_cast<std::size_t>(m * k));
  for (auto& v : flat) v = bf16::from_f32(0.001f);
  for (std::int64_t i = 0; i < count; ++i)
    vnni2_pack(flat.data(), a.data() + i * vnni2_elems(m, k), m, k, m);
  for (auto& v : b) v = bf16::from_f32(1.0f);

  std::vector<bf16> c(static_cast<std::size_t>(m * n));
  BrgemmTPP brgemm(m, n, k, vnni2_elems(m, k), k * n, 0.0f, DType::BF16,
                   DType::BF16, DType::BF16, ALayout::kVnni2);
  brgemm(a.data(), b.data(), c.data(), count);
  const float q = bf16::from_f32(0.001f).to_f32();
  const float expected = q * static_cast<float>(k) * static_cast<float>(count);
  // Loose check: the result is near k*count*q and far from a bf16-step
  // truncation plateau.
  for (const bf16& v : c) {
    EXPECT_NEAR(v.to_f32(), expected, 0.02f * expected);
  }
}

TEST(Brgemm, RejectsInvalidDescriptors) {
  EXPECT_THROW(BrgemmTPP(0, 1, 1, 0, 0, 0.0f), std::invalid_argument);
  EXPECT_THROW(BrgemmTPP(1, 1, 1, 0, 0, 0.5f), std::invalid_argument);
  // VNNI layout is a low-precision feature.
  EXPECT_THROW(BrgemmTPP(4, 4, 4, 0, 0, 0.0f, DType::F32, DType::F32,
                         DType::F32, ALayout::kVnni2),
               std::invalid_argument);
}

TEST(Brgemm, ReportsFlops) {
  BrgemmTPP brgemm(8, 4, 2, 0, 0, 0.0f);
  EXPECT_DOUBLE_EQ(brgemm.flops(3), 2.0 * 8 * 4 * 2 * 3);
}

// ---------- in-register batch reduce, n-invariance, AMX tiles ----------

// Every ISA level up to effective_isa(); the explicit-level constructor
// takes the best kernel at or below each.
std::vector<IsaLevel> runnable_isas() {
  std::vector<IsaLevel> out;
  for (int l = 0; l <= static_cast<int>(effective_isa()); ++l)
    out.push_back(static_cast<IsaLevel>(l));
  return out;
}

// `count` A blocks (flat fp32, or VNNI2-packed bf16) and B blocks stored
// back to back, plus the flat bf16-rounded values for fp64 references.
struct Operands {
  std::int64_t m = 0, n = 0, k = 0, a_blk = 0, b_blk = 0;
  bool bf = false;
  std::vector<float> a32, b32;  // fp32 operands, or the bf16-rounded values
  std::vector<bf16> a16, b16;   // bf16: A VNNI2-packed, B flat

  Operands(std::int64_t m_, std::int64_t n_, std::int64_t k_,
           std::int64_t count, bool bf_, std::uint64_t seed)
      : m(m_), n(n_), k(k_), bf(bf_) {
    a_blk = bf ? vnni2_elems(m, k) : m * k;
    b_blk = k * n;
    a32 = random_vec(static_cast<std::size_t>(m * k * count), seed);
    b32 = random_vec(static_cast<std::size_t>(b_blk * count), seed + 1);
    if (!bf) return;
    const auto aflat = to_bf16(a32);
    b16 = to_bf16(b32);
    a32 = plt::test::to_f32(aflat);
    b32 = plt::test::to_f32(b16);
    a16.resize(static_cast<std::size_t>(a_blk * count));
    for (std::int64_t i = 0; i < count; ++i)
      vnni2_pack(aflat.data() + i * m * k, a16.data() + i * a_blk, m, k, m);
  }
  DType dtype() const { return bf ? DType::BF16 : DType::F32; }
  ALayout layout() const { return bf ? ALayout::kVnni2 : ALayout::kFlat; }
  const void* a_at(std::int64_t i) const {
    return bf ? static_cast<const void*>(a16.data() + i * a_blk)
              : a32.data() + i * a_blk;
  }
  const void* b_at(std::int64_t i) const {
    return bf ? static_cast<const void*>(b16.data() + i * b_blk)
              : b32.data() + i * b_blk;
  }
  BrgemmDesc desc(float beta, DType c, std::int64_t ldc = 0) const {
    return BrgemmDesc{m, n, k, 0, 0, ldc, dtype(), dtype(), c, beta,
                      BrgemmVariant::kStride, layout(), a_blk, b_blk};
  }
};

template <typename T>
std::int64_t first_bit_mismatch(const std::vector<T>& got,
                                const std::vector<T>& want) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(T)) != 0)
      return static_cast<std::int64_t>(i);
  return -1;
}

// A brcount=r call equals r chained brcount=1 calls that store and reload
// an fp32 C; a bf16 C is that fp32 chain rounded once.
TEST(BrgemmBatch, BatchEqualsChainedSingleCallsOnEveryIsa) {
  const std::int64_t count = 5;
  const std::int64_t shapes[][3] = {{35, 11, 9}, {32, 37, 18}, {64, 8, 32}};
  for (bool bf : {false, true}) {
    for (const auto& sh : shapes) {
      const Operands op(sh[0], sh[1], sh[2], count, bf, 40);
      const auto c0 = random_vec(static_cast<std::size_t>(op.m * op.n), 41);
      for (IsaLevel isa : runnable_isas()) {
        for (float beta : {0.0f, 1.0f}) {
          SCOPED_TRACE(::testing::Message()
                       << "bf16=" << bf << " m=" << op.m << " n=" << op.n
                       << " k=" << op.k << " isa=" << isa_name(isa)
                       << " beta=" << beta);
          const BrgemmTPP batched(op.desc(beta, DType::F32), isa);
          const BrgemmTPP rest(op.desc(1.0f, DType::F32), isa);
          ASSERT_EQ(rest.kernel_isa(), batched.kernel_isa());
          auto chain = [&](std::vector<float> c) {
            batched(op.a_at(0), op.b_at(0), c.data(), 1);
            for (std::int64_t i = 1; i < count; ++i)
              rest(op.a_at(i), op.b_at(i), c.data(), 1);
            return c;
          };

          std::vector<float> got = c0;
          batched(op.a_at(0), op.b_at(0), got.data(), count);
          EXPECT_EQ(first_bit_mismatch(got, chain(c0)), -1) << "fp32 C";

          const auto c16 = to_bf16(c0);
          std::vector<bf16> got16 = c16;
          const BrgemmTPP batched16(op.desc(beta, DType::BF16), isa);
          ASSERT_EQ(batched16.kernel_isa(), batched.kernel_isa());
          batched16(op.a_at(0), op.b_at(0), got16.data(), count);
          EXPECT_EQ(first_bit_mismatch(got16,
                                       to_bf16(chain(plt::test::to_f32(c16)))),
                    -1)
              << "bf16 C";
        }
      }
    }
  }
}

// Column j of an n=32 call equals the n=1 call on column j, bit for bit, on
// every ISA: the kernel choice never depends on n.
TEST(BrgemmBatch, ColumnsDoNotDependOnN) {
  const std::int64_t n = 32, count = 3;
  const std::int64_t shapes[][2] = {{32, 64}, {48, 18}, {29, 9}};
  for (bool bf : {true, false}) {
    for (const auto& sh : shapes) {
      const Operands op(sh[0], n, sh[1], count, bf, 50);
      const auto c0 = random_vec(static_cast<std::size_t>(op.m * n), 51);
      for (IsaLevel isa : runnable_isas()) {
        for (DType cdt : {DType::F32, DType::BF16}) {
          SCOPED_TRACE(::testing::Message()
                       << "bf16=" << bf << " m=" << op.m << " k=" << op.k
                       << " isa=" << isa_name(isa)
                       << " c=" << dtype_name(cdt));
          const BrgemmTPP wide(op.desc(1.0f, cdt), isa);
          BrgemmDesc d1 = op.desc(1.0f, cdt, op.m);
          d1.n = 1;
          d1.ldb = op.k;
          const BrgemmTPP narrow(d1, isa);
          ASSERT_EQ(wide.kernel_isa(), narrow.kernel_isa());
          if (bf && isa == IsaLevel::kAMX && detail::amx_eligible(op.m, op.k))
            EXPECT_EQ(wide.kernel_isa(), IsaLevel::kAMX);
          const std::size_t esz = dtype_size(cdt);
          std::vector<std::uint8_t> seed(c0.size() * esz);
          if (cdt == DType::F32) {
            std::memcpy(seed.data(), c0.data(), seed.size());
          } else {
            std::memcpy(seed.data(), to_bf16(c0).data(), seed.size());
          }
          std::vector<std::uint8_t> got = seed, want = seed;
          wide(op.a_at(0), op.b_at(0), got.data(), count);
          const std::size_t besz = dtype_size(op.dtype());
          for (std::int64_t j = 0; j < n; ++j) {
            narrow(op.a_at(0),
                   static_cast<const char*>(op.b_at(0)) +
                       static_cast<std::size_t>(j * op.k) * besz,
                   want.data() + static_cast<std::size_t>(j * op.m) * esz,
                   count);
          }
          EXPECT_EQ(first_bit_mismatch(got, want), -1);
        }
      }
    }
  }
}

// Runs one BRGEMM of `op` (C with leading dimension ldc, seeded from c0)
// through `var` and checks every C element against an fp64 reference of the
// bf16-rounded operands, within the fp32 accumulation bound
// gamma_K * sum|terms| (K = the number of terms, the C seed included) plus
// the bf16 output rounding. The ldc padding must stay untouched.
void check_against_fp64(const BrgemmTPP& brgemm, const Operands& op,
                        std::int64_t ldc, const std::vector<float>& c0,
                        std::int64_t count) {
  const BrgemmDesc& d = brgemm.desc();
  const bool c_bf = d.c == DType::BF16;
  const std::vector<float> seed = c_bf ? plt::test::to_f32(to_bf16(c0)) : c0;
  std::vector<float> got32 = seed;
  std::vector<bf16> got16 = to_bf16(seed);
  void* c = c_bf ? static_cast<void*>(got16.data())
                 : static_cast<void*>(got32.data());
  std::vector<const void*> ap, bp;
  std::vector<std::int64_t> oa, ob;
  for (std::int64_t i = 0; i < count; ++i) {
    ap.push_back(op.a_at(i));
    bp.push_back(op.b_at(i));
    oa.push_back(i * op.a_blk);
    ob.push_back(i * op.b_blk);
  }
  if (d.variant == BrgemmVariant::kStride) {
    brgemm(op.a_at(0), op.b_at(0), c, count);
  } else if (d.variant == BrgemmVariant::kAddress) {
    brgemm.run_address(ap.data(), bp.data(), c, count);
  } else {
    brgemm.run_offset(op.a_at(0), op.b_at(0), c, oa.data(), ob.data(), count);
  }
  if (c_bf) got32 = plt::test::to_f32(got16);

  const double u = std::ldexp(1.0, -24);
  const std::int64_t terms = count * op.k + (d.beta == 1.0f ? 1 : 0);
  const double gamma = terms * u / (1.0 - static_cast<double>(terms) * u);
  const double u_out = c_bf ? std::ldexp(1.0, -8) : 0.0;
  for (std::int64_t j = 0; j < op.n; ++j) {
    for (std::int64_t i = 0; i < ldc; ++i) {
      const auto idx = static_cast<std::size_t>(i + j * ldc);
      if (i >= op.m) {
        ASSERT_EQ(got32[idx], seed[idx]) << "padding i=" << i << " j=" << j;
        continue;
      }
      double ref = d.beta == 1.0f ? seed[idx] : 0.0;
      double mag = std::fabs(ref);
      for (std::int64_t e = 0; e < count; ++e) {
        for (std::int64_t kk = 0; kk < op.k; ++kk) {
          const auto ai = static_cast<std::size_t>(e * op.m * op.k + i +
                                                   kk * op.m);
          const auto bi = static_cast<std::size_t>(e * op.b_blk + kk +
                                                   j * op.k);
          const double t = static_cast<double>(op.a32[ai]) * op.b32[bi];
          ref += t;
          mag += std::fabs(t);
        }
      }
      const double tol = gamma * mag + u_out * (std::fabs(ref) + gamma * mag);
      ASSERT_LE(std::fabs(got32[idx] - ref), tol) << "i=" << i << " j=" << j;
    }
  }
}

TEST(BrgemmAmx, TracksFp64WithinGammaK) {
  if (effective_isa() < IsaLevel::kAMX)
    GTEST_SKIP() << "no usable AMX (effective ISA "
                 << isa_name(effective_isa()) << ")";
  const std::int64_t max_count = 33, pad = 5;
  const BrgemmVariant variants[] = {BrgemmVariant::kStride,
                                    BrgemmVariant::kAddress,
                                    BrgemmVariant::kOffset};
  int cases = 0;
  for (std::int64_t n : {1, 7, 17, 32}) {
    for (std::int64_t k : {2, 18, 34, 64}) {
      for (std::int64_t m : {16, 32, 48}) {
        const Operands op(m, n, k, max_count, true, 60 + m + n + k);
        const std::int64_t ldc = m + pad;
        const auto c0 = random_vec(static_cast<std::size_t>(ldc * n), 61);
        for (std::int64_t count : {0, 1, 33}) {
          for (float beta : {0.0f, 1.0f}) {
            for (DType cdt : {DType::F32, DType::BF16}) {
              for (BrgemmVariant var : variants) {
                SCOPED_TRACE(::testing::Message()
                             << "m=" << m << " n=" << n << " k=" << k
                             << " count=" << count << " beta=" << beta
                             << " c=" << dtype_name(cdt)
                             << " variant=" << static_cast<int>(var));
                BrgemmDesc d = op.desc(beta, cdt, ldc);
                d.variant = var;
                const BrgemmTPP brgemm(d);
                ASSERT_EQ(brgemm.kernel_isa(), IsaLevel::kAMX);
                check_against_fp64(brgemm, op, ldc, c0, count);
                if (HasFatalFailure()) return;
                ++cases;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 4 * 3 * 3 * 2 * 2 * 3);
}

}  // namespace
}  // namespace plt::tpp
