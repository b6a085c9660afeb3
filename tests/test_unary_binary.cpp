#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>

#include "test_utils.hpp"
#include "tpp/binary.hpp"
#include "tpp/unary.hpp"

namespace plt::tpp {
namespace {

using plt::test::expect_allclose;
using plt::test::random_vec;

// ---------- GeLU accuracy against fp64 ----------

// The tanh approximation in fp64 with exact constants, and its derivative.
double gelu_fp64(double x) {
  const double c = std::sqrt(2.0 / std::acos(-1.0));
  return 0.5 * x * (1.0 + std::tanh(c * (x + 0.044715 * x * x * x)));
}
double gelu_bwd_fp64(double g, double x) {
  const double c = std::sqrt(2.0 / std::acos(-1.0));
  const double t = std::tanh(c * (x + 0.044715 * x * x * x));
  return g * (0.5 * (1.0 + t) +
              0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x));
}

// The GeLU bound is absolute: |got - ref| <= c u max(1, |x|), u = 2^-24,
// for gradients |g| <= 1. The float std::tanh reference is itself up to 14
// ulp off on [-2, 8), so no kernel can match it to 4 ulp; c = 8 holds both
// for the scalar std::tanh functions and for the vector kernels.
constexpr double kGeluBoundC = 8.0;

// The error of got against ref in units of u max(1, |x|).
double gelu_err_units(float got, double ref, float x) {
  return std::fabs(static_cast<double>(got) - ref) /
         (std::ldexp(1.0, -24) * std::max(1.0, std::fabs(static_cast<double>(x))));
}

// Sweeps x over [-10, 10] in 2^-10 steps (a 1000 x 21 tensor, so both the
// full vectors and the masked row tails run) with gradients in [-1, 1]:
// the TPP (vector or scalar path, per ISA) and the scalar functions.
TEST(GeluAccuracy, WithinFp64BoundOverMinus10To10) {
  const std::int64_t rows = 1000, cols = 21;
  std::vector<float> x(static_cast<std::size_t>(rows * cols));
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::min(10.0f, -10.0f + static_cast<float>(i) * 0x1p-10f);
  const auto g = random_vec(x.size(), 61);
  std::vector<float> fwd(x.size()), bwd(x.size());
  UnaryTPP(UnaryKind::kGelu, rows, cols)(x.data(), fwd.data());
  UnaryTPP(UnaryKind::kGeluBwd, rows, cols)(g.data(), bwd.data(), x.data());
  double worst[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double ref_f = gelu_fp64(x[i]), ref_b = gelu_bwd_fp64(g[i], x[i]);
    worst[0] = std::max(worst[0], gelu_err_units(fwd[i], ref_f, x[i]));
    worst[1] = std::max(worst[1], gelu_err_units(bwd[i], ref_b, x[i]));
    worst[2] = std::max(worst[2], gelu_err_units(gelu_fwd_scalar(x[i]), ref_f, x[i]));
    worst[3] = std::max(worst[3],
                        gelu_err_units(gelu_bwd_scalar(g[i], x[i]), ref_b, x[i]));
  }
  EXPECT_LE(worst[0], kGeluBoundC) << "kGelu TPP";
  EXPECT_LE(worst[1], kGeluBoundC) << "kGeluBwd TPP";
  EXPECT_LE(worst[2], kGeluBoundC) << "gelu_fwd_scalar";
  EXPECT_LE(worst[3], kGeluBoundC) << "gelu_bwd_scalar";
}

// ---------- parameterized elementwise sweep ----------

using UnaryParam = std::tuple<UnaryKind, std::int64_t, std::int64_t>;

class UnaryElementwiseP : public ::testing::TestWithParam<UnaryParam> {};

// GeLU forward and backward are held to the fp64 bound above; every other
// kind to the scalar definition (ASSERT_FLOAT_EQ).
TEST_P(UnaryElementwiseP, MatchesScalarReference) {
  const auto [kind, rows, cols] = GetParam();
  // Positive-shifted input keeps sqrt/rsqrt/reciprocal well-defined.
  const bool needs_positive = kind == UnaryKind::kSqrt ||
                              kind == UnaryKind::kRsqrt ||
                              kind == UnaryKind::kReciprocal;
  auto in = random_vec(static_cast<std::size_t>(rows * cols), 11,
                       needs_positive ? 0.1f : -2.0f, 2.0f);
  // The backward kinds take a gradient in [-1, 1] and the saved input.
  const auto grad = random_vec(in.size(), 12);
  const bool bwd = kind == UnaryKind::kGeluBwd || kind == UnaryKind::kReluBwd;
  std::vector<float> out(in.size(), -7.0f);
  UnaryTPP tpp(kind, rows, cols);
  if (bwd) {
    tpp(grad.data(), out.data(), in.data());
  } else {
    tpp(in.data(), out.data());
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (kind == UnaryKind::kGelu) {
      ASSERT_LE(gelu_err_units(out[i], gelu_fp64(in[i]), in[i]), kGeluBoundC)
          << i;
    } else if (kind == UnaryKind::kGeluBwd) {
      ASSERT_LE(gelu_err_units(out[i], gelu_bwd_fp64(grad[i], in[i]), in[i]),
                kGeluBoundC)
          << i;
    } else if (kind == UnaryKind::kReluBwd) {
      ASSERT_FLOAT_EQ(out[i], in[i] > 0.0f ? grad[i] : 0.0f) << i;
    } else {
      ASSERT_FLOAT_EQ(out[i], unary_scalar_op(kind, in[i], 1.0f)) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, UnaryElementwiseP,
    ::testing::Combine(
        ::testing::Values(UnaryKind::kZero, UnaryKind::kCopy, UnaryKind::kRelu,
                          UnaryKind::kGelu, UnaryKind::kTanh,
                          UnaryKind::kSigmoid, UnaryKind::kExp,
                          UnaryKind::kSqrt, UnaryKind::kRsqrt,
                          UnaryKind::kReciprocal, UnaryKind::kNegate,
                          UnaryKind::kSquare, UnaryKind::kAbs,
                          UnaryKind::kGeluBwd, UnaryKind::kReluBwd,
                          UnaryKind::kScale),
        ::testing::Values<std::int64_t>(1, 7, 16),
        ::testing::Values<std::int64_t>(1, 5, 32)));

// ---------- bitwise: tiling invariance and the scalar path ----------

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// An element's GeLU, GeLU-backward and bias-add result depends on its
// inputs alone: a 37 x 5 tile, 1-column calls and the whole 1024 x 128
// tensor agree bit for bit (the tile offsets put elements in other lanes).
TEST(EltwiseTiling, SameBitsForTileColumnAndWholeTensor) {
  const std::int64_t M = 1024, N = 128, m = 37, n = 5, i0 = 5, j0 = 3;
  const auto x = random_vec(static_cast<std::size_t>(M * N), 63, -6.0f, 6.0f);
  const auto g = random_vec(x.size(), 64);
  const auto bias = random_vec(static_cast<std::size_t>(M), 65);
  const auto add = [](std::int64_t rows, std::int64_t cols) {
    return BinaryTPP(BinaryDesc{BinaryKind::kAdd, rows, cols, 0, 1024, 1024,
                                DType::F32, DType::F32, DType::F32,
                                Broadcast::kCol});
  };
  const auto unary = [](UnaryKind k, std::int64_t rows, std::int64_t cols) {
    return UnaryTPP(UnaryDesc{k, rows, cols, 1024, 1024, DType::F32,
                              DType::F32, 1.0f});
  };
  std::vector<float> whole[3], tile[3], column[3];
  for (auto* v : {whole, tile, column})
    for (int o = 0; o < 3; ++o) v[o].assign(x.size(), 0.0f);
  // Runs the three ops on the rows x cols block at (r, c).
  const auto run = [&](std::vector<float>* out, std::int64_t r, std::int64_t c,
                       std::int64_t rows, std::int64_t cols) {
    const std::size_t off = static_cast<std::size_t>(r + c * M);
    unary(UnaryKind::kGelu, rows, cols)(x.data() + off, out[0].data() + off);
    unary(UnaryKind::kGeluBwd, rows, cols)(g.data() + off, out[1].data() + off,
                                           x.data() + off);
    add(rows, cols)(bias.data() + r, x.data() + off, out[2].data() + off);
  };
  run(whole, 0, 0, M, N);
  run(tile, i0, j0, m, n);
  for (std::int64_t j = j0; j < j0 + n; ++j) run(column, i0, j, m, 1);
  int bad = 0;
  for (int o = 0; o < 3; ++o)
    for (std::int64_t j = j0; j < j0 + n; ++j)
      for (std::int64_t i = i0; i < i0 + m; ++i) {
        const std::size_t k = static_cast<std::size_t>(i + j * M);
        if (!same_bits(tile[o][k], whole[o][k]) ||
            !same_bits(column[o][k], whole[o][k]))
          ++bad;
      }
  EXPECT_EQ(bad, 0);
}

// Ties, denormals, signed zeros, +-inf and NaNs.
std::vector<float> special_values(std::size_t n) {
  const std::uint32_t bits[] = {
      0x3f808000u, 0x3f818000u, 0xbf808000u, 0x00008000u, 0x00018000u,
      0x00000001u, 0x807fffffu, 0x00000000u, 0x80000000u, 0x7f800000u,
      0xff800000u, 0x7fc00000u, 0x7f800001u, 0xffa00001u, 0x7f7fffffu,
      0x7f7f8000u, 0x3f7fffffu, 0x33800000u};
  auto v = random_vec(n, 66, -3.0f, 3.0f);
  for (std::size_t i = 0; i < n; i += 3) {
    const std::uint32_t b = bits[(i / 3) % (sizeof bits / sizeof bits[0])];
    std::memcpy(&v[i], &b, sizeof b);
  }
  return v;
}

TEST(EltwiseBitwise, ReduceSumColsMatchesSequentialScalarSum) {
  const std::int64_t rows = 37, cols = 9, ldi = 41;
  const auto in = special_values(static_cast<std::size_t>(ldi * cols));
  std::vector<float> got(static_cast<std::size_t>(rows));
  UnaryTPP(UnaryDesc{UnaryKind::kReduceSumCols, rows, cols, ldi, 0, DType::F32,
                     DType::F32, 1.0f})(in.data(), got.data());
  for (std::int64_t i = 0; i < rows; ++i) {
    float acc = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j)
      acc += in[static_cast<std::size_t>(i + j * ldi)];
    EXPECT_TRUE(same_bits(got[static_cast<std::size_t>(i)], acc))
        << "row " << i << ": " << got[static_cast<std::size_t>(i)] << " vs "
        << acc;
  }
}

TEST(EltwiseBitwise, Bf16CopyMatchesFromF32) {
  const std::int64_t rows = 37, cols = 6;
  const auto in = special_values(static_cast<std::size_t>(rows * cols));
  std::vector<bf16> got(in.size());
  UnaryTPP(UnaryKind::kCopy, rows, cols, DType::F32, DType::BF16)(in.data(),
                                                                  got.data());
  for (std::size_t i = 0; i < in.size(); ++i) {
    std::uint32_t u;
    std::memcpy(&u, &in[i], sizeof u);
    EXPECT_EQ(got[i].bits, bf16::from_f32(in[i]).bits) << std::hex << u;
  }
}

TEST(UnaryTPP, StridedLeadingDimensions) {
  const std::int64_t rows = 5, cols = 4, ldi = 9, ldo = 7;
  auto in = random_vec(static_cast<std::size_t>(ldi * cols), 3);
  std::vector<float> out(static_cast<std::size_t>(ldo * cols), -1.0f);
  UnaryTPP tpp(UnaryDesc{UnaryKind::kRelu, rows, cols, ldi, ldo,
                         DType::F32, DType::F32, 1.0f});
  tpp(in.data(), out.data());
  for (std::int64_t j = 0; j < cols; ++j) {
    for (std::int64_t i = 0; i < rows; ++i) {
      EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i + j * ldo)],
                      std::max(0.0f, in[static_cast<std::size_t>(i + j * ldi)]));
    }
    // Padding between columns is untouched.
    for (std::int64_t i = rows; i < ldo; ++i) {
      EXPECT_FLOAT_EQ(out[static_cast<std::size_t>(i + j * ldo)], -1.0f);
    }
  }
}

TEST(UnaryTPP, ScaleAndLeakyReluUseAlpha) {
  auto in = random_vec(32, 5);
  std::vector<float> out(32);
  UnaryTPP scale(UnaryDesc{UnaryKind::kScale, 8, 4, 0, 0, DType::F32,
                           DType::F32, 2.5f});
  scale(in.data(), out.data());
  for (std::size_t i = 0; i < 32; ++i) EXPECT_FLOAT_EQ(out[i], 2.5f * in[i]);

  UnaryTPP leaky(UnaryDesc{UnaryKind::kLeakyRelu, 8, 4, 0, 0, DType::F32,
                           DType::F32, 0.1f});
  leaky(in.data(), out.data());
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_FLOAT_EQ(out[i], in[i] > 0 ? in[i] : 0.1f * in[i]);
}

TEST(UnaryTPP, CopyConvertsBf16BothWays) {
  auto in = random_vec(64, 17);
  std::vector<bf16> mid(64);
  std::vector<float> back(64);
  UnaryTPP down(UnaryKind::kCopy, 8, 8, DType::F32, DType::BF16);
  UnaryTPP up(UnaryKind::kCopy, 8, 8, DType::BF16, DType::F32);
  down(in.data(), mid.data());
  up(mid.data(), back.data());
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(back[i], bf16::from_f32(in[i]).to_f32());
  }
}

TEST(UnaryTPP, ZeroIgnoresInputDtype) {
  std::vector<float> out(16, 5.0f);
  UnaryTPP z(UnaryKind::kZero, 4, 4);
  z(nullptr, out.data());  // zero never reads the input
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

TEST(UnaryTPP, ReluBwdMasksBySavedInput) {
  auto grad = random_vec(24, 21);
  auto saved = random_vec(24, 22);
  std::vector<float> out(24);
  UnaryTPP tpp(UnaryKind::kReluBwd, 6, 4);
  tpp(grad.data(), out.data(), saved.data());
  for (std::size_t i = 0; i < 24; ++i)
    EXPECT_FLOAT_EQ(out[i], saved[i] > 0 ? grad[i] : 0.0f);
}

TEST(UnaryTPP, GeluBwdMatchesFiniteDifference) {
  auto x = random_vec(16, 31, -1.5f, 1.5f);
  std::vector<float> grad(16, 1.0f), got(16);
  UnaryTPP tpp(UnaryKind::kGeluBwd, 4, 4);
  tpp(grad.data(), got.data(), x.data());
  const float h = 1e-3f;
  for (std::size_t i = 0; i < 16; ++i) {
    const float fd = (gelu_fwd_scalar(x[i] + h) - gelu_fwd_scalar(x[i] - h)) /
                     (2.0f * h);
    EXPECT_NEAR(got[i], fd, 5e-3f) << "x=" << x[i];
  }
}

// ---------- reductions ----------

TEST(UnaryTPP, ReduceSumAndMax) {
  const std::int64_t rows = 6, cols = 5;
  auto in = random_vec(static_cast<std::size_t>(rows * cols), 13);
  std::vector<float> row_sum(static_cast<std::size_t>(cols));
  std::vector<float> col_sum(static_cast<std::size_t>(rows));
  std::vector<float> row_max(static_cast<std::size_t>(cols));
  UnaryTPP(UnaryKind::kReduceSumRows, rows, cols)(in.data(), row_sum.data());
  UnaryTPP(UnaryKind::kReduceSumCols, rows, cols)(in.data(), col_sum.data());
  UnaryTPP(UnaryKind::kReduceMaxRows, rows, cols)(in.data(), row_max.data());
  for (std::int64_t j = 0; j < cols; ++j) {
    float s = 0.0f, mx = -1e30f;
    for (std::int64_t i = 0; i < rows; ++i) {
      s += in[static_cast<std::size_t>(i + j * rows)];
      mx = std::max(mx, in[static_cast<std::size_t>(i + j * rows)]);
    }
    EXPECT_NEAR(row_sum[static_cast<std::size_t>(j)], s, 1e-5f);
    EXPECT_FLOAT_EQ(row_max[static_cast<std::size_t>(j)], mx);
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    float s = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j)
      s += in[static_cast<std::size_t>(i + j * rows)];
    EXPECT_NEAR(col_sum[static_cast<std::size_t>(i)], s, 1e-5f);
  }
}

// ---------- binary ----------

using BinaryParam = std::tuple<BinaryKind, Broadcast>;

class BinaryP : public ::testing::TestWithParam<BinaryParam> {};

TEST_P(BinaryP, MatchesScalarReference) {
  const auto [kind, bcast] = GetParam();
  const std::int64_t rows = 7, cols = 6;
  std::size_t in0_elems = static_cast<std::size_t>(rows * cols);
  if (bcast == Broadcast::kRow) in0_elems = static_cast<std::size_t>(cols);
  if (bcast == Broadcast::kCol) in0_elems = static_cast<std::size_t>(rows);
  if (bcast == Broadcast::kScalar) in0_elems = 1;
  auto in0 = random_vec(in0_elems, 41, 0.5f, 2.0f);  // positive: div-safe
  auto in1 = random_vec(static_cast<std::size_t>(rows * cols), 42, 0.5f, 2.0f);
  std::vector<float> out(in1.size());
  BinaryTPP tpp(kind, rows, cols, DType::F32, bcast);
  tpp(in0.data(), in1.data(), out.data());
  for (std::int64_t j = 0; j < cols; ++j) {
    for (std::int64_t i = 0; i < rows; ++i) {
      float a = 0.0f;
      switch (bcast) {
        case Broadcast::kNone: a = in0[static_cast<std::size_t>(i + j * rows)]; break;
        case Broadcast::kRow: a = in0[static_cast<std::size_t>(j)]; break;
        case Broadcast::kCol: a = in0[static_cast<std::size_t>(i)]; break;
        case Broadcast::kScalar: a = in0[0]; break;
      }
      const float b = in1[static_cast<std::size_t>(i + j * rows)];
      ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(i + j * rows)],
                      binary_scalar_op(kind, a, b));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndBroadcasts, BinaryP,
    ::testing::Combine(::testing::Values(BinaryKind::kAdd, BinaryKind::kSub,
                                         BinaryKind::kMul, BinaryKind::kDiv,
                                         BinaryKind::kMax, BinaryKind::kMin),
                       ::testing::Values(Broadcast::kNone, Broadcast::kRow,
                                         Broadcast::kCol, Broadcast::kScalar)));

TEST(BinaryTPP, MixedPrecisionAdd) {
  auto a = random_vec(16, 51);
  auto bf = plt::test::to_bf16(random_vec(16, 52));
  std::vector<float> out(16);
  BinaryTPP tpp(BinaryDesc{BinaryKind::kAdd, 4, 4, 0, 0, 0, DType::F32,
                           DType::BF16, DType::F32, Broadcast::kNone});
  tpp(a.data(), bf.data(), out.data());
  for (std::size_t i = 0; i < 16; ++i)
    EXPECT_FLOAT_EQ(out[i], a[i] + bf[i].to_f32());
}

TEST(UnaryTPP, RejectsBadDescriptors) {
  EXPECT_THROW(UnaryTPP(UnaryKind::kCopy, 0, 4), std::invalid_argument);
  EXPECT_THROW(UnaryTPP(UnaryDesc{UnaryKind::kCopy, 8, 4, 2 /* ldi < rows */,
                                  0, DType::F32, DType::F32, 1.0f}),
               std::invalid_argument);
}

}  // namespace
}  // namespace plt::tpp
