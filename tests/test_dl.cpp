#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/threading.hpp"
#include "dl/attention.hpp"
#include "dl/bert.hpp"
#include "dl/fc_layer.hpp"
#include "dl/llm.hpp"
#include "dl/sparse_fc.hpp"
#include "test_utils.hpp"
#include "tpp/equations.hpp"
#include "tpp/unary.hpp"

namespace plt::dl {
namespace {

using plt::test::expect_allclose;
using plt::test::random_vec;

FcConfig small_fc(std::int64_t in_f, std::int64_t out_f, std::int64_t S,
                  FcActivation act = FcActivation::kNone,
                  DType dt = DType::F32) {
  FcConfig c;
  c.in_features = in_f;
  c.out_features = out_f;
  c.tokens = S;
  c.bm = c.bn = c.bk = 8;
  c.act = act;
  c.dtype = dt;
  return c;
}

void reference_fc(const FcLayer& fc, const float* in, float* out) {
  const auto& c = fc.config();
  const Tensor& w = const_cast<FcLayer&>(fc).weight();
  const Tensor& b = const_cast<FcLayer&>(fc).bias();
  for (std::int64_t s = 0; s < c.tokens; ++s)
    for (std::int64_t o = 0; o < c.out_features; ++o) {
      double acc = c.with_bias ? b[static_cast<std::size_t>(o)] : 0.0;
      for (std::int64_t i = 0; i < c.in_features; ++i)
        acc += static_cast<double>(w[static_cast<std::size_t>(o * c.in_features + i)]) *
               in[s * c.in_features + i];
      float v = static_cast<float>(acc);
      if (c.act == FcActivation::kRelu) v = std::max(v, 0.0f);
      if (c.act == FcActivation::kGelu) v = tpp::gelu_fwd_scalar(v);
      out[s * c.out_features + o] = v;
    }
}

TEST(FcLayer, ForwardMatchesReference) {
  Xoshiro256 rng(1);
  FcLayer fc(small_fc(24, 16, 8), rng);
  auto in = random_vec(24 * 8, 2);
  std::vector<float> got(16 * 8), want(16 * 8);
  fc.forward(in.data(), got.data());
  reference_fc(fc, in.data(), want.data());
  expect_allclose(got.data(), want.data(), got.size(), 1e-4f, "fc fwd");
}

TEST(FcLayer, ActivationsApplied) {
  Xoshiro256 rng(3);
  for (FcActivation act : {FcActivation::kRelu, FcActivation::kGelu}) {
    FcLayer fc(small_fc(16, 16, 8, act), rng);
    auto in = random_vec(16 * 8, 4, -2.0f, 2.0f);
    std::vector<float> got(16 * 8), want(16 * 8);
    fc.forward(in.data(), got.data());
    reference_fc(fc, in.data(), want.data());
    expect_allclose(got.data(), want.data(), got.size(), 1e-3f, "fc act");
  }
}

TEST(FcLayer, Bf16TracksF32) {
  Xoshiro256 rng(5);
  FcLayer f32(small_fc(32, 16, 8), rng);
  Xoshiro256 rng2(5);  // same weights
  FcLayer b16(small_fc(32, 16, 8, FcActivation::kNone, DType::BF16), rng2);
  auto in = random_vec(32 * 8, 6);
  std::vector<float> y1(16 * 8), y2(16 * 8);
  f32.forward(in.data(), y1.data());
  b16.forward(in.data(), y2.data());
  for (std::size_t i = 0; i < y1.size(); ++i) {
    const float scale = std::max(1.0f, std::fabs(y1[i]));
    EXPECT_NEAR(y2[i], y1[i], 0.05f * scale) << i;
  }
}

TEST(FcLayer, BackwardGradInMatchesFiniteDifference) {
  Xoshiro256 rng(7);
  const std::int64_t in_f = 16, out_f = 8, S = 8;
  FcConfig c = small_fc(in_f, out_f, S, FcActivation::kGelu);
  FcLayer fc(c, rng);
  auto x = random_vec(static_cast<std::size_t>(S * in_f), 8);
  auto w_loss = random_vec(static_cast<std::size_t>(S * out_f), 9);

  const auto loss = [&](const std::vector<float>& xin) {
    std::vector<float> y(static_cast<std::size_t>(S * out_f));
    fc.forward(xin.data(), y.data());
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += w_loss[i] * y[i];
    return l;
  };

  std::vector<float> y(static_cast<std::size_t>(S * out_f));
  fc.forward(x.data(), y.data());
  fc.zero_grad();
  std::vector<float> gi(static_cast<std::size_t>(S * in_f));
  fc.backward(x.data(), w_loss.data(), gi.data());

  const float h = 1e-2f;
  for (std::size_t i : {std::size_t{0}, std::size_t{5}, std::size_t{37},
                        std::size_t{static_cast<std::size_t>(S * in_f) - 1}}) {
    auto xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double fd = (loss(xp) - loss(xm)) / (2.0 * h);
    EXPECT_NEAR(gi[i], fd, 2e-2 * std::max(1.0, std::fabs(fd))) << i;
  }
}

TEST(FcLayer, BackwardWeightGradMatchesFiniteDifference) {
  Xoshiro256 rng(11);
  const std::int64_t in_f = 8, out_f = 8, S = 8;
  FcLayer fc(small_fc(in_f, out_f, S), rng);
  auto x = random_vec(static_cast<std::size_t>(S * in_f), 12);
  auto w_loss = random_vec(static_cast<std::size_t>(S * out_f), 13);

  std::vector<float> y(static_cast<std::size_t>(S * out_f));
  fc.forward(x.data(), y.data());
  fc.zero_grad();
  fc.backward(x.data(), w_loss.data(), nullptr);

  const float h = 1e-2f;
  for (std::size_t wi : {std::size_t{0}, std::size_t{17}, std::size_t{63}}) {
    const float orig = fc.weight()[wi];
    const auto eval = [&](float wv) {
      fc.weight()[wi] = wv;
      fc.repack();
      std::vector<float> yy(y.size());
      fc.forward(x.data(), yy.data());
      double l = 0.0;
      for (std::size_t i = 0; i < yy.size(); ++i) l += w_loss[i] * yy[i];
      return l;
    };
    const double fd = (eval(orig + h) - eval(orig - h)) / (2.0 * h);
    fc.weight()[wi] = orig;
    fc.repack();
    EXPECT_NEAR(fc.grad_weight()[wi], fd, 2e-2 * std::max(1.0, std::fabs(fd)));
  }
  // dbias equals column sums of the loss weights.
  for (std::int64_t o = 0; o < out_f; ++o) {
    float want = 0.0f;
    for (std::int64_t s = 0; s < S; ++s)
      want += w_loss[static_cast<std::size_t>(s * out_f + o)];
    EXPECT_NEAR(fc.grad_bias()[static_cast<std::size_t>(o)], want, 1e-3f);
  }
}

// --- backward/update pipeline: determinism, accuracy, packing --------------

// Runs the body under one execution runtime, restoring the previous one.
struct RuntimeScope {
  Runtime saved = runtime();
  explicit RuntimeScope(Runtime r) { set_runtime(r); }
  ~RuntimeScope() { set_runtime(saved); }
};

// The system libgomp is not built with ThreadSanitizer, so under TSan the
// omp leg would report the runtime's own uninstrumented synchronisation;
// there the sweep covers serial and pool (the tier-1 build keeps omp).
#if defined(__SANITIZE_THREAD__)
constexpr Runtime kRuntimes[] = {Runtime::kSerial, Runtime::kPool};
#else
constexpr Runtime kRuntimes[] = {Runtime::kSerial, Runtime::kPool,
                                 Runtime::kOpenMP};
#endif

// The BERT-base-scaled FC shapes at 128 tokens, bf16, default 32 blocks.
FcConfig bert_fc(std::int64_t in_f, std::int64_t out_f, FcActivation act) {
  FcConfig c;
  c.in_features = in_f;
  c.out_features = out_f;
  c.tokens = 128;
  c.act = act;
  c.dtype = DType::BF16;
  return c;
}

const FcConfig kBertFcShapes[] = {
    bert_fc(256, 256, FcActivation::kNone),
    bert_fc(256, 1024, FcActivation::kGelu),
    bert_fc(1024, 256, FcActivation::kNone)};

struct FcRun {
  std::vector<float> x, g, y, gi, dw, db, pre;
  std::vector<float> w;  // weights the pass ran with
};

// forward + backward of a fresh layer (seeded) on seeded inputs.
FcRun run_fc(const FcConfig& c, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FcLayer fc(c, rng);
  FcRun r;
  r.x = random_vec(static_cast<std::size_t>(c.tokens * c.in_features), seed + 1);
  r.g = random_vec(static_cast<std::size_t>(c.tokens * c.out_features), seed + 2);
  r.y.resize(r.g.size());
  r.gi.resize(r.x.size());
  fc.forward(r.x.data(), r.y.data());
  fc.zero_grad();
  fc.backward(r.x.data(), r.g.data(), r.gi.data());
  const auto copy = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
  };
  r.dw = copy(fc.grad_weight());
  r.db = copy(fc.grad_bias());
  r.pre = copy(fc.pre_activation());
  r.w = copy(fc.weight());
  return r;
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Every output block has one owner reducing it in a fixed order, so the
// gradients are bitwise identical under every runtime (and, in the
// test_dl_parts2 leg, on a 2-partition pool).
TEST(FcLayer, BackwardBitwiseAcrossRuntimes) {
  for (const FcConfig& c : kBertFcShapes) {
    const FcRun want = [&] {
      RuntimeScope scope(Runtime::kSerial);
      return run_fc(c, 71);
    }();
    for (Runtime rt : kRuntimes) {
      RuntimeScope scope(rt);
      const FcRun got = run_fc(c, 71);
      const std::string what = std::string(runtime_name(rt)) + " " +
                               std::to_string(c.in_features) + "->" +
                               std::to_string(c.out_features);
      EXPECT_TRUE(bitwise_equal(got.y, want.y)) << what << " output";
      EXPECT_TRUE(bitwise_equal(got.dw, want.dw)) << what << " grad_weight";
      EXPECT_TRUE(bitwise_equal(got.db, want.db)) << what << " grad_bias";
      EXPECT_TRUE(bitwise_equal(got.gi, want.gi)) << what << " grad_in";
    }
  }
}

// Bound for a sum of K products of fp32 values the program may round to
// bf16 (2^-7 per product) and accumulates in fp32: (2^-7 + gamma_K) *
// sum|a*b|, gamma_K = K u / (1 - K u), u = 2^-24.
double product_bound(std::int64_t k, double mag) {
  const double u = std::ldexp(1.0, -24), kd = static_cast<double>(k);
  return (std::ldexp(1.0, -7) + kd * u / (1.0 - kd * u)) * mag + 1e-30;
}

// grad_weight, grad_bias and grad_in against fp64 sums over the layer's own
// weights and saved pre-activation, every element.
void expect_backward_matches_fp64(const FcConfig& c) {
  const FcRun r = run_fc(c, 73);
  const std::int64_t S = c.tokens, I = c.in_features, O = c.out_features;
  std::vector<float> ga(r.g.size());  // dO through the activation
  for (std::size_t j = 0; j < ga.size(); ++j) {
    ga[j] = c.act == FcActivation::kGelu ? tpp::gelu_bwd_scalar(r.g[j], r.pre[j])
            : c.act == FcActivation::kRelu ? (r.pre[j] > 0.0f ? r.g[j] : 0.0f)
                                           : r.g[j];
  }
  int bad = 0;
  for (std::int64_t o = 0; o < O; ++o) {
    double ref = 0.0, mag = 0.0;
    for (std::int64_t t = 0; t < S; ++t) {
      ref += ga[static_cast<std::size_t>(t * O + o)];
      mag += std::fabs(ga[static_cast<std::size_t>(t * O + o)]);
    }
    if (!(std::fabs(r.db[static_cast<std::size_t>(o)] - ref) <=
          product_bound(S, mag)))
      ++bad;
    for (std::int64_t i = 0; i < I; ++i) {
      ref = 0.0, mag = 0.0;
      for (std::int64_t t = 0; t < S; ++t) {
        const double p = static_cast<double>(ga[static_cast<std::size_t>(t * O + o)]) *
                         r.x[static_cast<std::size_t>(t * I + i)];
        ref += p;
        mag += std::fabs(p);
      }
      if (!(std::fabs(r.dw[static_cast<std::size_t>(o * I + i)] - ref) <=
            product_bound(S, mag)))
        ++bad;
    }
  }
  for (std::int64_t t = 0; t < S; ++t)
    for (std::int64_t i = 0; i < I; ++i) {
      double ref = 0.0, mag = 0.0;
      for (std::int64_t o = 0; o < O; ++o) {
        const double p = static_cast<double>(ga[static_cast<std::size_t>(t * O + o)]) *
                         r.w[static_cast<std::size_t>(o * I + i)];
        ref += p;
        mag += std::fabs(p);
      }
      if (!(std::fabs(r.gi[static_cast<std::size_t>(t * I + i)] - ref) <=
            product_bound(O, mag)))
        ++bad;
    }
  EXPECT_EQ(bad, 0) << I << "->" << O << " at " << S << " tokens";
}

TEST(FcLayer, BackwardMatchesFp64WithinBound) {
  for (const FcConfig& c : kBertFcShapes) expect_backward_matches_fp64(c);
}

// bn = 8 does not divide 12 tokens: dgrad takes the forward's 1-wide token
// block fallback instead of refusing.
TEST(FcLayer, BackwardWithTokensNotDivisibleByBn) {
  FcConfig c = small_fc(16, 24, 12, FcActivation::kRelu, DType::BF16);
  expect_backward_matches_fp64(c);
}

// With accumulate_grad_in the input gradient is added to grad_in inside the
// dgrad contraction: grad_in = r + W^T g up to the fp32 summation order.
TEST(FcLayer, BackwardAccumulatesIntoGradIn) {
  const FcConfig c = bert_fc(256, 1024, FcActivation::kGelu);
  const FcRun r = run_fc(c, 75);
  Xoshiro256 rng(75);
  FcLayer fc(c, rng);  // the same seeded layer as run_fc
  std::vector<float> y(r.y.size());
  fc.forward(r.x.data(), y.data());
  auto acc = random_vec(r.gi.size(), 76);
  std::vector<float> want(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) want[i] = acc[i] + r.gi[i];
  fc.zero_grad();
  fc.backward(r.x.data(), r.g.data(), acc.data(), /*accumulate_grad_in=*/true);
  expect_allclose(acc.data(), want.data(), acc.size(), 1e-5f, "grad_in");
}

// The scalar definition of both packed operands, read from weight().
void expect_packs_match_weight(FcLayer& fc) {
  const FcConfig& c = fc.config();
  const std::int64_t I = c.in_features, O = c.out_features;
  const std::int64_t bm = c.bm, bk = c.bk, Ob = O / bm, Ib = I / bk;
  const float* w = fc.weight().data();
  const std::int64_t w_blk = c.dtype == DType::BF16 ? tpp::vnni2_elems(bm, bk)
                                                    : bm * bk;
  int bad = 0;
  for (std::int64_t ob = 0; ob < Ob; ++ob)
    for (std::int64_t ib = 0; ib < Ib; ++ib)
      for (std::int64_t mm = 0; mm < bm; ++mm)
        for (std::int64_t kk = 0; kk < bk; ++kk) {
          const float v = w[(ob * bm + mm) * I + ib * bk + kk];
          const std::int64_t blk = (ob * Ib + ib) * w_blk;
          if (c.dtype == DType::BF16) {
            const bf16 got = static_cast<const bf16*>(
                fc.blocked_weight())[blk + ((kk / 2) * bm + mm) * 2 + kk % 2];
            if (got.bits != bf16::from_f32(v).bits) ++bad;
          } else {
            const float got =
                static_cast<const float*>(fc.blocked_weight())[blk + mm + kk * bm];
            if (std::memcmp(&got, &v, sizeof v) != 0) ++bad;
          }
          // W^T: [in/bk][out/bm] blocks, bk fastest.
          const float got_t =
              fc.blocked_weight_t()[(ib * Ob + ob) * bm * bk + kk + mm * bk];
          if (std::memcmp(&got_t, &v, sizeof v) != 0) ++bad;
        }
  EXPECT_EQ(bad, 0);
}

TEST(FcLayer, RepackMatchesScalarReferencePack) {
  for (DType dt : {DType::BF16, DType::F32}) {
    // bm != bk catches swapped block roles.
    FcConfig c = small_fc(48, 64, 16, FcActivation::kGelu, dt);
    c.bm = 16;
    c.bk = 8;
    Xoshiro256 rng(81);
    FcLayer fc(c, rng);
    expect_packs_match_weight(fc);  // constructor pack

    auto edit = random_vec(static_cast<std::size_t>(fc.weight().numel()), 82);
    std::memcpy(fc.weight().data(), edit.data(), edit.size() * sizeof(float));
    fc.repack();
    expect_packs_match_weight(fc);

    // sgd_step updates and re-packs in one pass.
    auto x = random_vec(static_cast<std::size_t>(16 * 48), 83);
    auto g = random_vec(static_cast<std::size_t>(16 * 64), 84);
    std::vector<float> y(g.size()), gi(x.size());
    fc.forward(x.data(), y.data());
    fc.zero_grad();
    fc.backward(x.data(), g.data(), gi.data());
    fc.sgd_step(0.1f);
    for (std::size_t i = 0; i < edit.size(); ++i) {
      ASSERT_NEAR(fc.weight()[i], edit[i] - 0.1f * fc.grad_weight()[i], 1e-6f) << i;
    }
    expect_packs_match_weight(fc);
  }
}

BertConfig small_bert_bf16() {
  BertConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.intermediate = 128;
  cfg.layers = 2;
  cfg.seq_len = 32;
  cfg.batch = 2;  // (batch, head) attention nest of 4 slices
  cfg.dtype = DType::BF16;
  cfg.bm = cfg.bn = cfg.bk = 16;
  return cfg;
}

// Two training steps (forward, backward, update) from the same seed give
// bitwise-identical losses under every runtime.
TEST(BertEncoder, TrainingStepsBitwiseAcrossRuntimes) {
  const BertConfig cfg = small_bert_bf16();
  const auto steps = [&](Runtime rt) {
    RuntimeScope scope(rt);
    Xoshiro256 rng(91);
    BertEncoder model(cfg, rng);
    auto x = random_vec(static_cast<std::size_t>(cfg.tokens() * cfg.hidden), 92);
    auto target = random_vec(x.size(), 93, -0.5f, 0.5f);
    std::vector<double> losses;
    for (int s = 0; s < 2; ++s)
      losses.push_back(model.training_step(x.data(), target.data(), 0.5f, rng));
    return losses;
  };
  const std::vector<double> want = steps(Runtime::kSerial);
  ASSERT_NE(std::memcmp(&want[0], &want[1], sizeof(double)), 0)
      << "the second step must see updated weights";
  for (Runtime rt : kRuntimes) {
    const std::vector<double> got = steps(rt);
    for (std::size_t s = 0; s < want.size(); ++s)
      EXPECT_EQ(std::memcmp(&got[s], &want[s], sizeof(double)), 0)
          << runtime_name(rt) << " step " << s << ": " << got[s] << " vs "
          << want[s];
  }
}

// --- layernorm over token blocks ---------------------------------------------

struct LnRun {
  std::vector<float> out, sum, grad_sum, gi, dgamma, dbeta;
};

// forward + backward of a fresh LayerNorm (random gamma/beta) on seeded
// inputs; `fused` runs forward_sum/backward_sum with residual operands.
LnRun run_layernorm(std::int64_t T, std::int64_t H, bool fused) {
  const std::size_t n = static_cast<std::size_t>(T * H);
  LayerNorm ln(T, H);
  Xoshiro256 rng(101);
  ln.gamma().randn_uniform(rng, 0.5f, 1.5f);
  ln.beta().randn_uniform(rng, -0.5f, 0.5f);
  const auto a = random_vec(n, 102, -2.0f, 2.0f), b = random_vec(n, 103);
  const auto res = random_vec(n, 105);
  LnRun r;
  r.grad_sum = random_vec(n, 104);
  r.out.resize(n);
  r.sum.resize(n);
  r.gi.resize(n);
  ln.zero_grad();
  if (fused) {
    ln.forward_sum(a.data(), b.data(), r.sum.data(), r.out.data());
    ln.backward_sum(r.grad_sum.data(), res.data(), r.sum.data(), r.gi.data());
  } else {
    ln.forward(a.data(), r.out.data());
    ln.backward(r.grad_sum.data(), a.data(), r.gi.data());
  }
  const auto copy = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
  };
  r.dgamma = copy(ln.grad_gamma());
  r.dbeta = copy(ln.grad_beta());
  return r;
}

// The block count follows the shape (36 tokens: 3 blocks of 12), dgamma and
// dbeta are combined in block order by one owner: every runtime (and the
// 2-partition pool of test_dl_parts2) gives the serial bits.
TEST(LayerNorm, ForwardBackwardBitwiseAcrossRuntimes) {
  for (const auto& [T, H] : {std::pair<std::int64_t, std::int64_t>{128, 256},
                             {36, 40}}) {
    for (bool fused : {false, true}) {
      const LnRun want = [&] {
        RuntimeScope scope(Runtime::kSerial);
        return run_layernorm(T, H, fused);
      }();
      for (Runtime rt : kRuntimes) {
        RuntimeScope scope(rt);
        const LnRun got = run_layernorm(T, H, fused);
        const std::string what = std::string(runtime_name(rt)) + " " +
                                 std::to_string(T) + "x" + std::to_string(H) +
                                 (fused ? " fused" : "");
        EXPECT_TRUE(bitwise_equal(got.out, want.out)) << what << " out";
        EXPECT_TRUE(bitwise_equal(got.sum, want.sum)) << what << " sum";
        EXPECT_TRUE(bitwise_equal(got.grad_sum, want.grad_sum)) << what;
        EXPECT_TRUE(bitwise_equal(got.gi, want.gi)) << what << " grad_in";
        EXPECT_TRUE(bitwise_equal(got.dgamma, want.dgamma)) << what << " dgamma";
        EXPECT_TRUE(bitwise_equal(got.dbeta, want.dbeta)) << what << " dbeta";
      }
    }
  }
}

// Against the whole-tensor layernorm equations: the residual sums, the
// output and grad_in are per row and bitwise equal; dgamma/dbeta only sum in
// another order.
TEST(LayerNorm, FusedBlocksMatchWholeTensorEquations) {
  const std::int64_t T = 36, H = 40;
  const std::size_t n = static_cast<std::size_t>(T * H);
  const LnRun r = run_layernorm(T, H, /*fused=*/true);
  LayerNorm params(T, H);  // the same seeded gamma/beta as run_layernorm
  Xoshiro256 rng(101);
  params.gamma().randn_uniform(rng, 0.5f, 1.5f);
  params.beta().randn_uniform(rng, -0.5f, 0.5f);
  const auto a = random_vec(n, 102, -2.0f, 2.0f), b = random_vec(n, 103);
  auto g = random_vec(n, 104);
  const auto res = random_vec(n, 105);
  std::vector<float> sum(n), out(n), gi(n), mean(static_cast<std::size_t>(T)),
      var(mean.size()), dgamma(static_cast<std::size_t>(H)), dbeta(dgamma.size());
  for (std::size_t i = 0; i < n; ++i) {
    sum[i] = a[i] + b[i];
    g[i] = g[i] + res[i];
  }
  tpp::LayerNormFwd{T, H, 1e-5f}(sum.data(), params.gamma().data(),
                                 params.beta().data(), mean.data(), var.data(),
                                 out.data());
  tpp::LayerNormBwd{T, H}(g.data(), sum.data(), params.gamma().data(),
                          mean.data(), var.data(), gi.data(), dgamma.data(),
                          dbeta.data());
  EXPECT_TRUE(bitwise_equal(r.sum, sum));
  EXPECT_TRUE(bitwise_equal(r.out, out));
  EXPECT_TRUE(bitwise_equal(r.grad_sum, g));
  EXPECT_TRUE(bitwise_equal(r.gi, gi));
  expect_allclose(r.dgamma.data(), dgamma.data(), dgamma.size(), 1e-5f, "dgamma");
  expect_allclose(r.dbeta.data(), dbeta.data(), dbeta.size(), 1e-5f, "dbeta");
}

TEST(Attention, ForwardMatchesNaive) {
  const std::int64_t S = 8, dh = 4, H = 8;  // two heads worth of width
  auto q = random_vec(static_cast<std::size_t>(S * H), 1);
  auto k = random_vec(static_cast<std::size_t>(S * H), 2);
  auto v = random_vec(static_cast<std::size_t>(S * H), 3);
  std::vector<float> out(static_cast<std::size_t>(S * H), 0.0f);
  std::vector<float> pt(static_cast<std::size_t>(S * S));
  AttentionHead head{S, dh, H};
  head.forward(q.data(), k.data(), v.data(), out.data(), pt.data());

  // Naive reference for head 0 (columns [0, dh)).
  const float scale = 1.0f / std::sqrt(static_cast<float>(dh));
  for (std::int64_t i = 0; i < S; ++i) {
    std::vector<float> p(static_cast<std::size_t>(S));
    float mx = -1e30f;
    for (std::int64_t j = 0; j < S; ++j) {
      float dot = 0.0f;
      for (std::int64_t d = 0; d < dh; ++d) dot += q[i * H + d] * k[j * H + d];
      p[static_cast<std::size_t>(j)] = dot * scale;
      mx = std::max(mx, dot * scale);
    }
    float sum = 0.0f;
    for (auto& x : p) {
      x = std::exp(x - mx);
      sum += x;
    }
    for (auto& x : p) x /= sum;
    for (std::int64_t d = 0; d < dh; ++d) {
      float want = 0.0f;
      for (std::int64_t j = 0; j < S; ++j)
        want += p[static_cast<std::size_t>(j)] * v[j * H + d];
      EXPECT_NEAR(out[static_cast<std::size_t>(i * H + d)], want, 1e-4f)
          << i << "," << d;
    }
  }
}

TEST(Attention, BackwardMatchesFiniteDifference) {
  const std::int64_t S = 6, dh = 4, H = 4;
  auto q = random_vec(static_cast<std::size_t>(S * H), 4);
  auto k = random_vec(static_cast<std::size_t>(S * H), 5);
  auto v = random_vec(static_cast<std::size_t>(S * H), 6);
  auto w = random_vec(static_cast<std::size_t>(S * H), 7);
  AttentionHead head{S, dh, H};

  const auto loss = [&](const std::vector<float>& qq,
                        const std::vector<float>& kk,
                        const std::vector<float>& vv) {
    std::vector<float> out(static_cast<std::size_t>(S * H));
    std::vector<float> pt(static_cast<std::size_t>(S * S));
    head.forward(qq.data(), kk.data(), vv.data(), out.data(), pt.data());
    double l = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) l += w[i] * out[i];
    return l;
  };

  std::vector<float> out(static_cast<std::size_t>(S * H));
  std::vector<float> pt(static_cast<std::size_t>(S * S));
  head.forward(q.data(), k.data(), v.data(), out.data(), pt.data());
  std::vector<float> dq(out.size()), dk(out.size()), dv(out.size());
  head.backward(q.data(), k.data(), v.data(), pt.data(), w.data(), dq.data(),
                dk.data(), dv.data());

  const float h = 1e-3f;
  for (std::size_t i : {std::size_t{0}, std::size_t{9}, std::size_t{23}}) {
    auto qp = q, qm = q;
    qp[i] += h;
    qm[i] -= h;
    EXPECT_NEAR(dq[i], (loss(qp, k, v) - loss(qm, k, v)) / (2 * h), 5e-3)
        << "dq " << i;
    auto kp = k, km = k;
    kp[i] += h;
    km[i] -= h;
    EXPECT_NEAR(dk[i], (loss(q, kp, v) - loss(q, km, v)) / (2 * h), 5e-3)
        << "dk " << i;
    auto vp = v, vm = v;
    vp[i] += h;
    vm[i] -= h;
    EXPECT_NEAR(dv[i], (loss(q, k, vp) - loss(q, k, vm)) / (2 * h), 5e-3)
        << "dv " << i;
  }
}

TEST(SparseFc, DensityZeroSparsityMatchesDense) {
  Xoshiro256 rng(21);
  const std::int64_t in_f = 32, out_f = 32, S = 8;
  Tensor w({out_f, in_f}), b({out_f});
  w.randn_uniform(rng, -0.3f, 0.3f);
  b.randn_uniform(rng, -0.1f, 0.1f);
  SparseFcConfig sc;
  sc.in_features = in_f;
  sc.out_features = out_f;
  sc.tokens = S;
  sc.block = 8;
  sc.sparsity = 0.0;
  SparseFcLayer sparse(sc, w, b);
  EXPECT_DOUBLE_EQ(sparse.density(), 1.0);

  auto in = random_vec(static_cast<std::size_t>(S * in_f), 22);
  std::vector<float> got(static_cast<std::size_t>(S * out_f));
  sparse.forward(in.data(), got.data());
  for (std::int64_t s = 0; s < S; ++s)
    for (std::int64_t o = 0; o < out_f; ++o) {
      double acc = b[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in_f; ++i)
        acc += static_cast<double>(w[static_cast<std::size_t>(o * in_f + i)]) *
               in[s * in_f + i];
      EXPECT_NEAR(got[static_cast<std::size_t>(s * out_f + o)],
                  static_cast<float>(acc), 1e-3f);
    }
}

TEST(SparseFc, SparsityReducesEffectiveFlops) {
  Xoshiro256 rng(23);
  Tensor w({64, 64}), b({64});
  w.randn_uniform(rng);
  SparseFcConfig sc;
  sc.in_features = sc.out_features = 64;
  sc.tokens = 8;
  sc.block = 8;
  sc.sparsity = 0.75;
  SparseFcLayer sparse(sc, w, b);
  EXPECT_NEAR(sparse.density(), 0.25, 1e-9);
  EXPECT_NEAR(sparse.effective_flops() / sparse.dense_flops(), 0.25, 1e-9);
}

TEST(BertEncoderLayer, ForwardProducesNormalizedOutput) {
  BertConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.intermediate = 128;
  cfg.seq_len = 16;
  cfg.bm = cfg.bn = cfg.bk = 16;
  Xoshiro256 rng(31);
  BertEncoderLayer layer(cfg, rng);
  auto x = random_vec(static_cast<std::size_t>(cfg.tokens() * cfg.hidden), 32);
  std::vector<float> y(x.size());
  layer.forward(x.data(), y.data(), rng);
  // The final layernorm leaves each token with ~zero mean, ~unit variance.
  for (std::int64_t t = 0; t < cfg.tokens(); ++t) {
    float mu = 0.0f;
    for (std::int64_t hh = 0; hh < cfg.hidden; ++hh)
      mu += y[static_cast<std::size_t>(t * cfg.hidden + hh)];
    mu /= static_cast<float>(cfg.hidden);
    EXPECT_NEAR(mu, 0.0f, 1e-3f);
  }
}

TEST(BertEncoder, TrainingStepReducesLoss) {
  BertConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 2;
  cfg.intermediate = 64;
  cfg.layers = 1;
  cfg.seq_len = 8;
  cfg.bm = cfg.bn = cfg.bk = 8;
  Xoshiro256 rng(41);
  BertEncoder model(cfg, rng);
  auto x = random_vec(static_cast<std::size_t>(cfg.tokens() * cfg.hidden), 42);
  auto target = random_vec(x.size(), 43, -0.5f, 0.5f);

  const double l0 = model.training_step(x.data(), target.data(), 0.0f, rng);
  double prev = l0;
  double last = l0;
  for (int step = 0; step < 20; ++step) {
    last = model.training_step(x.data(), target.data(), 0.5f, rng);
  }
  EXPECT_LT(last, prev) << "SGD on an L2 objective must reduce the loss";
}

TEST(LlmModel, PrefillThenDecodeRuns) {
  LlmConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.ffn = 128;
  cfg.vocab = 256;
  cfg.max_seq = 64;
  cfg.bm = cfg.bn = cfg.bk = 16;
  Xoshiro256 rng(51);
  LlmModel model(cfg, rng);
  const auto t = model.generate(32, 4, rng);
  EXPECT_GT(t.first_token_ms, 0.0);
  EXPECT_GT(t.per_next_token_ms, 0.0);
  // Prefill does O(S) times more work than one decode step: at least the
  // work of S decode steps at position 0. (The wall-clock comparison is a
  // bench_fig11_llm row, median of repeated runs.)
  EXPECT_GE(model.prefill_flops(32), 32.0 * model.decode_flops(0));
  EXPECT_GT(model.prefill_flops(32), model.decode_flops(32));
}

TEST(LlmModel, DecodeMatchesPrefillForSameToken) {
  // Processing tokens [0, S) via prefill and then re-deriving position S-1's
  // output via decode_one on the same inputs must agree: run prefill over
  // S-1 tokens, then decode token S-1 and compare against a full S prefill.
  LlmConfig cfg;
  cfg.hidden = 32;
  cfg.heads = 2;
  cfg.layers = 1;
  cfg.ffn = 64;
  cfg.max_seq = 16;
  cfg.bm = cfg.bn = cfg.bk = 8;
  Xoshiro256 rng(61);
  DecoderLayer full(cfg, rng);
  Xoshiro256 rng2(61);
  DecoderLayer split(cfg, rng2);

  const std::int64_t S = 8, H = cfg.hidden;
  auto x = random_vec(static_cast<std::size_t>(S * H), 62);
  std::vector<float> y_full(static_cast<std::size_t>(S * H));
  full.prefill(x.data(), S, y_full.data());

  std::vector<float> y_head(static_cast<std::size_t>((S - 1) * H));
  split.prefill(x.data(), S - 1, y_head.data());
  std::vector<float> y_last(static_cast<std::size_t>(H));
  split.decode_one(x.data() + (S - 1) * H, S - 1, y_last.data());

  for (std::int64_t d = 0; d < H; ++d) {
    EXPECT_NEAR(y_last[static_cast<std::size_t>(d)],
                y_full[static_cast<std::size_t>((S - 1) * H + d)], 1e-3f)
        << d;
  }
}

}  // namespace
}  // namespace plt::dl
