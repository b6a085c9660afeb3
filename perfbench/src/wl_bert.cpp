// Workload `bert_train`: bf16 fine-tuning steps (forward, backward, SGD) of
// the BERT-base-scaled encoder through dl::BertEncoder::training_step with
// dropout 0. It is the only workload on the backward path (FcLayer::backward,
// AttentionHead::backward, LayerNorm backward) and on TPPs that write
// gradients and weights, so a change to the shared inference path that slows
// training shows here. An operation is one step on one sequence; the inputs
// are a seeded set of kSeqs (input, target) pairs cycled in whole rounds.
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/threading.hpp"
#include "dl/attention.hpp"
#include "dl/bert.hpp"
#include "tpp/binary.hpp"
#include "tpp/unary.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kSeqs = 4;
constexpr float kLr = 0.05f;

plt::dl::BertConfig bert_config() {
  plt::dl::BertConfig c = plt::dl::BertConfig::base_scaled();
  c.dtype = plt::DType::BF16;
  c.dropout_p = 0.0f;
  return c;
}

struct Data {
  std::vector<plt::dl::Tensor> x, target;
  explicit Data(const plt::dl::BertConfig& c, std::uint64_t seed) {
    plt::Xoshiro256 rng(seed * 7919 + 3);
    for (int i = 0; i < kSeqs; ++i) {
      x.emplace_back(plt::dl::Tensor({c.tokens(), c.hidden}));
      target.emplace_back(plt::dl::Tensor({c.tokens(), c.hidden}));
      x.back().randn_uniform(rng, -1.0f, 1.0f);
      target.back().randn_uniform(rng, -0.5f, 0.5f);
    }
  }
};

// Per-step RNG stream: dropout is 0, but the stream is still a function of
// the step alone, so a re-run of one step sees the same state.
plt::Xoshiro256 step_rng(std::uint64_t seed, std::uint64_t step) {
  return plt::Xoshiro256(seed * 1000003 + step);
}

struct Pass {
  std::vector<double> step_ms, loss;
  std::vector<double> round_seq_per_s;  // sequences per second, per round
};

Pass measure(Context& ctx, plt::dl::BertEncoder& model, const Data& d,
             double seconds, Trace::Lane* lane, std::uint64_t* step) {
  Pass p;
  const auto t0 = Clock::now();
  // At least two rounds, so the loss-falls check has a first and a last.
  while (p.round_seq_per_s.size() < 2 || seconds_since(t0) < seconds) {
    const auto r0 = Clock::now();
    for (int i = 0; i < kSeqs; ++i) {  // whole rounds over the data set
      plt::Xoshiro256 rng = step_rng(ctx.args.seed, (*step)++);
      Scope root(lane, "bert_train.step");
      const auto s0 = Clock::now();
      double loss = 0.0;
      {
        Scope s(lane, "dl.BertEncoder::training_step", root.id());
        loss = model.training_step(d.x[i].data(), d.target[i].data(), kLr, rng);
      }
      p.step_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - s0).count());
      p.loss.push_back(loss);
    }
    p.round_seq_per_s.push_back(kSeqs * model.config().batch / seconds_since(r0));
  }
  ctx.phases.push_back(Phase{lane ? "steps_traced" : "steps",
                             p.step_ms.size(), 0});
  return p;
}

// Error bound for a sum of K products of fp32 values that the program may
// round to bf16 (relative 2^-8 each, so 2^-7 per product) and accumulate in
// fp32: (2^-7 + gamma_K) * sum|a*b|, gamma_K = K*2^-24/(1-K*2^-24).
double product_bound(std::int64_t k, double mag) {
  const double u = std::ldexp(1.0, -24);
  const double kd = static_cast<double>(k);
  return (std::ldexp(1.0, -7) + kd * u / (1.0 - kd * u)) * mag + 1e-30;
}

// FcLayer forward and backward at one of the workload's shapes against a
// double-precision reference built from the layer's public weight()/bias().
void check_fc(Context& ctx, std::int64_t in_f, std::int64_t out_f,
              std::int64_t tokens, std::uint64_t seed) {
  plt::dl::FcConfig fc;
  fc.in_features = in_f;
  fc.out_features = out_f;
  fc.tokens = tokens;
  fc.dtype = plt::DType::BF16;
  plt::Xoshiro256 rng(seed);
  plt::dl::FcLayer layer(fc, rng);
  std::vector<float> x(static_cast<std::size_t>(tokens * in_f)),
      g(static_cast<std::size_t>(tokens * out_f)), y(g.size()), gi(x.size());
  plt::fill_uniform(x.data(), x.size(), rng, -1.0f, 1.0f);
  plt::fill_uniform(g.data(), g.size(), rng, -1.0f, 1.0f);
  layer.zero_grad();
  layer.forward(x.data(), y.data());
  layer.backward(x.data(), g.data(), gi.data());
  const float* w = layer.weight().data();  // out x in row-major
  const float* b = layer.bias().data();
  const float* dw = layer.grad_weight().data();
  const float* db = layer.grad_bias().data();
  int bad = 0;
  plt::Xoshiro256 pick(seed + 1);
  for (int s = 0; s < 128; ++s) {
    const std::int64_t t = static_cast<std::int64_t>(pick.bounded(tokens));
    const std::int64_t o = static_cast<std::int64_t>(pick.bounded(out_f));
    const std::int64_t i = static_cast<std::int64_t>(pick.bounded(in_f));
    double ref = b[o], mag = std::fabs(b[o]);  // y[t][o]
    for (std::int64_t k = 0; k < in_f; ++k) {
      const double p = static_cast<double>(x[t * in_f + k]) * w[o * in_f + k];
      ref += p;
      mag += std::fabs(p);
    }
    if (!(std::fabs(y[t * out_f + o] - ref) <= product_bound(in_f, mag))) ++bad;
    ref = 0.0, mag = 0.0;  // grad_in[t][i] = sum_o g[t][o] w[o][i]
    for (std::int64_t k = 0; k < out_f; ++k) {
      const double p = static_cast<double>(g[t * out_f + k]) * w[k * in_f + i];
      ref += p;
      mag += std::fabs(p);
    }
    if (!(std::fabs(gi[t * in_f + i] - ref) <= product_bound(out_f, mag))) ++bad;
    ref = 0.0, mag = 0.0;  // dW[o][i] = sum_t g[t][o] x[t][i]
    double bref = 0.0, bmag = 0.0;  // db[o] = sum_t g[t][o]
    for (std::int64_t k = 0; k < tokens; ++k) {
      const double p = static_cast<double>(g[k * out_f + o]) * x[k * in_f + i];
      ref += p;
      mag += std::fabs(p);
      bref += g[k * out_f + o];
      bmag += std::fabs(g[k * out_f + o]);
    }
    if (!(std::fabs(dw[o * in_f + i] - ref) <= product_bound(tokens, mag))) ++bad;
    if (!(std::fabs(db[o] - bref) <= product_bound(tokens, bmag))) ++bad;
  }
  ctx.check(bad == 0, "FcLayer " + std::to_string(in_f) + "->" +
                          std::to_string(out_f) + " fwd/bwd vs fp64 (512 values)");
}

}  // namespace

void run_bert_train(Context& ctx) {
  const plt::dl::BertConfig cfg = bert_config();
  const Data data(cfg, ctx.args.seed);
  plt::Xoshiro256 init(ctx.args.seed);
  plt::dl::BertEncoder model(cfg, init);
  {
    // Warm-up at lr = 0 builds every plan and leaves the weights unchanged.
    plt::Xoshiro256 rng = step_rng(ctx.args.seed, 0);
    model.training_step(data.x[0].data(), data.target[0].data(), 0.0f, rng);
  }
  if (ctx.setup_done()) return;

  std::uint64_t step = 0;
  const double untraced_s = ctx.args.trace ? ctx.args.seconds / 2 : ctx.args.seconds;
  const Pass p = measure(ctx, model, data, untraced_s, nullptr, &step);
  const double seq_per_s = median(p.round_seq_per_s);
  std::printf("bert_train: %zu steps, %.3f seq/s, median step %.2f ms\n",
              p.step_ms.size(), seq_per_s, median(p.step_ms));
  ctx.rec.num("bert_train_seq_per_s", seq_per_s);
  add_standard_e2e(ctx, p.step_ms, p.round_seq_per_s);

  // The loss falls: mean over the last round below the first round's.
  const std::size_t n = p.loss.size();
  double first = 0.0, last = 0.0;
  for (int i = 0; i < kSeqs; ++i) {
    first += p.loss[static_cast<std::size_t>(i)];
    last += p.loss[n - kSeqs + static_cast<std::size_t>(i)];
  }
  ctx.rec.num("loss_first_round", first / kSeqs);
  ctx.rec.num("loss_last_round", last / kSeqs);
  ctx.check(n >= 2 * kSeqs && last < first, "training loss falls over the run");

  if (ctx.args.trace) {
    const Pass t = measure(ctx, model, data, ctx.args.seconds / 2,
                           ctx.lane0(), &step);
    summarize_trace(ctx, median(p.step_ms), median(t.step_ms));
  }

  // First step under the serial runtime, from fresh weights: bitwise the
  // loss the pool runtime produced for step 0 of the run.
  {
    plt::Xoshiro256 init2(ctx.args.seed);
    plt::dl::BertEncoder fresh(cfg, init2);
    const plt::Runtime saved = plt::runtime();
    plt::set_runtime(plt::Runtime::kSerial);
    plt::Xoshiro256 rng = step_rng(ctx.args.seed, 0);
    const double loss =
        fresh.training_step(data.x[0].data(), data.target[0].data(), kLr, rng);
    plt::set_runtime(saved);
    ctx.check(std::memcmp(&loss, &p.loss[0], sizeof loss) == 0,
              "first-step loss bitwise equal, serial vs pool");
  }
  check_fc(ctx, cfg.hidden, cfg.hidden, cfg.tokens(), ctx.args.seed + 11);
  check_fc(ctx, cfg.intermediate, cfg.hidden, cfg.tokens(), ctx.args.seed + 12);
}

// --- per-layer probes --------------------------------------------------------

void probe_bert_layers(Context& ctx) {
  const plt::dl::BertConfig cfg = bert_config();
  const std::int64_t S = cfg.tokens(), H = cfg.hidden, I = cfg.intermediate;

  // Elementwise TPPs at the FFN activation shape (I x S col-major), one
  // thread; bytes are computed from the tensor sizes.
  {
    const std::size_t n = static_cast<std::size_t>(I * S);
    std::vector<float> x(n), g(n), out(n), bias(static_cast<std::size_t>(I));
    plt::Xoshiro256 rng(41);
    plt::fill_uniform(x.data(), n, rng);
    plt::fill_uniform(g.data(), n, rng);
    plt::fill_uniform(bias.data(), bias.size(), rng);
    plt::tpp::UnaryTPP gelu(plt::tpp::UnaryKind::kGelu, I, S);
    plt::tpp::UnaryTPP gelu_bwd(plt::tpp::UnaryKind::kGeluBwd, I, S);
    plt::tpp::BinaryTPP add(plt::tpp::BinaryKind::kAdd, I, S, plt::DType::F32,
                            plt::tpp::Broadcast::kCol);
    const double s_fwd = median_call_seconds([&] { gelu(x.data(), out.data()); }, 21, 2);
    const double s_bwd = median_call_seconds(
        [&] { gelu_bwd(g.data(), out.data(), x.data()); }, 21, 2);
    const double s_add = median_call_seconds(
        [&] { add(bias.data(), x.data(), out.data()); }, 21, 2);
    const double bytes = sizeof(float) * (2.0 * n + 3.0 * n + 2.0 * n +
                                          static_cast<double>(I));
    ctx.add_layer("tpp.eltwise_gbps", bytes / (s_fwd + s_bwd + s_add) / 1e9,
                  "GB/s");
  }

  // Encoder forward vs a whole training step (lr = 0 keeps weights fixed).
  {
    plt::Xoshiro256 init(43);
    plt::dl::BertEncoder model(cfg, init);
    const Data d(cfg, 43);
    plt::dl::Tensor y({S, H});
    plt::Xoshiro256 rng(44);
    const double fwd = median_call_seconds(
        [&] { model.forward(d.x[0].data(), y.data(), rng); }, 7, 1);
    const double step = median_call_seconds(
        [&] {
          model.training_step(d.x[0].data(), d.target[0].data(), 0.0f, rng);
        },
        5, 1);
    ctx.add_layer("dl.bert_forward_ms", fwd * 1e3, "ms");
    ctx.add_layer("dl.bert_backward_update_ms", (step - fwd) * 1e3, "ms");
  }

  // FcLayer::backward at the projection and both FFN shapes, summed.
  {
    double total = 0.0;
    struct Shape { std::int64_t in, out; plt::dl::FcActivation act; };
    for (const Shape& sh : {Shape{H, H, plt::dl::FcActivation::kNone},
                            Shape{H, I, plt::dl::FcActivation::kGelu},
                            Shape{I, H, plt::dl::FcActivation::kNone}}) {
      plt::dl::FcConfig fc;
      fc.in_features = sh.in;
      fc.out_features = sh.out;
      fc.tokens = S;
      fc.dtype = plt::DType::BF16;
      fc.act = sh.act;
      plt::Xoshiro256 rng(45);
      plt::dl::FcLayer layer(fc, rng);
      std::vector<float> x(static_cast<std::size_t>(S * sh.in)),
          g(static_cast<std::size_t>(S * sh.out)), y(g.size()), gi(x.size());
      plt::fill_uniform(x.data(), x.size(), rng);
      plt::fill_uniform(g.data(), g.size(), rng);
      layer.forward(x.data(), y.data());
      total += median_call_seconds(
          [&] { layer.backward(x.data(), g.data(), gi.data()); }, 9, 1);
    }
    ctx.add_layer("dl.fc_backward_ms", total * 1e3, "ms");
  }

  // One attention head at the BERT head shape.
  {
    const std::int64_t dh = cfg.head_dim();
    plt::dl::AttentionHead head{S, dh, H};
    const std::size_t n = static_cast<std::size_t>(S * H);
    std::vector<float> q(n), k(n), v(n), out(n), dout(n), dq(n), dk(n), dv(n),
        probs(static_cast<std::size_t>(S * S));
    plt::Xoshiro256 rng(46);
    for (auto* p : {&q, &k, &v, &dout}) plt::fill_uniform(p->data(), n, rng);
    head.forward(q.data(), k.data(), v.data(), out.data(), probs.data());
    const double s = median_call_seconds(
        [&] {
          head.backward(q.data(), k.data(), v.data(), probs.data(), dout.data(),
                        dq.data(), dk.data(), dv.data());
        },
        21, 2);
    ctx.add_layer("dl.attention_backward_us", s * 1e6, "us");
  }
}

}  // namespace pb
