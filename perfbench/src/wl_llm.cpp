// Workload `llm_infer`: batch-1 generation on the GPT-J-scaled fp32 decoder
// through dl::DecoderLayer::prefill and decode_one. Each request prefills a
// seeded prompt, then decodes kGen tokens, feeding each output back as the
// next input (as dl::LlmModel::generate does). Prefill is the compute-bound
// BRGEMM regime; decode has one token per step, so every projection is a
// matrix-vector product and nest dispatch is a large share of its time.
// Prompt lengths cycle through kPromptLens in a seeded order, in whole rounds,
// so every run sees the same length mix. An operation is one generated token
// (the first one includes the prefill).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/threading.hpp"
#include "dl/llm.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::int64_t kPromptLens[] = {32, 64, 96, 128};
constexpr int kLens = 4;
constexpr int kVariants = 4;  // distinct seeded prompts per length
constexpr int kGen = 16;

using Layers = std::vector<std::unique_ptr<plt::dl::DecoderLayer>>;

Layers make_layers(const plt::dl::LlmConfig& cfg, std::uint64_t seed) {
  plt::Xoshiro256 rng(seed);
  Layers ls;
  for (std::int64_t l = 0; l < cfg.layers; ++l)
    ls.push_back(std::make_unique<plt::dl::DecoderLayer>(cfg, rng));
  return ls;
}

struct Prompts {
  std::vector<plt::dl::Tensor> x;  // [len][hidden], index len_idx*kVariants+v
  Prompts(const plt::dl::LlmConfig& cfg, std::uint64_t seed) {
    plt::Xoshiro256 rng(seed * 31 + 7);
    for (int l = 0; l < kLens; ++l)
      for (int v = 0; v < kVariants; ++v) {
        x.emplace_back(plt::dl::Tensor({kPromptLens[l] + 1, cfg.hidden}));
        x.back().randn_uniform(rng, -1.0f, 1.0f);
      }
  }
};

// Scratch for one request through the whole stack.
struct Generator {
  const plt::dl::LlmConfig& cfg;
  Layers& layers;
  plt::dl::Tensor a, b;
  std::vector<float> tok, tok_out;
  Generator(const plt::dl::LlmConfig& c, Layers& ls)
      : cfg(c),
        layers(ls),
        a({c.max_seq, c.hidden}),
        b({c.max_seq, c.hidden}),
        tok(static_cast<std::size_t>(c.hidden)),
        tok_out(tok.size()) {}

  // Runs one request; token_ms[i] is the latency of token i (token 0 covers
  // the prefill). Outputs of every token are appended to `outs` if given.
  void request(const float* prompt, std::int64_t len, Trace::Lane* lane,
               std::uint64_t req, std::vector<double>* token_ms,
               std::vector<float>* outs) {
    const std::int64_t H = cfg.hidden;
    Scope root(lane, "llm_infer.request", -1, req);
    auto t0 = Clock::now();
    std::memcpy(a.data(), prompt, sizeof(float) * static_cast<std::size_t>(len * H));
    for (auto& layer : layers) {
      Scope s(lane, "dl.DecoderLayer::prefill", root.id(), req);
      layer->prefill(a.data(), len, b.data());
      std::swap(a, b);
    }
    const float* last = a.data() + (len - 1) * H;
    for (std::int64_t d = 0; d < H; ++d)
      tok[static_cast<std::size_t>(d)] = last[d] * 0.5f;
    for (int g = 0; g < kGen; ++g) {
      for (auto& layer : layers) {
        Scope s(lane, "dl.DecoderLayer::decode_one", root.id(), req);
        layer->decode_one(tok.data(), len + g, tok_out.data());
        std::swap(tok, tok_out);
      }
      const auto t1 = Clock::now();
      token_ms->push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
      t0 = t1;
      if (outs != nullptr) outs->insert(outs->end(), tok.begin(), tok.end());
      for (auto& v : tok) v *= 0.5f;
    }
  }
};

struct Pass {
  std::vector<double> token_ms, first_ms, next_ms;
  std::vector<double> round_tok_per_s;  // tokens per second, per round
  std::vector<float> req0_out;  // outputs of the pass's first request
  std::int64_t req0_len = 0;
  int req0_prompt = 0;
};

Pass measure(Context& ctx, Generator& gen, const Prompts& prompts,
             double seconds, Trace::Lane* lane) {
  Pass p;
  plt::Xoshiro256 order(ctx.args.seed * 131 + 5);
  std::uint64_t req = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    const auto r0 = Clock::now();
    int lens[kLens] = {0, 1, 2, 3};
    for (int i = kLens - 1; i > 0; --i)
      std::swap(lens[i], lens[order.bounded(static_cast<std::uint64_t>(i + 1))]);
    for (int li : lens) {  // one round: every prompt length once
      const int prompt = li * kVariants +
                         static_cast<int>(order.bounded(kVariants));
      std::vector<double> tms;
      tms.reserve(kGen);
      gen.request(prompts.x[static_cast<std::size_t>(prompt)].data(),
                  kPromptLens[li], lane, req, &tms,
                  req == 0 ? &p.req0_out : nullptr);
      if (req == 0) {
        p.req0_len = kPromptLens[li];
        p.req0_prompt = prompt;
      }
      ++req;
      p.first_ms.push_back(tms[0]);
      p.next_ms.insert(p.next_ms.end(), tms.begin() + 1, tms.end());
      p.token_ms.insert(p.token_ms.end(), tms.begin(), tms.end());
    }
    p.round_tok_per_s.push_back(kLens * kGen / seconds_since(r0));
  }
  ctx.phases.push_back(Phase{lane ? "requests_traced" : "requests", req, 0});
  return p;
}

// KV-cache property: decode_one at position p after prefilling p tokens
// equals the last row of a prefill over p+1 tokens, through the whole stack.
// Tolerance: 2^-12 of the row's largest magnitude — the two paths sum the
// same products in different blockings, in fp32 (u = 2^-24) over K <= 1024.
void check_kv(Context& ctx, Layers& layers, const plt::dl::LlmConfig& cfg,
              const float* x, std::int64_t p) {
  const std::int64_t H = cfg.hidden;
  plt::dl::Tensor a({p + 1, H}), b({p + 1, H});
  std::vector<float> tok(x + p * H, x + (p + 1) * H), out(tok.size());
  std::memcpy(a.data(), x, sizeof(float) * static_cast<std::size_t>(p * H));
  for (auto& layer : layers) {
    layer->prefill(a.data(), p, b.data());
    std::swap(a, b);
    layer->decode_one(tok.data(), p, out.data());
    std::swap(tok, out);
  }
  // Full prefill over p+1 tokens.
  std::memcpy(a.data(), x, sizeof(float) * static_cast<std::size_t>((p + 1) * H));
  for (auto& layer : layers) {
    layer->prefill(a.data(), p + 1, b.data());
    std::swap(a, b);
  }
  const float* ref = a.data() + p * H;
  double max_ref = 0.0, max_err = 0.0;
  for (std::int64_t d = 0; d < H; ++d) {
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(ref[d])));
    max_err = std::max(max_err, std::fabs(static_cast<double>(ref[d]) - tok[static_cast<std::size_t>(d)]));
  }
  ctx.rec.num("check_kv_rel_err", max_ref > 0.0 ? max_err / max_ref : max_err);
  ctx.check(max_err <= std::ldexp(1.0, -12) * max_ref,
            "decode_one(p) == last row of prefill(p+1), p=" + std::to_string(p));
}

plt::dl::LlmConfig llm_config() { return plt::dl::LlmConfig::gptj_scaled(); }

}  // namespace

void run_llm_infer(Context& ctx) {
  const plt::dl::LlmConfig cfg = llm_config();
  Layers layers = make_layers(cfg, ctx.args.seed);
  const Prompts prompts(cfg, ctx.args.seed);
  Generator gen(cfg, layers);
  {
    // Warm-up: one request per prompt length builds every token-count plan.
    std::vector<double> tms;
    for (int l = 0; l < kLens; ++l)
      gen.request(prompts.x[static_cast<std::size_t>(l * kVariants)].data(),
                  kPromptLens[l], nullptr, 0, &tms, nullptr);
  }
  if (ctx.setup_done()) return;

  const double untraced_s = ctx.args.trace ? ctx.args.seconds / 2 : ctx.args.seconds;
  const Pass p = measure(ctx, gen, prompts, untraced_s, nullptr);
  const double first = median(p.first_ms), next = median(p.next_ms);
  std::printf("llm_infer: %zu tokens, first token %.3f ms, next token %.3f ms\n",
              p.token_ms.size(), first, next);
  ctx.rec.num("llm_first_token_ms", first);
  ctx.rec.num("llm_next_token_ms", next);
  add_standard_e2e(ctx, p.token_ms, p.round_tok_per_s);

  if (ctx.args.trace) {
    const Pass t = measure(ctx, gen, prompts, ctx.args.seconds / 2, ctx.lane0());
    summarize_trace(ctx, median(p.token_ms), median(t.token_ms));
  }

  // The run's first request again under the serial runtime: bitwise equal.
  {
    const plt::Runtime saved = plt::runtime();
    plt::set_runtime(plt::Runtime::kSerial);
    std::vector<double> tms;
    std::vector<float> outs;
    gen.request(prompts.x[static_cast<std::size_t>(p.req0_prompt)].data(),
                p.req0_len, nullptr, 0, &tms, &outs);
    plt::set_runtime(saved);
    ctx.check(outs.size() == p.req0_out.size() &&
                  std::memcmp(outs.data(), p.req0_out.data(),
                              outs.size() * sizeof(float)) == 0,
              "generated tokens bitwise equal, serial vs pool");
  }
  plt::Xoshiro256 pick(ctx.args.seed + 99);
  const std::int64_t pos = 33 + static_cast<std::int64_t>(pick.bounded(95));
  const int li = kLens - 1;  // the 128-token prompts hold pos + 1 rows
  check_kv(ctx, layers, cfg,
           prompts.x[static_cast<std::size_t>(li * kVariants)].data(), pos);
}

// --- per-layer probes --------------------------------------------------------

void probe_llm_layers(Context& ctx) {
  const plt::dl::LlmConfig cfg = llm_config();
  const std::int64_t H = cfg.hidden, F = cfg.ffn;
  Layers layers = make_layers(cfg, 51);
  const Prompts prompts(cfg, 51);
  plt::dl::Tensor y({cfg.max_seq, H});

  // Prefill per call, averaged over one call at each prompt length.
  const double prefill = median_call_seconds(
      [&] {
        for (int l = 0; l < kLens; ++l)
          layers[0]->prefill(prompts.x[static_cast<std::size_t>(l * kVariants)].data(),
                             kPromptLens[l], y.data());
      },
      7, 1);
  ctx.add_layer("dl.prefill_layer_ms", prefill / kLens * 1e3, "ms");

  std::vector<float> tok(static_cast<std::size_t>(H), 0.25f), out(tok.size());
  layers[0]->prefill(prompts.x[static_cast<std::size_t>(kVariants)].data(), 64,
                     y.data());
  const int batch = 50;
  const double decode = median_call_seconds(
      [&] { for (int i = 0; i < batch; ++i) layers[0]->decode_one(tok.data(), 64, out.data()); },
      15, 1);
  ctx.add_layer("dl.decode_layer_us", decode / batch * 1e6, "us");

  // Team regions per generated token through the whole stack.
  {
    plt::dl::Tensor a({cfg.max_seq, H}), b({cfg.max_seq, H});
    std::memcpy(a.data(), prompts.x[kVariants].data(),
                sizeof(float) * static_cast<std::size_t>(64 * H));
    for (auto& layer : layers) {
      layer->prefill(a.data(), 64, b.data());
      std::swap(a, b);
    }
    std::vector<float> t(a.data() + 63 * H, a.data() + 64 * H), t_out(t.size());
    const auto before = plt::ThreadPool::instance().stats().team_regions;
    for (int g = 0; g < kGen; ++g)
      for (auto& layer : layers) {
        layer->decode_one(t.data(), 64 + g, t_out.data());
        std::swap(t, t_out);
      }
    const auto after = plt::ThreadPool::instance().stats().team_regions;
    ctx.add_layer("pool.regions_per_token",
                  static_cast<double>(after - before) / kGen, "count");
  }

  // Single-token FC calls and their BRGEMMs at the decode projection shapes.
  struct Shape { std::int64_t in, out; plt::dl::FcActivation act; };
  const Shape shapes[] = {{H, H, plt::dl::FcActivation::kNone},
                          {H, H, plt::dl::FcActivation::kNone},
                          {H, H, plt::dl::FcActivation::kNone},
                          {H, H, plt::dl::FcActivation::kNone},
                          {H, F, plt::dl::FcActivation::kGelu},
                          {F, H, plt::dl::FcActivation::kNone}};
  double fc_s = 0.0, gemv_s = 0.0, gemv_flops = 0.0;
  for (const Shape& sh : shapes) {
    plt::dl::FcConfig fc;
    fc.in_features = sh.in;
    fc.out_features = sh.out;
    fc.tokens = cfg.max_seq;
    fc.act = sh.act;
    plt::Xoshiro256 rng(52);
    plt::dl::FcLayer layer(fc, rng);
    std::vector<float> x(static_cast<std::size_t>(sh.in), 0.5f),
        o(static_cast<std::size_t>(sh.out));
    fc_s += median_call_seconds(
                [&] { for (int i = 0; i < batch; ++i) layer.forward_tokens(x.data(), 1, o.data()); },
                15, 1) /
            batch;

    // The matrix-vector BRGEMM the 1-token plan issues: m = bm, n = 1,
    // k = bk, one batch entry per K block, on one thread.
    const std::int64_t bm = cfg.bm, bk = cfg.bk;
    plt::tpp::BrgemmTPP k(plt::tpp::BrgemmDesc{
        bm, 1, bk, bm, sh.in, sh.out, plt::DType::F32, plt::DType::F32,
        plt::DType::F32, 1.0f, plt::tpp::BrgemmVariant::kStride,
        plt::tpp::ALayout::kFlat, bm * bk, bk});
    std::vector<float> w(static_cast<std::size_t>(sh.in * sh.out));
    plt::fill_uniform(w.data(), w.size(), rng);
    const std::int64_t Kb = sh.in / bk, Mb = sh.out / bm;
    gemv_s += median_call_seconds(
        [&] {
          for (int r = 0; r < batch; ++r)
            for (std::int64_t im = 0; im < Mb; ++im)
              for (std::int64_t ik = 0; ik < Kb; ++ik)
                k(w.data() + (im * Kb + ik) * bm * bk, x.data() + ik * bk,
                  o.data() + im * bm, 1);
        },
        15, 1) /
        batch;
    gemv_flops += 2.0 * static_cast<double>(sh.in * sh.out);
  }
  ctx.add_layer("dl.fc_tokens1_us", fc_s * 1e6, "us");
  ctx.add_layer("tpp.gemv_f32_gflops", gemv_flops / gemv_s / 1e9, "GFLOP/s");
}

}  // namespace pb
