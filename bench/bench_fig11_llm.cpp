// Fig. 11: LLM inference latency (GPT-J / Llama2 style decoders, batch 1):
// first-token (prefill, compute bound) and per-next-token (KV-cache decode,
// bandwidth bound), for the framework-default schedule substitute ("hf-sub",
// serial K-outer loops) vs PARLOOPER, in fp32 and bf16. Expected shape:
// PARLOOPER wins (paper: 1.1x-2.8x), bf16 accelerates prefill more than
// decode, next-token << first-token.
//
// A second table holds the wall-clock comparisons the unit tests only make
// analytically (LlmModel::decode_flops / prefill_flops): decode cost at KV
// position 399 vs 49, and first- vs next-token latency, on the small test
// model, as medians of repeated trials after a warm-up. Rows go to
// BENCH_fig11_llm.json.
#include <algorithm>

#include "bench/bench_util.hpp"
#include "dl/llm.hpp"

using namespace plt;

namespace {

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// The small model of the Llm / LlmModel unit tests.
dl::LlmConfig small_config(std::int64_t max_seq) {
  dl::LlmConfig cfg;
  cfg.hidden = 64;
  cfg.heads = 2;
  cfg.layers = 2;
  cfg.ffn = 128;
  cfg.vocab = 256;
  cfg.max_seq = max_seq;
  cfg.bm = cfg.bn = cfg.bk = 16;
  return cfg;
}

void cost_rows(bench::JsonReporter& json, int trials) {
  bench::print_header("Fig. 11 — decode cost vs KV position (small model)");
  const dl::LlmConfig cfg = small_config(512);
  Xoshiro256 rng(13);
  dl::DecoderLayer layer(cfg, rng);
  dl::Tensor prompt({400, cfg.hidden}), out({400, cfg.hidden});
  prompt.randn_uniform(rng);
  layer.prefill(prompt.data(), 400, out.data());
  std::vector<float> x(static_cast<std::size_t>(cfg.hidden), 0.1f);
  std::vector<float> y(x.size());
  const int calls = 50;
  const auto decode_us = [&](std::int64_t pos) {
    WallTimer t;
    for (int i = 0; i < calls; ++i) layer.decode_one(x.data(), pos, y.data());
    return t.seconds() * 1e6 / calls;
  };
  decode_us(49);  // warm-up
  decode_us(399);
  std::vector<double> at49, at399;
  for (int i = 0; i < trials; ++i) {  // interleaved, so drift hits both
    at49.push_back(decode_us(49));
    at399.push_back(decode_us(399));
  }
  const double us49 = median(at49), us399 = median(at399);
  std::printf("%-24s %12.2f us\n%-24s %12.2f us\n%-24s %12.2f\n",
              "decode at pos 49", us49, "decode at pos 399", us399,
              "cost ratio 399/49", us399 / us49);
  json.add_value("decode_us_pos49", us49, "us");
  json.add_value("decode_us_pos399", us399, "us");
  json.add_value("decode_cost_pos399_over_pos49", us399 / us49, "ratio");

  Xoshiro256 mrng(51);
  dl::LlmModel model(small_config(64), mrng);
  model.generate(32, 4, mrng);  // warm-up
  std::vector<double> first, next;
  for (int i = 0; i < trials; ++i) {
    const auto t = model.generate(32, 4, mrng);
    first.push_back(t.first_token_ms);
    next.push_back(t.per_next_token_ms);
  }
  const double f = median(first), n = median(next);
  std::printf("%-24s %12.3f ms\n%-24s %12.3f ms\n", "first token (S=32)", f,
              "next token", n);
  json.add_value("small_first_token_ms", f, "ms");
  json.add_value("small_next_token_ms", n, "ms");
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  const std::int64_t prompt = full ? 1024 : 128;
  const std::int64_t gen = full ? 32 : 8;

  bench::print_header("Fig. 11 — LLM inference (batch 1)");
  std::printf("%-10s %-10s %-6s %16s %16s\n", "model", "stack", "dtype",
              "first-token ms", "next-token ms");

  struct ModelCase {
    const char* name;
    dl::LlmConfig cfg;
  };
  for (ModelCase mc : {ModelCase{"gptj", dl::LlmConfig::gptj_scaled()},
                       ModelCase{"llama2", dl::LlmConfig::llama2_scaled()}}) {
    mc.cfg.max_seq = prompt + gen;
    for (const char* stack : {"hf-sub", "parlooper"}) {
      for (DType dt : {DType::F32, DType::BF16}) {
        dl::LlmConfig cfg = mc.cfg;
        cfg.dtype = dt;
        cfg.loop_spec = std::string(stack) == "hf-sub" ? "abc" : "BCa";
        Xoshiro256 rng(31);
        dl::LlmModel model(cfg, rng);
        const auto t = model.generate(prompt, gen, rng);
        std::printf("%-10s %-10s %-6s %16.2f %16.3f\n", mc.name, stack,
                    dt == DType::F32 ? "fp32" : "bf16", t.first_token_ms,
                    t.per_next_token_ms);
      }
    }
  }
  std::printf("\nexpected shape: parlooper <= hf-sub latency; bf16 helps the "
              "compute-bound first token most; next-token << first-token.\n");

  bench::JsonReporter json("fig11_llm");
  cost_rows(json, full ? 21 : 9);
  std::printf("\nexpected shape: decode at pos 399 costs more than at 49; "
              "first token costs more than a next token.\n");
  return 0;
}
