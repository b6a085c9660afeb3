// Workload `gemm`: square fp32 and bf16 GEMMs through kernels::GemmKernel at
// a Fig. 2 size whose operands exceed the per-core L2 (1024^3: 4 MiB fp32 /
// 2 MiB bf16 per operand, 6-12 MiB per call against 2 MiB of L2). One call
// is one nest dispatch and milliseconds of BRGEMM microkernel work, so a
// tpp change moves this workload and a parlooper/serving/net change should
// not. An operation is one round: an fp32 call then a bf16 call.
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "common/bf16.hpp"
#include "common/rng.hpp"
#include "kernels/gemm_kernel.hpp"
#include "tpp/transforms.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr std::int64_t kN = 1024;
constexpr std::int64_t kBlock = 32;

// One GEMM problem: flat col-major operands (A: M x K, B: K x N) and the
// kernel's blocked copies.
struct GemmSet {
  std::unique_ptr<plt::kernels::GemmKernel> kernel;
  std::vector<float> a_flat, b_flat;
  plt::AlignedBuffer<std::uint8_t> a, b, c;

  GemmSet(std::int64_t n, plt::DType dt, std::uint64_t seed) {
    plt::kernels::GemmConfig cfg;
    cfg.M = cfg.N = cfg.K = n;
    cfg.bm = cfg.bn = cfg.bk = kBlock;
    cfg.dtype = dt;
    cfg.k_step = n / kBlock;  // whole K per BRGEMM call, as bench_fig2_gemm
    cfg.loop_spec = "BCa";
    kernel = std::make_unique<plt::kernels::GemmKernel>(cfg);
    plt::Xoshiro256 rng(seed);
    a_flat.resize(static_cast<std::size_t>(n * n));
    b_flat.resize(a_flat.size());
    plt::fill_uniform(a_flat.data(), a_flat.size(), rng, -1.0f, 1.0f);
    plt::fill_uniform(b_flat.data(), b_flat.size(), rng, -1.0f, 1.0f);
    const std::size_t esz = plt::dtype_size(dt);
    a.resize(kernel->a_elems() * esz);
    b.resize(kernel->b_elems() * esz);
    c.resize(kernel->c_elems() * esz);
  }
  void pack() {
    kernel->pack_a(a_flat.data(), a.data());
    kernel->pack_b(b_flat.data(), b.data());
  }
  void run() { kernel->run(a.data(), b.data(), c.data()); }

  // C(m, n) read straight from the blocked layout C[Nb][Mb][bn][bm].
  double c_at(std::int64_t m, std::int64_t n) const {
    const auto& cfg = kernel->config();
    const std::size_t idx = static_cast<std::size_t>(
        (((n / cfg.bn) * cfg.Mb() + m / cfg.bm) * cfg.bn + n % cfg.bn) *
            cfg.bm +
        m % cfg.bm);
    if (cfg.dtype == plt::DType::F32)
      return reinterpret_cast<const float*>(c.data())[idx];
    return reinterpret_cast<const plt::bf16*>(c.data())[idx].to_f32();
  }
};

double round_bf16(float v) { return plt::bf16::from_f32(v).to_f32(); }

// Seeded entries of C against a double-precision dot product of the flat
// operands (bf16-rounded for bf16). Bound: fp32 accumulation over K terms,
// gamma_K * sum|a*b| with gamma_K = K*u/(1-K*u), u = 2^-24, plus the output
// rounding (bf16 C: half an ulp of 2^-8 relative).
void check_gemm(Context& ctx, const GemmSet& g, const char* what,
                std::uint64_t seed) {
  const auto& cfg = g.kernel->config();
  const bool bf = cfg.dtype == plt::DType::BF16;
  const double u = std::ldexp(1.0, -24);
  const double gamma = static_cast<double>(cfg.K) * u /
                       (1.0 - static_cast<double>(cfg.K) * u);
  const double u_out = bf ? std::ldexp(1.0, -8) : u;
  plt::Xoshiro256 rng(seed ^ 0xC0FFEEull);
  int bad = 0;
  double worst = 0.0;
  for (int s = 0; s < 256; ++s) {
    const std::int64_t m = static_cast<std::int64_t>(rng.bounded(cfg.M));
    const std::int64_t n = static_cast<std::int64_t>(rng.bounded(cfg.N));
    double ref = 0.0, mag = 0.0;
    for (std::int64_t k = 0; k < cfg.K; ++k) {
      double av = g.a_flat[static_cast<std::size_t>(m + k * cfg.M)];
      double bv = g.b_flat[static_cast<std::size_t>(k + n * cfg.K)];
      if (bf) {
        av = round_bf16(static_cast<float>(av));
        bv = round_bf16(static_cast<float>(bv));
      }
      ref += av * bv;
      mag += std::fabs(av * bv);
    }
    const double tol = gamma * mag + u_out * (std::fabs(ref) + gamma * mag);
    const double err = std::fabs(g.c_at(m, n) - ref);
    worst = std::max(worst, tol > 0.0 ? err / tol : 0.0);
    if (!(err <= tol)) ++bad;
  }
  ctx.rec.num(std::string("check_") + what + "_worst_err_over_tol", worst);
  ctx.check(bad == 0, std::string(what) + ": 256 sampled C entries vs fp64");
}

struct Pass {
  std::vector<double> round_ms, f32_ms, bf16_ms;
};

Pass measure(Context& ctx, GemmSet& f32, GemmSet& b16,
             double seconds, Trace::Lane* lane) {
  Pass p;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds) {
    Scope round(lane, "gemm.round");
    const auto r0 = Clock::now();
    {
      Scope s(lane, "kernels.GemmKernel::run fp32", round.id());
      f32.run();
    }
    const auto r1 = Clock::now();
    {
      Scope s(lane, "kernels.GemmKernel::run bf16", round.id());
      b16.run();
    }
    const auto r2 = Clock::now();
    p.f32_ms.push_back(std::chrono::duration<double, std::milli>(r1 - r0).count());
    p.bf16_ms.push_back(std::chrono::duration<double, std::milli>(r2 - r1).count());
    p.round_ms.push_back(std::chrono::duration<double, std::milli>(r2 - r0).count());
  }
  ctx.phases.push_back(Phase{lane ? "rounds_traced" : "rounds",
                             p.round_ms.size(), 0});
  return p;
}

}  // namespace

void run_gemm(Context& ctx) {
  GemmSet f32(kN, plt::DType::F32, ctx.args.seed);
  GemmSet b16(kN, plt::DType::BF16, ctx.args.seed + 1);
  f32.pack();
  b16.pack();
  f32.run();  // first call builds the flat schedule
  b16.run();
  if (ctx.setup_done()) return;

  const double flops = f32.kernel->flops();
  const double untraced_s = ctx.args.trace ? ctx.args.seconds / 2 : ctx.args.seconds;
  const Pass p = measure(ctx, f32, b16, untraced_s, nullptr);
  const double f32_gflops = flops / (median(p.f32_ms) * 1e-3) / 1e9;
  const double bf16_gflops = flops / (median(p.bf16_ms) * 1e-3) / 1e9;
  std::printf("gemm %ld^3: fp32 %.2f GFLOP/s, bf16 %.2f GFLOP/s over %zu "
              "rounds\n",
              static_cast<long>(kN), f32_gflops, bf16_gflops,
              p.round_ms.size());
  ctx.rec.num("gemm_fp32_gflops", f32_gflops);
  ctx.rec.num("gemm_bf16_gflops", bf16_gflops);
  std::vector<double> rates;
  for (double ms : p.round_ms) rates.push_back(1e3 / ms);
  add_standard_e2e(ctx, p.round_ms, rates);

  if (ctx.args.trace) {
    const Pass t = measure(ctx, f32, b16, ctx.args.seconds / 2, ctx.lane0());
    summarize_trace(ctx, median(p.round_ms), median(t.round_ms));
  }
  check_gemm(ctx, f32, "gemm_fp32", ctx.args.seed);
  check_gemm(ctx, b16, "gemm_bf16", ctx.args.seed);
}

// --- per-layer probes --------------------------------------------------------

namespace {

// Single-thread BrgemmTPP at the gemm tile shape (32x32x32 blocks) and batch-
// reduce count (Kb = 32), on one L2-resident A/B panel pair.
double brgemm_gflops(plt::DType dt) {
  const std::int64_t br = kN / kBlock;
  const bool bf = dt == plt::DType::BF16;
  const std::int64_t a_blk = bf ? plt::tpp::vnni2_elems(kBlock, kBlock)
                                : kBlock * kBlock;
  plt::tpp::BrgemmTPP k(kBlock, kBlock, kBlock, a_blk, kBlock * kBlock, 1.0f,
                        dt, dt, dt,
                        bf ? plt::tpp::ALayout::kVnni2 : plt::tpp::ALayout::kFlat);
  const std::size_t esz = plt::dtype_size(dt);
  plt::AlignedBuffer<std::uint8_t> a(static_cast<std::size_t>(br * a_blk) * esz),
      b(static_cast<std::size_t>(br * kBlock * kBlock) * esz),
      c(static_cast<std::size_t>(kBlock * kBlock) * esz);
  plt::Xoshiro256 rng(11);
  if (bf) {
    plt::fill_uniform(reinterpret_cast<plt::bf16*>(a.data()), a.size() / esz, rng);
    plt::fill_uniform(reinterpret_cast<plt::bf16*>(b.data()), b.size() / esz, rng);
  } else {
    plt::fill_uniform(reinterpret_cast<float*>(a.data()), a.size() / esz, rng);
    plt::fill_uniform(reinterpret_cast<float*>(b.data()), b.size() / esz, rng);
  }
  std::memset(c.data(), 0, c.size());
  const int calls = 100;
  const double s = median_call_seconds(
      [&] {
        for (int i = 0; i < calls; ++i) k(a.data(), b.data(), c.data(), br);
      },
      15, 2);
  return k.flops(br) * calls / s / 1e9;
}

}  // namespace

void probe_gemm_layers(Context& ctx) {
  const MachinePeaks& peaks = machine_peaks();
  const double f32 = brgemm_gflops(plt::DType::F32);
  const double b16 = brgemm_gflops(plt::DType::BF16);
  ctx.add_layer("tpp.brgemm_f32_gflops", f32, "GFLOP/s");
  ctx.add_layer("tpp.brgemm_bf16_gflops", b16, "GFLOP/s");
  ctx.add_layer("tpp.brgemm_f32_peak_frac", f32 / peaks.f32_gflops, "ratio");
  ctx.add_layer("tpp.brgemm_bf16_peak_frac", b16 / peaks.bf16_gflops, "ratio");

  GemmSet gf(kN, plt::DType::F32, 21), gb(kN, plt::DType::BF16, 22);
  const double pack_s = median_call_seconds([&] { gf.pack(); }, 3, 0) +
                        median_call_seconds([&] { gb.pack(); }, 3, 0);
  ctx.add_layer("kernels.gemm_f32_call_ms",
                median_call_seconds([&] { gf.run(); }, 9, 1) * 1e3, "ms");
  ctx.add_layer("kernels.gemm_bf16_call_ms",
                median_call_seconds([&] { gb.run(); }, 9, 1) * 1e3, "ms");
  ctx.add_layer("kernels.gemm_pack_ms", pack_s * 1e3, "ms");
}

}  // namespace pb
