// Fig. 4: PARLOOPER auto-tuning vs a full-schedule search (TVM-Autoscheduler
// substitute). PARLOOPER stops its search space at the TPP boundary (outer
// loop order / blocking / parallelization only), while the full-schedule
// substitute also sweeps the register/micro-tile dimension (bm, bn, bk) the
// way a tensor compiler must. The paper reports PARLOOPER reaching equal or
// better GFLOPS while tuning 2.3x-500x faster.
//
// Each size also re-runs the tuner's winning spec standalone, as the median
// of repeated trials, against the GFLOPS the tuner recorded for it
// (tuner_rerun_over_tuned_<n>; check_overhead.py --tuner gates it).
#include <algorithm>

#include "bench/bench_util.hpp"
#include "tuner/tuner.hpp"

using namespace plt;

namespace {

// Median GFLOPS of `trials` standalone best-of-3 timings of the tuned spec.
double rerun_gflops(const kernels::GemmConfig& base,
                    const tuner::TuneCandidate& best, int trials) {
  kernels::GemmConfig cfg = base;
  cfg.loop_spec = best.spec;
  cfg.k_blocking = best.k_blocking;
  cfg.m_blocking = best.m_blocking;
  cfg.n_blocking = best.n_blocking;
  const kernels::GemmKernel kernel(cfg);
  AlignedBuffer<float> a(kernel.a_elems()), b(kernel.b_elems()),
      c(kernel.c_elems());
  a.zero();
  b.zero();
  std::vector<double> gf;
  for (int t = 0; t < trials; ++t) {
    const double s = time_best_seconds(
        [&] { kernel.run(a.data(), b.data(), c.data()); }, 1, 3);
    gf.push_back(gflops(kernel.flops(), s));
  }
  std::nth_element(gf.begin(), gf.begin() + trials / 2, gf.end());
  return gf[static_cast<std::size_t>(trials / 2)];
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::has_flag(argc, argv, "--full");
  std::vector<std::int64_t> sizes =
      full ? std::vector<std::int64_t>{512, 1024, 2048}
           : std::vector<std::int64_t>{128, 256};

  bench::print_header(
      "Fig. 4 — outer-loop tuning (PARLOOPER) vs full-schedule search");
  std::printf("%-14s | %10s %10s | %10s %10s | %9s | %9s\n", "size",
              "ours GF", "ours s", "full GF", "full s", "tune-ratio",
              "rerun/GF");
  bench::JsonReporter json("fig4_tvm_compare");

  for (std::int64_t n : sizes) {
    kernels::GemmConfig base;
    base.M = base.N = base.K = n;
    base.bm = base.bn = base.bk = 32;

    // PARLOOPER: enumerate outer-loop specs, benchmark them.
    perfmodel::GemmModelProblem p;
    p.M = p.N = p.K = n;
    p.bm = p.bn = p.bk = 32;
    tuner::SpecGenOptions gopts;
    gopts.max_candidates = full ? 32 : 12;
    const auto cands = tuner::generate_gemm_candidates(p, gopts);
    tuner::TuneOptions topts;
    topts.warmup = 0;
    topts.iters = 2;
    tuner::GemmTuner our_tuner(base, topts);
    double ours_seconds = 0.0;
    const auto ours = our_tuner.run(cands, &ours_seconds);

    // Full-schedule substitute: the same outer-loop sweep crossed with the
    // micro-tile dimension (what a tensor compiler schedules itself).
    WallTimer full_timer;
    double full_best = 0.0;
    for (std::int64_t bs : {16, 32, 64}) {
      if (n % bs != 0) continue;
      kernels::GemmConfig cfg = base;
      cfg.bm = cfg.bn = cfg.bk = bs;
      perfmodel::GemmModelProblem p2 = p;
      p2.bm = p2.bn = p2.bk = bs;
      const auto c2 = tuner::generate_gemm_candidates(p2, gopts);
      tuner::GemmTuner t2(cfg, topts);
      const auto r2 = t2.run(c2);
      if (!r2.empty()) full_best = std::max(full_best, r2.front().gflops);
    }
    const double full_seconds = full_timer.seconds();

    const double rerun = rerun_gflops(base, ours.front().candidate, 7);
    const double ratio = rerun / ours.front().gflops;
    std::printf(
        "%4ldx%4ldx%4ld | %10.2f %10.2f | %10.2f %10.2f | %8.1fx | %8.2fx\n",
        static_cast<long>(n), static_cast<long>(n), static_cast<long>(n),
        ours.front().gflops, ours_seconds, full_best, full_seconds,
        full_seconds / ours_seconds, ratio);
    const std::string sz = std::to_string(n);
    json.add("tuner_best_" + sz, ours.front().gflops, 0.0);
    json.add("tuner_rerun_" + sz, rerun, 0.0);
    json.add_value("tuner_rerun_over_tuned_" + sz, ratio, "ratio");
  }
  std::printf("\nexpected shape: comparable best GFLOPS, with the outer-loop "
              "search several times cheaper (paper: 2.3x-500x).\n");
  return 0;
}
