// Machine probe: the denominators of the *_peak_frac metrics and the run
// record's description of what executed (ISA, threads, partitions, runtime).
#include <immintrin.h>

#include <cstring>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/threading.hpp"
#include "parlooper/threaded_loop.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

constexpr int kChains = 12;  // independent accumulators: covers FMA latency x ports

__attribute__((target("avx512f"))) double fma_loop_avx512(long iters) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.0f + c);
  const __m512 a = _mm512_set1_ps(0.999f), b = _mm512_set1_ps(1e-3f);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_ps(acc[c], a, b);
  __m512 s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_ps(s, acc[c]);
  volatile float sink = _mm512_reduce_add_ps(s);
  (void)sink;
  return static_cast<double>(iters) * kChains * 16 * 2;
}

__attribute__((target("avx512f,avx512bf16"))) double dpbf16_loop(long iters) {
  __m512 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_ps(0.0f + c);
  const __m512bh a = (__m512bh)_mm512_set1_epi16(0x3f80);  // bf16 1.0
  const __m512bh b = (__m512bh)_mm512_set1_epi16(0x3a83);  // bf16 ~1e-3
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_dpbf16_ps(acc[c], a, b);
  __m512 s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_ps(s, acc[c]);
  volatile float sink = _mm512_reduce_add_ps(s);
  (void)sink;
  // 16 fp32 lanes x 2 bf16 pairs x (mul + add).
  return static_cast<double>(iters) * kChains * 16 * 2 * 2;
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters) {
  __m256 acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_ps(0.0f + c);
  const __m256 a = _mm256_set1_ps(0.999f), b = _mm256_set1_ps(1e-3f);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_ps(acc[c], a, b);
  float out[8];
  __m256 s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_ps(s, acc[c]);
  _mm256_storeu_ps(out, s);
  volatile float sink = out[0];
  (void)sink;
  return static_cast<double>(iters) * kChains * 8 * 2;
}

double fma_loop_scalar(long iters) {
  float acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = static_cast<float>(c);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999f + 1e-3f;
  float s = 0.0f;
  for (int c = 0; c < kChains; ++c) s += acc[c];
  volatile float sink = s;
  (void)sink;
  return static_cast<double>(iters) * kChains * 2;
}

// Best of five ~20 ms trials: a peak is a capability, so the fastest trial
// is the estimate (slower ones only saw interference).
double probe_gflops(double (*loop)(long)) {
  const long iters = 1 << 18;
  loop(iters / 8);
  double best = 0.0;
  for (int t = 0; t < 5; ++t) {
    const auto t0 = Clock::now();
    const double flops = loop(iters);
    const double s = seconds_since(t0);
    best = std::max(best, flops / s / 1e9);
  }
  return best;
}

// Triad a = b + s*c over arrays far larger than the last-level cache, split
// across the pool team: bytes counted as 2 reads + 1 write per element.
double probe_bandwidth() {
  const std::size_t n = std::size_t{8} << 20;  // 32 MiB per array
  std::vector<float> a(n), b(n, 1.0f), c(n, 2.0f);
  const auto triad = [&] {
    plt::parallel_region([&](int tid, int nt) {
      const std::size_t lo = n * static_cast<std::size_t>(tid) /
                             static_cast<std::size_t>(nt);
      const std::size_t hi = n * static_cast<std::size_t>(tid + 1) /
                             static_cast<std::size_t>(nt);
      float* pa = a.data();
      const float* pb = b.data();
      const float* pc = c.data();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 0.5f * pc[i];
    });
  };
  const double s = median_call_seconds(triad, 5, 1);
  return 3.0 * static_cast<double>(n) * sizeof(float) / s / 1e9;
}

}  // namespace

const MachinePeaks& machine_peaks() {
  static const MachinePeaks peaks = [] {
    MachinePeaks p;
    const plt::IsaLevel isa = plt::effective_isa();
    if (isa >= plt::IsaLevel::kAVX512) {
      p.f32_gflops = probe_gflops(fma_loop_avx512);
    } else if (isa >= plt::IsaLevel::kAVX2) {
      p.f32_gflops = probe_gflops(fma_loop_avx2);
    } else {
      p.f32_gflops = probe_gflops(fma_loop_scalar);
    }
    // Without the bf16 dot-product instruction the bf16 microkernels widen
    // to fp32 and run on the fp32 FMA units.
    p.bf16_gflops = isa >= plt::IsaLevel::kAVX512BF16
                        ? probe_gflops(dpbf16_loop)
                        : p.f32_gflops;
    p.mem_gbps = probe_bandwidth();
    return p;
  }();
  return peaks;
}

void record_machine(Context& ctx) {
  const MachinePeaks& p = machine_peaks();
  ctx.rec.str("isa", plt::isa_name(plt::effective_isa()));
  ctx.rec.str("cpu", plt::cpu_features().brand);
  ctx.rec.str("runtime", plt::runtime_name(plt::runtime()));
  ctx.rec.num("threads", plt::max_threads());
  ctx.rec.num("partitions", plt::pool_partitions());
  ctx.rec.num("peak_f32_gflops_per_core", p.f32_gflops);
  ctx.rec.num("peak_bf16_gflops_per_core", p.bf16_gflops);
  ctx.rec.num("mem_bandwidth_gbps", p.mem_gbps);
}

// Empty-body nest on the full pool team: the fixed cost every parallel
// loop pays before any work (what the single-token decode path is made of).
void probe_parlooper_layers(Context& ctx) {
  std::vector<plt::parlooper::LoopSpecs> loops = {
      plt::parlooper::LoopSpecs{0, plt::max_threads(), 1, {}}};
  plt::parlooper::LoopNest nest(loops, "A",
                                plt::parlooper::Backend::kInterpreter);
  const plt::parlooper::BodyFn body = [](const std::int64_t*) {};
  const int batch = 2000;
  const double s =
      median_call_seconds([&] { for (int i = 0; i < batch; ++i) nest(body); },
                          15, 1);
  ctx.add_layer("parlooper.nest_dispatch_ns", s / batch * 1e9, "ns");
}

}  // namespace pb
