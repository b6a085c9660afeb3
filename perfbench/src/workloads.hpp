// Entry points of the four workloads and the per-layer probes. Each
// workload: builds its inputs from the seed, sets up (Context::setup_done),
// measures for --seconds, checks outputs; the traced run adds the layer
// probes (each file probes the layers its workload exercises).
#pragma once

#include "harness.hpp"

namespace pb {

void run_gemm(Context& ctx);
void run_bert_train(Context& ctx);
void run_llm_infer(Context& ctx);
void run_serve(Context& ctx);

// Per-layer probes, run in every traced run so each traced run reports the
// full per-layer metric set.
void probe_gemm_layers(Context& ctx);    // tpp.brgemm_*, kernels.*
void probe_bert_layers(Context& ctx);    // tpp.eltwise, dl.bert_*, dl.fc_backward, dl.attention_backward
void probe_llm_layers(Context& ctx);     // tpp.gemv, dl.prefill/decode/fc_tokens1, pool.regions_per_token
void probe_serve_layers(Context& ctx);   // serving.*, net.*, pool.serial_degradations_per_request
void probe_parlooper_layers(Context& ctx);  // parlooper.nest_dispatch_ns

// Machine probe: FMA peak of the ISA that dispatched (one core) and
// sustained memory bandwidth (all pool threads). Recorded in every run.
struct MachinePeaks {
  double f32_gflops = 0.0;   // one core
  double bf16_gflops = 0.0;  // one core
  double mem_gbps = 0.0;     // whole pool
};
const MachinePeaks& machine_peaks();
void record_machine(Context& ctx);

}  // namespace pb
