// Benchmark entry point: one process runs one workload.
//
//   plt_perfbench --workload gemm|bert_train|llm_infer|serve --seed N
//                 --seconds S --trace 0|1 [--setup-only] [--out DIR]
//
// Untraced runs print the end-to-end metrics; traced runs record spans,
// write DIR/trace_<workload>.json and print the per-layer metrics. The last
// stdout line is the result object; any output mismatch exits 1.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "parlooper/threaded_loop.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, pb::Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has_v = i + 1 < argc;
    if (k == "--setup-only") {
      a->setup_only = true;
    } else if (k == "--workload" && has_v) {
      a->workload = argv[++i];
    } else if (k == "--seed" && has_v) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has_v) {
      a->seconds = std::strtod(argv[++i], nullptr);
    } else if (k == "--trace" && has_v) {
      a->trace = std::strcmp(argv[++i], "0") != 0;
    } else if (k == "--out" && has_v) {
      a->out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument %s\n",
                   k.c_str());
      return false;
    }
  }
  return a->seconds > 0.0;
}

void print_metrics(const std::vector<pb::Metric>& ms) {
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  pb::now_ns();  // fixes the time origin
  pb::Context ctx;
  ctx.t_start = pb::Clock::now();
  if (!parse(argc, argv, &ctx.args)) return 2;
  if (!pb::environment_is_clean()) return 2;

  void (*run)(pb::Context&) = nullptr;
  if (ctx.args.workload == "gemm") run = pb::run_gemm;
  if (ctx.args.workload == "bert_train") run = pb::run_bert_train;
  if (ctx.args.workload == "llm_infer") run = pb::run_llm_infer;
  if (ctx.args.workload == "serve") run = pb::run_serve;
  if (run == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 ctx.args.workload.c_str());
    return 2;
  }
  if (ctx.args.trace) ::mkdir(ctx.args.out_dir.c_str(), 0755);

  run(ctx);
  if (ctx.args.setup_only) {
    std::printf("setup_s %.9f\n", ctx.setup_s);
    return 0;
  }
  const double rss = pb::peak_rss_mib();  // before the probes below allocate

  if (ctx.args.trace) {
    pb::probe_parlooper_layers(ctx);
    ctx.add_layer("parlooper.plan_cache_misses",
                  static_cast<double>(ctx.setup_plan_misses), "count");
    pb::probe_gemm_layers(ctx);
    pb::probe_bert_layers(ctx);
    pb::probe_llm_layers(ctx);
    pb::probe_serve_layers(ctx);
  }
  pb::record_machine(ctx);
  ctx.rec.str("workload", ctx.args.workload);
  ctx.rec.num("seed", static_cast<double>(ctx.args.seed));
  ctx.rec.num("seconds", ctx.args.seconds);
  ctx.rec.num("setup_plan_cache_misses",
              static_cast<double>(ctx.setup_plan_misses));

  std::uint64_t attempted = 0, failed = 0;
  std::string phases = "{";
  for (const auto& p : ctx.phases) {
    attempted += p.attempted;
    failed += p.failed;
    std::printf("phase %-12s attempted %10llu failed %6llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.failed));
    if (phases.size() > 1) phases += ", ";
    phases += "\"" + p.name + "\": {\"attempted\": " +
              std::to_string(p.attempted) +
              ", \"failed\": " + std::to_string(p.failed) + "}";
  }
  ctx.rec.raw("phases", phases + "}");
  std::printf("run_record %s\n", ctx.rec.json().c_str());

  const bool correct = ctx.check_failures.empty() && attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (ctx.args.trace) {
    print_metrics(ctx.layers);
  } else {
    std::vector<pb::Metric> e2e = ctx.e2e;
    e2e.push_back(pb::Metric{"setup_s", ctx.setup_s, "s"});
    e2e.push_back(pb::Metric{"peak_rss_mib", rss, "MiB"});
    print_metrics(e2e);
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
