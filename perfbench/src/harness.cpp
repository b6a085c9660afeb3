#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

#include "parlooper/threaded_loop.hpp"

extern char** environ;

namespace pb {

std::int64_t now_ns() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median_call_seconds(const std::function<void()>& fn, int reps,
                           int warm) {
  for (int i = 0; i < warm; ++i) fn();
  std::vector<double> t;
  t.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median(std::move(t));
}

// --- Trace -----------------------------------------------------------------

Trace::Lane* Trace::lane(int i) {
  while (static_cast<int>(lanes_.size()) <= i) {
    auto l = std::make_unique<Lane>();
    l->tid = static_cast<int>(lanes_.size());
    l->spans.reserve(1 << 16);
    lanes_.push_back(std::move(l));
  }
  return lanes_[static_cast<std::size_t>(i)].get();
}

std::size_t Trace::span_count() const {
  std::size_t n = 0;
  for (const auto& l : lanes_) n += l->spans.size();
  return n;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool Trace::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& l : lanes_) {
    for (std::size_t i = 0; i < l->spans.size(); ++i) {
      const Span& s = l->spans[i];
      const std::int64_t id = (static_cast<std::int64_t>(l->tid) << 32) |
                              static_cast<std::int64_t>(i);
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld,\"req\":%llu}}",
                   first ? "" : ",", json_escape(s.name).c_str(),
                   static_cast<int>(std::strcspn(s.name, ".")), s.name, l->tid,
                   static_cast<double>(s.t0) / 1e3,
                   static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<long long>(id),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<Trace::LayerTime> Trace::layer_self_times(double* root_s) const {
  // Children's covered time per parent. Children of one parent are recorded
  // sequentially on one thread, so their durations do not overlap.
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const auto& l : lanes_)
    for (const Span& s : l->spans)
      if (s.parent >= 0) child_ns[s.parent] += s.t1 - s.t0;
  std::map<std::string, LayerTime> by_layer;
  double roots = 0.0;
  for (const auto& l : lanes_) {
    for (std::size_t i = 0; i < l->spans.size(); ++i) {
      const Span& s = l->spans[i];
      const std::int64_t id = (static_cast<std::int64_t>(l->tid) << 32) |
                              static_cast<std::int64_t>(i);
      const auto it = child_ns.find(id);
      const std::int64_t covered = it == child_ns.end() ? 0 : it->second;
      const std::string layer(s.name, std::strcspn(s.name, "."));
      LayerTime& lt = by_layer[layer];
      lt.layer = layer;
      lt.self_s += static_cast<double>(s.t1 - s.t0 - covered) / 1e9;
      ++lt.spans;
      if (s.parent < 0) roots += static_cast<double>(s.t1 - s.t0) / 1e9;
    }
  }
  if (root_s != nullptr) *root_s = roots;
  std::vector<LayerTime> out;
  for (auto& kv : by_layer) out.push_back(kv.second);
  return out;
}

// --- Record / result ---------------------------------------------------------

void Record::num(const std::string& key, double v) { raw(key, fmt_num(v)); }
void Record::str(const std::string& key, const std::string& v) {
  raw(key, "\"" + json_escape(v) + "\"");
}
void Record::raw(const std::string& key, const std::string& json) {
  for (auto& kv : items_) {
    if (kv.first == key) {
      kv.second = json;
      return;
    }
  }
  items_.emplace_back(key, json);
}
std::string Record::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + json_escape(items_[i].first) + "\": " + items_[i].second;
  }
  return out + "}";
}

bool Context::setup_done() {
  setup_s = seconds_since(t_start);
  setup_plan_misses = plt::parlooper::plan_cache_stats().misses;
  return args.setup_only;
}

void Context::check(bool ok, const std::string& what) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "MISMATCH");
  if (!ok) check_failures.push_back(what);
}

void add_standard_e2e(Context& ctx, const std::vector<double>& latency_ms,
                      const std::vector<double>& round_rates) {
  // p90 per chunk of consecutive samples (at most 10 chunks of at least 20),
  // then the median over chunks: the tail of a typical stretch of the run.
  const std::size_t n = latency_ms.size();
  const std::size_t chunks = std::max<std::size_t>(1, std::min<std::size_t>(10, n / 20));
  std::vector<double> chunk_p90;
  for (std::size_t c = 0; c < chunks; ++c)
    chunk_p90.push_back(quantile(
        std::vector<double>(latency_ms.begin() + static_cast<std::ptrdiff_t>(n * c / chunks),
                            latency_ms.begin() + static_cast<std::ptrdiff_t>(n * (c + 1) / chunks)),
        0.9));
  ctx.add_e2e("throughput_per_s", median(round_rates), "1/s");
  ctx.add_e2e("latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  ctx.rec.num("latency_p90_ms", median(chunk_p90));
  ctx.rec.num("latency_samples", static_cast<double>(n));
  ctx.rec.num("latency_p90_whole_run_ms", quantile(latency_ms, 0.90));
  ctx.rec.num("latency_p99_whole_run_ms", quantile(latency_ms, 0.99));
  ctx.rec.num("rate_samples", static_cast<double>(round_rates.size()));
}

void summarize_trace(Context& ctx, double untraced_op_ms,
                     double traced_op_ms) {
  double root_s = 0.0;
  const auto layers = ctx.trace.layer_self_times(&root_s);
  std::printf("traced pass: %zu spans, %.3f s of root-span time\n",
              ctx.trace.span_count(), root_s);
  std::printf("  %-12s %12s %10s %10s\n", "layer", "self_s", "share", "spans");
  std::string breakdown = "{";
  for (const auto& lt : layers) {
    const double share = root_s > 0.0 ? lt.self_s / root_s : 0.0;
    std::printf("  %-12s %12.6f %9.2f%% %10llu\n", lt.layer.c_str(), lt.self_s,
                100.0 * share, static_cast<unsigned long long>(lt.spans));
    if (breakdown.size() > 1) breakdown += ", ";
    breakdown += "\"" + lt.layer + "\": {\"self_s\": " + fmt_num(lt.self_s) +
                 ", \"share\": " + fmt_num(share) + "}";
  }
  ctx.rec.raw("trace_layers", breakdown + "}");
  const double overhead =
      untraced_op_ms > 0.0 ? traced_op_ms / untraced_op_ms - 1.0 : 0.0;
  std::printf("tracing overhead: %.3f ms untraced vs %.3f ms traced per op "
              "(%+.2f%%)\n",
              untraced_op_ms, traced_op_ms, 100.0 * overhead);
  ctx.rec.num("trace_untraced_op_ms", untraced_op_ms);
  ctx.rec.num("trace_traced_op_ms", traced_op_ms);
  ctx.rec.num("trace_overhead_frac", overhead);
  const std::string path =
      ctx.args.out_dir + "/trace_" + ctx.args.workload + ".json";
  const bool ok = ctx.trace.write_chrome_json(path);
  ctx.check(ok, "trace file written: " + path);
  ctx.rec.str("trace_file", path);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool environment_is_clean() {
  bool clean = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "PLT_", 4) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s in the environment "
                   "(PLT_* settings change the program being measured)\n",
                   *e);
      clean = false;
    }
  }
  return clean;
}

}  // namespace pb
