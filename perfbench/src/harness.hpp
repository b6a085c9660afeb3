// Shared plumbing of the benchmark: command line, timing, order statistics,
// the in-memory span trace, the run record and the result line.
//
// Everything here lives outside the program under test. Spans are recorded
// by the benchmark around its own calls into the plt modules; the program
// itself is never instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

// Nanoseconds since the first call (made at the top of main), so span
// timestamps and set-up time share one origin.
std::int64_t now_ns();
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".bench_out";
};

// Order statistics with linear interpolation between closest ranks (the
// same rule as Python's statistics.quantiles(..., method="inclusive")).
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Median wall time of `reps` calls of fn after `warm` untimed calls.
double median_call_seconds(const std::function<void()>& fn, int reps,
                           int warm = 1);

// ---------------------------------------------------------------------------
// Trace: spans kept in memory, one lane per recording thread (lanes are
// created before the threads start, so recording takes no lock). A span id is
// (lane << 32 | index); parent -1 marks a root.
class Trace {
 public:
  struct Span {
    const char* name = "";  // "<layer>.<call>", a string literal
    std::int64_t t0 = 0, t1 = 0;
    std::int64_t parent = -1;
    std::uint64_t req = 0;  // request id shared by the spans of one request
  };
  struct Lane {
    int tid = 0;
    std::vector<Span> spans;
    std::int64_t record(const char* name, std::int64_t t0, std::int64_t t1,
                        std::int64_t parent = -1, std::uint64_t req = 0) {
      spans.push_back(Span{name, t0, t1, parent, req});
      return (static_cast<std::int64_t>(tid) << 32) |
             static_cast<std::int64_t>(spans.size() - 1);
    }
    Span& at(std::int64_t id) {
      return spans[static_cast<std::size_t>(id & 0xffffffff)];
    }
  };

  // Returns lane i, creating lanes up to i. Call before threads start.
  Lane* lane(int i);
  std::size_t span_count() const;

  // Chrome trace-event JSON ("X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

  // Self time per layer (the name prefix before '.'): a span's duration
  // minus the part its children cover. Also returns the summed root time.
  struct LayerTime {
    std::string layer;
    double self_s = 0.0;
    std::uint64_t spans = 0;
  };
  std::vector<LayerTime> layer_self_times(double* root_s) const;

 private:
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// RAII span on one lane; a null lane records nothing (untraced runs).
class Scope {
 public:
  Scope(Trace::Lane* lane, const char* name, std::int64_t parent = -1,
        std::uint64_t req = 0)
      : lane_(lane) {
    if (lane_ != nullptr) id_ = lane_->record(name, now_ns(), 0, parent, req);
  }
  ~Scope() {
    if (lane_ != nullptr) lane_->at(id_).t1 = now_ns();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Trace::Lane* lane_;
  std::int64_t id_ = -1;
};

// ---------------------------------------------------------------------------
// Run record: key -> pre-rendered JSON value, printed as one line before the
// result line.
class Record {
 public:
  void num(const std::string& key, double v);
  void str(const std::string& key, const std::string& v);
  void raw(const std::string& key, const std::string& json);
  std::string json() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Attempted/failed operations of one phase of a workload.
struct Phase {
  std::string name;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// State one workload run fills in.
struct Context {
  Args args;
  Clock::time_point t_start;  // top of main
  double setup_s = 0.0;
  std::uint64_t setup_plan_misses = 0;  // plan-cache misses during set-up
  Trace trace;
  Record rec;
  std::vector<Phase> phases;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> check_failures;

  // Marks the end of set-up (weights packed, plans built, sessions warm,
  // server listening); returns true when the run should stop here.
  bool setup_done();
  // Lane 0 of the trace in traced runs, null otherwise.
  Trace::Lane* lane0() { return args.trace ? trace.lane(0) : nullptr; }
  void check(bool ok, const std::string& what);
  void add_e2e(const std::string& name, double v, const std::string& unit) {
    e2e.push_back(Metric{name, v, unit});
  }
  void add_layer(const std::string& name, double v, const std::string& unit) {
    layers.push_back(Metric{name, v, unit});
  }
};

// End-to-end metrics every workload reports (see BENCHMARK.json): the
// latency samples are per operation in milliseconds, in completion order;
// throughput_per_s is the median over the run's rounds (or windows) of items
// completed per second, so a burst of interference from outside the process
// moves it only when it covers most of the run. The tail goes to the run
// record: latency_p90_ms (the median over stretches of the run of each
// stretch's p90) and the whole-run p90 and p99.
void add_standard_e2e(Context& ctx, const std::vector<double>& latency_ms,
                      const std::vector<double>& round_rates);

// Traced-run summary: the layer self-time breakdown of the traced pass, the
// share of span time each layer covers and the tracing overhead (the
// difference between the untraced and traced passes of the same run).
void summarize_trace(Context& ctx, double untraced_op_ms, double traced_op_ms);

// Peak resident set of this process so far, MiB.
double peak_rss_mib();

// Fails (returns false, message on stderr) when a PLT_* variable is set: the
// program reads those at start-up, so one would change what is measured.
bool environment_is_clean();

}  // namespace pb
