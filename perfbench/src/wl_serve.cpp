// Workload `serve`: the mixed MLP, BERT and LLM serving sessions behind
// net::Server on loopback, driven by net::Client from this process with no
// more client threads than cores. The models are tiny (the bench_net mix),
// so the scheduler, the wire and pool region dispatch do the work.
//
//   phase 1  closed loop: one connection per core, kDepth requests pipelined
//            on each; measures capacity and forms full batches.
//   phase 2  open loop: a seeded Poisson schedule at kRate requests/s (below
//            the lowest phase-1 capacity seen on a 4-core host), split over
//            cores/2 connections, each with a sender and a receiver thread.
//            Latency is timed from each request's due time; batches form
//            under-filled.
//
// LLM requests are latency class, MLP and BERT throughput class. Requests go
// out in whole rounds of one request per model.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/threading.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serving/model_registry.hpp"
#include "serving/scheduler.hpp"
#include "serving/session.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

namespace sv = plt::serving;

constexpr int kModels = 3;
constexpr int kInputs = 16;     // seeded inputs per model
constexpr int kDepth = 4;       // phase-1 pipeline depth per connection
constexpr double kRate = 1000;  // phase-2 arrival rate, requests/s
// Phase-2 generator lateness bounds; a run past either is invalid.
constexpr double kMaxLateP50Ms = 1.0;
constexpr double kMaxLateMaxMs = 100.0;

int client_threads() { return std::max(1, static_cast<int>(std::thread::hardware_concurrency())); }

struct Stack {
  sv::ModelRegistry registry;
  std::vector<std::shared_ptr<sv::Session>> sessions;
  std::vector<sv::RequestClass> cls;
  std::vector<std::vector<std::vector<float>>> inputs;  // [model][k]

  explicit Stack(std::uint64_t seed) {
    const int lanes = sv::SchedulerConfig::from_env().max_batch;
    sv::MlpServeConfig mlp;
    mlp.features = 16;
    mlp.layers = 8;
    mlp.tokens = 8;
    mlp.bm = mlp.bn = mlp.bk = 8;
    registry.add(sv::make_mlp_session("mlp", mlp, lanes, seed + 101));
    plt::dl::BertConfig bert;
    bert.hidden = 16;
    bert.heads = 2;
    bert.intermediate = 32;
    bert.layers = 1;
    bert.seq_len = 8;
    bert.bm = bert.bn = bert.bk = 8;
    registry.add(sv::make_bert_session("bert", bert, lanes, seed + 102));
    plt::dl::LlmConfig llm;
    llm.hidden = 16;
    llm.heads = 2;
    llm.layers = 2;
    llm.ffn = 32;
    llm.vocab = 128;
    llm.max_seq = 32;
    llm.bm = llm.bn = llm.bk = 8;
    registry.add(sv::make_llm_session("llm", llm, /*prompt=*/4, /*gen=*/16,
                                      lanes, seed + 103));
    sessions = registry.sessions();
    plt::Xoshiro256 rng(seed * 17 + 1);
    for (const auto& s : sessions) {
      cls.push_back(s->name() == "llm" ? sv::RequestClass::kLatency
                                       : sv::RequestClass::kThroughput);
      std::vector<std::vector<float>> in(kInputs);
      for (auto& v : in) {
        v.resize(static_cast<std::size_t>(s->input_elems()));
        plt::fill_uniform(v.data(), v.size(), rng, -1.0f, 1.0f);
      }
      inputs.push_back(std::move(in));
    }
  }
};

// One planned request: which model, which input, when it is due.
struct Planned {
  int model = 0;
  int input = 0;
  double due_s = 0.0;  // offset from the phase start (open loop only)
};

// Whole rounds of one request per model, seeded order and inputs.
std::vector<Planned> plan_rounds(std::uint64_t seed, std::size_t rounds) {
  plt::Xoshiro256 rng(seed);
  std::vector<Planned> out;
  for (std::size_t r = 0; r < rounds; ++r) {
    int order[kModels] = {0, 1, 2};
    for (int i = kModels - 1; i > 0; --i)
      std::swap(order[i], order[rng.bounded(static_cast<std::uint64_t>(i + 1))]);
    for (int m : order)
      out.push_back(Planned{m, static_cast<int>(rng.bounded(kInputs)), 0.0});
  }
  return out;
}

// First OK payload per (model, input) seen by one client thread, and how
// many later payloads differed from it. The first copies are compared with
// sequential Session::run references after the phases.
struct Payloads {
  std::vector<std::vector<float>> first =
      std::vector<std::vector<float>>(kModels * kInputs);
  std::uint64_t mismatches = 0;
  void see(int model, int input, const std::vector<float>& p) {
    auto& f = first[static_cast<std::size_t>(model * kInputs + input)];
    if (f.empty()) {
      f = p;
    } else if (f.size() != p.size() ||
               std::memcmp(f.data(), p.data(), p.size() * sizeof(float)) != 0) {
      ++mismatches;
    }
  }
};

plt::net::RequestFrame frame(const Stack& st, const Planned& p,
                             std::uint64_t id, std::uint64_t tenant) {
  plt::net::RequestFrame f;
  f.request_id = id;
  f.tenant_id = tenant;  // the server de-duplicates in-flight ids per tenant
  f.cls = static_cast<std::uint16_t>(st.cls[static_cast<std::size_t>(p.model)]);
  f.name = st.sessions[static_cast<std::size_t>(p.model)]->name();
  f.payload = st.inputs[static_cast<std::size_t>(p.model)]
                       [static_cast<std::size_t>(p.input)];
  return f;
}

struct PhaseResult {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> latency_ms;
  std::vector<double> late_ms;       // open loop: send time - due time
  std::vector<std::int64_t> done_ns;  // closed loop: OK completion times
  std::vector<double> window_rates;   // closed loop: OK requests/s per window
};

constexpr double kWindowS = 0.1;  // closed-loop throughput window

// Default client, except that a receive waiting 10 s fails the connection
// instead of hanging the run (no retries: every request is sent once).
plt::net::ClientConfig client_config() {
  plt::net::ClientConfig c;
  c.timeout_usecs = 10000000;
  return c;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Phase 1: closed loop, kDepth in flight per connection until `seconds`
// have passed (checked at round boundaries), then drain.
PhaseResult closed_loop(Context& ctx, const Stack& st, int port, double seconds,
                        bool traced, std::vector<Payloads>* seen,
                        std::uint64_t seed) {
  const int conns = client_threads();
  std::vector<PhaseResult> per(static_cast<std::size_t>(conns));
  std::vector<Trace::Lane*> lanes(static_cast<std::size_t>(conns), nullptr);
  if (traced)
    for (int c = 0; c < conns; ++c) lanes[static_cast<std::size_t>(c)] = ctx.trace.lane(c);
  seen->resize(seen->size() + static_cast<std::size_t>(conns));
  Payloads* pay = &(*seen)[seen->size() - static_cast<std::size_t>(conns)];
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = now_ns();
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& r = per[static_cast<std::size_t>(c)];
      Trace::Lane* lane = lanes[static_cast<std::size_t>(c)];
      plt::net::Client client(client_config());
      if (!client.connect("127.0.0.1", port).ok()) {
        r.attempted = r.failed = 1;
        return;
      }
      plt::Xoshiro256 rng(seed * 1009 + static_cast<std::uint64_t>(c));
      std::vector<Planned> plan;
      std::vector<std::int64_t> sent_ns, send_span;
      std::size_t next = 0, received = 0;
      bool more = true;
      const auto send_next = [&] {
        if (next == plan.size()) {  // plan one more round, or stop
          if (seconds_since(t0) >= seconds) {
            more = false;
            return true;
          }
          const auto round = plan_rounds(rng.next_u64(), 1);
          plan.insert(plan.end(), round.begin(), round.end());
        }
        sent_ns.push_back(now_ns());
        const bool ok = client.send_request(frame(st, plan[next], next, 1 + c)).ok();
        if (lane)
          send_span.push_back(lane->record("net.Client::send_request",
                                           sent_ns.back(), now_ns(), -1, next));
        ++next;
        return ok;
      };
      bool ok = true;
      for (int i = 0; i < kDepth && ok && more; ++i) ok = send_next();
      plt::net::ResponseFrame resp;
      while (ok && received < next) {
        const std::int64_t t_recv = now_ns();
        if (!client.recv_response(&resp).ok()) break;
        const std::int64_t t_done = now_ns();
        const std::size_t id = static_cast<std::size_t>(resp.request_id);
        ++received;
        if (id >= next || resp.code != plt::net::WireCode::kOk) {
          ++r.failed;
        } else {
          r.latency_ms.push_back(static_cast<double>(t_done - sent_ns[id]) / 1e6);
          r.done_ns.push_back(t_done);
          pay[c].see(plan[id].model, plan[id].input, resp.payload);
          if (lane) {
            const std::int64_t root =
                lane->record("serve.request", sent_ns[id], t_done, -1, id);
            lane->record("net.Client::recv_response", t_recv, t_done, root, id);
            lane->at(send_span[id]).parent = root;
          }
        }
        if (more && next - received < kDepth) ok = send_next();
      }
      r.attempted = next;
      r.failed += next - received;
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult all;
  // Completions per window over the full windows before the stop time (the
  // drain after it runs below the offered load).
  const std::size_t windows = static_cast<std::size_t>(seconds / kWindowS);
  std::vector<std::uint64_t> counts(windows, 0);
  for (auto& r : per) {
    all.attempted += r.attempted;
    all.failed += r.failed;
    all.latency_ms.insert(all.latency_ms.end(), r.latency_ms.begin(), r.latency_ms.end());
    for (std::int64_t t : r.done_ns) {
      const auto w = static_cast<std::size_t>(static_cast<double>(t - t0_ns) / 1e9 / kWindowS);
      if (w < windows) ++counts[w];
    }
  }
  for (std::uint64_t n : counts) all.window_rates.push_back(static_cast<double>(n) / kWindowS);
  return all;
}

// Seeded Poisson schedule of whole rounds covering `seconds` at `rate`.
std::vector<Planned> poisson_plan(std::uint64_t seed, double rate,
                                  double seconds) {
  const std::size_t rounds = static_cast<std::size_t>(
      std::ceil(rate * seconds / kModels));
  std::vector<Planned> plan = plan_rounds(seed, rounds);
  plt::Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ull);
  double t = 0.0;
  for (auto& p : plan) {
    t += -std::log(1.0 - rng.next_double()) / rate;
    p.due_s = t;
  }
  return plan;
}

// Phase 2: open loop over the wire; each connection has its own Poisson
// schedule at rate / connections, a sender and a receiver thread. The two
// threads share only the Client's socket: send_request and recv_response
// touch disjoint state while the connection is healthy.
PhaseResult open_loop_wire(Context& ctx, const Stack& st, int port,
                           double seconds, bool traced,
                           std::vector<Payloads>* seen, std::uint64_t seed) {
  const int conns = std::max(1, client_threads() / 2);
  std::vector<std::vector<Planned>> plans;
  for (int c = 0; c < conns; ++c)
    plans.push_back(poisson_plan(seed * 7 + static_cast<std::uint64_t>(c),
                                 kRate / conns, seconds));
  std::vector<PhaseResult> per(static_cast<std::size_t>(conns));
  std::vector<std::vector<double>> late(static_cast<std::size_t>(conns));
  std::vector<std::unique_ptr<plt::net::Client>> clients;
  for (int c = 0; c < conns; ++c) {
    clients.push_back(std::make_unique<plt::net::Client>(client_config()));
    if (!clients.back()->connect("127.0.0.1", port).ok()) {
      ctx.check(false, "phase-2 client connects");
      return PhaseResult{};
    }
  }
  seen->resize(seen->size() + static_cast<std::size_t>(conns));
  Payloads* pay = &(*seen)[seen->size() - static_cast<std::size_t>(conns)];
  std::vector<Trace::Lane*> send_lanes(static_cast<std::size_t>(conns), nullptr),
      recv_lanes(static_cast<std::size_t>(conns), nullptr);
  if (traced)
    for (int c = 0; c < conns; ++c) {
      send_lanes[static_cast<std::size_t>(c)] = ctx.trace.lane(2 * c);
      recv_lanes[static_cast<std::size_t>(c)] = ctx.trace.lane(2 * c + 1);
    }
  const auto t0 = Clock::now() + std::chrono::milliseconds(5);
  const std::int64_t t0_ns = now_ns() + 5000000;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    const std::size_t ci = static_cast<std::size_t>(c);
    threads.emplace_back([&, ci] {
      plt::net::Client& client = *clients[ci];
      Trace::Lane* lane = send_lanes[ci];
      for (std::size_t i = 0; i < plans[ci].size(); ++i) {
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(plans[ci][i].due_s));
        std::this_thread::sleep_until(due);
        late[ci].push_back(ms_between(due, Clock::now()));
        Scope s(lane, "net.Client::send_request", -1, i);
        if (!client.send_request(frame(st, plans[ci][i], i, 1000 + ci)).ok()) break;
      }
    });
    threads.emplace_back([&, ci] {
      plt::net::Client& client = *clients[ci];
      PhaseResult& r = per[ci];
      Trace::Lane* lane = recv_lanes[ci];
      plt::net::ResponseFrame resp;
      std::size_t received = 0;
      while (received < plans[ci].size()) {
        const std::int64_t t_recv = lane ? now_ns() : 0;
        if (!client.recv_response(&resp).ok()) break;
        const auto now = Clock::now();
        ++received;
        const std::size_t id = static_cast<std::size_t>(resp.request_id);
        if (id >= plans[ci].size() || resp.code != plt::net::WireCode::kOk) {
          ++r.failed;
          continue;
        }
        const Planned& p = plans[ci][id];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(p.due_s));
        r.latency_ms.push_back(ms_between(due, now));
        pay[ci].see(p.model, p.input, resp.payload);
        if (lane) {
          const std::int64_t root = lane->record(
              "serve.request", t0_ns + static_cast<std::int64_t>(p.due_s * 1e9),
              now_ns(), -1, id);
          lane->record("net.Client::recv_response", t_recv, now_ns(), root, id);
        }
      }
      r.attempted = plans[ci].size();
      r.failed += plans[ci].size() - received;
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult all;
  for (std::size_t c = 0; c < per.size(); ++c) {
    all.attempted += per[c].attempted;
    all.failed += per[c].failed;
    all.latency_ms.insert(all.latency_ms.end(), per[c].latency_ms.begin(),
                          per[c].latency_ms.end());
    all.late_ms.insert(all.late_ms.end(), late[c].begin(), late[c].end());
  }
  return all;
}

// Every first-seen payload equals a sequential Session::run of its input.
void check_payloads(Context& ctx, Stack& st, const std::vector<Payloads>& seen) {
  std::uint64_t mismatches = 0, compared = 0;
  for (const auto& p : seen) mismatches += p.mismatches;
  for (int m = 0; m < kModels; ++m) {
    auto& s = *st.sessions[static_cast<std::size_t>(m)];
    for (int k = 0; k < kInputs; ++k) {
      std::vector<float> ref(static_cast<std::size_t>(s.output_elems()));
      bool have = false;
      for (const auto& p : seen) {
        const auto& f = p.first[static_cast<std::size_t>(m * kInputs + k)];
        if (f.empty()) continue;
        if (!have) {
          s.run(0, st.inputs[static_cast<std::size_t>(m)][static_cast<std::size_t>(k)].data(),
                ref.data());
          have = true;
        }
        ++compared;
        if (f.size() != ref.size() ||
            std::memcmp(f.data(), ref.data(), ref.size() * sizeof(float)) != 0)
          ++mismatches;
      }
    }
  }
  ctx.rec.num("payload_mismatches", static_cast<double>(mismatches));
  ctx.check(mismatches == 0 && compared > 0,
            "every OK wire payload == sequential Session::run");
}

void check_accounting(Context& ctx, const sv::RequestScheduler& sched) {
  const auto c = sched.counters();
  ctx.rec.raw("serving_counters",
              "{\"submitted\": " + std::to_string(c.submitted) +
                  ", \"completed\": " + std::to_string(c.completed) +
                  ", \"failed\": " + std::to_string(c.failed) +
                  ", \"expired\": " + std::to_string(c.expired) +
                  ", \"shed\": " + std::to_string(c.shed) +
                  ", \"rejected\": " + std::to_string(c.rejected) + "}");
  ctx.check(c.submitted == c.completed + c.failed + c.expired + c.shed + c.rejected,
            "submitted == completed + failed + expired + shed + rejected");
}

// Phase-2 generator honesty: how late requests went out.
void check_lateness(Context& ctx, const PhaseResult& r, const char* key) {
  const double p50 = quantile(r.late_ms, 0.5);
  const double mx = r.late_ms.empty()
                        ? 0.0
                        : *std::max_element(r.late_ms.begin(), r.late_ms.end());
  ctx.rec.num(std::string(key) + "_late_p50_ms", p50);
  ctx.rec.num(std::string(key) + "_late_max_ms", mx);
  ctx.check(p50 <= kMaxLateP50Ms && mx <= kMaxLateMaxMs,
            std::string(key) + " generator lateness within bounds");
}

struct Served {
  Stack stack;
  sv::RequestScheduler scheduler;
  plt::net::Server server;
  explicit Served(std::uint64_t seed)
      : stack(seed),
        scheduler(sv::SchedulerConfig::from_env()),
        server(stack.registry, scheduler) {}
};

}  // namespace

void run_serve(Context& ctx) {
  Served s(ctx.args.seed);
  const plt::Status up = s.server.start();
  if (!up.ok()) {
    ctx.check(false, "server start: " + up.to_string());
    return;
  }
  if (ctx.setup_done()) {
    s.server.stop();
    return;
  }

  const double half = ctx.args.trace ? 0.5 : 1.0;
  const double t1 = 0.4 * ctx.args.seconds * half;
  const double t2 = 0.6 * ctx.args.seconds * half;
  std::vector<Payloads> seen;
  const PhaseResult p1 = closed_loop(ctx, s.stack, s.server.port(), t1, false,
                                     &seen, ctx.args.seed);
  const PhaseResult p2 = open_loop_wire(ctx, s.stack, s.server.port(), t2,
                                        false, &seen, ctx.args.seed);
  ctx.phases.push_back(Phase{"closed_loop", p1.attempted, p1.failed});
  ctx.phases.push_back(Phase{"open_loop", p2.attempted, p2.failed});
  const double capacity = median(p1.window_rates);
  std::printf("serve: phase 1 %.1f req/s (%llu requests); phase 2 at %.0f "
              "req/s: p50 %.1f us, p99 %.1f us\n",
              capacity, static_cast<unsigned long long>(p1.attempted), kRate,
              quantile(p2.latency_ms, 0.5) * 1e3,
              quantile(p2.latency_ms, 0.99) * 1e3);
  ctx.rec.num("serve_req_per_s", capacity);
  ctx.rec.num("serve_rt_p50_us", quantile(p2.latency_ms, 0.5) * 1e3);
  ctx.rec.num("serve_rt_p99_us", quantile(p2.latency_ms, 0.99) * 1e3);
  ctx.rec.num("serve_open_loop_rate", kRate);
  add_standard_e2e(ctx, p2.latency_ms, p1.window_rates);
  check_lateness(ctx, p2, "open_loop");

  if (ctx.args.trace) {
    const PhaseResult q1 = closed_loop(ctx, s.stack, s.server.port(), t1, true,
                                       &seen, ctx.args.seed + 1);
    const PhaseResult q2 = open_loop_wire(ctx, s.stack, s.server.port(), t2,
                                          true, &seen, ctx.args.seed + 1);
    ctx.phases.push_back(Phase{"closed_traced", q1.attempted, q1.failed});
    ctx.phases.push_back(Phase{"open_traced", q2.attempted, q2.failed});
    summarize_trace(ctx, median(p2.latency_ms), median(q2.latency_ms));
  }
  s.server.stop();
  check_accounting(ctx, s.scheduler);
  check_payloads(ctx, s.stack, seen);
}

// --- per-layer probes --------------------------------------------------------

namespace {

std::vector<sv::ModelStats> stats_delta(const std::vector<sv::ModelStats>& a,
                                        const std::vector<sv::ModelStats>& b) {
  std::vector<sv::ModelStats> d = b;
  for (auto& x : d)
    for (const auto& y : a)
      if (y.model == x.model) {
        x.batches -= y.batches;
        x.batched_requests_sum -= y.batched_requests_sum;
        x.decode_steps -= y.decode_steps;
        x.decode_step_requests_sum -= y.decode_step_requests_sum;
      }
  return d;
}

}  // namespace

void probe_serve_layers(Context& ctx) {
  // Frame codec on an MLP-sized request.
  {
    Stack st(61);
    const auto f = frame(st, Planned{0, 0, 0.0}, 1, 1);
    std::vector<std::uint8_t> bytes;
    const int reps = 5000;
    const double enc = median_call_seconds(
        [&] {
          for (int i = 0; i < reps; ++i) {
            bytes.clear();
            plt::net::encode_request(f, &bytes);
          }
        },
        9, 1);
    plt::net::RequestFrame out;
    std::size_t consumed = 0;
    std::string err;
    const double dec = median_call_seconds(
        [&] {
          for (int i = 0; i < reps; ++i)
            (void)plt::net::decode_request(bytes.data(), bytes.size(), &out,
                                           &consumed, &err);
        },
        9, 1);
    ctx.add_layer("net.encode_ns", enc / reps * 1e9, "ns");
    ctx.add_layer("net.decode_ns", dec / reps * 1e9, "ns");
  }

  Served s(62);
  if (!s.server.start().ok()) {
    ctx.check(false, "probe server start");
    return;
  }
  std::vector<Payloads> seen;
  const auto before1 = s.scheduler.stats();
  (void)closed_loop(ctx, s.stack, s.server.port(), 1.5, false, &seen, 63);
  const auto d1 = stats_delta(before1, s.scheduler.stats());
  std::uint64_t batches = 0, batched = 0, steps = 0, step_reqs = 0;
  for (const auto& m : d1) {
    batches += m.batches;
    batched += m.batched_requests_sum;
    steps += m.decode_steps;
    step_reqs += m.decode_step_requests_sum;
  }
  ctx.add_layer("serving.mean_batch_saturated",
                batches ? static_cast<double>(batched) / batches : 0.0, "requests");
  ctx.add_layer("serving.decode_occupancy",
                steps ? static_cast<double>(step_reqs) / steps : 0.0, "requests");

  const auto pool0 = plt::ThreadPool::instance().stats();
  const PhaseResult w = open_loop_wire(ctx, s.stack, s.server.port(), 2.0,
                                       false, &seen, 64);
  const auto pool1 = plt::ThreadPool::instance().stats();
  ctx.add_layer("pool.serial_degradations_per_request",
                static_cast<double>(pool1.serial_degradations - pool0.serial_degradations) /
                    static_cast<double>(std::max<std::uint64_t>(1, w.attempted)),
                "count");
  s.server.stop();

  // The same mix and rate submitted in process: submit() until the handle
  // is done, timed from each request's due time.
  const std::vector<Planned> plan = poisson_plan(64, kRate, 2.0);
  std::vector<std::vector<float>> outs(plan.size());
  // on_done runs after the handle turns done, so the slot is atomic and
  // read once it is set.
  std::vector<std::atomic<std::int64_t>> done_ns(plan.size());
  std::vector<double> submit_ns;
  std::vector<sv::RequestHandle> handles;
  submit_ns.reserve(plan.size());
  handles.reserve(plan.size());
  const std::int64_t t0 = now_ns() + 5000000;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    outs[i].resize(static_cast<std::size_t>(
        s.stack.sessions[static_cast<std::size_t>(p.model)]->output_elems()));
    const std::int64_t due = t0 + static_cast<std::int64_t>(p.due_s * 1e9);
    // Sleep like the wire senders do: a spinning generator would take a core
    // from the pool and bias the comparison with the wire phase.
    const std::int64_t left = due - now_ns();
    if (left > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(left));
    sv::Request req;
    req.in = s.stack.inputs[static_cast<std::size_t>(p.model)]
                           [static_cast<std::size_t>(p.input)].data();
    req.out = outs[i].data();
    req.cls = s.stack.cls[static_cast<std::size_t>(p.model)];
    std::atomic<std::int64_t>* slot = &done_ns[i];
    slot->store(0);
    req.on_done = [slot](const plt::Status&) { slot->store(now_ns()); };
    const std::int64_t a = now_ns();
    handles.push_back(s.scheduler.submit(s.stack.sessions[static_cast<std::size_t>(p.model)], req));
    submit_ns.push_back(static_cast<double>(now_ns() - a));
  }
  std::vector<double> lat_us;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    handles[i].wait();
    while (done_ns[i].load() == 0) std::this_thread::yield();
    if (handles[i].status().ok())
      lat_us.push_back(static_cast<double>(
          done_ns[i].load() - (t0 + static_cast<std::int64_t>(plan[i].due_s * 1e9))) / 1e3);
  }
  ctx.check(lat_us.size() == plan.size(), "in-process probe requests all OK");
  const double p50 = quantile(lat_us, 0.5);
  ctx.add_layer("serving.latency_p50_us", p50, "us");
  ctx.add_layer("serving.latency_p99_us", quantile(lat_us, 0.99), "us");
  ctx.add_layer("serving.submit_ns", median(submit_ns), "ns");
  ctx.add_layer("net.overhead_p50_us", quantile(w.latency_ms, 0.5) * 1e3 - p50, "us");
}

}  // namespace pb
