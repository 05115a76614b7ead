#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <utility>

#include "graph/generators.hpp"
#include "sim/async_engine.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "support/check.hpp"
#include "support/simd.hpp"

namespace perfbench {
namespace {

using Clock = Trace::Clock;
using mmn::Graph;
namespace scenario = mmn::scenario;
namespace sim = mmn::sim;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

const scenario::Scenario& lookup(const Workload& w) {
  scenario::register_builtin();
  const scenario::Scenario* s = scenario::Registry::instance().find(w.scenario);
  MMN_REQUIRE(s != nullptr, "benchmark workload names an unknown scenario");
  return *s;
}

// ---- wrappers handed to the engines (traced runs only) ---------------------

/// Spans every scheduler pass: one per sync round, one per async phase.
class TracingScheduler final : public sim::Scheduler {
 public:
  TracingScheduler(std::unique_ptr<sim::Scheduler> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  unsigned shards() const override { return inner_->shards(); }
  void for_each_node(NodeId n, NodeFn fn) override {
    const Clock::time_point t0 = Clock::now();
    inner_->for_each_node(n, fn);
    trace_.span("sim.node_phase", t0, Clock::now());
  }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::Scheduler> inner_;
  Trace& trace_;
};

/// Spans every slot resolution and counts the writes offered to it.
class TracingDiscipline final : public sim::ChannelDiscipline {
 public:
  TracingDiscipline(std::unique_ptr<sim::ChannelDiscipline> inner,
                    Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  const char* name() const override { return inner_->name(); }
  void reset(NodeId n) override { inner_->reset(n); }
  sim::SlotObservation slot(std::span<const sim::ChannelWrite> writes,
                            sim::Channel& channel,
                            mmn::Metrics& metrics) override {
    const Clock::time_point t0 = Clock::now();
    sim::SlotObservation obs = inner_->slot(writes, channel, metrics);
    trace_.span("channel.resolve", t0, Clock::now());
    trace_.channel_writes += writes.size();
    return obs;
  }
  std::size_t backlog() const override { return inner_->backlog(); }
  bool defers() const override { return inner_->defers(); }
  void stifle(NodeId v) override { inner_->stifle(v); }

 private:
  std::unique_ptr<sim::ChannelDiscipline> inner_;
  Trace& trace_;
};

/// Counts node-steps and active node-steps (inbox non-empty, sent, or wrote
/// the channel) of a synchronous process.
class TracingProcess final : public sim::Process {
 public:
  TracingProcess(std::unique_ptr<sim::Process> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  void round(sim::NodeContext& ctx) override {
    const bool had_inbox = !ctx.inbox().empty();
    inner_->round(ctx);
    ++trace_.node_steps;
    if (had_inbox || ctx.sent_message() || ctx.wrote_channel()) {
      ++trace_.active_steps;
    }
  }
  bool finished() const override { return inner_->finished(); }
  const sim::Process& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::Process> inner_;
  Trace& trace_;
};

/// Counts handler calls of an asynchronous process.  AsyncContext exposes
/// no sent/wrote probe, so async active steps are derived afterwards as
/// message events plus channel writes.
class TracingAsyncProcess final : public sim::AsyncProcess {
 public:
  TracingAsyncProcess(std::unique_ptr<sim::AsyncProcess> inner, Trace& trace)
      : inner_(std::move(inner)), trace_(trace) {}
  void start(sim::AsyncContext& ctx) override {
    ++trace_.node_steps;
    inner_->start(ctx);
  }
  void on_message(const sim::Received& msg, sim::AsyncContext& ctx) override {
    ++trace_.node_steps;
    ++trace_.msg_events;
    inner_->on_message(msg, ctx);
  }
  void on_slot(const sim::SlotObservation& obs,
               sim::AsyncContext& ctx) override {
    ++trace_.node_steps;
    inner_->on_slot(obs, ctx);
  }
  bool finished() const override { return inner_->finished(); }
  const sim::AsyncProcess& inner() const { return *inner_; }

 private:
  std::unique_ptr<sim::AsyncProcess> inner_;
  Trace& trace_;
};

std::unique_ptr<sim::Scheduler> make_scheduler(Trace* trace) {
  std::unique_ptr<sim::Scheduler> s = std::make_unique<sim::SerialScheduler>();
  if (trace == nullptr) return s;
  return std::make_unique<TracingScheduler>(std::move(s), *trace);
}

std::unique_ptr<sim::ChannelDiscipline> make_discipline(
    const scenario::Scenario& s, std::uint64_t seed, Trace* trace) {
  std::unique_ptr<sim::ChannelDiscipline> d =
      sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed);
  if (trace == nullptr) return d;
  return std::make_unique<TracingDiscipline>(std::move(d), *trace);
}

// ---- set-up ----------------------------------------------------------------

/// Builds the rank windows the ranked run builds, timing each; returns the
/// slowest (ranks build concurrently) and sums their topology bytes.
double build_rank_windows(const scenario::Scenario& s, const Workload& w,
                          std::uint64_t seed, NodeId nominal, Trace* trace,
                          std::size_t* bytes) {
  const NodeId n = mmn::topology_round_n(s.topology, nominal);
  double slowest = 0;
  std::size_t total = 0;
  for (unsigned r = 0; r < w.ranks; ++r) {
    const auto [lo, hi] = sim::Scheduler::shard_range(n, r, w.ranks);
    const Clock::time_point t0 = Clock::now();
    const Graph g = mmn::build_topology_window(
        mmn::TopologySpec{s.topology, n, seed}, mmn::GraphWindow{lo, hi});
    const Clock::time_point t1 = Clock::now();
    if (trace != nullptr) trace->span("graph.build", t0, t1);
    slowest = std::max(slowest, seconds(t0, t1));
    total += g.topology_bytes();
  }
  if (bytes != nullptr) *bytes = total;
  return slowest;
}

// ---- per-mode runs ---------------------------------------------------------

void check_global(const Workload& w, Outcome& out) {
  if (!out.completed) {
    out.failure = "round cap reached";
  } else if (out.digest != oracle_digest(w.oracle, out.realized_n)) {
    out.failure = "digest differs from the oracle fold";
  }
}

void check_load(Outcome& out) {
  if (!out.completed) {
    out.failure = "slot cap reached";
    return;
  }
  for (std::size_t c = 0; c < out.qos.size(); ++c) {
    if (out.qos[c].backlog() != 0) {
      out.failure = std::string("backlog left in class ") +
                    sim::qos_name(static_cast<sim::QosClass>(c));
      return;
    }
  }
  if (out.delivered() != out.metrics.slots_success) {
    out.failure = "delivered packets differ from successful slots";
  }
}

/// Stores the phase times of one engine run, stamped at the start of the
/// graph build, engine construction, run and check and at the end of the
/// check, and records them as spans when the run is traced.
void record_phases(const std::array<Clock::time_point, 5>& t, Trace* trace,
                   Outcome& out) {
  out.graph_build_s = seconds(t[0], t[1]);
  out.construct_s = seconds(t[1], t[2]);
  out.run_s = seconds(t[2], t[3]);
  out.check_s = seconds(t[3], t[4]);
  if (trace == nullptr) return;
  trace->span("graph.build", t[0], t[1]);
  trace->span("sim.construct", t[1], t[2]);
  trace->span("sim.run", t[2], t[3]);
  trace->span("scenario.check", t[3], t[4]);
}

void run_sync(const scenario::Scenario& s, const Workload& w,
              const RunOptions& o, NodeId n, Outcome& out) {
  Trace* trace = o.trace;
  const Clock::time_point t0 = Clock::now();
  const Graph g = scenario::make_scenario_graph(s, n, o.seed);
  const Clock::time_point t1 = Clock::now();
  sim::ProcessFactory factory = s.make_factory(g);
  if (trace != nullptr) {
    factory = [inner = std::move(factory), trace](const sim::LocalView& v)
        -> std::unique_ptr<sim::Process> {
      return std::make_unique<TracingProcess>(inner(v), *trace);
    };
  }
  sim::Engine eng(g, factory, o.seed, make_scheduler(trace),
                  make_discipline(s, o.seed, trace));
  const Clock::time_point t2 = Clock::now();
  out.completed = eng.step(s.max_rounds);
  const Clock::time_point t3 = Clock::now();
  out.metrics = eng.metrics();
  out.realized_n = g.num_nodes();
  out.topology_bytes = g.topology_bytes();
  out.digest = s.digest(scenario::NodeResults{
      g.num_nodes(), [&eng, trace](NodeId v) -> const sim::Process& {
        if (trace == nullptr) return eng.process(v);
        return static_cast<const TracingProcess&>(eng.process(v)).inner();
      }});
  if (o.corrupt) out.digest ^= 1;
  check_global(w, out);
  record_phases({t0, t1, t2, t3, Clock::now()}, trace, out);
}

void run_async_load(const scenario::Scenario& s, const RunOptions& o, NodeId n,
                    Outcome& out) {
  Trace* trace = o.trace;
  const Clock::time_point t0 = Clock::now();
  const Graph g = scenario::make_scenario_graph(s, n, o.seed);
  const Clock::time_point t1 = Clock::now();
  sim::AsyncProcessFactory factory = s.make_async_load_factory(g, s.default_load);
  if (trace != nullptr) {
    factory = [inner = std::move(factory), trace](const sim::LocalView& v)
        -> std::unique_ptr<sim::AsyncProcess> {
      return std::make_unique<TracingAsyncProcess>(inner(v), *trace);
    };
  }
  sim::AsyncEngine eng(g, factory, o.seed, s.async_max_delay_slots,
                       make_scheduler(trace), make_discipline(s, o.seed, trace));
  const Clock::time_point t2 = Clock::now();
  out.metrics = eng.run(s.max_rounds);
  const Clock::time_point t3 = Clock::now();
  out.completed = eng.status() == sim::RunStatus::kCompleted;
  out.realized_n = g.num_nodes();
  out.topology_bytes = g.topology_bytes();
  for (std::size_t c = 0; c < out.qos.size(); ++c) {
    out.qos[c] = eng.latency().summary(static_cast<sim::QosClass>(c));
  }
  out.digest = s.digest(scenario::NodeResults{
      g.num_nodes(), nullptr,
      [&eng, trace](NodeId v) -> const sim::AsyncProcess& {
        if (trace == nullptr) return eng.process(v);
        return static_cast<const TracingAsyncProcess&>(eng.process(v)).inner();
      }});
  if (o.corrupt) out.metrics.slots_success ^= 1;
  check_load(out);
  record_phases({t0, t1, t2, t3, Clock::now()}, trace, out);
}

void run_ranked(const scenario::Scenario& s, const Workload& w,
                const RunOptions& o, NodeId n, Outcome& out) {
  out.graph_build_s =
      build_rank_windows(s, w, o.seed, n, o.trace, &out.topology_bytes);
  const Clock::time_point t0 = Clock::now();
  const scenario::RunResult r =
      scenario::run_sharded(s, n, o.seed, w.ranks, 0.0, 0, &out.shard);
  const Clock::time_point t1 = Clock::now();

  out.metrics = r.metrics;
  out.completed = r.completed;
  out.realized_n = r.realized_n;
  out.digest = o.corrupt ? r.digest ^ 1 : r.digest;
  check_global(w, out);
  const Clock::time_point t2 = Clock::now();
  out.run_s = seconds(t0, t1);
  out.check_s = seconds(t1, t2);
  if (o.trace != nullptr) {
    o.trace->span("rank.run_sharded", t0, t1);
    o.trace->span("scenario.check", t1, t2);
  }
}

}  // namespace

// ---- workload table --------------------------------------------------------

const std::array<Workload, 4>& workloads() {
  static const std::array<Workload, 4> table{{
      {"ring_min_32k", "global/min/rand/ring", 32768, EngineMode::kSync, 1,
       Oracle::kMinIsOne},
      {"cube_flood_32k", "global/sum/p2p/hypercube", 32768, EngineMode::kSync,
       1, Oracle::kSumOfIds},
      {"clique_pb_async_32k", "load/poisson/pb/iclique", 32768,
       EngineMode::kAsyncLoad, 1, Oracle::kLoadDrain},
      {"random_det_r2_16k", "global/min/det/random", 16384, EngineMode::kRanked,
       2, Oracle::kMinIsOne},
  }};
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---- trace -----------------------------------------------------------------

Trace::Trace(std::uint64_t run_id) : run_id_(run_id), epoch_(Clock::now()) {
  spans_.reserve(1 << 16);
}

double Trace::total_s(std::string_view name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += seconds(s.begin, s.end);
  }
  return total;
}

std::uint64_t Trace::count(std::string_view name) const {
  return static_cast<std::uint64_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [name](const Span& s) { return name == s.name; }));
}

bool Trace::write_chrome_json(const std::string& path,
                              const std::string& label) const {
  std::ofstream f(path);
  if (!f) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  };
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"label\":\"" << label
    << "\",\"run_id\":" << run_id_ << "},\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans_) {
    const std::string_view name(s.name);
    const std::string_view cat = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run_id\":%llu}}",
                  first ? "" : ",\n", s.name, static_cast<int>(cat.size()),
                  cat.data(), us(s.begin), us(s.end) - us(s.begin),
                  static_cast<unsigned long long>(run_id_));
    f << buf;
    first = false;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

// ---- outcome ---------------------------------------------------------------

std::uint64_t Outcome::delivered() const {
  std::uint64_t total = 0;
  for (const mmn::sim::QosSummary& q : qos) total += q.delivered;
  return total;
}

std::uint64_t Outcome::backlog() const {
  std::uint64_t total = 0;
  for (const mmn::sim::QosSummary& q : qos) total += q.backlog();
  return total;
}

double Outcome::p99_delay_slots() const {
  if (mode != EngineMode::kAsyncLoad) {
    return static_cast<double>(metrics.rounds);
  }
  std::uint64_t worst = 0;
  for (const mmn::sim::QosSummary& q : qos) worst = std::max(worst, q.p99);
  return static_cast<double>(worst);
}

double Outcome::goodput() const {
  if (metrics.rounds == 0) return 0;
  const std::uint64_t packets =
      mode == EngineMode::kAsyncLoad ? delivered() : 1;
  return static_cast<double>(packets) / static_cast<double>(metrics.rounds);
}

// ---- entry points ----------------------------------------------------------

std::uint64_t oracle_digest(Oracle oracle, NodeId n) {
  // Every node of a correct run holds the same value: the min (1) or the sum
  // n(n+1)/2 of the inputs 1..n, in the simulator's Word type.
  const mmn::sim::Word nn = static_cast<mmn::sim::Word>(n);
  const mmn::sim::Word value = oracle == Oracle::kSumOfIds ? nn * (nn + 1) / 2 : 1;
  std::uint64_t h = scenario::kDigestSeed;
  for (NodeId v = 0; v < n; ++v) {
    h = scenario::digest_mix(h, static_cast<std::uint64_t>(value));
  }
  return h;
}

Outcome run_workload(const Workload& w, const RunOptions& options) {
  const scenario::Scenario& s = lookup(w);
  const NodeId n = options.n > 0 ? options.n : w.n;
  Outcome out;
  out.mode = w.mode;
  switch (w.mode) {
    case EngineMode::kSync:
      run_sync(s, w, options, n, out);
      break;
    case EngineMode::kAsyncLoad:
      run_async_load(s, options, n, out);
      break;
    case EngineMode::kRanked:
      run_ranked(s, w, options, n, out);
      break;
  }
  out.pass = out.failure.empty();
  return out;
}

double setup_once(const Workload& w, std::uint64_t seed, NodeId n) {
  const scenario::Scenario& s = lookup(w);
  if (n == 0) n = w.n;
  if (w.mode == EngineMode::kRanked) {
    return build_rank_windows(s, w, seed, n, nullptr, nullptr);
  }
  const Clock::time_point t0 = Clock::now();
  const Graph g = scenario::make_scenario_graph(s, n, seed);
  if (w.mode == EngineMode::kSync) {
    sim::Engine eng(g, s.make_factory(g), seed, make_scheduler(nullptr),
                    make_discipline(s, seed, nullptr));
    return seconds(t0, Clock::now());
  }
  sim::AsyncEngine eng(g, s.make_async_load_factory(g, s.default_load), seed,
                       s.async_max_delay_slots, make_scheduler(nullptr),
                       make_discipline(s, seed, nullptr));
  return seconds(t0, Clock::now());
}

Outcome run_serial_reference(const Workload& w, std::uint64_t seed, NodeId n) {
  const scenario::Scenario& s = lookup(w);
  if (n == 0) n = w.n;
  RunOptions o;
  o.seed = seed;
  Outcome out;
  run_sync(s, w, o, n, out);
  out.pass = out.failure.empty();
  return out;
}

BuildInfo build_info() {
  BuildInfo info;
  info.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  info.optimized = true;
#else
  info.optimized = false;
#endif
  info.simd_level = mmn::simd::level_name(mmn::simd::active_level());
  info.compiler = __VERSION__;
  return info;
}

double peak_rss_mib() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

}  // namespace perfbench
