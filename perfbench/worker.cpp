// Benchmark worker: runs one workload in this process and prints one JSON
// object on stdout.  run.py drives it; by hand:
//
//   perfbench_worker info
//   perfbench_worker measure --workload ring_min_32k --seed 7
//   perfbench_worker trace --workload ring_min_32k --seed 7 --out t.json
//
// measure: kSetupReps set-ups, then one full run (set-up, run, oracle
//          check); reports every set-up time, the run and its model values.
// trace:   one untraced and one traced run; reports the per-layer metrics
//          and whether both runs agree on digest and Metrics.
// Common:  --corrupt flips the checked digest or counter so the oracle must
//          fail.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Outcome;
using perfbench::Workload;

/// Set-ups timed per measuring process, before its full run.
constexpr int kSetupReps = 20;

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 7;
  std::string out;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_worker: %s\n"
               "usage: perfbench_worker info\n"
               "       perfbench_worker measure --workload W [--seed S] "
               "[--corrupt]\n"
               "       perfbench_worker trace --workload W [--seed S] "
               "[--out PATH] [--corrupt]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing command");
  Args a;
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      a.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) usage("flag without a value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("malformed number");
  }
  return a;
}

void print_list(const char* key, const std::vector<double>& xs) {
  std::printf("\"%s\":[", key);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ",", xs[i]);
  }
  std::printf("]");
}

/// The simulated-model values every run of one (workload, seed) must
/// repeat exactly.
std::string model_key(const Outcome& o) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%llu/%llu/%.17g",
                static_cast<unsigned long long>(o.digest),
                static_cast<unsigned long long>(o.metrics.rounds),
                static_cast<unsigned long long>(o.metrics.p2p_messages),
                static_cast<unsigned long long>(o.metrics.slots_success),
                static_cast<unsigned long long>(o.metrics.slots_collision),
                static_cast<unsigned long long>(o.metrics.slots_idle),
                o.p99_delay_slots());
  return buf;
}

int cmd_info() {
  const perfbench::BuildInfo b = perfbench::build_info();
  std::printf(
      "{\"build_type\":\"%s\",\"optimized\":%s,\"simd\":\"%s\","
      "\"compiler\":\"%s\"}\n",
      b.build_type.c_str(), b.optimized ? "true" : "false",
      b.simd_level.c_str(), b.compiler.c_str());
  return 0;
}

int cmd_measure(const Workload& w, const Args& a) {
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_s.push_back(perfbench::setup_once(w, a.seed, 0));
  }
  perfbench::RunOptions o;
  o.seed = a.seed;
  o.corrupt = a.corrupt;
  const Outcome r = perfbench::run_workload(w, o);
  setup_s.push_back(r.setup_s());
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"n\":%u,\"pass\":%s,"
              "\"failure\":\"%s\",",
              w.name, static_cast<unsigned long long>(a.seed), r.realized_n,
              r.pass ? "true" : "false", r.failure.c_str());
  print_list("setup_s", setup_s);
  std::printf(
      ",\"run_s\":%.9g,\"check_s\":%.9g,\"sim_rounds\":%llu,"
      "\"sim_msgs\":%llu,\"p99_delay_slots\":%.17g,\"goodput\":%.17g,"
      "\"digest\":%llu,\"peak_rss_mib\":%.6g}\n",
      r.run_s, r.check_s, static_cast<unsigned long long>(r.metrics.rounds),
      static_cast<unsigned long long>(r.metrics.p2p_messages),
      r.p99_delay_slots(), r.goodput(),
      static_cast<unsigned long long>(r.digest), perfbench::peak_rss_mib());
  return 0;
}

int cmd_trace(const Workload& w, const Args& a) {
  perfbench::RunOptions o;
  o.seed = a.seed;
  o.corrupt = a.corrupt;
  const Outcome plain = perfbench::run_workload(w, o);
  // Microseconds since the epoch: unique per run and exact in a JSON double.
  perfbench::Trace trace(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  o.trace = &trace;
  const Outcome traced = perfbench::run_workload(w, o);
  const bool equal = plain.digest == traced.digest &&
                     plain.metrics == traced.metrics &&
                     model_key(plain) == model_key(traced);

  std::map<std::string, double> m;
  const mmn::Metrics& mt = traced.metrics;
  const double rounds = static_cast<double>(mt.rounds);
  const double n = static_cast<double>(traced.realized_n);
  m["graph.build_s"] = traced.graph_build_s;
  m["graph.topology_bytes_per_node"] =
      n > 0 ? static_cast<double>(traced.topology_bytes) / n : 0;
  m["sim.construct_s"] = traced.construct_s;
  const double node_phase_s = trace.total_s("sim.node_phase");
  const double resolve_s = trace.total_s("channel.resolve");
  m["sim.node_phase_s"] = node_phase_s;
  m["sim.node_phase_calls"] = static_cast<double>(trace.count("sim.node_phase"));
  m["sim.ns_per_node_step"] =
      trace.node_steps > 0
          ? node_phase_s * 1e9 / static_cast<double>(trace.node_steps)
          : 0;
  m["sim.commit_s"] = trace.node_steps > 0
                          ? traced.run_s - node_phase_s - resolve_s
                          : 0;
  m["sim.msgs_per_round"] =
      rounds > 0 ? static_cast<double>(mt.p2p_messages) / rounds : 0;
  const bool async = w.mode == perfbench::EngineMode::kAsyncLoad;
  const std::uint64_t active =
      async ? trace.msg_events + trace.channel_writes : trace.active_steps;
  m["core.node_steps"] = static_cast<double>(trace.node_steps);
  m["core.active_steps"] = static_cast<double>(active);
  m["core.active_ratio"] =
      trace.node_steps > 0
          ? static_cast<double>(active) / static_cast<double>(trace.node_steps)
          : 0;
  m["core.msg_events"] = static_cast<double>(trace.msg_events);
  m["channel.resolve_s"] = resolve_s;
  m["channel.writes"] = static_cast<double>(trace.channel_writes);
  m["channel.slots_success"] = static_cast<double>(mt.slots_success);
  m["channel.slots_collision"] = static_cast<double>(mt.slots_collision);
  m["channel.slots_idle"] = static_cast<double>(mt.slots_idle);
  m["channel.success_ratio"] =
      mt.slots_busy() > 0 ? static_cast<double>(mt.slots_success) /
                                static_cast<double>(mt.slots_busy())
                          : 0;
  m["traffic.delivered"] = static_cast<double>(traced.delivered());
  m["traffic.backlog"] = static_cast<double>(traced.backlog());
  static const char* const kClass[] = {"voice", "video", "data"};
  for (std::size_t c = 0; c < traced.qos.size(); ++c) {
    m[std::string("traffic.p99_delay_slots.") + kClass[c]] =
        static_cast<double>(traced.qos[c].p99);
  }
  m["traffic.jitter_slots.voice"] = traced.qos[0].jitter();

  double serial_run_s = 0;
  if (w.mode == perfbench::EngineMode::kRanked) {
    const Outcome serial = perfbench::run_serial_reference(w, a.seed, 0);
    serial_run_s = serial.run_s;
  }
  const mmn::scenario::ShardStats& sh = traced.shard;
  m["rank.xshard_msgs"] = static_cast<double>(sh.xshard_msgs);
  m["rank.wire_bytes_per_round"] =
      sh.rounds > 0 ? static_cast<double>(sh.wire_bytes) /
                          static_cast<double>(sh.rounds)
                    : 0;
  m["rank.boundary_edges"] = static_cast<double>(sh.boundary_edges);
  m["rank.serial_run_s"] = serial_run_s;
  m["rank.speedup"] = serial_run_s > 0 ? serial_run_s / traced.run_s : 0;
  m["scenario.check_s"] = traced.check_s;
  m["trace.overhead_s"] = traced.run_s - plain.run_s;

  bool written = true;
  if (!a.out.empty()) {
    written = trace.write_chrome_json(
        a.out, std::string(w.name) + " seed " + std::to_string(a.seed));
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"pass\":%s,\"equal\":%s,"
              "\"failure\":\"%s\",\"spans\":%zu,\"run_id\":%llu,"
              "\"trace_written\":%s,\"peak_rss_mib\":%.6g,\"layers\":{",
              w.name, static_cast<unsigned long long>(a.seed),
              plain.pass && traced.pass ? "true" : "false",
              equal ? "true" : "false",
              plain.pass ? traced.failure.c_str() : plain.failure.c_str(),
              trace.spans(), static_cast<unsigned long long>(trace.run_id()),
              written ? "true" : "false", perfbench::peak_rss_mib());
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.12g", first ? "" : ",", name.c_str(),
                std::isfinite(value) ? value : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.command == "info") return cmd_info();
  const Workload* w = perfbench::find_workload(a.workload);
  if (w == nullptr) usage("unknown workload");
  if (a.command == "measure") return cmd_measure(*w, a);
  if (a.command == "trace") return cmd_trace(*w, a);
  usage("unknown command");
}
