// The benchmark's own tests, at small n so they finish in seconds:
//   * every workload's oracle passes;
//   * the corruption switch makes every workload's oracle fail;
//   * a traced run gives the untraced run's digest, Metrics and QoS, and
//     records one node-phase span per synchronous round;
//   * the ranked workload's chained digest equals the serial digest;
//   * the trace file is written as Chrome trace-event JSON.
//
// Usage: perfbench_selftest [OUTPUT_DIR]   (default: the current directory)
// Exit code 0 when every check holds.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Small sizes each topology family admits.
perfbench::NodeId small_n(const perfbench::Workload& w) {
  return w.mode == perfbench::EngineMode::kAsyncLoad ? 128 : 256;
}

bool same_qos(const perfbench::Outcome& a, const perfbench::Outcome& b) {
  for (std::size_t c = 0; c < a.qos.size(); ++c) {
    if (a.qos[c].arrivals != b.qos[c].arrivals ||
        a.qos[c].delivered != b.qos[c].delivered ||
        a.qos[c].delay_sum != b.qos[c].delay_sum ||
        a.qos[c].delay_sq_sum != b.qos[c].delay_sq_sum ||
        a.qos[c].p99 != b.qos[c].p99) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  for (const perfbench::Workload& w : perfbench::workloads()) {
    const std::string name = w.name;
    for (std::uint64_t seed : {7ULL, 11ULL}) {
      const std::string tag = name + " seed " + std::to_string(seed);
      perfbench::RunOptions o;
      o.seed = seed;
      o.n = small_n(w);
      const perfbench::Outcome plain = perfbench::run_workload(w, o);
      check(plain.pass, tag + ": oracle passes " + plain.failure);
      const bool open_loop = w.mode == perfbench::EngineMode::kAsyncLoad;
      const double rounds = static_cast<double>(plain.metrics.rounds);
      const double jobs =
          open_loop ? static_cast<double>(plain.delivered()) : 1.0;
      check(plain.goodput() == jobs / rounds &&
                (open_loop || plain.p99_delay_slots() == rounds),
            tag + ": goodput and p99 delay follow the engine mode");

      o.corrupt = true;
      const perfbench::Outcome bad = perfbench::run_workload(w, o);
      check(!bad.pass, tag + ": corruption switch fails the oracle");
      o.corrupt = false;

      perfbench::Trace trace(seed);
      o.trace = &trace;
      const perfbench::Outcome traced = perfbench::run_workload(w, o);
      check(traced.pass && traced.digest == plain.digest &&
                traced.metrics == plain.metrics && same_qos(traced, plain),
            tag + ": traced run equals untraced run");
      if (w.mode == perfbench::EngineMode::kSync) {
        check(trace.count("sim.node_phase") == traced.metrics.rounds &&
                  trace.count("channel.resolve") == traced.metrics.rounds,
              tag + ": one node-phase and one slot span per round");
        check(trace.node_steps > 0 && trace.active_steps > 0 &&
                  trace.active_steps <= trace.node_steps,
              tag + ": node-step counts recorded");
      }
      if (w.mode == perfbench::EngineMode::kAsyncLoad) {
        check(trace.msg_events > 0 && trace.channel_writes > 0,
              tag + ": async message and channel counts recorded");
      }
      if (w.mode == perfbench::EngineMode::kRanked) {
        const perfbench::Outcome serial =
            perfbench::run_serial_reference(w, seed, o.n);
        check(serial.pass && serial.digest == plain.digest &&
                  serial.metrics == plain.metrics,
              tag + ": ranked digest and Metrics equal the serial run's");
        check(plain.shard.xshard_msgs > 0 && plain.shard.wire_bytes > 0,
              tag + ": ranked run crossed shards");
      }

      if (seed == 7) {
        const std::string path = out_dir + "/selftest-" + name + ".json";
        check(trace.write_chrome_json(path, tag),
              tag + ": trace file written");
        std::ifstream f(path);
        std::stringstream body;
        body << f.rdbuf();
        const std::string s = body.str();
        check(s.rfind("{\"displayTimeUnit\"", 0) == 0 &&
                  s.find("\"traceEvents\":[") != std::string::npos &&
                  s.find("\"ph\":\"X\"") != std::string::npos &&
                  s.find("\"run_id\":7") != std::string::npos,
              tag + ": trace file holds complete events with the run id");
      }
    }
  }
  check(perfbench::oracle_digest(perfbench::Oracle::kMinIsOne, 3) !=
            perfbench::oracle_digest(perfbench::Oracle::kSumOfIds, 3),
        "min and sum oracles differ");
  check(perfbench::build_info().optimized, "benchmark build is optimized");
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
