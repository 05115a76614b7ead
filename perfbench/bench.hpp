// The benchmark's workloads, built only from the simulator's public seams.
//
// A workload is one scenario at a fixed size on one engine configuration.
// run_workload() performs the set-up the run really does (topology build,
// engine construction), the run itself, and the correctness check against
// an oracle the benchmark computes itself, timing each part.  Passing a
// Trace switches on the traced run: the scheduler, the channel discipline
// and every node process are wrapped so that spans and counts are recorded
// at the layer boundaries, while the digest and Metrics stay identical to
// the untraced run's.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/rank_run.hpp"
#include "scenario/registry.hpp"
#include "sim/traffic.hpp"
#include "support/metrics.hpp"

namespace perfbench {

using mmn::NodeId;

enum class EngineMode : std::uint8_t {
  kSync,       ///< sim::Engine, serial scheduler
  kAsyncLoad,  ///< sim::AsyncEngine over the native open-loop stations
  kRanked,     ///< scenario::run_sharded over `ranks` processes
};

/// What the oracle checks.
enum class Oracle : std::uint8_t {
  kMinIsOne,   ///< global min of ids 1..n: every node holds 1
  kSumOfIds,   ///< global sum of ids 1..n: every node holds n(n+1)/2
  kLoadDrain,  ///< open loop: completed, no backlog, delivered == successes
};

struct Workload {
  const char* name;
  const char* scenario;
  NodeId n;  ///< nominal size; tests pass a smaller one
  EngineMode mode;
  unsigned ranks;  ///< kRanked only
  Oracle oracle;
};

/// The four benchmark workloads (see perfbench/README.md for why each).
const std::array<Workload, 4>& workloads();
/// Null when `name` is no workload.
const Workload* find_workload(std::string_view name);

/// In-memory span and count recorder of one traced run.  Spans are taken
/// only at layer boundaries (per scheduler pass, per channel slot, per
/// set-up step); per-node work is counted, never spanned.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name;  ///< static string
    Clock::time_point begin;
    Clock::time_point end;
  };

  explicit Trace(std::uint64_t run_id);

  void span(const char* name, Clock::time_point begin, Clock::time_point end) {
    spans_.push_back(Span{name, begin, end});
  }
  /// Summed duration (s) and count of the spans called `name`.
  double total_s(std::string_view name) const;
  std::uint64_t count(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON (opens in Perfetto).
  /// Every event carries the run id; returns false if the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path, const std::string& label) const;

  std::uint64_t run_id() const { return run_id_; }
  std::size_t spans() const { return spans_.size(); }

  // Counts recorded by the process and discipline wrappers.  The benchmark
  // runs serial schedulers only, so plain counters suffice.
  std::uint64_t node_steps = 0;
  std::uint64_t active_steps = 0;
  std::uint64_t msg_events = 0;
  std::uint64_t channel_writes = 0;

 private:
  std::uint64_t run_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Everything one run of a workload produced.
struct Outcome {
  mmn::Metrics metrics;
  std::uint64_t digest = 0;
  bool completed = false;
  bool pass = false;      ///< oracle verdict
  std::string failure;    ///< why the oracle failed, empty on pass
  NodeId realized_n = 0;
  EngineMode mode = EngineMode::kSync;  ///< engine path that produced it
  std::array<mmn::sim::QosSummary, mmn::sim::kNumQosClasses> qos{};
  mmn::scenario::ShardStats shard{};
  double graph_build_s = 0;   ///< topology build (max over rank windows)
  double construct_s = 0;     ///< engine construction (0 when ranked)
  double run_s = 0;           ///< first round to termination
  double check_s = 0;         ///< digest + oracle
  std::size_t topology_bytes = 0;  ///< summed over rank windows

  double setup_s() const { return graph_build_s + construct_s; }
  std::uint64_t delivered() const;
  std::uint64_t backlog() const;
  // A closed-loop run (sync or ranked) is one job, the global computation,
  // delivered after `metrics.rounds` slots; the open loop (async) delivers
  // its stations' packets.
  /// Open loop: largest per-class p99 delay (slots).  Closed loop: the
  /// delay of the one job, the run's rounds.
  double p99_delay_slots() const;
  /// Open loop: delivered packets per slot.  Closed loop: the one job per
  /// run, 1 / rounds.
  double goodput() const;
};

struct RunOptions {
  std::uint64_t seed = 7;
  NodeId n = 0;             ///< 0 = the workload's size
  Trace* trace = nullptr;   ///< non-null = traced run
  bool corrupt = false;     ///< flip the checked digest / counter
};

/// One full run: set-up, run, check.  Never throws on an oracle failure;
/// the verdict is in Outcome::pass.
Outcome run_workload(const Workload& w, const RunOptions& options);

/// Set-up only (topology build + engine construction), torn down again.
/// Returns seconds.  The ranked workload times its rank windows' builds.
double setup_once(const Workload& w, std::uint64_t seed, NodeId n);

/// The oracle's expected digest for a global function over ids 1..n.
std::uint64_t oracle_digest(Oracle oracle, NodeId n);

/// Serial sync-engine run of a ranked workload's scenario (the baseline the
/// rank speed-up is measured against).
Outcome run_serial_reference(const Workload& w, std::uint64_t seed, NodeId n);

/// Host and build context printed with every result.
struct BuildInfo {
  std::string build_type;
  bool optimized;     ///< compiled with optimization and NDEBUG
  std::string simd_level;
  std::string compiler;
};
BuildInfo build_info();

/// Peak resident set (MiB) of this process and of its largest reaped child.
double peak_rss_mib();

}  // namespace perfbench
