// Scenario registry: named workload configurations.
//
// A Scenario bundles a graph family, a protocol factory, a result digest,
// and a default n/seed sweep under one name ("mst/random", "global/min/
// rand/ring", ...).  Benches, examples, and tests consume the table from
// here instead of hand-rolling their own loops, so adding a workload is one
// registration — the throughput bench, the equivalence suite, and any sweep
// driver pick it up automatically.
//
// Scenarios are engine-generic: run(s, RunConfig) executes a workload under
// the synchronous lockstep Engine — on one thread, a thread pool, or split
// over rank processes — or, for channel-free workloads via the busy-tone
// synchronizer (Section 7.1), under the asynchronous AsyncEngine.  All
// scenarios are deterministic per (n, seed, engine) and independent of the
// thread and rank counts: every configuration returns bit-identical Metrics
// and digest to a serial run of the same engine (see sim/scheduler.hpp,
// sim/shard_comm.hpp and the async determinism notes in
// sim/async_engine.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "support/metrics.hpp"

namespace mmn::scenario {

/// Which stepping policy run() drives the workload with.
enum class EngineKind : std::uint8_t {
  kSync,   ///< lockstep rounds (sim::Engine)
  kAsync,  ///< bounded-delay links + synchronizer (sim::AsyncEngine)
};

/// Engine-generic view of a finished run's per-node protocol processes, for
/// digest implementations.  `at(v)` resolves to the protocol process of node
/// v regardless of the engine that ran it (the async path unwraps the
/// synchronizer automatically).
struct NodeResults {
  NodeId n = 0;
  std::function<const sim::Process&(NodeId)> at;
  /// Set instead of `at` on native-asynchronous runs (the open-loop load
  /// scenarios, which run AsyncProcesses without the synchronizer); digest
  /// implementations that support both engines side-cast whichever is set.
  std::function<const sim::AsyncProcess&(NodeId)> at_async = nullptr;
  /// Digest window for rank-mode chaining (RunConfig::ranks): digests
  /// fold node ids [begin, begin + n) starting from accumulator h0, so rank
  /// r folds its own window over rank r-1's partial hash and the chain ends
  /// bit-identical to the serial whole-run fold.  The defaults (0 and the
  /// FNV-1a offset basis, == kDigestSeed) reproduce the classic fold.
  NodeId begin = 0;
  std::uint64_t h0 = 0xcbf29ce484222325ULL;
};

struct Scenario {
  std::string name;         ///< "family/variant", unique in the registry
  std::string description;  ///< one line for listings

  /// The topology family.  Every entry is size-parameterized: run() builds
  /// the graph from TopologySpec{topology, n, seed}, so any sweep driver
  /// can take the same scenario to 4k/16k/64k nodes (scenario_sweep --n=…,
  /// the topology/build benches, the large-n CI smoke).  Families with
  /// structural constraints (grids, hypercubes) round a nominal n via
  /// topology_round_n; strict CLIs check topology_valid_n instead.
  TopoKind topology = TopoKind::kRandom;

  /// Builds the per-node process factory for a given topology.
  std::function<sim::ProcessFactory(const Graph& g)> make_factory;

  /// Order-independent digest of the per-node results (e.g. the MST edge
  /// set, the fragment assignment, the computed global value), used to
  /// compare runs across schedulers and engines.  May be null.
  std::function<std::uint64_t(const NodeResults& results)> digest;

  std::vector<NodeId> sweep_n;  ///< default sweep sizes, ascending
  std::uint64_t default_seed = 7;
  std::uint64_t max_rounds = 200'000'000;  ///< round cap (slot cap async)

  /// True if the protocol never touches the channel — the requirement for
  /// running it under the synchronizer on the asynchronous engine.
  bool channel_free = false;

  /// Message-delay bound, in slots, for EngineKind::kAsync runs.
  std::uint32_t async_max_delay_slots = 1;

  /// Medium-access policy the run executes under
  /// (sim/channel_discipline.hpp).  Asynchronous runs go through the
  /// busy-tone synchronizer, whose idle-slot pulses a deferring discipline
  /// would falsify — run() rejects kTdma/kCapetanakis there.  (Load
  /// scenarios bypass the synchronizer entirely; see below.)
  sim::DisciplineKind discipline = sim::DisciplineKind::kFreeForAll;

  /// Open-loop load knobs (core/openloop.hpp).  A scenario with
  /// make_load_factory set is load-capable: run() rebuilds its stations at
  /// the caller's offered load (scenario_sweep --load=, bench_load_sweep),
  /// falling back to default_load when the caller passes 0.
  double default_load = 0.0;
  std::function<sim::ProcessFactory(const Graph& g, double load)>
      make_load_factory = nullptr;

  /// Native asynchronous variant of a load workload.  When set,
  /// EngineKind::kAsync drives these AsyncProcesses on the AsyncEngine
  /// directly — no synchronizer, so deferring disciplines are allowed
  /// (open-loop stations read nothing into idle slots; the channel_free
  /// requirement applies only to the synchronizer path).
  std::function<sim::AsyncProcessFactory(const Graph& g, double load)>
      make_async_load_factory = nullptr;

  /// Fault-injection hooks (sim/fault.hpp).  A scenario with make_fault_plan
  /// set is fault-capable: run() builds the plan at intensity k — the
  /// caller's --faults= knob, falling back to default_faults when the caller
  /// passes 0 — and installs it on the engine.  The plan is a pure function
  /// of (g, k, seed), so faulted runs stay deterministic and
  /// scheduler-independent like everything else in the table.
  std::function<sim::FaultPlan(const Graph& g, std::uint32_t k,
                               std::uint64_t seed)>
      make_fault_plan = nullptr;
  std::uint32_t default_faults = 0;  ///< k when the caller passes 0

  /// Recovery flow (the fault/ convergence scenarios).  When set, a faulted
  /// run is two-phase: phase A steps the faulted protocol serially to
  /// fault_epoch_slots rounds, then the epoch overlay compacts the surviving
  /// topology into a fresh arena and phase B re-runs the protocol from
  /// scratch on it under the caller's scheduler/engine.  The digest folds
  /// phase B's protocol result with the overlay's kill-set word — both are
  /// invariant to where the epoch boundary lands, so recovery digests pin
  /// re-convergence without being sensitive to drop timing.
  bool fault_recovery = false;
  std::uint64_t fault_epoch_slots = 0;
};

/// Stepping and wire counters of a synchronous run.  `rounds` and
/// `node_steps` are filled on every synchronous run; the cross-shard
/// counters only on runs with ranks > 1.  Zero on asynchronous runs.
struct ShardStats {
  std::uint64_t xshard_msgs = 0;     ///< cross-shard headers sent, all ranks
  std::uint64_t boundary_edges = 0;  ///< edges with endpoints in two shards
  std::uint64_t wire_bytes = 0;      ///< transport bytes sent, all ranks
  std::uint64_t rounds = 0;          ///< rounds run (replicated count)
  /// Node-steps dispatched (Engine::node_steps), summed over ranks — equal
  /// to the serial Engine's count, since ranks sleep exactly like it.
  std::uint64_t node_steps = 0;
};

struct RunResult {
  Metrics metrics;
  std::uint64_t digest = 0;  ///< 0 when the scenario has no digest fn
  NodeId realized_n = 0;     ///< nodes in the generated graph
  /// False when the round/slot cap elapsed with work still pending.  The
  /// digest is still reported — a capped run cuts off at a deterministic
  /// slot count, so capped results remain scheduler-comparable (the
  /// free-for-all load scenarios livelock past saturation by design).
  bool completed = true;
  /// Engine-uniform status: kCompleted, or kSlotCapReached when the cap
  /// elapsed (mirrors `completed`; neither engine aborts on a capped run).
  sim::RunStatus status = sim::RunStatus::kCompleted;
  /// Fault accounting of a faulted run; zeroed on fault-free runs.  On
  /// recovery scenarios this is phase A's tally with recovery_slots filled.
  sim::FaultStats faults;
  /// Recovery scenarios: slots from the first fault event until phase B
  /// re-converged (phase-A remainder + phase-B rounds).
  std::uint64_t recovery_slots = 0;
  ShardStats shard;
};

/// How run() executes a scenario.  Every axis but n and seed defaults to
/// the plain serial synchronous run.
struct RunConfig {
  NodeId n = 0;  ///< nominal size; the topology family rounds it
  std::uint64_t seed = 0;
  unsigned threads = 1;  ///< scheduler threads; 1 = serial
  /// Rank processes (sim/shard_comm.hpp).  ranks > 1 forks the run: each
  /// rank builds only its node window and steps it with a serial scheduler.
  unsigned ranks = 1;
  EngineKind engine = EngineKind::kSync;
  /// Offered load of a load-capable scenario; 0 = its default_load.
  double load = 0.0;
  /// Fault intensity of a fault-capable scenario; 0 = its default_faults.
  std::uint32_t faults = 0;
};

class Registry {
 public:
  static Registry& instance();

  /// Registers a scenario; the name must be unused.  Elements have stable
  /// addresses (deque storage): pointers and references returned by find()
  /// or all() stay valid across later add() calls, which benches rely on
  /// when capturing scenarios in registered-benchmark lambdas.
  void add(Scenario s);

  const Scenario* find(std::string_view name) const;
  const std::deque<Scenario>& all() const { return scenarios_; }

 private:
  std::deque<Scenario> scenarios_;
};

/// Registers the built-in scenario table; idempotent.
void register_builtin();

/// The graph run() executes `s` on at nominal size n: the scenario's
/// topology family at topology_round_n(s.topology, n) nodes.
Graph make_scenario_graph(const Scenario& s, NodeId n, std::uint64_t seed);

/// Why run() refuses (s, cfg), or nullptr when the pair can run.  The
/// rules: `load` needs a load-capable scenario and `faults` a fault-capable
/// one; kAsync needs the native-async load factory or a channel-free,
/// fault-free protocol under a non-deferring discipline (the busy-tone
/// synchronizer); the two-phase recovery scenarios run on the synchronous
/// engine in one process; ranks > 1 runs the synchronous engine only, one
/// serial process per rank.
const char* unsupported_reason(const Scenario& s, const RunConfig& cfg);

/// Runs one scenario: generate the graph, build the engine cfg asks for,
/// run to completion, digest the results.  ranks > 1 forks the ranks and
/// returns rank 0's assembled result, bit-identical (digest, metrics and
/// fault stats) to the serial run's.  A run that exhausts s.max_rounds
/// rounds/slots reports completed == false instead of aborting.  Throws
/// std::invalid_argument, before any work, when unsupported_reason(s, cfg)
/// names a reason.
RunResult run(const Scenario& s, const RunConfig& cfg);

/// FNV-1a fold helper for digest implementations.
inline std::uint64_t digest_mix(std::uint64_t h, std::uint64_t word) {
  h ^= word;
  return h * 0x100000001b3ULL;
}
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

}  // namespace mmn::scenario
