// Synchronous multimedia-network engine.
//
// Executes one Process per node in lockstep rounds (Section 2):
//   * point-to-point messages sent in round r are delivered in round r + 1
//     (message delay = 1 time unit, one message per link direction per round);
//   * the channel slot of round r is observed by every node in round r + 1
//     (slot length = 1 time unit).
// Each process sees only its local view — its id, its incident links, n, and
// whatever arrives over the two media.  Every run is deterministic given the
// seed; per-node RNG streams are forked from it.
//
// The engine is a thin stepping policy over sim::RuntimeCore, which owns the
// substrate (views, RNGs, channel, metrics, flat message arena); see
// sim/runtime_core.hpp.  Node execution within a round is delegated to a
// Scheduler — serial by default, or an std::thread pool that shards the node
// set; both produce bit-identical results for the same seed
// (sim/scheduler.hpp).  Termination is detected incrementally and batched
// per shard: each shard keeps an outstanding (not-yet-finished) counter on
// its own cache line, a node's finished() probe only touches that counter
// on a transition, and the engine sums the handful of shard counters after
// the barrier — no per-node delta staging, no O(n) scan.
//
// Rounds are activity-driven (sim/wake.hpp): the scheduler runs only the
// nodes that are awake — woken by a message, by a slot outcome they asked
// for, by a due round, or never asleep because they declared nothing.
//
// The same loop runs sharded over OS processes: built with a K-rank
// shard_comm::Transport, the engine is rank r's shard of the run — it steps
// the node window Scheduler::shard_range(n, r, K) and swaps each round's
// cross-window sends, channel writes and outstanding count with the peers
// (sim/shard_comm.hpp, ARCHITECTURE.md "Sharded execution").  Every rank
// reaches the identical termination verdict on the identical round.
//
// The per-node hot path is devirtualized end to end: the scheduler reaches
// node_round through a raw function pointer, and NodeContext is a concrete
// final class (sim/runtime_core.hpp) staging effects straight into the
// shard buffer — the only virtual call per node per round is Process::round
// itself.  The same Process still runs on the asynchronous engine
// underneath the busy-tone synchronizer of Section 7.1, which feeds
// NodeContext through its sink hooks (see core/synchronizer.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "sim/runtime_core.hpp"
#include "support/metrics.hpp"

namespace mmn::sim {

class FaultPlan;
class FaultRuntime;

class Engine {
 public:
  /// Builds the network: one process per node of g.  `g` must outlive the
  /// engine — node views are zero-copy windows into its adjacency arena.
  /// The default scheduler
  /// is serial; pass make_scheduler(threads) to shard rounds over a pool.
  /// A null discipline is the free-for-all channel (the seed behavior);
  /// pass make_discipline(kind) to run the workload under TDMA, Capetanakis
  /// tree scheduling, or the unslotted busy-tone emulation
  /// (sim/channel_discipline.hpp).
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed);
  ///
  /// A transport with K > 1 ranks makes this engine one rank of a sharded
  /// run: it steps only its window shard_range(n, rank, K), `g` may be a
  /// windowed build of that window, `factory` sees owned views only, and
  /// every rank must be built with the identical seed and discipline and
  /// then driven with the identical install_faults/step calls.  A null or
  /// single-rank transport is the unsharded engine.
  Engine(const Graph& g, const ProcessFactory& factory, std::uint64_t seed,
         std::unique_ptr<Scheduler> scheduler,
         std::unique_ptr<ChannelDiscipline> discipline = nullptr,
         shard_comm::Transport* transport = nullptr);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Runs until every process is finished and the channel is idle (no write
  /// staged, nothing deferred inside the discipline), or until max_rounds
  /// elapse — then status() reports kSlotCapReached instead of aborting,
  /// the same non-aborting surface AsyncEngine has had since PR 2.  The
  /// returned metrics are well-formed either way.
  Metrics run(std::uint64_t max_rounds);

  /// Runs at most `rounds` additional rounds; returns true if all finished
  /// and the channel is idle.  On a sharded run "all" means every rank's
  /// nodes, and every rank must call with the same budget.
  bool step(std::uint64_t rounds);

  /// Outcome of the last run()/step() call (kRunning after a step() that
  /// ran out of rounds; run() maps that to kSlotCapReached).
  RunStatus status() const { return status_; }

  /// Installs deterministic fault injection (sim/fault.hpp).  Must be
  /// called before the first round; the plan's events apply at slot
  /// boundaries, before the round's node phase.  One installation per
  /// engine — recovery flows build a fresh engine on the compacted graph.
  void install_faults(const FaultPlan& plan);

  /// The installed fault runtime (stats + overlay), or null.
  const FaultRuntime* faults() const { return faults_.get(); }
  FaultRuntime* faults() { return faults_.get(); }

  /// On a sharded run the slot and round counters equal the whole run's;
  /// p2p_messages counts only this rank's sends (sum over ranks).
  const Metrics& metrics() const { return core_.metrics(); }

  /// Node-steps dispatched so far (RuntimeCore::node_steps): n per round
  /// for processes that never sleep, far fewer for ported stepped ones.
  /// This rank's window only on a sharded run.
  std::uint64_t node_steps() const { return core_.node_steps(); }

  /// Messages sent to other ranks' windows (0 unless sharded).
  std::uint64_t xshard_msgs() const { return core_.xshard_msgs(); }

  /// Per-class delay/backlog accounting of open-loop workloads
  /// (sim/traffic.hpp); untouched by closed-loop protocols.
  const LatencyRecorder& latency() const { return core_.latency(); }

  /// Direct access to a node's process by node id — owned nodes only on a
  /// sharded run (for reading results and tests).  Mutating a process so
  /// that finished() changes outside of round() breaks the engine's
  /// incrementally maintained finished count — finished() must only change
  /// inside round() calls.
  Process& process(NodeId v);
  const Process& process(NodeId v) const;
  /// Nodes this engine steps: n, or the window's size on a sharded run.
  NodeId num_nodes() const { return core_.num_nodes(); }

 private:
  bool all_finished() const;
  void node_round(unsigned shard, NodeId i);
  void run_one_round();

  RuntimeCore core_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::unique_ptr<FaultRuntime> faults_;  // null on the fault-free fast path
  RunStatus status_ = RunStatus::kRunning;
  std::vector<char> finished_flag_;  // per window index; char: shard-safe
  /// Per-shard count of unfinished nodes in the shard's static node range.
  /// Written only by the shard's own worker (cache-line aligned), summed by
  /// the driver after the barrier — the batched finished() probe.
  std::vector<ShardOutstanding> outstanding_;
};

/// Convenience: builds the engine, runs to completion, returns metrics.
Metrics run_network(const Graph& g, const ProcessFactory& factory,
                    std::uint64_t seed, std::uint64_t max_rounds);

/// As above, under the given scheduler.
Metrics run_network(const Graph& g, const ProcessFactory& factory,
                    std::uint64_t seed, std::uint64_t max_rounds,
                    std::unique_ptr<Scheduler> scheduler);

}  // namespace mmn::sim
