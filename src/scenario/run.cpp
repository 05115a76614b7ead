// scenario::run: the one entry point that executes a registry scenario
// under a RunConfig.
//
// The synchronous body (step_sync) is the same code for the whole graph in
// this process and for one rank's window of a forked run.  Given a
// transport, the Engine steps the window [lo, hi) = shard_range(n, rank, K)
// and swaps every round with the peers; afterwards the digest is chained
// rank-major (rank r folds its window from rank r-1's partial accumulator,
// NodeResults::begin/h0, which reproduces the serial node-major fold) and
// the per-node sums ride one gather to rank 0.  Without a transport the
// window is the whole graph and both hand-offs are skipped.
#include <algorithm>
#include <cstring>
#include <vector>

#include "core/synchronizer.hpp"
#include "graph/generators.hpp"
#include "scenario/rank_run.hpp"
#include "scenario/registry.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::scenario {
namespace {

/// Per-rank tallies gathered to rank 0 after a sharded run: the reductions
/// whose serial counterparts are sums over all nodes, plus the digest
/// chain's final accumulator (meaningful only in rank K-1's record) and the
/// completion verdict (replicated — rank 0 cross-checks).
struct RankTally {
  std::uint64_t digest = 0;
  std::uint64_t p2p_messages = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t xshard_msgs = 0;
  std::uint64_t boundary_edges = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t node_steps = 0;
  std::uint64_t completed = 0;
};
static_assert(sizeof(RankTally) == 8 * sizeof(std::uint64_t),
              "RankTally is exchanged as raw bytes");

void swap_bytes(sim::shard_comm::Transport& t, unsigned peer, const void* out,
                std::size_t out_bytes, void* in, std::size_t in_bytes,
                std::vector<std::uint8_t>& scratch) {
  t.exchange(peer, static_cast<const std::uint8_t*>(out), out_bytes, scratch);
  MMN_REQUIRE(scratch.size() == in_bytes,
              "rank control exchange: unexpected frame size");
  if (in_bytes > 0) std::memcpy(in, scratch.data(), in_bytes);
}

// The run seed also feeds the discipline's own lottery stream (the
// stabilized-Aloha kinds; the others ignore it — see make_discipline).
std::unique_ptr<sim::ChannelDiscipline> discipline(const Scenario& s,
                                                   std::uint64_t seed) {
  return sim::make_discipline(s.discipline, sim::UnslottedConfig{}, seed);
}

/// The fault intensity a run installs; 0 = fault-free.
std::uint32_t fault_intensity(const Scenario& s, const RunConfig& cfg) {
  if (!s.make_fault_plan) return 0;
  return cfg.faults > 0 ? cfg.faults : s.default_faults;
}

double offered_load(const Scenario& s, const RunConfig& cfg) {
  return cfg.load > 0.0 ? cfg.load : s.default_load;
}

/// Steps `g` (rank t's window of it when t is set) to completion and
/// assembles the result.  Ranks other than 0 return an empty result.
RunResult step_sync(const Scenario& s, const RunConfig& cfg, const Graph& g,
                    const sim::FaultPlan& plan,
                    sim::shard_comm::Transport* t) {
  const unsigned rank = t != nullptr ? t->rank() : 0;
  const unsigned ranks = t != nullptr ? t->ranks() : 1;
  const auto [lo, hi] =
      sim::Scheduler::shard_range(g.num_nodes(), rank, ranks);
  sim::Engine eng(g,
                  s.make_load_factory
                      ? s.make_load_factory(g, offered_load(s, cfg))
                      : s.make_factory(g),
                  cfg.seed, sim::make_scheduler(cfg.threads),
                  discipline(s, cfg.seed), t);
  if (!plan.empty()) eng.install_faults(plan);
  const bool completed = eng.step(s.max_rounds);

  std::vector<std::uint8_t> scratch;
  RankTally mine;
  if (s.digest) {
    // Rank r folds its window from rank r-1's accumulator; the chain ends
    // at rank K-1 with the serial fold's value.
    std::uint64_t h0 = kDigestSeed;
    std::uint64_t dummy = 0;
    if (rank > 0) {
      swap_bytes(*t, rank - 1, &dummy, sizeof(dummy), &h0, sizeof(h0),
                 scratch);
    }
    mine.digest = s.digest(NodeResults{
        hi - lo,
        [&eng](NodeId v) -> const sim::Process& { return eng.process(v); },
        nullptr, lo, h0});
    if (rank + 1 < ranks) {
      swap_bytes(*t, rank + 1, &mine.digest, sizeof(mine.digest), &dummy,
                 sizeof(dummy), scratch);
    }
  }
  mine.p2p_messages = eng.metrics().p2p_messages;
  mine.fault_drops = plan.empty() ? 0 : eng.faults()->stats().drops;
  mine.xshard_msgs = eng.xshard_msgs();
  mine.node_steps = eng.node_steps();
  mine.completed = completed ? 1 : 0;

  if (t != nullptr) {
    // Edges with exactly one endpoint in the window: the frontier the
    // cross-shard traffic rides.
    for (NodeId v = lo; v < hi; ++v) {
      for (const Neighbor& nb : g.neighbors(v)) {
        if (nb.to < lo || nb.to >= hi) ++mine.boundary_edges;
      }
    }
    mine.wire_bytes = t->bytes_out();
    if (rank != 0) {
      swap_bytes(*t, 0, &mine, sizeof(mine), nullptr, 0, scratch);
      return RunResult{};
    }
  }
  // Rank 0 gathers every peer's tally.  Slot and round counters are
  // replicas (take this rank's); the per-node sums reduce across ranks.
  RankTally total = mine;
  for (unsigned r = 1; r < ranks; ++r) {
    RankTally peer;
    swap_bytes(*t, r, nullptr, 0, &peer, sizeof(peer), scratch);
    MMN_REQUIRE(peer.completed == mine.completed,
                "ranks disagree on termination — determinism broken");
    total.p2p_messages += peer.p2p_messages;
    total.fault_drops += peer.fault_drops;
    total.xshard_msgs += peer.xshard_msgs;
    total.boundary_edges += peer.boundary_edges;
    total.wire_bytes += peer.wire_bytes;
    total.node_steps += peer.node_steps;
    if (r == ranks - 1) total.digest = peer.digest;  // chain ends at K-1
  }

  RunResult result;
  result.realized_n = g.num_nodes();
  result.completed = completed;
  result.status = completed ? sim::RunStatus::kCompleted
                            : sim::RunStatus::kSlotCapReached;
  result.metrics = eng.metrics();
  result.metrics.p2p_messages = total.p2p_messages;
  result.digest = total.digest;
  if (!plan.empty()) {
    result.faults = eng.faults()->stats();  // event counters are replicas
    result.faults.drops = total.fault_drops;
  }
  // Every cross-shard edge is counted by both owning windows.
  result.shard = ShardStats{total.xshard_msgs, total.boundary_edges / 2,
                            total.wire_bytes, result.metrics.rounds,
                            total.node_steps};
  return result;
}

/// Two-phase recovery flow.  Phase A steps the protocol serially into the
/// fault: the round where the kills land runs with in-flight traffic
/// hitting dead links (dropped and counted), and one round beyond would
/// start violating the protocol's own invariants — the paper's
/// deterministic protocols assume reliable links, so the recovery mechanism
/// is the epoch rebuild, not in-protocol loss tolerance.  The epoch overlay
/// then compacts the surviving topology into a fresh arena and phase B
/// re-runs the protocol from scratch on it under the configured scheduler;
/// the slots between the fault and the configured epoch boundary model the
/// detection/rebuild window and bill into recovery_slots.  The recovery
/// digest folds phase B's protocol result with the overlay's kill-set word
/// — both are invariant to where the epoch boundary lands (any boundary
/// past the last fault event yields the same compacted graph), so recovery
/// runs pin re-convergence without being sensitive to drop timing.
RunResult run_recovery(const Scenario& s, const RunConfig& cfg,
                       const Graph& g, const sim::FaultPlan& plan) {
  MMN_REQUIRE(s.fault_epoch_slots > 0,
              "fault-recovery scenarios need fault_epoch_slots");
  std::uint64_t last_fault = 0;
  for (const sim::FaultEvent& e : plan.events()) {
    last_fault = std::max(last_fault, e.slot);
  }
  MMN_REQUIRE(s.fault_epoch_slots > last_fault,
              "the epoch boundary must fall after the last fault event");
  sim::Engine wounded(g, s.make_factory(g), cfg.seed, nullptr,
                      discipline(s, cfg.seed));
  wounded.install_faults(plan);
  wounded.step(last_fault + 1);
  EpochOverlay& overlay = wounded.faults()->overlay();
  const EpochOverlay::Compaction compaction = overlay.compact();

  RunResult result =
      step_sync(s, cfg, compaction.graph, sim::FaultPlan{}, nullptr);
  result.realized_n = g.num_nodes();
  result.faults = wounded.faults()->stats();
  const std::uint64_t first = plan.first_fault_slot();
  const std::uint64_t phase_a =
      s.fault_epoch_slots > first ? s.fault_epoch_slots - first : 0;
  result.recovery_slots = phase_a + result.metrics.rounds;
  result.faults.recovery_slots = result.recovery_slots;
  if (s.digest) {
    result.digest = digest_mix(result.digest, overlay.digest_word());
  }
  return result;
}

RunResult step_async(const Scenario& s, const RunConfig& cfg, const Graph& g,
                     const sim::FaultPlan& plan) {
  // Load scenarios run their stations natively as AsyncProcesses, no
  // synchronizer in between — deferring disciplines are fine because
  // open-loop stations never read an idle slot as information.  Everything
  // else runs its synchronous protocol under the busy-tone synchronizer.
  const bool native = s.make_async_load_factory != nullptr;
  sim::AsyncEngine eng(
      g,
      native ? s.make_async_load_factory(g, offered_load(s, cfg))
             : synchronize(s.make_factory(g)),
      cfg.seed, s.async_max_delay_slots, sim::make_scheduler(cfg.threads),
      discipline(s, cfg.seed));
  if (!plan.empty()) eng.install_faults(plan);
  RunResult result;
  result.realized_n = g.num_nodes();
  result.metrics = eng.run(s.max_rounds);
  result.status = eng.status();
  result.completed = result.status == sim::RunStatus::kCompleted;
  // A synchronized protocol cut off by the slot cap has no result to
  // digest; a capped open-loop run's backlog is its result.
  if (s.digest && (native || result.completed)) {
    NodeResults nodes{g.num_nodes(), nullptr};
    if (native) {
      nodes.at_async = [&eng](NodeId v) -> const sim::AsyncProcess& {
        return eng.process(v);
      };
    } else {
      nodes.at = [&eng](NodeId v) -> const sim::Process& {
        return static_cast<const SynchronizerProcess&>(eng.process(v))
            .inner();
      };
    }
    result.digest = s.digest(nodes);
  }
  if (!plan.empty()) result.faults = eng.faults()->stats();
  return result;
}

/// The run of the whole graph (t null) or of rank t's window of it.
RunResult run_graph(const Scenario& s, const RunConfig& cfg,
                    sim::shard_comm::Transport* t) {
  const TopologySpec spec{s.topology, topology_round_n(s.topology, cfg.n),
                          cfg.seed};
  // A rank materializes only its window of the CSR arena; the windowed
  // build replays the full generator and weight-permutation streams, so
  // owned rows are bit-identical to the full build's.
  const auto [lo, hi] = sim::Scheduler::shard_range(
      spec.n, t != nullptr ? t->rank() : 0, t != nullptr ? t->ranks() : 1);
  const Graph g = t == nullptr
                      ? build_topology(spec)
                      : build_topology_window(spec, GraphWindow{lo, hi});
  sim::FaultPlan plan;
  if (const std::uint32_t k = fault_intensity(s, cfg); k > 0) {
    // Fault plans are drawn from the full topology (global edge-id
    // lottery).  A rank builds it transiently — the plan is a pure function
    // of (graph, intensity, seed), so all replicas agree — and drops it
    // before the run, so the steady-state footprint stays the window's.
    plan = t == nullptr ? s.make_fault_plan(g, k, cfg.seed)
                        : s.make_fault_plan(build_topology(spec), k, cfg.seed);
  }
  if (!plan.empty() && s.fault_recovery) return run_recovery(s, cfg, g, plan);
  RunResult result = cfg.engine == EngineKind::kAsync
                         ? step_async(s, cfg, g, plan)
                         : step_sync(s, cfg, g, plan, t);
  // The fault trajectory is part of the run's identity: fold it so the
  // equivalence suites cover drop accounting too.
  if (!plan.empty() && s.digest) {
    result.digest = digest_mix(result.digest, result.faults.digest_word());
  }
  return result;
}

}  // namespace

const char* unsupported_reason(const Scenario& s, const RunConfig& cfg) {
  if (cfg.threads < 1 || cfg.ranks < 1) {
    return "threads and ranks must be at least 1";
  }
  if (cfg.load > 0.0 && !s.make_load_factory) {
    return "scenario is not load-capable (no make_load_factory)";
  }
  if (cfg.faults > 0 && !s.make_fault_plan) {
    return "scenario is not fault-capable (no make_fault_plan)";
  }
  if (cfg.ranks > 1) {
    if (cfg.threads > 1) {
      return "ranks > 1 runs one serial process per rank; it does not "
             "compose with a thread count";
    }
    if (cfg.engine != EngineKind::kSync) {
      return "ranks > 1 runs the synchronous engine only";
    }
    // The two-phase epoch rebuild re-runs on a compacted graph the rank
    // windows were not cut for.
    if (s.fault_recovery) {
      return "fault-recovery scenarios (two-phase epoch rebuild) do not run "
             "sharded";
    }
  }
  if (cfg.engine == EngineKind::kAsync && s.fault_recovery) {
    return "fault-recovery scenarios run on the synchronous engine";
  }
  if (cfg.engine == EngineKind::kAsync && !s.make_async_load_factory) {
    if (!s.channel_free) {
      return "scenario uses the channel and cannot run under the "
             "synchronizer on the asynchronous engine";
    }
    if (fault_intensity(s, cfg) > 0) {
      return "fault injection is not supported on the synchronizer path";
    }
    if (sim::make_discipline(s.discipline)->defers()) {
      return "a deferring discipline would falsify the synchronizer's "
             "idle-slot pulses on the asynchronous engine";
    }
  }
  return nullptr;
}

RunResult run(const Scenario& s, const RunConfig& cfg) {
  const char* why = unsupported_reason(s, cfg);
  MMN_REQUIRE(why == nullptr, why);
  if (cfg.ranks == 1) return run_graph(s, cfg, nullptr);
  RunResult result;
  sim::shard_comm::run_ranks(cfg.ranks, [&](sim::shard_comm::Transport& t) {
    RunResult mine = run_graph(s, cfg, &t);
    if (t.rank() == 0) result = mine;
  });
  return result;
}

RunResult run_sharded(const Scenario& s, NodeId n, std::uint64_t seed,
                      unsigned ranks, double load, std::uint32_t faults,
                      ShardStats* stats) {
  RunResult r = run(s, {.n = n, .seed = seed, .ranks = ranks, .load = load,
                        .faults = faults});
  if (stats != nullptr) *stats = r.shard;
  return r;
}

}  // namespace mmn::scenario
