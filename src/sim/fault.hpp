// Deterministic fault injection: slot-aligned link/node churn plans and the
// runtime that applies them between rounds.
//
// A FaultPlan is a pre-sampled event list — every stochastic draw (which
// link dies, when a node crashes, how long a satellite pass shadows a link)
// happens at *plan build time* from a forked Rng stream, never during the
// run.  The engines then apply due events single-threaded at each slot
// boundary, before any shard steps, so serial and parallel schedules see
// the exact same topology in every round and the bit-identity proof of
// ARCHITECTURE.md carries over with no new argument needed.
//
// Degradation semantics (see ARCHITECTURE.md, "Dynamic topology & fault
// injection"): faults gate the send commit — a packet aimed at a dead link
// or a dead endpoint is dropped-and-counted at the sender; messages already
// in flight still deliver (the physical analogy: the photons left the
// antenna before the link died).  A crashed node stops stepping entirely;
// anything addressed to it while it is down is counted as a drop, and
// open-loop stations report the backlog stranded in a still-crashed node as
// orphaned_pkts rather than letting it pollute backlog/goodput.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/epoch.hpp"
#include "graph/graph.hpp"

namespace mmn::sim {

class ChannelDiscipline;

enum class FaultKind : std::uint8_t {
  kLinkDown,
  kLinkUp,
  kNodeCrash,
  kNodeRecover,
};

struct FaultEvent {
  std::uint64_t slot = 0;  ///< applied before this slot's round runs
  FaultKind kind = FaultKind::kLinkDown;
  std::uint32_t id = 0;  ///< EdgeId for link events, NodeId for node events

  bool operator==(const FaultEvent&) const = default;
};

/// Aggregate fault/degradation counters.  Event counts and drops accumulate
/// over the run; links_down/nodes_down snapshot the current dead sets.
struct FaultStats {
  std::uint64_t link_downs = 0;       ///< kLinkDown events applied
  std::uint64_t link_ups = 0;         ///< kLinkUp events applied
  std::uint64_t node_crashes = 0;     ///< kNodeCrash events applied
  std::uint64_t node_recoveries = 0;  ///< kNodeRecover events applied
  std::uint64_t links_down = 0;       ///< links currently dead
  std::uint64_t nodes_down = 0;       ///< nodes currently crashed
  std::uint64_t drops = 0;            ///< messages dropped at the fault seam
  std::uint64_t orphaned_pkts = 0;    ///< open-loop backlog stranded in
                                      ///< crashed stations at run end
  std::uint64_t recovery_slots = 0;   ///< first fault -> re-convergence
                                      ///< (recovery runs only)

  bool operator==(const FaultStats&) const = default;

  /// FNV-1a fold of every counter, for digesting a churn run.
  std::uint64_t digest_word() const;
};

/// A seed-deterministic, slot-aligned schedule of fault events.  Build one
/// with the factories below (or add() events by hand); the same (graph,
/// parameters, seed) triple always yields the same plan, on any schedule.
class FaultPlan {
 public:
  void add(FaultEvent e) { events_.push_back(e); }

  /// Scheduled outage windows a la satellite passes: the link goes down at
  /// `first_down` and then alternates `down_slots` dark / `up_slots` lit
  /// until `horizon`.
  void add_outage_windows(EdgeId link, std::uint64_t first_down,
                          std::uint64_t down_slots, std::uint64_t up_slots,
                          std::uint64_t horizon);

  /// k simultaneous link kills at `slot`, sampled in seeded order but
  /// connectivity-safe: a candidate that would disconnect the surviving
  /// graph is skipped, so protocol recovery is always well-posed.  Requires
  /// the graph to have k removable (non-bridge) edges.
  static FaultPlan link_kills(const Graph& g, std::uint32_t k,
                              std::uint64_t slot, std::uint64_t seed);

  /// Rate-driven link churn over [1, horizon): each slot flips a coin at
  /// `rate`; a hit either revives a random dead link or kills a random
  /// alive one (connectivity-safe, so a kill may fizzle on sparse graphs).
  static FaultPlan link_churn(const Graph& g, double rate,
                              std::uint64_t horizon, std::uint64_t seed);

  /// Rate-driven node churn over [1, horizon): each hit crashes a random
  /// alive node for `down_slots`, with the matching recovery scheduled
  /// immediately.  At most n/8 nodes are ever down at once.
  static FaultPlan node_churn(const Graph& g, double rate,
                              std::uint64_t down_slots, std::uint64_t horizon,
                              std::uint64_t seed);

  /// Concatenates another plan's events (e.g. link churn + node churn).
  void merge(const FaultPlan& other);

  bool empty() const { return events_.empty(); }
  std::span<const FaultEvent> events() const { return events_; }

  /// Slot of the earliest event; ~0 for an empty plan.
  std::uint64_t first_fault_slot() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Owns the overlay + stats for one engine run and replays the plan.  The
/// engines call apply_slot() once per slot boundary, single-threaded; the
/// replay is a cursor walk over a stable-sorted event list — zero
/// allocation after construction.
class FaultRuntime {
 public:
  FaultRuntime(const Graph& g, const FaultPlan& plan);

  /// Applies every event due at or before `slot`.  `discipline` gets
  /// stifle(v) on each node crash so a crashed node's pending channel state
  /// (TDMA slot, tree-walk contention, reservation grant) is withdrawn
  /// instead of transmitting from beyond the grave.
  void apply_slot(std::uint64_t slot, ChannelDiscipline& discipline);

  /// The events the last apply_slot() call walked over (applied, or
  /// skipped as no-ops), in plan order.
  std::span<const FaultEvent> last_applied() const {
    return {events_.data() + last_begin_, cursor_ - last_begin_};
  }

  EpochOverlay& overlay() { return overlay_; }
  const EpochOverlay& overlay() const { return overlay_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }

 private:
  EpochOverlay overlay_;
  FaultStats stats_;
  std::vector<FaultEvent> events_;  ///< stable-sorted by slot
  std::size_t cursor_ = 0;
  std::size_t last_begin_ = 0;  ///< first event of the last apply_slot()
};

}  // namespace mmn::sim
