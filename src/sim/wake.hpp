// Activity-driven stepping: which nodes the synchronous engine dispatches.
//
// Between the events that drive the paper's stepped protocols — a message,
// the idle slot that closes a barrier step, a success slot of the global
// stage, the last round of a fixed-length step — almost every node only
// listens.  So instead of stepping all n nodes every round, a node declares
// after each round (NodeContext::sleep) when it next needs to run:
//   * on a message (always implied);
//   * on a slot whose outcome lies in a declared set (idle/success/collision);
//   * at a given round.
// A node that declares nothing runs next round.  That is the default, so a
// Process that never calls sleep() is stepped every round exactly as before.
//
// WakeTable holds this state in preallocated bit sets plus a due-round
// calendar and builds each round's awake list, in ascending node id, from
// four sources: the every-round set, the destinations of the messages the
// round delivers, the subscribers to the observed slot outcome, and the
// nodes due this round.  A round costs O(awake + messages + n/64), plus
// O(log) per pending due-round declaration.  While no node sleeps (every
// node in the every-round set, e.g. a protocol that never declares) a
// round needs none of it: all_awake() holds, all of [0, n) run in id order,
// and the fold is skipped unless some node declared a sleep.
//
// The list is a pure function of committed state (the previous round's
// sends, its slot outcome, and the declarations made so far), never of the
// scheduler, and schedulers split it into contiguous ascending chunks — so
// shard-major merges still concatenate effects in ascending node order and
// serial, threaded and ranked runs stay bit-identical (ARCHITECTURE.md,
// "Activity-driven stepping").
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/channel.hpp"
#include "support/bitset.hpp"

namespace mmn::sim {

/// Slot outcomes a sleeping node asks to be woken by: bit (1 << SlotState).
enum WakeOn : std::uint8_t {
  kWakeOnIdle = 1u << static_cast<unsigned>(SlotState::kIdle),
  kWakeOnSuccess = 1u << static_cast<unsigned>(SlotState::kSuccess),
  kWakeOnCollision = 1u << static_cast<unsigned>(SlotState::kCollision),
  /// Not a slot outcome: run next round (the undeclared default).
  kWakeEveryRound = 1u << 3,
};

/// A node's declaration of when it next needs to run.
struct WakeDecl {
  static constexpr std::uint64_t kNoRound = ~std::uint64_t{0};

  std::uint8_t on = kWakeEveryRound;  ///< WakeOn bits
  std::uint64_t at_round = kNoRound;  ///< due round, kNoRound = none
};

class WakeTable {
 public:
  /// n nodes, every one awake every round, round 0 next.
  void reset(NodeId n);

  // --- node phase: called for node v by the shard dispatching it; touches
  // only v's own per-node slots, so shards never share a written word.

  /// Rounds v slept through since it last ran; records `round` as its run.
  std::uint64_t enter(NodeId v, std::uint64_t round) {
    const std::uint64_t slept = round - last_[v] - 1;
    last_[v] = round;
    return slept;
  }

  /// v is dispatched but crashed: it does not run, and this round does not
  /// count as slept — a recovered node catches up only on the rounds it
  /// would have been stepped through.  It stays awake every round while down.
  void enter_crashed(NodeId v) {
    ++last_[v];
    decl_[v] = WakeDecl{};
  }

  void declare(NodeId v, const WakeDecl& decl) { decl_[v] = decl; }

  // --- round loop: single-threaded, between node phases.

  /// True when every node is in the every-round set: the next round runs
  /// all of [0, n) and needs no awake list and no message marks.
  bool all_awake() const { return every_count_ == n_; }

  /// Node v must be dispatched every round until it next declares (a crash:
  /// the engine visits crashed nodes every round).
  void force_awake(NodeId v) {
    if (!every_.test(v)) {
      every_.set(v);
      ++every_count_;
    }
  }

  /// A message delivered next round wakes its destination.  Needed only
  /// when !all_awake() after the round's commit().
  void mark_message(NodeId to) { msg_.set(to); }

  /// The round when all_awake(): every node runs; consumes the due entries.
  void gather_all(std::uint64_t round);

  /// The ascending list of nodes to dispatch in `round`, whose observed slot
  /// outcome is `outcome`.  Consumes the message marks and due entries.
  std::span<const NodeId> gather(std::uint64_t round, SlotState outcome);

  /// Folds the declarations made while running `round` by the nodes the
  /// last gather()/gather_all() dispatched.  `any_slept` says whether one of
  /// them declared a sleep; a gather_all() round without one changes
  /// nothing and is skipped.
  void commit(std::uint64_t round, bool any_slept);

 private:
  using Due = std::pair<std::uint64_t, NodeId>;  ///< (round, node)

  /// Pops the calendar entries due by `round`; live ones set due_ if `mark`.
  void pop_due(std::uint64_t round, bool mark);

  NodeId n_ = 0;
  NodeId every_count_ = 0;  ///< bits set in every_
  bool all_dispatched_ = false;  ///< last gather was gather_all()
  NodeBitset every_;
  std::array<NodeBitset, 3> on_slot_;  ///< indexed by SlotState
  NodeBitset msg_;                     ///< destinations of next round's inboxes
  NodeBitset due_;                     ///< scratch: due this round
  std::vector<std::uint64_t> last_;    ///< round each node last ran
  std::vector<WakeDecl> decl_;         ///< this round's declarations
  std::vector<std::uint64_t> due_round_;  ///< live calendar entry per node
  std::vector<Due> calendar_;          ///< min-heap; stale entries skipped
  std::vector<NodeId> awake_;
};

}  // namespace mmn::sim
