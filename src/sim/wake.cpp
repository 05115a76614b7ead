#include "sim/wake.hpp"

#include <algorithm>
#include <bit>

namespace mmn::sim {
namespace {

// Min-heap order on due rounds (std::*_heap build max-heaps).
bool later(const std::pair<std::uint64_t, NodeId>& a,
           const std::pair<std::uint64_t, NodeId>& b) {
  return a.first > b.first;
}

}  // namespace

void WakeTable::reset(NodeId n) {
  n_ = n;
  every_count_ = n;
  all_dispatched_ = false;
  every_.assign(n);
  for (NodeId v = 0; v < n; ++v) every_.set(v);
  for (NodeBitset& s : on_slot_) s.assign(n);
  msg_.assign(n);
  due_.assign(n);
  // "Last ran in round -1": round 0's slept count is 0 (unsigned wrap).
  last_.assign(n, WakeDecl::kNoRound);
  decl_.assign(n, WakeDecl{});
  due_round_.assign(n, WakeDecl::kNoRound);
  calendar_.clear();
  calendar_.reserve(n);
  awake_.clear();
  awake_.reserve(n);
}

void WakeTable::pop_due(std::uint64_t round, bool mark) {
  // A node's live entry is the one due_round_ names; entries left behind by
  // a later re-declaration are dropped here.
  while (!calendar_.empty() && calendar_.front().first <= round) {
    const Due top = calendar_.front();
    std::pop_heap(calendar_.begin(), calendar_.end(), later);
    calendar_.pop_back();
    if (due_round_[top.second] == top.first) {
      due_round_[top.second] = WakeDecl::kNoRound;
      if (mark) due_.set(top.second);
    }
  }
}

void WakeTable::gather_all(std::uint64_t round) {
  pop_due(round, /*mark=*/false);
  all_dispatched_ = true;
}

std::span<const NodeId> WakeTable::gather(std::uint64_t round,
                                          SlotState outcome) {
  pop_due(round, /*mark=*/true);
  all_dispatched_ = false;
  awake_.clear();
  const std::uint64_t* every = every_.words();
  const std::uint64_t* slot = on_slot_[static_cast<unsigned>(outcome)].words();
  std::uint64_t* msg = msg_.words();
  std::uint64_t* due = due_.words();
  for (std::size_t w = 0; w < every_.num_words(); ++w) {
    std::uint64_t bits = every[w] | slot[w] | msg[w] | due[w];
    msg[w] = 0;
    due[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      awake_.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return awake_;
}

void WakeTable::commit(std::uint64_t round, bool any_slept) {
  if (all_dispatched_) {
    // Everyone ran and stays in the every-round set unless someone slept.
    // Stale subscriptions of every-round nodes are harmless: a node's bits
    // are all rewritten by the fold of the round it declares a sleep in.
    if (!any_slept) return;
    awake_.resize(n_);
    for (NodeId v = 0; v < n_; ++v) awake_[v] = v;
  }
  // Bit k of WakeDecl::on selects set k: idle, success, collision, every.
  std::uint64_t* const sets[4] = {on_slot_[0].words(), on_slot_[1].words(),
                                  on_slot_[2].words(), every_.words()};
  // The list ascends, so a word's nodes are adjacent: fold them into one
  // read-modify-write per word and set.
  const std::size_t count = awake_.size();
  std::size_t i = 0;
  while (i < count) {
    const std::size_t w = awake_[i] >> 6;
    std::uint64_t touched = 0;
    std::uint64_t bits[4] = {0, 0, 0, 0};
    for (; i < count && (awake_[i] >> 6) == w; ++i) {
      const NodeId v = awake_[i];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      touched |= bit;
      std::uint8_t on = decl_[v].on;
      std::uint64_t at = decl_[v].at_round;
      if (at != WakeDecl::kNoRound && at <= round + 1) {
        on |= kWakeEveryRound;  // due next round anyway
        at = WakeDecl::kNoRound;
      }
      // Re-declaring the round of the live entry (a fixed step's end, woken
      // early by messages) reuses that entry.
      if (at != WakeDecl::kNoRound && at != due_round_[v]) {
        calendar_.emplace_back(at, v);
        std::push_heap(calendar_.begin(), calendar_.end(), later);
      }
      due_round_[v] = at;
      for (unsigned k = 0; k < 4; ++k) {
        if ((on >> k) & 1u) bits[k] |= bit;
      }
    }
    every_count_ += static_cast<NodeId>(std::popcount(bits[3])) -
                    static_cast<NodeId>(std::popcount(sets[3][w] & touched));
    for (unsigned k = 0; k < 4; ++k) {
      sets[k][w] = (sets[k][w] & ~touched) | bits[k];
    }
  }
}

}  // namespace mmn::sim
