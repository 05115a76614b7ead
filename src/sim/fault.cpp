#include "sim/fault.hpp"

#include <algorithm>
#include <numeric>

#include "sim/channel_discipline.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace mmn::sim {

namespace {

constexpr std::uint64_t kFaultStream = 0xFA'17'5EEDULL;

/// Is the graph still connected when `dead` links (plus `exclude`) are
/// removed?  Plain BFS over the adjacency arena; plan construction is the
/// only caller, so O(n + m) per probe is fine.
bool connected_without(const Graph& g, const std::vector<char>& dead,
                       EdgeId exclude) {
  const NodeId n = g.num_nodes();
  if (n <= 1) return true;
  std::vector<char> seen(n, 0);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  frontier.push_back(0);
  seen[0] = 1;
  NodeId reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.back();
    frontier.pop_back();
    for (const Neighbor& nb : g.neighbors(u)) {
      if (nb.edge == exclude || dead[nb.edge] != 0 || seen[nb.to] != 0) {
        continue;
      }
      seen[nb.to] = 1;
      ++reached;
      frontier.push_back(nb.to);
    }
  }
  return reached == n;
}

}  // namespace

std::uint64_t FaultStats::digest_word() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    h = (h ^ word) * 0x100000001b3ULL;
  };
  mix(link_downs);
  mix(link_ups);
  mix(node_crashes);
  mix(node_recoveries);
  mix(links_down);
  mix(nodes_down);
  mix(drops);
  mix(orphaned_pkts);
  mix(recovery_slots);
  return h;
}

void FaultPlan::add_outage_windows(EdgeId link, std::uint64_t first_down,
                                   std::uint64_t down_slots,
                                   std::uint64_t up_slots,
                                   std::uint64_t horizon) {
  MMN_REQUIRE(down_slots > 0 && up_slots > 0,
              "outage windows need positive down/up durations");
  for (std::uint64_t s = first_down; s < horizon;
       s += down_slots + up_slots) {
    add({s, FaultKind::kLinkDown, link});
    if (s + down_slots < horizon) {
      add({s + down_slots, FaultKind::kLinkUp, link});
    }
  }
}

FaultPlan FaultPlan::link_kills(const Graph& g, std::uint32_t k,
                                std::uint64_t slot, std::uint64_t seed) {
  FaultPlan plan;
  if (k == 0) return plan;
  Rng root(seed);
  Rng rng = root.fork(kFaultStream);
  std::vector<EdgeId> perm(g.num_edges());
  std::iota(perm.begin(), perm.end(), EdgeId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.next_below(i)]);
  }
  std::vector<char> dead(g.num_edges(), 0);
  std::uint32_t killed = 0;
  for (const EdgeId e : perm) {
    if (killed == k) break;
    if (!connected_without(g, dead, e)) continue;  // bridge — keep it
    dead[e] = 1;
    plan.add({slot, FaultKind::kLinkDown, e});
    ++killed;
  }
  MMN_REQUIRE(killed == k,
              "link_kills: graph has too few removable (non-bridge) edges");
  return plan;
}

FaultPlan FaultPlan::link_churn(const Graph& g, double rate,
                                std::uint64_t horizon, std::uint64_t seed) {
  FaultPlan plan;
  Rng root(seed);
  Rng rng = root.fork(kFaultStream);
  std::vector<char> dead(g.num_edges(), 0);
  std::vector<EdgeId> dead_list;
  for (std::uint64_t s = 1; s < horizon; ++s) {
    if (!rng.next_bernoulli(rate)) continue;
    const bool revive = !dead_list.empty() && rng.next_bernoulli(0.5);
    if (revive) {
      const std::size_t i = rng.next_below(dead_list.size());
      const EdgeId e = dead_list[i];
      dead_list[i] = dead_list.back();
      dead_list.pop_back();
      dead[e] = 0;
      plan.add({s, FaultKind::kLinkUp, e});
      continue;
    }
    // A kill draws a handful of candidates and takes the first whose
    // removal keeps the surviving graph connected; on a sparse graph every
    // candidate may be a bridge and the hit fizzles — that is fine, the
    // draw count stays schedule-independent either way.
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto e = static_cast<EdgeId>(rng.next_below(g.num_edges()));
      if (dead[e] != 0) continue;
      if (!connected_without(g, dead, e)) continue;
      dead[e] = 1;
      dead_list.push_back(e);
      plan.add({s, FaultKind::kLinkDown, e});
      break;
    }
  }
  return plan;
}

FaultPlan FaultPlan::node_churn(const Graph& g, double rate,
                                std::uint64_t down_slots,
                                std::uint64_t horizon, std::uint64_t seed) {
  MMN_REQUIRE(down_slots > 0, "node_churn: crashes need a positive duration");
  FaultPlan plan;
  Rng root(seed);
  Rng rng = root.fork(kFaultStream + 1);
  const NodeId n = g.num_nodes();
  std::vector<std::uint64_t> down_until(n, 0);
  std::uint32_t down_now = 0;
  const std::uint32_t max_down = std::max<std::uint32_t>(1, n / 8);
  for (std::uint64_t s = 1; s < horizon; ++s) {
    // Recoveries fire before new crashes so the down budget frees up.
    for (NodeId v = 0; v < n; ++v) {
      if (down_until[v] != 0 && down_until[v] == s) {
        down_until[v] = 0;
        --down_now;
      }
    }
    if (!rng.next_bernoulli(rate)) continue;
    if (down_now >= max_down) continue;
    const auto v = static_cast<NodeId>(rng.next_below(n));
    if (down_until[v] != 0) continue;  // already down
    down_until[v] = s + down_slots;
    ++down_now;
    plan.add({s, FaultKind::kNodeCrash, v});
    plan.add({s + down_slots, FaultKind::kNodeRecover, v});
  }
  return plan;
}

void FaultPlan::merge(const FaultPlan& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::uint64_t FaultPlan::first_fault_slot() const {
  std::uint64_t first = ~std::uint64_t{0};
  for (const FaultEvent& e : events_) first = std::min(first, e.slot);
  return first;
}

FaultRuntime::FaultRuntime(const Graph& g, const FaultPlan& plan)
    : overlay_(g),
      events_(plan.events().begin(), plan.events().end()) {
  // Stable sort: events filed for the same slot apply in plan order, which
  // is itself deterministic, so the replay is schedule-independent.
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.slot < b.slot;
                   });
}

void FaultRuntime::apply_slot(std::uint64_t slot,
                              ChannelDiscipline& discipline) {
  last_begin_ = cursor_;
  while (cursor_ < events_.size() && events_[cursor_].slot <= slot) {
    const FaultEvent& e = events_[cursor_++];
    switch (e.kind) {
      case FaultKind::kLinkDown:
        if (overlay_.link_alive(e.id)) {
          overlay_.kill_link(e.id);
          ++stats_.link_downs;
        }
        break;
      case FaultKind::kLinkUp:
        if (!overlay_.link_alive(e.id)) {
          overlay_.revive_link(e.id);
          ++stats_.link_ups;
        }
        break;
      case FaultKind::kNodeCrash:
        if (overlay_.node_alive(e.id)) {
          overlay_.crash_node(e.id);
          ++stats_.node_crashes;
          discipline.stifle(e.id);
        }
        break;
      case FaultKind::kNodeRecover:
        if (!overlay_.node_alive(e.id)) {
          overlay_.recover_node(e.id);
          ++stats_.node_recoveries;
        }
        break;
    }
  }
  stats_.links_down = overlay_.links_down();
  stats_.nodes_down = overlay_.nodes_down();
}

}  // namespace mmn::sim
