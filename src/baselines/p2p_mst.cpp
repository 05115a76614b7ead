#include "baselines/p2p_mst.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kTest = 201;         // [core]
constexpr std::uint16_t kAccept = 202;
constexpr std::uint16_t kReject = 203;
constexpr std::uint16_t kReport = 204;       // [weight] (0 = none)
constexpr std::uint16_t kConnectDown = 205;
constexpr std::uint16_t kConnect = 206;      // [core]
constexpr std::uint16_t kCycleWin = 207;
constexpr std::uint16_t kFlip = 208;
constexpr std::uint16_t kJoin = 209;
constexpr std::uint16_t kNewFragMsg = 210;   // [core]

}  // namespace

P2pMstProcess::P2pMstProcess(const sim::LocalView& view)
    : view_(view),
      core_(view.self),
      parent_(view.self),
      link_internal_(view.links().size(), false) {
  phases_ = view.n <= 1 ? 0 : ilog2_ceil(view.n);
  // Worst-case cover for sequential probing (2 rounds per incident link),
  // convergecasts and floods over fragments of uncontrolled Theta(n) radius.
  stage_len_ = 3 * static_cast<std::uint64_t>(view.n) + 8;
}

std::uint64_t P2pMstProcess::num_steps() const {
  return static_cast<std::uint64_t>(phases_) * 5;
}

StepSpec P2pMstProcess::step_spec(std::uint64_t) const {
  // Purely message-driven: nodes sleep between messages (reactive).
  return {StepKind::kFixed, stage_len_, /*reactive=*/true};
}

void P2pMstProcess::remove_child(EdgeId edge) {
  const auto it = std::find(children_.begin(), children_.end(), edge);
  MMN_ASSERT(it != children_.end(), "removing a non-child edge");
  children_.erase(it);
}

void P2pMstProcess::mark_internal(EdgeId edge) {
  const int idx = view_.link_index(edge);
  link_internal_[static_cast<std::size_t>(idx)] = true;
}

void P2pMstProcess::step_begin(std::uint64_t step, sim::NodeContext& ctx) {
  switch (sub_of(step)) {
    case Sub::kMwoe:
      probe_index_ = 0;
      probe_resolved_ = false;
      cand_weight_ = 0;
      cand_edge_ = kNoEdge;
      report_pending_ = static_cast<std::uint32_t>(children_.size());
      best_weight_ = 0;
      best_child_edge_ = kNoEdge;
      report_sent_ = false;
      have_mwoe_ = false;
      gate_edge_ = kNoEdge;
      pending_connects_.clear();
      is_f_root_ = false;
      probe_next_link(ctx);
      maybe_send_report(ctx);
      break;
    case Sub::kConnectSend:
      if (is_core() && have_mwoe_) {
        if (best_child_edge_ == kNoEdge) {
          gate_edge_ = cand_edge_;
          ctx.send(gate_edge_,
                   sim::Packet(kConnect, {static_cast<sim::Word>(core_)}));
        } else {
          ctx.send(best_child_edge_, sim::Packet(kConnectDown));
        }
      }
      break;
    case Sub::kConnectProc:
      if (is_core() && !have_mwoe_) is_f_root_ = true;
      for (const auto& [edge, child_core] : pending_connects_) {
        if (edge == gate_edge_ && core_ < child_core) {
          continue;  // cycle: the higher core id roots this F-tree
        }
        if (edge == gate_edge_) {
          // This side wins the cycle: it becomes the F-root.
          if (is_core()) {
            is_f_root_ = true;
          } else {
            ctx.send(parent_edge_, sim::Packet(kCycleWin));
          }
        }
      }
      break;
    case Sub::kMerge:
      if (is_core() && !is_f_root_ && have_mwoe_) {
        if (best_child_edge_ == kNoEdge) {
          const int idx = view_.link_index(gate_edge_);
          parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
          parent_edge_ = gate_edge_;
          mark_internal(gate_edge_);
          ctx.send(gate_edge_, sim::Packet(kJoin));
        } else {
          const EdgeId down = best_child_edge_;
          const int idx = view_.link_index(down);
          parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
          parent_edge_ = down;
          remove_child(down);
          ctx.send(down, sim::Packet(kFlip));
        }
      }
      break;
    case Sub::kNewFrag:
      if (is_core()) {
        for (EdgeId e : children_) {
          ctx.send(e, sim::Packet(kNewFragMsg,
                                  {static_cast<sim::Word>(core_)}));
        }
      }
      break;
  }
}

void P2pMstProcess::probe_next_link(sim::NodeContext& ctx) {
  const NeighborRange links = view_.links();
  while (probe_index_ < links.size()) {
    if (link_internal_[probe_index_]) {
      ++probe_index_;
      continue;
    }
    ctx.send(links[probe_index_].edge,
             sim::Packet(kTest, {static_cast<sim::Word>(core_)}));
    return;
  }
  probe_resolved_ = true;
}

void P2pMstProcess::maybe_send_report(sim::NodeContext& ctx) {
  if (report_sent_ || !probe_resolved_ || report_pending_ != 0) return;
  if (cand_weight_ != 0 && (best_weight_ == 0 || cand_weight_ < best_weight_)) {
    best_weight_ = cand_weight_;
    best_child_edge_ = kNoEdge;
  }
  report_sent_ = true;
  if (is_core()) {
    have_mwoe_ = best_weight_ != 0;
  } else {
    ctx.send(parent_edge_,
             sim::Packet(kReport, {static_cast<sim::Word>(best_weight_)}));
  }
}

void P2pMstProcess::on_message(std::uint64_t /*step*/, const sim::Received& msg,
                               sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kTest:
      if (static_cast<NodeId>(p[0]) == core_) {
        mark_internal(msg.via);
        ctx.send(msg.via, sim::Packet(kReject));
      } else {
        ctx.send(msg.via, sim::Packet(kAccept));
      }
      break;
    case kReject:
      mark_internal(msg.via);
      ++probe_index_;
      probe_next_link(ctx);
      maybe_send_report(ctx);
      break;
    case kAccept:
      probe_resolved_ = true;
      cand_edge_ = msg.via;
      cand_weight_ =
          view_.links()[static_cast<std::size_t>(view_.link_index(msg.via))]
              .weight;
      maybe_send_report(ctx);
      break;
    case kReport: {
      const Weight w = static_cast<Weight>(p[0]);
      if (w != 0 && (best_weight_ == 0 || w < best_weight_)) {
        best_weight_ = w;
        best_child_edge_ = msg.via;
      }
      MMN_ASSERT(report_pending_ > 0, "unexpected MWOE report");
      --report_pending_;
      maybe_send_report(ctx);
      break;
    }
    case kConnectDown:
      if (best_child_edge_ == kNoEdge) {
        gate_edge_ = cand_edge_;
        ctx.send(gate_edge_,
                 sim::Packet(kConnect, {static_cast<sim::Word>(core_)}));
      } else {
        ctx.send(best_child_edge_, sim::Packet(kConnectDown));
      }
      break;
    case kConnect:
      pending_connects_.push_back({msg.via, static_cast<NodeId>(p[0])});
      break;
    case kCycleWin:
      if (is_core()) {
        is_f_root_ = true;
      } else {
        ctx.send(parent_edge_, sim::Packet(kCycleWin));
      }
      break;
    case kFlip: {
      children_.push_back(msg.via);
      if (best_child_edge_ == kNoEdge) {
        const int idx = view_.link_index(gate_edge_);
        parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
        parent_edge_ = gate_edge_;
        mark_internal(gate_edge_);
        ctx.send(gate_edge_, sim::Packet(kJoin));
      } else {
        const EdgeId down = best_child_edge_;
        const int idx = view_.link_index(down);
        parent_ = view_.links()[static_cast<std::size_t>(idx)].to;
        parent_edge_ = down;
        remove_child(down);
        ctx.send(down, sim::Packet(kFlip));
      }
      break;
    }
    case kJoin:
      children_.push_back(msg.via);
      mark_internal(msg.via);
      break;
    case kNewFragMsg:
      core_ = static_cast<NodeId>(p[0]);
      for (EdgeId e : children_) {
        ctx.send(e, sim::Packet(kNewFragMsg, {p[0]}));
      }
      break;
    default:
      MMN_ASSERT(false, "unexpected packet in p2p MST baseline");
  }
}

std::vector<EdgeId> P2pMstProcess::mst_edges() const {
  MMN_REQUIRE(finished(), "baseline still running");
  std::vector<EdgeId> edges;
  if (parent_edge_ != kNoEdge) edges.push_back(parent_edge_);
  return edges;
}

}  // namespace mmn
