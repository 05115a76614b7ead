#include "baselines/p2p_global.hpp"

#include "support/check.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kFlood = 171;   // [id, dist]
constexpr std::uint16_t kHello = 172;   // child -> parent census
constexpr std::uint16_t kFold = 173;    // [partial]
constexpr std::uint16_t kResult = 174;  // [result]

}  // namespace

P2pGlobalProcess::P2pGlobalProcess(const sim::LocalView& view,
                                   P2pGlobalConfig config, sim::Word input)
    : view_(view), op_(config.op), acc_(input), best_id_(view.self) {
  MMN_REQUIRE(config.known_diameter >= -1, "invalid diameter hint");
  stage_len_ = config.known_diameter >= 0
                   ? static_cast<std::uint64_t>(config.known_diameter) + 1
                   : view.n;
}

StepSpec P2pGlobalProcess::step_spec(std::uint64_t step) const {
  // Stage 0: max-id flood / BFS.  Stage 1: child census.  Stage 2: fold.
  // Stage 3: result broadcast.  All point-to-point; the channel stays silent,
  // so every stage is reactive: nodes sleep between messages.
  if (step == 1) return {StepKind::kFixed, 2, /*reactive=*/true};
  return {StepKind::kFixed, stage_len_ + 1, /*reactive=*/true};
}

void P2pGlobalProcess::step_begin(std::uint64_t step, sim::NodeContext& ctx) {
  switch (step) {
    case 0:
      ctx.broadcast(sim::Packet(kFlood, {static_cast<sim::Word>(view_.self), 0}));
      break;
    case 1:
      if (!is_leader()) {
        MMN_ASSERT(parent_edge_ != kNoEdge, "flood did not reach this node");
        ctx.send(parent_edge_, sim::Packet(kHello));
      }
      break;
    case 2:
      send_fold_if_ready(ctx);
      break;
    case 3:
      if (is_leader()) {
        have_result_ = true;
        result_ = acc_;
        ctx.broadcast(sim::Packet(kResult, {result_}));
      }
      break;
    default:
      MMN_ASSERT(false, "unexpected step");
  }
}

void P2pGlobalProcess::step_round(std::uint64_t step, sim::NodeContext& ctx) {
  if (step != 0 || !improved_) return;
  improved_ = false;
  const sim::Packet flood(kFlood, {static_cast<sim::Word>(best_id_),
                                   static_cast<sim::Word>(best_dist_)});
  for (const auto& link : view_.links()) {
    if (link.edge != parent_edge_) ctx.send(link.edge, flood);
  }
}

void P2pGlobalProcess::send_fold_if_ready(sim::NodeContext& ctx) {
  if (is_leader() || sent_fold_ || received_ != children_) return;
  ctx.send(parent_edge_, sim::Packet(kFold, {acc_}));
  sent_fold_ = true;
}

void P2pGlobalProcess::on_message(std::uint64_t step, const sim::Received& msg,
                                  sim::NodeContext& ctx) {
  const sim::Packet& p = msg.packet();
  switch (p.type()) {
    case kFlood: {
      const NodeId id = static_cast<NodeId>(p[0]);
      const auto dist = static_cast<std::uint32_t>(p[1]) + 1;
      if (id > best_id_ || (id == best_id_ && dist < best_dist_)) {
        best_id_ = id;
        best_dist_ = dist;
        parent_edge_ = msg.via;
        improved_ = true;  // re-flooded in step_round after all arrivals
      }
      break;
    }
    case kHello:
      ++children_;
      break;
    case kFold:
      acc_ = semigroup_apply(op_, acc_, p[0]);
      ++received_;
      MMN_ASSERT(received_ <= children_, "more folds than children");
      if (step >= 2) send_fold_if_ready(ctx);
      break;
    case kResult:
      // Result floods over all links; each node forwards it exactly once.
      if (!have_result_) {
        have_result_ = true;
        result_ = p[0];
        const sim::Packet out(kResult, {result_});
        for (const auto& link : view_.links()) {
          if (link.edge != msg.via) ctx.send(link.edge, out);
        }
      }
      break;
    default:
      MMN_ASSERT(false, "unexpected packet in p2p baseline");
  }
}

sim::Word P2pGlobalProcess::result() const {
  MMN_REQUIRE(finished() && have_result_, "baseline still running");
  return result_;
}

}  // namespace mmn
