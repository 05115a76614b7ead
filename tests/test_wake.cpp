// Activity-driven stepping (sim/wake.hpp): a node that declares a sleep is
// dispatched exactly on its wake conditions — a message, a subscribed slot
// outcome, a due round — in ascending node order within each round, with
// the slept-round count it catches up on; a crash is not a sleep; sharded
// runs dispatch the same node-steps; and the dispatched node-steps counter
// reflects all of it.
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn::sim {
namespace {

/// (round, slept) of every run of one node.
using StepLog = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// A toy process on an 8-ring.  Nodes 0 and 4 run every round and drive
/// the channel and the messages; the others sleep with one wake condition
/// each (see the table in ExactRoundsAndOrder).  Never finishes.
class ToyProcess final : public Process {
 public:
  ToyProcess(const LocalView& view, std::vector<NodeId>* order)
      : view_(view), order_(order) {}

  void round(NodeContext& ctx) override {
    const std::uint64_t r = ctx.round();
    log_.emplace_back(r, ctx.slept());
    if (order_ != nullptr) order_->push_back(view_.self);
    switch (view_.self) {
      case 0:  // writes the channel in rounds 1, 2, 6; messages node 1
        if (r == 1 || r == 2 || r == 6) ctx.channel_write(Packet(1));
        if (r == 4 || r == 8) {
          for (const Neighbor& nb : view_.links()) {
            if (nb.to == 1) ctx.send(nb.edge, Packet(2));
          }
        }
        break;
      case 4:  // writes the channel in rounds 2 and 7
        if (r == 2 || r == 7) ctx.channel_write(Packet(1));
        break;
      case 1:
        ctx.sleep(0);  // messages only
        break;
      case 2:
        ctx.sleep(kWakeOnIdle);
        break;
      case 3:
        // The last declaration of the round wins: the idle subscription is
        // replaced by a due round.
        ctx.sleep(kWakeOnIdle);
        ctx.sleep(0, r + 3);
        break;
      case 5:
        ctx.sleep(kWakeOnSuccess | kWakeOnCollision);
        break;
      case 6:
        ctx.sleep(kWakeOnCollision, r + 4);
        break;
      default:  // node 7 declares nothing: every round
        break;
    }
  }

  bool finished() const override { return false; }

  const StepLog& log() const { return log_; }

 private:
  const LocalView& view_;
  std::vector<NodeId>* order_;
  StepLog log_;
};

std::vector<std::uint64_t> rounds_of(const StepLog& log) {
  std::vector<std::uint64_t> rounds;
  for (const auto& [r, slept] : log) rounds.push_back(r);
  return rounds;
}

std::unique_ptr<Engine> toy_engine(const Graph& g, unsigned threads,
                                   std::vector<NodeId>* order) {
  return std::make_unique<Engine>(
      g,
      [order](const LocalView& v) {
        return std::make_unique<ToyProcess>(v, order);
      },
      7, make_scheduler(threads));
}

const StepLog& log_of(const Engine& engine, NodeId v) {
  return static_cast<const ToyProcess&>(engine.process(v)).log();
}

TEST(WakeSemantics, ExactRoundsAndOrder) {
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 8, 1});
  std::vector<NodeId> order;
  auto serial = toy_engine(g, 1, &order);
  serial->step(12);
  // Slot outcomes as observed in rounds 1..11 (each round sees the slot of
  // the round before): I S C I I I S S I I I — writers {0} in round 1,
  // {0, 4} in round 2, {0} in round 6, {4} in round 7.  Every node runs in
  // round 0.
  using R = std::vector<std::uint64_t>;
  EXPECT_EQ(rounds_of(log_of(*serial, 1)), (R{0, 5, 9}));  // msgs sent 4, 8
  EXPECT_EQ(rounds_of(log_of(*serial, 2)), (R{0, 1, 4, 5, 6, 9, 10, 11}));
  EXPECT_EQ(rounds_of(log_of(*serial, 3)), (R{0, 3, 6, 9}));
  EXPECT_EQ(rounds_of(log_of(*serial, 5)), (R{0, 2, 3, 7, 8}));
  EXPECT_EQ(rounds_of(log_of(*serial, 6)), (R{0, 3, 7, 11}));
  for (NodeId v : {0u, 4u, 7u}) {
    EXPECT_EQ(log_of(*serial, v).size(), 12u) << "node " << v;
  }
  // The slept count is exactly the gap since the node last ran.
  for (NodeId v = 0; v < 8; ++v) {
    std::uint64_t prev = ~std::uint64_t{0};
    for (const auto& [r, slept] : log_of(*serial, v)) {
      EXPECT_EQ(slept, r - prev - 1) << "node " << v << " round " << r;
      prev = r;
    }
  }
  // Within each round the nodes ran in ascending id.
  std::uint64_t total = 0;
  for (NodeId v = 0; v < 8; ++v) total += log_of(*serial, v).size();
  ASSERT_EQ(order.size(), total);
  std::size_t i = 0;
  for (std::uint64_t r = 0; r < 12; ++r) {
    std::vector<NodeId> in_round;
    for (NodeId v = 0; v < 8; ++v) {
      for (const auto& [rr, slept] : log_of(*serial, v)) {
        if (rr == r) in_round.push_back(v);
      }
    }
    for (const NodeId v : in_round) EXPECT_EQ(order[i++], v) << "round " << r;
  }
  EXPECT_EQ(serial->node_steps(), total);

  // Four threads dispatch the same nodes in the same rounds.
  auto parallel = toy_engine(g, 4, nullptr);
  parallel->step(12);
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(log_of(*parallel, v), log_of(*serial, v)) << "node " << v;
  }
  EXPECT_EQ(parallel->node_steps(), serial->node_steps());
  EXPECT_TRUE(parallel->metrics() == serial->metrics());
}

TEST(WakeSemantics, CrashIsNotSleep) {
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 8, 1});
  for (unsigned threads : {1u, 4u}) {
    auto engine = toy_engine(g, threads, nullptr);
    // Node 3 (due every 3 rounds) runs in round 3 and declares round 6; it
    // crashes before round 5 and recovers before round 8.
    FaultPlan plan;
    plan.add(FaultEvent{5, FaultKind::kNodeCrash, 3});
    plan.add(FaultEvent{8, FaultKind::kNodeRecover, 3});
    engine->install_faults(plan);
    engine->step(12);
    // Round 4 was slept through; rounds 5-7 were spent crashed, which a
    // node does not catch up on — on recovery it runs with slept = 1, then
    // sleeps again until round 11.
    const StepLog expected{{0, 0}, {3, 2}, {8, 1}, {11, 2}};
    EXPECT_EQ(log_of(*engine, 3), expected) << threads << " thread(s)";
  }
}

TEST(WakeSemantics, RanksDispatchTheSerialRounds) {
  // With 8 ranks every node is its own window, so node 1's message wake,
  // the slot wakes and the crash handling of nodes 3 and 6 all cross the
  // rank seam; 2 ranks put node 6's crash in the upper window.  Ranks run
  // in forked processes and check their owned nodes with MMN_REQUIRE.
  const Graph g = build_topology(TopologySpec{TopoKind::kRing, 8, 1});
  FaultPlan plan;
  plan.add(FaultEvent{4, FaultKind::kNodeCrash, 6});
  plan.add(FaultEvent{5, FaultKind::kNodeCrash, 3});
  plan.add(FaultEvent{8, FaultKind::kNodeRecover, 3});
  plan.add(FaultEvent{9, FaultKind::kNodeRecover, 6});
  auto serial = toy_engine(g, 1, nullptr);
  serial->install_faults(plan);
  serial->step(12);
  for (unsigned ranks : {2u, 8u}) {
    shard_comm::run_ranks(ranks, [&](shard_comm::Transport& t) {
      Engine ranked(g,
                    [](const LocalView& v) {
                      return std::make_unique<ToyProcess>(v, nullptr);
                    },
                    7, nullptr, nullptr, &t);
      ranked.install_faults(plan);
      ranked.step(12);
      const auto [lo, hi] = Scheduler::shard_range(8, t.rank(), ranks);
      for (NodeId v = lo; v < hi; ++v) {
        MMN_REQUIRE(log_of(ranked, v) == log_of(*serial, v),
                    "a rank dispatched a node in other rounds than serial");
      }
      MMN_REQUIRE(ranked.metrics().rounds == serial->metrics().rounds &&
                      ranked.metrics().slots_idle ==
                          serial->metrics().slots_idle,
                  "ranks resolved other slots than serial");
    });
  }
}

std::unique_ptr<Engine> scenario_engine(const scenario::Scenario& s,
                                        const Graph& g, std::uint64_t seed) {
  return std::make_unique<Engine>(
      g,
      s.make_load_factory ? s.make_load_factory(g, s.default_load)
                          : s.make_factory(g),
      seed, nullptr, make_discipline(s.discipline, UnslottedConfig{}, seed));
}

TEST(NodeSteps, FlagshipDispatchesFewNodeSteps) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const Graph g = scenario::make_scenario_graph(*s, 4096, 7);
  auto engine = scenario_engine(*s, g, 7);
  engine->run(s->max_rounds);
  ASSERT_EQ(engine->status(), RunStatus::kCompleted);
  const std::uint64_t dense = std::uint64_t{g.num_nodes()} *
                              engine->metrics().rounds;
  EXPECT_LE(engine->node_steps() * 100, dense * 15)
      << engine->node_steps() << " of " << dense << " node-rounds";
}

TEST(NodeSteps, UnportedOpenLoopDispatchesEveryNodeEveryRound) {
  scenario::register_builtin();
  const scenario::Scenario* s =
      scenario::Registry::instance().find("load/poisson/pb/ring");
  ASSERT_NE(s, nullptr);
  const Graph g = scenario::make_scenario_graph(*s, 256, 7);
  auto engine = scenario_engine(*s, g, 7);
  engine->step(300);
  EXPECT_GT(engine->metrics().rounds, 0u);
  EXPECT_EQ(engine->node_steps(),
            std::uint64_t{g.num_nodes()} * engine->metrics().rounds);
}

}  // namespace
}  // namespace mmn::sim
