// Sharded execution (sim/rank.hpp, scenario/rank_run.hpp): windowed graph
// builds must reproduce the full build's owned rows bit for bit, the
// socketpair transport must swap arbitrary blobs, and a sharded scenario
// run must produce the serial run's digest, metrics, and fault stats
// exactly — including under fault churn — across 1, 2, and 4 ranks.
//
// Child ranks run in forked processes, so in-child checks use MMN_REQUIRE
// (an aborting child fails the parent's waitpid requirement); gtest
// EXPECTs live only in rank 0 / parent code.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/rank_run.hpp"
#include "scenario/registry.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn {
namespace {

using scenario::Registry;
using scenario::RunResult;
using scenario::ShardStats;

void expect_windows_match_full(const TopologySpec& spec, unsigned ranks) {
  const Graph full = build_topology(spec);
  const NodeId n = full.num_nodes();
  for (unsigned r = 0; r < ranks; ++r) {
    const auto [lo, hi] = sim::Scheduler::shard_range(n, r, ranks);
    const Graph win = build_topology_window(spec, GraphWindow{lo, hi});
    ASSERT_EQ(win.num_nodes(), n);
    ASSERT_EQ(win.num_edges(), full.num_edges());
    for (NodeId v = lo; v < hi; ++v) {
      ASSERT_EQ(win.degree(v), full.degree(v)) << "node " << v;
      const auto win_range = win.neighbors(v);
      auto wi = win_range.begin();
      for (const Neighbor& nb : full.neighbors(v)) {
        const Neighbor& wn = *wi;
        EXPECT_EQ(wn.to, nb.to);
        EXPECT_EQ(wn.weight, nb.weight);
        EXPECT_EQ(wn.edge, nb.edge);
        EXPECT_EQ(win.link_slot(v, nb.edge), full.link_slot(v, nb.edge));
        ++wi;
      }
    }
  }
}

TEST(RankWindow, WindowedBuildMatchesFullOwnedRows) {
  for (unsigned ranks : {2u, 3u, 4u}) {
    expect_windows_match_full(TopologySpec{TopoKind::kRing, 64, 7}, ranks);
    expect_windows_match_full(TopologySpec{TopoKind::kRandom, 96, 11}, ranks);
    expect_windows_match_full(TopologySpec{TopoKind::kTree, 80, 3}, ranks);
  }
}

TEST(RankWindow, UnretainedEdgeIsInvisibleNotFatal) {
  const TopologySpec spec{TopoKind::kRing, 16, 7};
  const Graph full = build_topology(spec);
  const Graph win = build_topology_window(spec, GraphWindow{0, 8});
  // An edge with both endpoints outside the window is not retained: its
  // link_slot resolves to "not incident" from any owned node.
  for (NodeId v = 0; v < 8; ++v) {
    for (EdgeId e = 0; e < full.num_edges(); ++e) {
      const int slot = full.link_slot(v, e);
      EXPECT_EQ(win.link_slot(v, e), slot);
    }
  }
}

TEST(RankTransport, PairwiseSwapCarriesLopsidedBlobs) {
  // Each rank swaps a rank-stamped blob with every peer; sizes differ per
  // direction (rank r sends (r + 1) * 1000 + peer bytes) so the duplex
  // drain path is exercised in both roles.
  sim::shard_comm::run_ranks(4, [](sim::shard_comm::Transport& t) {
    const unsigned me = t.rank();
    std::vector<std::uint8_t> in;
    for (unsigned peer = 0; peer < t.ranks(); ++peer) {
      if (peer == me) continue;
      std::vector<std::uint8_t> out((me + 1) * 1000 + peer,
                                    static_cast<std::uint8_t>(me * 16 + peer));
      t.exchange(peer, out.data(), out.size(), in);
      MMN_REQUIRE(in.size() == (peer + 1) * 1000 + me,
                  "swap returned the wrong frame size");
      for (const std::uint8_t b : in) {
        MMN_REQUIRE(b == static_cast<std::uint8_t>(peer * 16 + me),
                    "swap returned corrupted bytes");
      }
    }
    MMN_REQUIRE(t.bytes_out() > 0 && t.bytes_in() > 0,
                "transport byte counters did not advance");
  });
}

void expect_sharded_matches_serial(const char* name, NodeId n,
                                   std::uint64_t seed, std::uint32_t faults) {
  scenario::register_builtin();
  const scenario::Scenario* s = Registry::instance().find(name);
  ASSERT_NE(s, nullptr) << name;
  const RunResult serial =
      run(*s, n, seed, nullptr, scenario::EngineKind::kSync, 0.0, faults);
  for (unsigned ranks : {1u, 2u, 4u}) {
    ShardStats stats;
    const RunResult sharded =
        run_sharded(*s, n, seed, ranks, 0.0, faults, &stats);
    EXPECT_EQ(sharded.digest, serial.digest)
        << name << " n=" << n << " ranks=" << ranks;
    EXPECT_TRUE(sharded.metrics == serial.metrics)
        << name << " n=" << n << " ranks=" << ranks;
    EXPECT_TRUE(sharded.faults == serial.faults)
        << name << " n=" << n << " ranks=" << ranks;
    EXPECT_EQ(sharded.completed, serial.completed);
    EXPECT_EQ(sharded.realized_n, serial.realized_n);
    EXPECT_EQ(stats.rounds, serial.metrics.rounds);
    if (ranks > 1) {
      // A ring window [lo, hi) has exactly two boundary edges; K windows
      // cut the cycle K times.
      if (s->topology == TopoKind::kRing) {
        EXPECT_EQ(stats.boundary_edges, ranks);
      }
      EXPECT_GT(stats.wire_bytes, 0u);
    }
  }
}

TEST(RankRun, GlobalMinRandRingMatchesSerial) {
  expect_sharded_matches_serial("global/min/rand/ring", 64, 7, 0);
  expect_sharded_matches_serial("global/min/rand/ring", 256, 11, 0);
}

TEST(RankRun, DetRandomTopologyMatchesSerial) {
  expect_sharded_matches_serial("global/min/det/random", 96, 7, 0);
}

TEST(RankRun, FaultChurnMatchesSerial) {
  // Reservation MAC under link and station churn: covers cross-rank fault
  // replication (replicated overlay + stifles) and the drops reduction.
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 1);
  expect_sharded_matches_serial("fault/load/churn/ring", 64, 7, 3);
}

// Dense oracle for activity-driven stepping: RankEngine still steps every
// owned node every round and ignores wake declarations, so for every
// synchronous scenario a sharded run is a dense reference for the sleeping
// Engine — serial and 4-thread runs must match it in digest, Metrics and
// FaultStats at the scenario's smallest sweep size.
TEST(RankRun, SleepingEngineMatchesDenseRanksForEveryScenario) {
  scenario::register_builtin();
  int checked = 0;
  for (const scenario::Scenario& s : Registry::instance().all()) {
    if (s.fault_recovery && s.default_faults > 0) continue;  // not shardable
    const NodeId n = s.sweep_n.front();
    const RunResult dense = run_sharded(s, n, s.default_seed, 2);
    for (unsigned threads : {1u, 4u}) {
      const RunResult r = run(s, n, s.default_seed,
                              sim::make_scheduler(threads));
      EXPECT_EQ(r.digest, dense.digest) << s.name << " t" << threads;
      EXPECT_TRUE(r.metrics == dense.metrics) << s.name << " t" << threads;
      EXPECT_TRUE(r.faults == dense.faults) << s.name << " t" << threads;
      EXPECT_EQ(r.completed, dense.completed) << s.name << " t" << threads;
    }
    ++checked;
  }
  EXPECT_GT(checked, 20);
}

TEST(RankRun, CrossShardTrafficIsCounted) {
  scenario::register_builtin();
  const scenario::Scenario* s = Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  ShardStats stats;
  const RunResult r = run_sharded(*s, 64, 7, 2, 0.0, 0, &stats);
  EXPECT_NE(r.digest, 0u);
  // A ring split in two windows routes every wrap-around hop cross-shard.
  EXPECT_GT(stats.xshard_msgs, 0u);
  EXPECT_EQ(stats.boundary_edges, 2u);
}

}  // namespace
}  // namespace mmn
