// Sharded execution (sim/shard_comm.hpp, RunConfig::ranks): windowed
// graph builds must reproduce the full build's owned rows bit for bit, the
// socketpair transport must swap arbitrary blobs, and a sharded scenario
// run must produce the serial run's digest, metrics, and fault stats
// exactly — including under fault churn — across 1, 2, and 4 ranks, while
// dispatching exactly the serial engine's node-steps.
//
// Child ranks run in forked processes, so in-child checks use MMN_REQUIRE
// (an aborting child fails the parent's waitpid requirement); gtest
// EXPECTs live only in rank 0 / parent code.
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace mmn {
namespace {

using scenario::Registry;
using scenario::RunResult;
using scenario::RunConfig;

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
      run(*s, RunConfig{.n = n, .seed = seed, .faults = faults});
  for (unsigned ranks : {1u, 2u, 4u}) {
    const RunResult sharded = run(
        *s, RunConfig{.n = n, .seed = seed, .ranks = ranks, .faults = faults});
    const scenario::ShardStats& stats = sharded.shard;
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

// Dense oracle for activity-driven stepping.  Every row was produced by a
// dense stepper — one that ran every node every round and ignored wake
// declarations — so the sleeping engine must reproduce it exactly: digest,
// every Metrics field and every FaultStats field, at the scenario's
// smallest sweep size and default seed.  One row per registry entry
// run() accepts at ranks > 1; a new entry fails the coverage check below
// until its row is added.
struct DenseGolden {
  const char* name;
  NodeId n;
  bool completed;
  std::uint64_t digest;
  Metrics metrics;  // rounds, p2p, idle, success, collision, channel_ticks
  sim::FaultStats faults;  // downs, ups, crashes, recoveries, links_down,
                           // nodes_down, drops, orphaned, recovery_slots
};

const DenseGolden kDenseGolden[] = {
    {"partition/det/random", 64, true, 0xb52751f4c2bbf92full,
     {272, 3341, 58, 20, 194, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"partition/rand/random", 64, true, 0x41c4e295b4da8683ull,
     {33, 1112, 10, 0, 23, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"partition/anon/random", 64, true, 0xc6c0e7f56e0c7ce4ull,
     {39, 1094, 15, 3, 21, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"mst/random", 64, true, 0x6db48771e18a3ed9ull,
     {296, 3843, 63, 30, 203, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/min/det/random", 64, true, 0xea7805377dec9065ull,
     {292, 3461, 63, 26, 203, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/min/rand/ring", 256, true, 0xf579dcf3347b5825ull,
     {308, 3424, 42, 29, 237, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/sum/bcast/complete", 64, true, 0x0b61602d3c827825ull,
     {65, 0, 1, 64, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/max/tdma/ring", 64, true, 0x718d46bfbf69e065ull,
     {65, 0, 1, 64, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/min/p2p/grid", 64, true, 0xea7805377dec9065ull,
     {198, 1631, 198, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/sum/p2p/hypercube", 64, true, 0x0b61602d3c827825ull,
     {27, 1791, 27, 0, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/max/cape/ring", 64, true, 0x785329db51a3f265ull,
     {128, 0, 1, 64, 63, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/sum/tdma/grid", 64, true, 0x0b61602d3c827825ull,
     {65, 0, 1, 64, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"size/unslotted/clique", 48, true, 0x574c01362e41b6e5ull,
     {119, 854, 24, 31, 64, 4097},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"partition/det/unslotted/random", 64, true, 0xb52751f4c2bbf92full,
     {272, 3341, 58, 20, 194, 9473},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/min/p2p/unslotted/grid", 64, true, 0x5645c00d13752e65ull,
     {198, 1631, 198, 0, 0, 792},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"size/det/random", 64, true, 0x7f337c948a478825ull,
     {129, 1157, 25, 34, 70, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/min/det/ray", 64, true, 0xea7805377dec9065ull,
     {371, 3704, 65, 9, 297, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"partition/det/ray", 64, true, 0x6439037d2ac7fff7ull,
     {347, 3582, 58, 5, 284, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"global/sum/bcast/iclique", 64, true, 0x0b61602d3c827825ull,
     {65, 0, 1, 64, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"size/unslotted/iclique", 48, true, 0x574c01362e41b6e5ull,
     {83, 1084, 21, 25, 37, 2661},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/ffa/ring", 64, true, 0x15d2eff11aaef517ull,
     {1201, 6, 9, 3, 1189, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/pb/ring", 64, true, 0xade5a067520dc1dbull,
     {1201, 708, 574, 354, 273, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/resv/ring", 64, true, 0x42de143cbc806756ull,
     {1870, 1938, 330, 970, 570, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/onoff/resv/grid", 64, true, 0x983ff995b8218683ull,
     {1600, 2926, 279, 835, 486, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/pb/iclique", 64, true, 0x3e43efbb04bac5e6ull,
     {3392, 69552, 871, 1105, 1416, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/tdma/ring", 64, true, 0x5bc01ebe18269112ull,
     {1356, 1202, 754, 602, 0, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"load/poisson/cape/ring", 64, true, 0x581cf705d2d7085full,
     {1204, 946, 272, 474, 458, 0},
     {0, 0, 0, 0, 0, 0, 0, 0, 0}},
    {"fault/load/churn/ring", 64, true, 0xb19f0e9bfb54197eull,
     {1465, 1455, 276, 735, 454, 0},
     {3, 2, 1, 1, 1, 0, 13, 0, 0}},
};

void expect_golden(const DenseGolden& want, const RunResult& got,
                   const char* how) {
  EXPECT_EQ(got.digest, want.digest) << want.name << " " << how;
  EXPECT_TRUE(got.metrics == want.metrics)
      << want.name << " " << how << ": " << got.metrics.to_string();
  EXPECT_TRUE(got.faults == want.faults) << want.name << " " << how;
  EXPECT_EQ(got.completed, want.completed) << want.name << " " << how;
}

TEST(RankRun, EveryScenarioMatchesItsDenseGolden) {
  scenario::register_builtin();
  std::size_t shardable = 0;
  for (const scenario::Scenario& s : Registry::instance().all()) {
    const RunConfig sharded{.n = s.sweep_n.front(), .ranks = 2};
    if (scenario::unsupported_reason(s, sharded) == nullptr) ++shardable;
  }
  EXPECT_EQ(shardable, std::size(kDenseGolden))
      << "every shardable registry entry needs a dense golden row";
  for (const DenseGolden& want : kDenseGolden) {
    const scenario::Scenario* s = Registry::instance().find(want.name);
    ASSERT_NE(s, nullptr) << want.name;
    ASSERT_EQ(s->sweep_n.front(), want.n) << want.name;
    const std::uint64_t seed = s->default_seed;
    expect_golden(want, run(*s, {.n = want.n, .seed = seed}), "serial");
    expect_golden(want, run(*s, {.n = want.n, .seed = seed, .threads = 4}),
                  "t4");
    expect_golden(want, run(*s, {.n = want.n, .seed = seed, .ranks = 2}),
                  "r2");
    expect_golden(want, run(*s, {.n = want.n, .seed = seed, .ranks = 4}),
                  "r4");
  }
}

// Ranks sleep: the node-steps a sharded run dispatches, summed over ranks,
// equal the serial Engine's, which skip most of n * rounds.
TEST(RankRun, RanksDispatchTheSerialNodeSteps) {
  scenario::register_builtin();
  const struct {
    const char* name;
    NodeId n;
  } cases[] = {{"global/min/rand/ring", 256}, {"global/min/det/random", 96}};
  for (const auto& c : cases) {
    const scenario::Scenario* s = Registry::instance().find(c.name);
    ASSERT_NE(s, nullptr) << c.name;
    const std::uint64_t seed = s->default_seed;
    const RunResult serial = run(*s, {.n = c.n, .seed = seed});
    ASSERT_TRUE(serial.completed) << c.name;
    EXPECT_LT(serial.shard.node_steps,
              std::uint64_t{serial.realized_n} * serial.metrics.rounds)
        << c.name << ": the serial engine slept no node";
    for (unsigned ranks : {2u, 4u}) {
      const RunResult sharded =
          run(*s, {.n = c.n, .seed = seed, .ranks = ranks});
      EXPECT_EQ(sharded.shard.node_steps, serial.shard.node_steps)
          << c.name << " ranks=" << ranks;
    }
  }
}

TEST(RankRun, CrossShardTrafficIsCounted) {
  scenario::register_builtin();
  const scenario::Scenario* s = Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const RunResult r = run(*s, {.n = 64, .seed = 7, .ranks = 2});
  EXPECT_NE(r.digest, 0u);
  // A ring split in two windows routes every wrap-around hop cross-shard.
  EXPECT_GT(r.shard.xshard_msgs, 0u);
  EXPECT_EQ(r.shard.boundary_edges, 2u);
}

}  // namespace
}  // namespace mmn
