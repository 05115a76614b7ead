// Tests for the scenario registry: registration invariants, lookup, and
// deterministic reruns.
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"

namespace mmn::scenario {
namespace {

TEST(ScenarioRegistry, BuiltinTableHasAtLeastSixScenarios) {
  register_builtin();
  register_builtin();  // idempotent
  const auto& all = Registry::instance().all();
  EXPECT_GE(all.size(), 6u);
  for (const Scenario& s : all) {
    EXPECT_FALSE(s.name.empty());
    EXPECT_FALSE(s.sweep_n.empty()) << s.name;
    EXPECT_NE(s.make_factory, nullptr) << s.name;
    // Every default sweep size must be exactly admissible for the entry's
    // topology family — the registry never relies on silent rounding.
    for (NodeId n : s.sweep_n) {
      EXPECT_TRUE(topology_valid_n(s.topology, n)) << s.name << " n=" << n;
    }
  }
}

TEST(ScenarioRegistry, FindByName) {
  register_builtin();
  const Scenario* mst = Registry::instance().find("mst/random");
  ASSERT_NE(mst, nullptr);
  EXPECT_EQ(std::string(topology_name(mst->topology)), "random");
  EXPECT_EQ(Registry::instance().find("no/such/scenario"), nullptr);
}

TEST(ScenarioRegistry, DuplicateNameRejected) {
  register_builtin();
  Scenario dup = *Registry::instance().find("mst/random");
  EXPECT_THROW(Registry::instance().add(dup), std::invalid_argument);
}

TEST(ScenarioRegistry, RunsAreDeterministicPerSeed) {
  register_builtin();
  const Scenario* s = Registry::instance().find("global/min/rand/ring");
  ASSERT_NE(s, nullptr);
  const RunResult a = run(*s, {.n = 64, .seed = 11});
  const RunResult b = run(*s, {.n = 64, .seed = 11});
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.realized_n, 64u);
  const RunResult c = run(*s, {.n = 64, .seed = 12});
  // A different seed changes the randomized schedule (metrics), never the
  // computed global value for the same inputs.
  EXPECT_EQ(a.digest, c.digest);
}

TEST(ScenarioRegistry, GridFamilyReportsRealizedSize) {
  register_builtin();
  const Scenario* s = Registry::instance().find("global/min/p2p/grid");
  ASSERT_NE(s, nullptr);
  const RunResult r = run(*s, {.n = 60, .seed = 7});  // rounds to an 8x8 grid
  EXPECT_EQ(r.realized_n, 64u);
  EXPECT_GT(r.metrics.rounds, 0u);
}

TEST(ScenarioRegistry, ChannelDisciplineAndAnonymousScenariosRegistered) {
  register_builtin();
  const Scenario* tdma = Registry::instance().find("global/max/tdma/ring");
  ASSERT_NE(tdma, nullptr);
  EXPECT_FALSE(tdma->channel_free);  // TDMA is a channel discipline
  const RunResult t = run(*tdma, {.n = 64, .seed = 7});
  // The fixed schedule costs one slot per station plus the final quiet slot.
  EXPECT_EQ(t.metrics.rounds, 65u);
  EXPECT_EQ(t.metrics.p2p_messages, 0u);

  const Scenario* anon = Registry::instance().find("partition/anon/random");
  ASSERT_NE(anon, nullptr);
  const RunResult a = run(*anon, {.n = 64, .seed = 7});
  EXPECT_GT(a.metrics.rounds, 0u);
  EXPECT_NE(a.digest, 0u);
}

TEST(ScenarioRegistry, AsyncRunMatchesSyncResultsForChannelFreeScenarios) {
  register_builtin();
  int checked = 0;
  for (const Scenario& s : Registry::instance().all()) {
    if (!s.channel_free) continue;
    ++checked;
    const NodeId n = s.sweep_n.front();
    const RunResult sync = run(s, {.n = n, .seed = s.default_seed});
    const RunResult async =
        run(s, {.n = n, .seed = s.default_seed, .engine = EngineKind::kAsync});
    EXPECT_TRUE(async.completed) << s.name;
    // Different engine, different schedule — but the same computed results.
    EXPECT_EQ(sync.digest, async.digest) << s.name;
    // The synchronizer costs exactly one acknowledgement per message.
    EXPECT_EQ(async.metrics.p2p_messages, 2 * sync.metrics.p2p_messages)
        << s.name;
  }
  EXPECT_GE(checked, 2);
}

// Every configuration run() refuses is named by unsupported_reason, and
// run() throws before any graph is built or any rank is forked.
TEST(ScenarioRegistry, UnsupportedConfigurationsAreRejectedUpFront) {
  register_builtin();
  const Registry& reg = Registry::instance();
  const struct {
    const char* scenario;
    RunConfig cfg;
    const char* what;
  } rejected[] = {
      {"mst/random", {.n = 64, .seed = 7, .engine = EngineKind::kAsync},
       "async on a channel scenario"},
      {"global/min/rand/ring", {.n = 64, .seed = 7, .load = 0.5},
       "load on a closed-loop scenario"},
      {"global/min/rand/ring", {.n = 64, .seed = 7, .faults = 2},
       "faults without a fault plan"},
      {"fault/mst/random", {.n = 64, .seed = 7, .ranks = 2},
       "recovery scenario over ranks"},
      {"fault/mst/random", {.n = 64, .seed = 7, .engine = EngineKind::kAsync},
       "recovery scenario on the async engine"},
      {"global/min/rand/ring", {.n = 64, .seed = 7, .threads = 4, .ranks = 2},
       "ranks with threads"},
      {"global/min/rand/ring",
       {.n = 64, .seed = 7, .ranks = 2, .engine = EngineKind::kAsync},
       "ranks on the async engine"},
  };
  for (const auto& row : rejected) {
    const Scenario* s = reg.find(row.scenario);
    ASSERT_NE(s, nullptr) << row.scenario;
    EXPECT_NE(unsupported_reason(*s, row.cfg), nullptr) << row.what;
    EXPECT_THROW(run(*s, row.cfg), std::invalid_argument) << row.what;
  }
  for (const Scenario& s : reg.all()) {
    RunConfig cfg{.n = s.sweep_n.front(), .seed = s.default_seed};
    EXPECT_EQ(unsupported_reason(s, cfg), nullptr) << s.name;
    cfg.engine = EngineKind::kAsync;
    if (s.channel_free || s.make_async_load_factory) {
      EXPECT_EQ(unsupported_reason(s, cfg), nullptr) << s.name << "@async";
    }
  }
}

}  // namespace
}  // namespace mmn::scenario
