// Tests for the stepped-protocol framework: barrier steps end exactly at
// global quiescence, fixed steps take their precomputed length, observed
// steps follow shared channel verdicts, and sequences stay aligned.
#include <vector>

#include <gtest/gtest.h>

#include "channel/capetanakis.hpp"
#include "core/stepped.hpp"
#include "graph/generators.hpp"
#include "sim/engine.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kWave = 21;

/// Three barrier steps; in each, node 0 starts a wave that travels to the end
/// of the path.  Nodes record the engine round at which each step began.
class WaveProcess final : public SteppedProcess {
 public:
  explicit WaveProcess(const sim::LocalView& view) : view_(view) {}

  std::vector<std::uint64_t> begin_rounds_;

 protected:
  std::uint64_t num_steps() const override { return 3; }
  StepSpec step_spec(std::uint64_t) const override { return {}; }

  void step_begin(std::uint64_t, sim::NodeContext& ctx) override {
    begin_rounds_.push_back(ctx.round());
    if (view_.self == 0) {
      for (const auto& link : view_.links()) {
        if (link.to == 1) ctx.send(link.edge, sim::Packet(kWave));
      }
    }
  }

  void on_message(std::uint64_t, const sim::Received& msg,
                  sim::NodeContext& ctx) override {
    // Forward the wave away from smaller ids.
    for (const auto& link : view_.links()) {
      if (link.to > view_.self && link.to != msg.from) {
        ctx.send(link.edge, sim::Packet(kWave));
      }
    }
  }

 private:
  const sim::LocalView& view_;
};

TEST(Stepped, BarrierStepsAlignAcrossNodes) {
  const Graph g = path(6, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<WaveProcess>(v);
  }, 3);
  engine.run(1000);
  const auto& p0 = static_cast<const WaveProcess&>(engine.process(0));
  ASSERT_EQ(p0.begin_rounds_.size(), 3u);
  for (NodeId v = 1; v < 6; ++v) {
    const auto& pv = static_cast<const WaveProcess&>(engine.process(v));
    EXPECT_EQ(pv.begin_rounds_, p0.begin_rounds_) << "node " << v;
  }
  // Each wave takes 5 hops; the barrier cannot fire before the wave ends.
  EXPECT_GE(p0.begin_rounds_[1] - p0.begin_rounds_[0], 5u);
}

/// Two barrier steps; in step 0 node 2 stays locally busy (step_done false)
/// for 7 rounds without sending anything, while every other node is idle
/// from the start and sleeps until the closing idle slot.
class BusyBarrierProcess final : public SteppedProcess {
 public:
  explicit BusyBarrierProcess(const sim::LocalView& view) : view_(view) {}

  std::uint64_t second_step_round_ = 0;

 protected:
  std::uint64_t num_steps() const override { return 2; }
  StepSpec step_spec(std::uint64_t) const override { return {}; }
  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 1) second_step_round_ = ctx.round();
  }
  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}
  void step_round(std::uint64_t step, sim::NodeContext&) override {
    if (step == 0 && view_.self == 2) ++busy_rounds_;
  }
  bool step_done(std::uint64_t step) const override {
    return step != 0 || view_.self != 2 || busy_rounds_ >= 7;
  }

 private:
  const sim::LocalView& view_;
  std::uint64_t busy_rounds_ = 0;
};

TEST(Stepped, LocallyBusyNodeHoldsTheBarrierWhileOthersSleep) {
  const Graph g = path(4, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<BusyBarrierProcess>(v);
  }, 3);
  engine.run(100);
  // Node 2 writes busy tones in rounds 0-5; the slot of round 6 is the first
  // idle one, so step 1 begins in round 7 everywhere.
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(static_cast<const BusyBarrierProcess&>(engine.process(v))
                  .second_step_round_,
              7u)
        << v;
  }
  // The idle nodes slept through rounds 1-6.
  EXPECT_LT(engine.node_steps(), 4 * engine.metrics().rounds);
}

/// One fixed step (channel TDMA of n slots), then one barrier step.
class FixedStepProcess final : public SteppedProcess {
 public:
  explicit FixedStepProcess(const sim::LocalView& view) : view_(view) {}

  std::vector<sim::Word> heard_;
  std::uint64_t barrier_begin_round_ = 0;

 protected:
  std::uint64_t num_steps() const override { return 2; }

  StepSpec step_spec(std::uint64_t step) const override {
    if (step == 0) return {StepKind::kFixed, view_.n};
    return {};
  }

  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0) {
      start_round_ = ctx.round();
    } else {
      barrier_begin_round_ = ctx.round();
    }
  }

  void step_round(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step == 0 && ctx.round() - start_round_ == view_.self) {
      ctx.channel_write(sim::Packet(7, {static_cast<sim::Word>(view_.self)}));
    }
  }

  void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (slot_step == 0 && obs.success()) heard_.push_back(obs.payload[0]);
  }

  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}

 private:
  const sim::LocalView& view_;
  std::uint64_t start_round_ = 0;
};

TEST(Stepped, FixedStepRunsTdmaAndDeliversLastSlot) {
  const Graph g = ring(5, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<FixedStepProcess>(v);
  }, 3);
  engine.run(100);
  for (NodeId v = 0; v < 5; ++v) {
    const auto& p = static_cast<const FixedStepProcess&>(engine.process(v));
    // Every node heard all 5 TDMA broadcasts, including the final slot that
    // resolves after the step formally ended.
    EXPECT_EQ(p.heard_, (std::vector<sim::Word>{0, 1, 2, 3, 4})) << v;
    EXPECT_EQ(p.barrier_begin_round_, 5u) << v;
  }
}

/// One observed step: Capetanakis resolution of all nodes with even ids.
class ObservedStepProcess final : public SteppedProcess {
 public:
  explicit ObservedStepProcess(const sim::LocalView& view)
      : view_(view),
        resolver_(view.n, view.self % 2 == 0
                              ? std::optional<std::uint64_t>(view.self)
                              : std::nullopt) {}

  std::vector<sim::Word> schedule() const {
    std::vector<sim::Word> out;
    for (const auto& p : resolver_.successes()) out.push_back(p[0]);
    return out;
  }

 protected:
  std::uint64_t num_steps() const override { return 1; }
  StepSpec step_spec(std::uint64_t) const override {
    return {StepKind::kObserved, 0};
  }
  void step_begin(std::uint64_t, sim::NodeContext&) override {}
  void on_message(std::uint64_t, const sim::Received&,
                  sim::NodeContext&) override {}

  void step_round(std::uint64_t, sim::NodeContext& ctx) override {
    if (!resolver_.done() && resolver_.should_transmit()) {
      ctx.channel_write(sim::Packet(9, {static_cast<sim::Word>(view_.self)}));
    }
  }

  void on_slot(std::uint64_t, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (!resolver_.done()) {
      resolver_.observe(obs, obs.success() && obs.writer == view_.self);
    }
  }

  bool observed_end(std::uint64_t) const override { return resolver_.done(); }

 private:
  const sim::LocalView& view_;
  CapetanakisResolver resolver_;
};

TEST(Stepped, ObservedStepEndsOnSharedVerdict) {
  const Graph g = ring(8, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    return std::make_unique<ObservedStepProcess>(v);
  }, 3);
  engine.run(200);
  const std::vector<sim::Word> expected{0, 2, 4, 6};
  for (NodeId v = 0; v < 8; ++v) {
    EXPECT_EQ(static_cast<const ObservedStepProcess&>(engine.process(v))
                  .schedule(),
              expected);
  }
}

TEST(Stepped, SequenceRunsStagesBackToBack) {
  const Graph g = path(4, 1);
  sim::Engine engine(g, [](const sim::LocalView& v) {
    std::vector<std::unique_ptr<SteppedProcess>> stages;
    stages.push_back(std::make_unique<WaveProcess>(v));
    stages.push_back(std::make_unique<WaveProcess>(v));
    return std::make_unique<SteppedSequenceProcess>(std::move(stages));
  }, 3);
  engine.run(1000);
  // Both stages ran: stage 1's begin rounds are all strictly after stage 0's.
  const auto& seq = static_cast<const SteppedSequenceProcess&>(engine.process(0));
  const auto& s0 = static_cast<const WaveProcess&>(seq.stage(0));
  const auto& s1 = static_cast<const WaveProcess&>(seq.stage(1));
  ASSERT_EQ(s0.begin_rounds_.size(), 3u);
  ASSERT_EQ(s1.begin_rounds_.size(), 3u);
  EXPECT_GT(s1.begin_rounds_.front(), s0.begin_rounds_.back());
}

}  // namespace
}  // namespace mmn
