#include "core/global_function.hpp"

#include <cmath>
#include <numeric>

#include "core/partition_det.hpp"
#include "core/partition_rand.hpp"
#include "support/check.hpp"
#include "support/math.hpp"

namespace mmn {
namespace {

constexpr std::uint16_t kHello = 161;    // child -> parent census
constexpr std::uint16_t kFold = 162;     // [partial] convergecast
constexpr std::uint16_t kPartial = 163;  // [partial] channel broadcast

/// Local fold + global channel stage, running after a partition stage whose
/// per-node state it reads through the FragmentState interface.
class ComputeStage final : public SteppedProcess {
 public:
  ComputeStage(const sim::LocalView& view, GlobalFunctionConfig config,
               sim::Word input, const FragmentState* partition)
      : view_(view), config_(config), acc_(input), partition_(partition) {}

  bool has_result() const { return finished(); }
  sim::Word result() const {
    MMN_REQUIRE(finished(), "global function still running");
    return result_;
  }

 protected:
  // Step 0: HELLO census (2 fixed rounds: send + deliver).
  // Step 1: fragment-local fold into the core (barrier).
  // Step 2: global stage on the channel (observed).
  std::uint64_t num_steps() const override { return 3; }

  StepSpec step_spec(std::uint64_t step) const override {
    if (step == 0) return {StepKind::kFixed, 2, /*reactive=*/true};
    if (step == 1) return {};
    return {StepKind::kObserved, 0};
  }

  void step_begin(std::uint64_t step, sim::NodeContext& ctx) override {
    switch (step) {
      case 0:
        if (!is_root()) {
          ctx.send(partition_->tree_parent_edge(), sim::Packet(kHello));
        }
        break;
      case 1:
        if (children_ == 0 && !is_root()) {
          ctx.send(partition_->tree_parent_edge(),
                   sim::Packet(kFold, {acc_}));
          sent_fold_ = true;
        }
        break;
      case 2: {
        const bool root = is_root();
        // collect_successes = false: every one of the n nodes hears every
        // success slot, and recording the payload at each would copy (and
        // eventually heap-allocate) n packets per successful root.  The
        // partials are folded incrementally in on_slot instead.
        if (config_.variant == GlobalFunctionConfig::Variant::kDeterministic) {
          capetanakis_.emplace(view_.n,
                               root ? std::optional<std::uint64_t>(view_.self)
                                    : std::nullopt,
                               /*massey_skip=*/false,
                               /*collect_successes=*/false);
        } else {
          randomized_.emplace(2.0 * static_cast<double>(isqrt_ceil(view_.n)),
                              root, /*collect_successes=*/false);
          if (!root) listen_only();
        }
        break;
      }
      default:
        MMN_ASSERT(false, "unexpected step");
    }
  }

  void on_message(std::uint64_t /*step*/, const sim::Received& msg,
                  sim::NodeContext& ctx) override {
    switch (msg.packet().type()) {
      case kHello:
        ++children_;
        break;
      case kFold:
        acc_ = semigroup_apply(config_.op, acc_, msg.packet()[0]);
        ++received_;
        MMN_ASSERT(received_ <= children_, "more folds than children");
        if (received_ == children_ && !is_root() && !sent_fold_) {
          ctx.send(partition_->tree_parent_edge(), sim::Packet(kFold, {acc_}));
          sent_fold_ = true;
        }
        break;
      default:
        MMN_ASSERT(false, "unexpected packet in global function");
    }
  }

  void step_round(std::uint64_t step, sim::NodeContext& ctx) override {
    if (step != 2) return;
    // Decide first, construct the packet only on a transmitting round:
    // almost every node stays silent almost every slot, and the Packet
    // constructor's word-array zeroing would otherwise dominate this stage.
    bool transmit;
    if (capetanakis_) {
      transmit = capetanakis_->should_transmit();
    } else {
      transmit = !randomized_->done() && randomized_->should_transmit(ctx.rng());
    }
    if (transmit) ctx.channel_write(sim::Packet(kPartial, {acc_}));
  }

  void on_slot(std::uint64_t slot_step, const sim::SlotObservation& obs,
               sim::NodeContext&) override {
    if (slot_step != 2) return;
    const bool mine = obs.success() && obs.writer == view_.self;
    // Incremental fold: a slot the resolver records as a success (its
    // success_count advances across observe — the resolvers only count
    // schedule successes, e.g. the randomized scheduler ignores busy-tone
    // lanes) contributes its partial immediately.  Same fold order as
    // replaying successes() at the end, without any node storing them.
    const std::uint64_t before = capetanakis_ ? capetanakis_->success_count()
                                              : randomized_->success_count();
    if (capetanakis_) {
      if (!capetanakis_->done()) capetanakis_->observe(obs, mine);
    } else if (!randomized_->done()) {
      randomized_->observe(obs, mine);
      if (mine && randomized_->succeeded()) listen_only();
    }
    const std::uint64_t after = capetanakis_ ? capetanakis_->success_count()
                                             : randomized_->success_count();
    if (after != before) {
      result_ = folded_ ? semigroup_apply(config_.op, result_, obs.payload[0])
                        : obs.payload[0];
      folded_ = true;
    }
    if (observed_end(2)) {
      MMN_ASSERT(folded_, "no partial results on the channel");
    }
  }

  bool observed_end(std::uint64_t) const override {
    if (capetanakis_) return capetanakis_->done();
    return randomized_->done();
  }

  void skip_slots(std::uint64_t, std::uint64_t slots) override {
    randomized_->skip_collisions(slots);
  }

 private:
  bool is_root() const { return partition_->tree_parent() == view_.self; }

  // A randomized-stage listener with nothing left to send learns from a
  // collision only the backlog estimate and lane parity, both replayable
  // (skip_slots): it needs to run on idle slots (the end) and success slots
  // (a partial to fold) only.  Capetanakis listeners still run every slot.
  void listen_only() { wake_on_slots(sim::kWakeOnIdle | sim::kWakeOnSuccess); }

  const sim::LocalView& view_;
  GlobalFunctionConfig config_;
  sim::Word acc_;
  const FragmentState* partition_;
  std::uint32_t children_ = 0;
  std::uint32_t received_ = 0;
  bool sent_fold_ = false;
  bool folded_ = false;
  sim::Word result_ = 0;
  std::optional<CapetanakisResolver> capetanakis_;
  std::optional<RandomizedScheduler> randomized_;
};

}  // namespace

sim::Word semigroup_apply(SemigroupOp op, sim::Word a, sim::Word b) {
  switch (op) {
    case SemigroupOp::kSum:
      return a + b;
    case SemigroupOp::kMin:
      return a < b ? a : b;
    case SemigroupOp::kMax:
      return a > b ? a : b;
    case SemigroupOp::kXor:
      return a ^ b;
    case SemigroupOp::kGcd:
      return std::gcd(a, b);
  }
  MMN_ASSERT(false, "unknown semigroup operation");
  return 0;
}

int balanced_phase_count(NodeId n) {
  if (n <= 2) return partition_phases(n);
  const double target = std::sqrt(static_cast<double>(n) *
                                  ilog2_ceil(n) /
                                  std::max(1, log_star(n)));
  int p = partition_phases(n);
  const int cap = ilog2_floor(n) + 1;
  while (p < cap && (1u << p) < target) ++p;
  return p;
}

GlobalFunctionProcess::GlobalFunctionProcess(const sim::LocalView& view,
                                             GlobalFunctionConfig config,
                                             sim::Word input) {
  std::vector<std::unique_ptr<SteppedProcess>> stages;
  const FragmentState* partition = nullptr;
  if (config.variant == GlobalFunctionConfig::Variant::kDeterministic) {
    PartitionDetConfig pconfig;
    if (config.balanced) pconfig.phases = balanced_phase_count(view.n);
    auto stage = std::make_unique<PartitionDetProcess>(view, pconfig);
    partition = stage.get();
    stages.push_back(std::move(stage));
  } else {
    MMN_REQUIRE(!config.balanced,
                "the balanced refinement applies to the deterministic variant");
    auto stage =
        std::make_unique<PartitionRandProcess>(view, PartitionRandConfig{});
    partition = stage.get();
    stages.push_back(std::move(stage));
  }
  auto compute = std::make_unique<ComputeStage>(view, config, input, partition);
  compute_stage_ = compute.get();
  stages.push_back(std::move(compute));
  sequence_ = std::make_unique<SteppedSequenceProcess>(std::move(stages));
}

void GlobalFunctionProcess::round(sim::NodeContext& ctx) {
  sequence_->round(ctx);
}

bool GlobalFunctionProcess::finished() const { return sequence_->finished(); }

sim::Word GlobalFunctionProcess::result() const {
  return static_cast<const ComputeStage*>(compute_stage_)->result();
}

}  // namespace mmn
