#include "core/stepped.hpp"

#include "support/check.hpp"

namespace mmn {

void SteppedProcess::on_slot(std::uint64_t, const sim::SlotObservation&,
                             sim::NodeContext&) {}

void SteppedProcess::step_round(std::uint64_t, sim::NodeContext&) {}

bool SteppedProcess::step_done(std::uint64_t) const { return true; }

bool SteppedProcess::observed_end(std::uint64_t) const { return false; }

void SteppedProcess::skip_slots(std::uint64_t, std::uint64_t) {
  MMN_ASSERT(false, "skip_slots without a narrowed wake_on_slots");
}

void SteppedProcess::declare_wake(sim::NodeContext& ctx) const {
  switch (spec_.kind) {
    case StepKind::kBarrier:
      // No busy tone: step_done() holds and nothing was sent.
      if (!ctx.wrote_channel()) ctx.sleep(sim::kWakeOnIdle);
      break;
    case StepKind::kFixed:
      // The step ends in the round whose entry sees rounds_in_step_ reach
      // fixed_rounds: fixed_rounds - rounds_in_step_ rounds after the next.
      if (spec_.reactive) {
        const std::uint64_t left = spec_.fixed_rounds > rounds_in_step_
                                       ? spec_.fixed_rounds - rounds_in_step_
                                       : 0;
        ctx.sleep(0, ctx.round() + 1 + left);
      }
      break;
    case StepKind::kObserved:
      if (observed_wake_ != sim::kWakeEveryRound) ctx.sleep(observed_wake_);
      break;
  }
}

void SteppedProcess::round(sim::NodeContext& ctx) {
  if (finished_) return;

  // The running step's spec is cached at step entry: step_spec must be a
  // pure function of the step index and of state fixed before the step
  // starts (every node evaluates it identically anyway — a spec that
  // changed mid-step would desynchronize the network).  Caching keeps the
  // per-round loop free of the step_spec virtual calls, which dominate the
  // framework's own cost at scale; num_steps() — which MAY grow as shared
  // information arrives — is still consulted fresh at every transition.
  if (!started_) {
    started_ = true;
    if (num_steps() == 0) {
      finished_ = true;
      return;
    }
    spec_ = step_spec(0);
    observed_wake_ = sim::kWakeEveryRound;
    step_begin(0, ctx);
  } else {
    // Catch up on the rounds slept through since the last run.  By the wake
    // contract each was a message-free round of this same step in which the
    // hooks had nothing to do — except what skip_slots replays.
    if (const std::uint64_t slept = ctx.slept(); slept != 0) {
      rounds_in_step_ += slept;
      if (spec_.kind == StepKind::kObserved) skip_slots(step_, slept);
    }
    if (slot_owner_ != kNoStep) on_slot(slot_owner_, ctx.slot(), ctx);

    bool advance = false;
    switch (spec_.kind) {
      case StepKind::kBarrier:
        // Only an idle slot that this step itself owned proves quiescence;
        // the slot that *triggered* the step's start belongs to its
        // predecessor.
        advance = slot_owner_ == step_ && ctx.slot().idle();
        break;
      case StepKind::kFixed:
        advance = rounds_in_step_ >= spec_.fixed_rounds;
        break;
      case StepKind::kObserved:
        advance = observed_end(step_);
        break;
    }
    if (advance) {
      ++step_;
      rounds_in_step_ = 0;
      if (step_ >= num_steps()) {
        finished_ = true;
        return;
      }
      spec_ = step_spec(step_);
      observed_wake_ = sim::kWakeEveryRound;
      step_begin(step_, ctx);
    }
  }

  for (const sim::Received& msg : ctx.inbox()) {
    on_message(step_, msg, ctx);
  }
  step_round(step_, ctx);

  if (spec_.kind == StepKind::kBarrier) {
    MMN_ASSERT(!ctx.wrote_channel(),
               "barrier steps reserve the channel for busy tones");
    if (!step_done(step_) || ctx.sent_message()) {
      ctx.channel_write(sim::Packet(kBusyTone));
    }
  }

  slot_owner_ = step_;
  ++rounds_in_step_;
  declare_wake(ctx);
}

}  // namespace mmn
