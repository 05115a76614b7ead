#include "channel/pseudo_bayesian.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace mmn {

RandomizedScheduler::RandomizedScheduler(double initial_backlog, bool pending,
                                         bool collect_successes)
    : backlog_(std::max(1.0, initial_backlog)),
      pending_(pending),
      collect_successes_(collect_successes) {}

namespace {

// Rivest's pseudo-Bayesian collision increment: collisions reveal at least
// two stations; the Poisson posterior shifts up by 1/(e-2).
double collision_increment() { return 1.0 / (std::exp(1.0) - 2.0); }

}  // namespace

bool RandomizedScheduler::should_transmit(Rng& rng) {
  MMN_REQUIRE(!done_, "scheduler already finished");
  if (contention_lane()) {
    transmitting_ = pending_ && rng.next_bernoulli(std::min(1.0, 1.0 / backlog_));
  } else {
    transmitting_ = pending_;  // busy-tone lane: every pending station writes
  }
  return transmitting_;
}

void RandomizedScheduler::observe(const sim::SlotObservation& obs,
                                  bool success_was_mine) {
  MMN_REQUIRE(!done_, "observe after scheduler finished");
  if (contention_lane()) {
    switch (obs.state) {
      case sim::SlotState::kCollision:
        backlog_ += collision_increment();
        break;
      case sim::SlotState::kSuccess:
        ++success_count_;
        if (collect_successes_) successes_.push_back(obs.payload);
        if (success_was_mine) pending_ = false;
        backlog_ = std::max(1.0, backlog_ - 1.0);
        break;
      case sim::SlotState::kIdle:
        backlog_ = std::max(1.0, backlog_ - 1.0);
        break;
    }
  } else {
    if (obs.idle()) done_ = true;  // no station pending anywhere
  }
  transmitting_ = false;
  ++slot_parity_;
}

void RandomizedScheduler::skip_collisions(std::uint64_t slots) {
  MMN_REQUIRE(!done_ && !pending_, "only an idle listener skips slots");
  // One add per contention slot, in order: a closed form (k * increment)
  // would round differently.
  for (; slots > 0; --slots) {
    if (contention_lane()) backlog_ += collision_increment();
    ++slot_parity_;
  }
}

}  // namespace mmn
