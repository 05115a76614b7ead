#include "sim/engine.hpp"

#include <utility>

#include "sim/fault.hpp"
#include "support/check.hpp"

namespace mmn::sim {

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed)
    : Engine(g, factory, seed, nullptr) {}

Engine::Engine(const Graph& g, const ProcessFactory& factory,
               std::uint64_t seed, std::unique_ptr<Scheduler> scheduler,
               std::unique_ptr<ChannelDiscipline> discipline,
               shard_comm::Transport* transport)
    : core_(g, seed, std::move(scheduler), std::move(discipline), transport) {
  const NodeId w = core_.num_nodes();
  core_.wake().reset(w);
  processes_.reserve(w);
  finished_flag_.reserve(w);
  // Views are fully built by the core before any factory call: a process may
  // inspect only its own view, but the vector must not reallocate afterwards.
  for (NodeId i = 0; i < w; ++i) {
    processes_.push_back(factory(core_.view(i)));
    MMN_REQUIRE(processes_.back() != nullptr, "factory returned null process");
    finished_flag_.push_back(processes_.back()->finished() ? 1 : 0);
  }
  outstanding_ = initial_outstanding(finished_flag_, core_.scheduler().shards());
  // Termination is checked before the first round, so the ranks' counts are
  // swapped once up front (then piggybacked on every round's exchange).
  core_.share_outstanding(outstanding_sum(outstanding_));
}

bool Engine::all_finished() const {
  return none_outstanding(outstanding_, core_.peer_outstanding());
}

Engine::~Engine() = default;

Process& Engine::process(NodeId v) {
  MMN_REQUIRE(core_.owns(v), "node id outside this engine's window");
  return *processes_[v - core_.lo()];
}

const Process& Engine::process(NodeId v) const {
  MMN_REQUIRE(core_.owns(v), "node id outside this engine's window");
  return *processes_[v - core_.lo()];
}

/// The per-node body of one round; reached from the scheduler through a raw
/// function pointer, with a concrete NodeContext staging every externally
/// visible effect into the shard's buffer — the core commits shards in
/// ascending order, so the trace is scheduler-independent.
void Engine::node_round(unsigned shard, NodeId i) {
  WakeTable& wake = core_.wake();
  const EpochOverlay* overlay = nullptr;
  if (faults_ != nullptr) [[unlikely]] {
    overlay = &faults_->overlay();
    if (!overlay->node_alive(core_.view(i).self)) {
      // A crashed node does not step; whatever was delivered to it this
      // round is lost-and-counted, not processed.  Crashed is not asleep:
      // the round is not added to what the node catches up on later.
      core_.shard(shard).fault_drops += core_.inbox(i).size();
      wake.enter_crashed(i);
      return;
    }
  }
  NodeContext ctx(core_.view(i), core_.rng(i), core_.inbox(i), core_.slot(),
                  core_.round(), core_.shard(shard), overlay,
                  wake.enter(i, core_.round()));
  processes_[i]->round(ctx);
  wake.declare(i, ctx.wake());
  if (ctx.wake().on != kWakeEveryRound) ++core_.shard(shard).sleepers;
  const char done = processes_[i]->finished() ? 1 : 0;
  if (done != finished_flag_[i]) {
    finished_flag_[i] = done;
    outstanding_[shard].count += done ? -1 : 1;
  }
}

void Engine::run_one_round() {
  // Fault events scheduled for this slot apply before any shard steps, on
  // one thread — every node of the round sees the same topology.
  if (faults_ != nullptr) [[unlikely]] {
    faults_->apply_slot(core_.round(), core_.discipline());
    // A crashed node is visited every round while down (its inbox drops
    // are counted there), whatever it declared before the crash.  Every
    // rank replays the whole plan; each forces only the nodes it owns.
    for (const FaultEvent& e : faults_->last_applied()) {
      if (e.kind == FaultKind::kNodeCrash && core_.owns(e.id)) {
        core_.wake().force_awake(e.id - core_.lo());
      }
    }
  }
  core_.run_round(Scheduler::NodeFn{
                      [](void* env, unsigned s, NodeId i) {
                        static_cast<Engine*>(env)->node_round(s, i);
                      },
                      this},
                  outstanding_);
}

void Engine::install_faults(const FaultPlan& plan) {
  MMN_REQUIRE(core_.round() == 0 && faults_ == nullptr,
              "install_faults: once, before the first round");
  // On a sharded run every rank replays the identical full plan against
  // its own overlay replica (a windowed graph reports global n and m), so
  // liveness tests and discipline stifles agree across ranks.
  faults_ = std::make_unique<FaultRuntime>(core_.graph(), plan);
  core_.set_fault_runtime(faults_.get());
}

bool Engine::step(std::uint64_t rounds) {
  // Like AsyncEngine, completion additionally requires an idle channel: a
  // deferring discipline (TDMA, Capetanakis) may still hold a write that
  // was registered but not yet transmitted, and dropping it would silently
  // diverge from the non-deferring run of the same workload.
  if (status_ != RunStatus::kCompleted) status_ = RunStatus::kRunning;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    if (all_finished() && core_.channel_idle()) {
      status_ = RunStatus::kCompleted;
      return true;
    }
    run_one_round();
  }
  if (all_finished() && core_.channel_idle()) {
    status_ = RunStatus::kCompleted;
    return true;
  }
  return false;
}

Metrics Engine::run(std::uint64_t max_rounds) {
  if (!step(max_rounds)) status_ = RunStatus::kSlotCapReached;
  return core_.metrics();
}

Metrics run_network(const Graph& g, const ProcessFactory& factory,
                    std::uint64_t seed, std::uint64_t max_rounds) {
  Engine engine(g, factory, seed);
  return engine.run(max_rounds);
}

Metrics run_network(const Graph& g, const ProcessFactory& factory,
                    std::uint64_t seed, std::uint64_t max_rounds,
                    std::unique_ptr<Scheduler> scheduler) {
  Engine engine(g, factory, seed, std::move(scheduler));
  return engine.run(max_rounds);
}

}  // namespace mmn::sim
