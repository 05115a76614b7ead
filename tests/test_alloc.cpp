// Zero-allocation steady state: after a warm-up window every per-round
// structure — the arena's header buffers, the recycled packet pools, the
// slot-bucket ring, the shard staging vectors, the discipline's slot state —
// sits at its high-water-mark capacity, so a steady-traffic run performs no
// heap allocation per round.  The traffic alternates per-link sends and
// broadcast() each round/slot, so the guarantee covers the interned-payload
// path (one pooled payload behind deg(v) headers, refcounted on the async
// side) as well as the copying path.  This file instruments the global
// operator new
// (it links into its own test binary; the counter covers every allocation in
// the process, from any thread) and asserts the count stays zero across a
// post-warm-up window on both engines, serial and 4-thread, and on a
// 2-rank sharded run.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "core/openloop.hpp"
#include "graph/generators.hpp"
#include "sim/async_engine.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard_comm.hpp"
#include "support/check.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* checked_alloc(std::size_t size) {
  note_alloc();
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* checked_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size ? size : 1) == 0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable form the library can reach: vectors of the
// cache-line-aligned ShardBuffer go through the align_val_t overloads, and
// std::stable_sort's temporary buffer through the nothrow ones.  Replacing
// every allocating form keeps each block's allocator and deallocator
// matched (both malloc/free), which AddressSanitizer checks.
void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc();
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mmn::sim {
namespace {

constexpr std::uint64_t kWarmupRounds = 64;
constexpr std::uint64_t kMeasuredRounds = 256;

/// Steady synchronous traffic: every node messages all neighbors every
/// round — alternating per-link sends and broadcast() by round parity, so
/// the zero-allocation window covers both staging paths (deg payload
/// copies vs one interned payload) — every third node contends for the
/// channel, and the inbox is read word by word.  Never finishes — the test
/// drives it with step().
class ChatterProcess final : public Process {
 public:
  explicit ChatterProcess(const LocalView& view) : view_(view) {}

  void round(NodeContext& ctx) override {
    const Packet p(1, {static_cast<Word>(ctx.round() & 0xFF),
                       static_cast<Word>(view_.self)});
    if (ctx.round() % 2 == 0) {
      ctx.broadcast(p);
    } else {
      for (const Neighbor& nb : view_.links()) ctx.send(nb.edge, p);
    }
    if (view_.self % 3 == 0) {
      ctx.channel_write(Packet(2, {static_cast<Word>(view_.self)}));
    }
    for (const Received& r : ctx.inbox()) sum_ += r.packet()[0];
  }

  bool finished() const override { return false; }

 private:
  const LocalView& view_;
  Word sum_ = 0;
};

/// Steady synchronous traffic from nodes that sleep (sim/wake.hpp): each run
/// picks, by (id + round) mod 4, one of the wake declarations — every
/// round, on an idle slot, at a due round, on a non-idle slot or a due
/// round — so the awake-list gather, the declaration fold and the due-round
/// calendar all churn in steady state.  A fifth of the nodes broadcast
/// when they run (message wakes); every seventh contends for the channel.
class SleepyChatterProcess final : public Process {
 public:
  explicit SleepyChatterProcess(const LocalView& view) : view_(view) {}

  void round(NodeContext& ctx) override {
    for (const Received& r : ctx.inbox()) sum_ += r.packet()[0];
    sum_ += ctx.slept();
    if (view_.self % 5 == 0) {
      ctx.broadcast(Packet(1, {static_cast<Word>(ctx.round() & 0xFF)}));
    }
    if (view_.self % 7 == 0) ctx.channel_write(Packet(2));
    switch ((view_.self + ctx.round()) % 4) {
      case 1:
        ctx.sleep(kWakeOnIdle);
        break;
      case 2:
        ctx.sleep(0, ctx.round() + 3);
        break;
      case 3:
        ctx.sleep(kWakeOnSuccess | kWakeOnCollision, ctx.round() + 5);
        break;
      default:
        break;  // every round
    }
  }

  bool finished() const override { return false; }

 private:
  const LocalView& view_;
  Word sum_ = 0;
};

/// Steady asynchronous traffic: every slot boundary re-sends to all
/// neighbors — alternating broadcast() and per-link sends by slot parity,
/// so the window covers both the interned (push + push_shared refcounted
/// pool slot) and the copying commit path — and contends for the channel;
/// deliveries are read and fuel no further cascades (the per-slot volume
/// stays constant).
class AsyncChatterProcess final : public AsyncProcess {
 public:
  explicit AsyncChatterProcess(const LocalView& view) : view_(view) {}

  void start(AsyncContext& ctx) override { blast(ctx); }

  void on_message(const Received& msg, AsyncContext&) override {
    sum_ += msg.packet()[0];
  }

  void on_slot(const SlotObservation&, AsyncContext& ctx) override {
    blast(ctx);
    if (view_.self % 3 == 0) {
      ctx.channel_write(Packet(2, {static_cast<Word>(view_.self)}));
    }
  }

  bool finished() const override { return false; }

 private:
  void blast(AsyncContext& ctx) {
    const Packet p(1, {static_cast<Word>(view_.self)});
    if (ctx.slot_index() % 2 == 0) {
      ctx.broadcast(p);
    } else {
      for (const Neighbor& nb : view_.links()) ctx.send(nb.edge, p);
    }
  }

  const LocalView& view_;
  Word sum_ = 0;
};

std::uint64_t measure(const std::function<void(std::uint64_t)>& run_rounds) {
  run_rounds(kWarmupRounds);
  g_allocs.store(0);
  g_counting.store(true);
  run_rounds(kMeasuredRounds);
  g_counting.store(false);
  return g_allocs.load();
}

TEST(SteadyStateAllocation, SyncEngineAllocatesNothingPerRound) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<ChatterProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady-state rounds with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, SleepingSyncEngineAllocatesNothingPerRound) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<SleepyChatterProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady-state sleeping rounds with " << threads << " thread(s)";
    // Some node-steps were skipped, so the sleeping path really ran.
    EXPECT_LT(engine.node_steps(),
              std::uint64_t{g.num_nodes()} * engine.metrics().rounds);
  }
}

TEST(SteadyStateAllocation, RankedEngineAllocatesNothingPerRound) {
  // Two rank processes over one random graph: every round partitions the
  // sends, swaps blobs and channel writes with the peer and fills the
  // ingress buffers, and sleeping nodes are woken by headers from the other
  // rank.  The counter is per process after the fork, so each rank checks
  // its own rounds (MMN_REQUIRE: a failing child fails the parent's reap).
  shard_comm::run_ranks(2, [](shard_comm::Transport& t) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<SleepyChatterProcess>(v);
    }, 11, nullptr, nullptr, &t);
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    MMN_REQUIRE(allocs == 0, "a warmed-up ranked round allocated");
    MMN_REQUIRE(engine.xshard_msgs() > 0, "no cross-rank traffic");
    MMN_REQUIRE(engine.node_steps() <
                    std::uint64_t{engine.num_nodes()} * engine.metrics().rounds,
                "no owned node slept");
  });
}

TEST(SteadyStateAllocation, AsyncEngineAllocatesNothingPerSlot) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    AsyncEngine engine(g, [](const LocalView& v) {
      return std::make_unique<AsyncChatterProcess>(v);
    }, 11, /*max_delay_slots=*/2,
        threads <= 1 ? nullptr : make_scheduler(threads));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t slots) { engine.step(slots); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady-state slots with " << threads << " thread(s)";
  }
}

/// A churn plan whose events span warmup AND measured window: link outage
/// windows cycling every 32 slots plus rate-driven station crash/recover
/// pairs.  All FaultRuntime state (overlay bitsets, the sorted event list)
/// is sized at install_faults; applying events, dropping dead-link sends,
/// stifling crashed stations, and skipping crashed nodes are all in-place
/// flips — so warmed-up churn rounds must stay at zero allocations, same
/// as fault-free steady state (epoch compaction, the one allocating fault
/// operation, only runs at explicit compact() calls, never per round).
mmn::sim::FaultPlan churn_plan(const Graph& g, std::uint64_t horizon) {
  FaultPlan plan;
  plan.add_outage_windows(/*link=*/0, /*first_down=*/8, /*down_slots=*/16,
                          /*up_slots=*/16, horizon);
  plan.merge(FaultPlan::node_churn(g, /*rate=*/0.02, /*down_slots=*/24,
                                   horizon, 11));
  return plan;
}

TEST(SteadyStateAllocation, SyncChurnRoundsAllocateNothing) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    Engine engine(g, [](const LocalView& v) {
      return std::make_unique<ChatterProcess>(v);
    }, 11, threads <= 1 ? nullptr : make_scheduler(threads));
    engine.install_faults(
        churn_plan(g, kWarmupRounds + kMeasuredRounds + 64));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t rounds) { engine.step(rounds); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " churn rounds with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, AsyncChurnSlotsAllocateNothing) {
  for (unsigned threads : {1u, 4u}) {
    const Graph g = random_connected(96, 192, 11);
    AsyncEngine engine(g, [](const LocalView& v) {
      return std::make_unique<AsyncChatterProcess>(v);
    }, 11, /*max_delay_slots=*/2,
        threads <= 1 ? nullptr : make_scheduler(threads));
    engine.install_faults(
        churn_plan(g, kWarmupRounds + kMeasuredRounds + 64));
    const std::uint64_t allocs =
        measure([&engine](std::uint64_t slots) { engine.step(slots); });
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " churn slots with " << threads << " thread(s)";
  }
}

TEST(SteadyStateAllocation, OpenLoopRecorderAllocatesNothingPerRound) {
  // The open-loop load path end to end: constant-rate arrivals, per-class
  // FIFOs, the reservation grant ring, delivery gossip, and every
  // record_latency() into the shard's LatencyBlock.  The constant source
  // is periodic and the load is under the reservation capacity, so the
  // queues and pools reach their high-water capacity during a long warmup
  // and the measured window must not allocate — pinning the LatencyRecorder
  // claim in sim/traffic.hpp on the real delivery hot path.
  constexpr std::uint64_t kOpenLoopWarmup = 2048;
  for (unsigned threads : {1u, 4u}) {
    const Graph g = build_topology(TopologySpec{TopoKind::kRing, 64, 11});
    mmn::OpenLoopConfig config;
    config.arrivals = ArrivalKind::kConstant;
    config.offered = 0.4;
    config.horizon = ~std::uint64_t{0};  // never finishes; step() drives it
    Engine engine(g, mmn::make_open_loop_factory(config), 11,
                  threads <= 1 ? nullptr : make_scheduler(threads),
                  make_discipline(DisciplineKind::kReservation,
                                  UnslottedConfig{}, 11));
    engine.step(kOpenLoopWarmup);
    g_allocs.store(0);
    g_counting.store(true);
    engine.step(kMeasuredRounds);
    g_counting.store(false);
    const std::uint64_t allocs = g_allocs.load();
    EXPECT_EQ(allocs, 0u)
        << allocs << " heap allocations in " << kMeasuredRounds
        << " steady open-loop rounds with " << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace mmn::sim
