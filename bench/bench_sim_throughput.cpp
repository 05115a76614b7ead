// E11 — Engineering benchmark: simulator throughput (google-benchmark).
//
// Wall-clock cost of the engines themselves, swept from the scenario
// registry instead of hand-rolled loops:
//   * scenario/<name>/<n>       — every registered scenario at its default
//                                 sweep sizes under the serial scheduler;
//   * sched/<name>/<n>/t<k>     — the cheapest large scenario under the
//                                 parallel scheduler at 1/2/4/8 threads
//                                 (n >= 4096, the parallel-speedup gate);
//                                 wall-clock timed (UseRealTime), since the
//                                 work runs on the pool's threads;
//   * ascenario/<name>/<n>      — every channel-free scenario under the
//                                 asynchronous engine (busy-tone
//                                 synchronizer), serial scheduler;
//   * asched/<name>/<n>/t<k>    — the largest channel-free scenario on the
//                                 async engine's slot-phase scheduler at
//                                 1/2/4/8 threads, wall-clock timed;
//   * async/synchronized/<side> — the asynchronous engine driving a
//                                 synchronous protocol through the busy-tone
//                                 synchronizer (Section 7.1);
//   * channel/resolve           — raw slot resolution;
//   * discipline/<name>         — raw ChannelDiscipline::slot throughput
//                                 under a 16-of-64 contention batch per
//                                 iteration, drained to empty backlog;
//   * arena/flip/<n>            — MessageArena staging + counting-sort flip
//                                 of one all-to-some round at n nodes;
//   * buckets/stage/<n>         — SlotBuckets push + stage drain of one
//                                 slot's worth of in-flight messages;
//   * topology/build/<kind>/<n> — CSR (or implicit) topology construction at
//                                 4k/16k/64k, with a bytes_per_node counter
//                                 (graph arena + LocalViews) the perf gate
//                                 holds down as a memory regression check.
// This is the only wall-clock bench; all experiment tables use model
// metrics.  `--json` maps to google-benchmark's JSON output, written to
// BENCH_sim_throughput.json.
#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/p2p_global.hpp"
#include "core/synchronizer.hpp"
#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/async_engine.hpp"
#include "sim/channel.hpp"
#include "sim/channel_discipline.hpp"
#include "sim/scheduler.hpp"

namespace mmn {
namespace {

void run_scenario(benchmark::State& state, const scenario::Scenario& s,
                  NodeId n, unsigned threads) {
  // Graph generation is hoisted out of the timed loop; the engine build and
  // run are the measured work.  The per-iteration scheduler construction
  // (thread spawn, ~0.1 ms) is noise against the >= 10^3 rounds per run.
  const Graph g = scenario::make_scenario_graph(s, n, s.default_seed);
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    sim::Engine engine(g, s.make_factory(g), s.default_seed,
                       threads <= 1 ? nullptr : sim::make_scheduler(threads));
    rounds += engine.run(s.max_rounds).rounds;
  }
  state.counters["sim_rounds/s"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate);
}

void run_async_scenario(benchmark::State& state, const scenario::Scenario& s,
                        NodeId n, unsigned threads) {
  // Like run_scenario: graph generation is untimed setup, the engine build
  // and run are the measured work.
  const Graph g = scenario::make_scenario_graph(s, n, s.default_seed);
  std::uint64_t slots = 0;
  for (auto _ : state) {
    sim::AsyncEngine engine(
        g, synchronize(s.make_factory(g)), s.default_seed,
        s.async_max_delay_slots,
        threads <= 1 ? nullptr : sim::make_scheduler(threads));
    slots += engine.run(s.max_rounds).rounds;
    if (engine.status() != sim::AsyncEngine::RunStatus::kCompleted) {
      // Don't let a non-terminating config masquerade as a valid number in
      // the BENCH_*.json perf trajectory.
      state.SkipWithError(("async slot cap reached: " + s.name).c_str());
      return;
    }
  }
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(slots), benchmark::Counter::kIsRate);
}

void register_scenario_sweeps() {
  scenario::register_builtin();
  const scenario::Scenario* async_scaling = nullptr;
  for (const scenario::Scenario& s : scenario::Registry::instance().all()) {
    for (NodeId n : s.sweep_n) {
      benchmark::RegisterBenchmark(
          ("scenario/" + s.name + "/" + std::to_string(n)).c_str(),
          [&s, n](benchmark::State& state) { run_scenario(state, s, n, 1); });
    }
    if (s.channel_free) {
      // The channel-free scenario with the largest sweep size hosts the
      // thread sweep (first registered wins ties, so the series is stable
      // as the registry grows).
      if (async_scaling == nullptr ||
          s.sweep_n.back() > async_scaling->sweep_n.back()) {
        async_scaling = &s;
      }
      const NodeId n = s.sweep_n.front();
      benchmark::RegisterBenchmark(
          ("ascenario/" + s.name + "/" + std::to_string(n)).c_str(),
          [&s, n](benchmark::State& state) {
            run_async_scenario(state, s, n, 1);
          });
    }
  }
  // Serial-vs-parallel scaling at n >= 4096 on the cheapest large scenario.
  const scenario::Scenario* scaling =
      scenario::Registry::instance().find("global/min/rand/ring");
  if (scaling != nullptr) {
    const NodeId n = 4096;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      benchmark::RegisterBenchmark(
          ("sched/" + scaling->name + "/" + std::to_string(n) + "/t" +
           std::to_string(threads))
              .c_str(),
          [scaling, n, threads](benchmark::State& state) {
            run_scenario(state, *scaling, n, threads);
          })
          ->UseRealTime();
    }
  }
  // Async slot-phase scaling: serial vs parallel delivery/fan-out sharding.
  if (async_scaling != nullptr) {
    const NodeId n = async_scaling->sweep_n.back();
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      benchmark::RegisterBenchmark(
          ("asched/" + async_scaling->name + "/" + std::to_string(n) + "/t" +
           std::to_string(threads))
              .c_str(),
          [async_scaling, n, threads](benchmark::State& state) {
            run_async_scenario(state, *async_scaling, n, threads);
          })
          ->UseRealTime();
    }
  }
}

void BM_SynchronizedAsyncRun(benchmark::State& state) {
  const auto side = static_cast<NodeId>(state.range(0));
  const Graph g = grid(side, side, 7);
  P2pGlobalConfig config;
  config.op = SemigroupOp::kSum;
  auto factory = [&](const sim::LocalView& v) -> std::unique_ptr<sim::Process> {
    return std::make_unique<P2pGlobalProcess>(
        v, config, static_cast<sim::Word>(v.self) + 1);
  };
  std::uint64_t slots = 0;
  for (auto _ : state) {
    sim::AsyncEngine engine(g, synchronize(factory), 7, 1);
    slots += engine.run(80'000'000).rounds;
    if (engine.status() != sim::AsyncEngine::RunStatus::kCompleted) {
      state.SkipWithError("async slot cap reached");
      return;
    }
  }
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(slots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SynchronizedAsyncRun)
    ->Name("async/synchronized")
    ->Arg(8)
    ->Arg(16);

void run_discipline(benchmark::State& state, sim::DisciplineKind kind) {
  // One iteration = a fresh batch of 16 spread-out contenders (of 64
  // stations) fed into one slot, then further slots until the policy has
  // drained its backlog: 1 slot for the non-deferring disciplines, a
  // Capetanakis traversal or a TDMA cycle for the deferring ones.  The
  // slots/s counter is the policy's raw scheduling throughput.
  constexpr NodeId kStations = 64;
  constexpr NodeId kContenders = 16;
  auto discipline = sim::make_discipline(kind);
  discipline->reset(kStations);
  sim::Channel channel;
  Metrics metrics;
  std::vector<sim::ChannelWrite> batch;
  for (NodeId i = 0; i < kContenders; ++i) {
    batch.push_back(sim::ChannelWrite{
        static_cast<NodeId>(i * (kStations / kContenders)),
        sim::Packet(1, {sim::Word{i}})});
  }
  const std::vector<sim::ChannelWrite> empty;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(discipline->slot(batch, channel, metrics));
    ++slots;
    while (discipline->backlog() > 0) {
      benchmark::DoNotOptimize(discipline->slot(empty, channel, metrics));
      ++slots;
    }
  }
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(slots), benchmark::Counter::kIsRate);
}

void register_discipline_benches() {
  for (sim::DisciplineKind kind :
       {sim::DisciplineKind::kFreeForAll, sim::DisciplineKind::kTdma,
        sim::DisciplineKind::kCapetanakis, sim::DisciplineKind::kUnslotted}) {
    benchmark::RegisterBenchmark(
        (std::string("discipline/") + sim::discipline_name(kind)).c_str(),
        [kind](benchmark::State& state) { run_discipline(state, kind); });
  }
}

void BM_ArenaFlip(benchmark::State& state) {
  // One iteration = staging 4 sends per node across 4 shards (header +
  // pooled payload, exactly what NodeContext::send does) and one flip —
  // the per-round counting sort and scatter of the synchronous hot path.
  // After the first iterations every buffer is at its high-water capacity,
  // so the loop measures the steady-state zero-allocation path.
  const auto n = static_cast<NodeId>(state.range(0));
  constexpr unsigned kShards = 4;
  constexpr std::uint32_t kSendsPerNode = 4;
  sim::MessageArena arena;
  arena.reset(n, kShards);
  std::vector<sim::ShardBuffer> shards(kShards);
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    for (unsigned s = 0; s < kShards; ++s) {
      const auto [first, last] = sim::Scheduler::shard_range(n, s, kShards);
      for (NodeId v = first; v < last; ++v) {
        for (std::uint32_t k = 0; k < kSendsPerNode; ++k) {
          const auto to = static_cast<NodeId>((v + k + 1) % n);
          shards[s].outbox.push_back(sim::MsgHeader{
              to, v, EdgeId{v}, shards[s].stage_packet(sim::Packet(
                           1, {static_cast<sim::Word>(v), sim::Word{7}}))});
        }
      }
    }
    arena.flip(shards);
    benchmark::DoNotOptimize(arena.inbox(0).size());
    msgs += static_cast<std::uint64_t>(n) * kSendsPerNode;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(msgs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ArenaFlip)->Name("arena/flip")->Arg(4096)->Arg(16384);

void BM_BucketsStage(benchmark::State& state) {
  // One iteration = one slot of the asynchronous delivery store: n committed
  // sends pushed (seq-stamped headers + pooled payloads) and one stage()
  // drain (header sort + per-destination offsets).  Ticks spread over the
  // slot; destinations collide so the sort does real grouping work.
  const auto n = static_cast<NodeId>(state.range(0));
  constexpr std::uint64_t kTicksPerSlot = 16;
  sim::SlotBuckets buckets;
  buckets.reset(n, kTicksPerSlot, /*ring_slots=*/4);
  std::uint64_t slot = 0;
  std::uint64_t msgs = 0;
  for (auto _ : state) {
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t tick = slot * kTicksPerSlot + 1 + v % kTicksPerSlot;
      buckets.push(
          sim::AsyncMsgHeader{tick, static_cast<NodeId>((v * 7 + 1) % n), v,
                              EdgeId{v}, 0},
          sim::Packet(1, {static_cast<sim::Word>(v)}));
    }
    benchmark::DoNotOptimize(buckets.stage(slot));
    ++slot;
    msgs += n;
  }
  state.counters["msgs/s"] = benchmark::Counter(
      static_cast<double>(msgs), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BucketsStage)->Name("buckets/stage")->Arg(4096)->Arg(16384);

void run_topology_build(benchmark::State& state, TopoKind kind, NodeId n) {
  // One iteration = building the full CSR topology (or the O(1) implicit
  // descriptor) for the spec.  The bytes_per_node counter is the resident
  // topology footprint — graph arena + the n non-owning LocalViews the
  // runtime adds — per node; the perf gate holds it down so the zero-copy
  // layout cannot silently regress back to per-node adjacency copies.
  MMN_REQUIRE(topology_valid_n(kind, n), "bench size not admissible");
  std::uint64_t nodes = 0;
  for (auto _ : state) {
    const Graph g = build_topology(TopologySpec{kind, n, 7});
    benchmark::DoNotOptimize(g.num_edges());
    nodes += n;
  }
  const Graph g = build_topology(TopologySpec{kind, n, 7});
  const std::size_t bytes = g.topology_bytes() + n * sizeof(sim::LocalView);
  state.counters["nodes/s"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["bytes_per_node"] = benchmark::Counter(
      static_cast<double>(bytes) / static_cast<double>(n));
}

void register_topology_benches() {
  struct Case {
    TopoKind kind;
    NodeId n;
  };
  // 4k/16k/64k sweeps; the implicit clique at 16k would need ~4 GiB of
  // explicit rows and costs a few hundred bytes here.
  const Case cases[] = {
      {TopoKind::kRing, 4096},          {TopoKind::kRing, 65536},
      {TopoKind::kRandom, 4096},        {TopoKind::kRandom, 16384},
      {TopoKind::kGrid, 4096},          {TopoKind::kGrid, 16384},
      {TopoKind::kRay, 4096},           {TopoKind::kCliqueImplicit, 16384},
      {TopoKind::kHypercube, 65536},
  };
  for (const Case& c : cases) {
    benchmark::RegisterBenchmark(
        ("topology/build/" + std::string(topology_name(c.kind)) + "/" +
         std::to_string(c.n))
            .c_str(),
        [c](benchmark::State& state) {
          run_topology_build(state, c.kind, c.n);
        });
  }
}

void BM_ChannelResolve(benchmark::State& state) {
  sim::Channel channel;
  Metrics metrics;
  std::uint64_t slots = 0;
  for (auto _ : state) {
    channel.write(0, sim::Packet(1, {42}));
    channel.write(1, sim::Packet(1, {43}));
    benchmark::DoNotOptimize(channel.resolve(metrics));
    ++slots;
  }
  state.counters["slots/s"] = benchmark::Counter(
      static_cast<double>(slots), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ChannelResolve)->Name("channel/resolve");

}  // namespace
}  // namespace mmn

int main(int argc, char** argv) {
  // Map the repo-wide --json flag onto google-benchmark's JSON writer.
  std::vector<char*> args;
  std::string out_flag = "--benchmark_out=BENCH_sim_throughput.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      args.push_back(out_flag.data());
      args.push_back(fmt_flag.data());
    } else {
      args.push_back(argv[i]);
    }
  }
  int new_argc = static_cast<int>(args.size());
  mmn::register_scenario_sweeps();
  mmn::register_discipline_benches();
  mmn::register_topology_benches();
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
