#include "scenario/registry.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "baselines/broadcast_global.hpp"
#include "baselines/p2p_global.hpp"
#include "core/anonymous.hpp"
#include "core/global_function.hpp"
#include "core/openloop.hpp"
#include "core/mst.hpp"
#include "core/partition_det.hpp"
#include "core/partition_rand.hpp"
#include "core/size.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace mmn::scenario {

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(Scenario s) {
  MMN_REQUIRE(!s.name.empty(), "scenario needs a name");
  MMN_REQUIRE(find(s.name) == nullptr, "duplicate scenario name");
  MMN_REQUIRE(s.make_factory != nullptr, "scenario needs a process factory");
  MMN_REQUIRE(!s.sweep_n.empty(), "scenario needs a default sweep");
  scenarios_.push_back(std::move(s));
}

const Scenario* Registry::find(std::string_view name) const {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Graph make_scenario_graph(const Scenario& s, NodeId n, std::uint64_t seed) {
  return build_topology(
      TopologySpec{s.topology, topology_round_n(s.topology, n), seed});
}

namespace {

/// Folds one word per node, node-major — deterministic and comparable
/// across schedulers and engines because node iteration order is fixed.
template <typename PerNode>
std::uint64_t fold_nodes(const NodeResults& results, PerNode&& per_node) {
  std::uint64_t h = results.h0;  // kDigestSeed unless a rank chained into us
  for (NodeId i = 0; i < results.n; ++i) {
    const NodeId v = results.begin + i;
    h = digest_mix(h, per_node(results.at(v), v));
  }
  return h;
}

/// Engine-generic open-loop digest: side-casts whichever process handle the
/// run produced to the shared OpenLoopStats surface.  (Sync and async runs
/// digest to different values — the gossip fold sees each engine's own
/// delivery order — but each is bit-stable across schedulers and dispatch
/// levels, which is what the equivalence suites compare.)
std::uint64_t load_digest(const NodeResults& results) {
  return open_loop_digest(
      results.n,
      [&results](NodeId v) -> const OpenLoopStats& {
        if (results.at) {
          return dynamic_cast<const OpenLoopStats&>(results.at(v));
        }
        return dynamic_cast<const OpenLoopStats&>(results.at_async(v));
      },
      results.begin, results.h0);
}

std::uint64_t fragment_digest(const NodeResults& results) {
  return fold_nodes(results, [](const sim::Process& p, NodeId) {
    const auto& f = dynamic_cast<const FragmentState&>(p);
    return digest_mix(f.fragment_id(),
                      static_cast<std::uint64_t>(f.tree_parent_edge()) + 1);
  });
}

void register_all() {
  Registry& r = Registry::instance();

  r.add(Scenario{
      "partition/det/random",
      "Section 3 deterministic partition on a random connected graph",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<PartitionDetProcess>(v,
                                                       PartitionDetConfig{});
        };
      },
      fragment_digest,
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "partition/rand/random",
      "Section 4 randomized partition on a random connected graph",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<PartitionRandProcess>(v,
                                                        PartitionRandConfig{});
        };
      },
      fragment_digest,
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "partition/anon/random",
      "Section 7.4 partition with unknown n and anonymous nodes",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<AnonymousPartitionProcess>(v);
        };
      },
      fragment_digest,
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "mst/random",
      "Section 6 multimedia MST on a random connected graph",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<MstProcess>(v);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          const auto& mst = dynamic_cast<const MstProcess&>(p);
          std::vector<EdgeId> edges = mst.mst_edges();
          std::sort(edges.begin(), edges.end());
          std::uint64_t h = kDigestSeed;
          for (EdgeId e : edges) h = digest_mix(h, e);
          return h;
        });
      },
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "global/min/det/random",
      "Section 5 deterministic global min on a random connected graph",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        GlobalFunctionConfig config;
        config.op = SemigroupOp::kMin;
        config.variant = GlobalFunctionConfig::Variant::kDeterministic;
        return [config](const sim::LocalView& v) {
          return std::make_unique<GlobalFunctionProcess>(
              v, config, static_cast<sim::Word>(v.self) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const GlobalFunctionProcess&>(p).result());
        });
      },
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "global/min/rand/ring",
      "Section 5 randomized global min on a ring",
      TopoKind::kRing,
      [](const Graph&) -> sim::ProcessFactory {
        GlobalFunctionConfig config;
        config.op = SemigroupOp::kMin;
        config.variant = GlobalFunctionConfig::Variant::kRandomized;
        return [config](const sim::LocalView& v) {
          return std::make_unique<GlobalFunctionProcess>(
              v, config, static_cast<sim::Word>(v.self) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const GlobalFunctionProcess&>(p).result());
        });
      },
      {256, 1024, 4096},
      7,
      200'000'000});

  r.add(Scenario{
      "global/sum/bcast/complete",
      "Channel-only TDMA baseline folding a sum on a complete graph",
      TopoKind::kComplete,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<BroadcastGlobalProcess>(
              v, SemigroupOp::kSum, static_cast<sim::Word>(v.self) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const BroadcastGlobalProcess&>(p).result());
        });
      },
      {64, 128},
      7,
      200'000'000});

  r.add(Scenario{
      "global/max/tdma/ring",
      "TDMA channel discipline folding a max on a sparse ring",
      TopoKind::kRing,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<BroadcastGlobalProcess>(
              v, SemigroupOp::kMax, static_cast<sim::Word>(v.self % 17) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const BroadcastGlobalProcess&>(p).result());
        });
      },
      {64, 128},
      7,
      200'000'000});

  {
    Scenario grid_min{
        "global/min/p2p/grid",
        "Pure point-to-point baseline folding a min on a square grid",
        TopoKind::kGrid,
        [](const Graph&) -> sim::ProcessFactory {
          P2pGlobalConfig config;
          config.op = SemigroupOp::kMin;
          return [config](const sim::LocalView& v) {
            return std::make_unique<P2pGlobalProcess>(
                v, config, static_cast<sim::Word>(v.self) + 1);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return static_cast<std::uint64_t>(
                dynamic_cast<const P2pGlobalProcess&>(p).result());
          });
        },
        {64, 256},
        7,
        200'000'000};
    grid_min.channel_free = true;  // no channel use: async-capable
    r.add(std::move(grid_min));
  }

  {
    Scenario cube_sum{
        "global/sum/p2p/hypercube",
        "Pure point-to-point sum on an iPSC-style hypercube",
        TopoKind::kHypercube,
        [](const Graph& g) -> sim::ProcessFactory {
          P2pGlobalConfig config;
          config.op = SemigroupOp::kSum;
          std::uint32_t dim = 0;
          while ((NodeId{1} << dim) < g.num_nodes()) ++dim;
          config.known_diameter = dim;
          return [config](const sim::LocalView& v) {
            return std::make_unique<P2pGlobalProcess>(
                v, config, static_cast<sim::Word>(v.self) + 1);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return static_cast<std::uint64_t>(
                dynamic_cast<const P2pGlobalProcess&>(p).result());
          });
        },
        {64, 256},
        7,
        200'000'000};
    cube_sum.channel_free = true;  // no channel use: async-capable
    cube_sum.async_max_delay_slots = 2;  // messages straddle slot boundaries
    r.add(std::move(cube_sum));
  }

  // ---- channel-discipline variants (sim/channel_discipline.hpp) ----------
  //
  // The contention workloads carry no medium-access logic of their own —
  // every unresolved node writes every slot — so the registered discipline
  // is what schedules them.  The unslotted variants run unmodified channel
  // protocols through the Section 7.2 busy-tone emulation, which preserves
  // every slot outcome while accounting emergent continuous time.

  {
    Scenario cape_max{
        "global/max/cape/ring",
        "Greedy contenders folding a max, scheduled by Capetanakis splitting",
        TopoKind::kRing,
        [](const Graph&) -> sim::ProcessFactory {
          return [](const sim::LocalView& v) {
            return std::make_unique<ContentionGlobalProcess>(
                v, SemigroupOp::kMax, static_cast<sim::Word>(v.self % 23) + 1);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return static_cast<std::uint64_t>(
                dynamic_cast<const ContentionGlobalProcess&>(p).result());
          });
        },
        {64, 128},
        7,
        200'000'000};
    cape_max.discipline = sim::DisciplineKind::kCapetanakis;
    r.add(std::move(cape_max));
  }

  {
    Scenario tdma_sum{
        "global/sum/tdma/grid",
        "Greedy contenders folding a sum, serialized by the TDMA discipline",
        TopoKind::kGrid,
        [](const Graph&) -> sim::ProcessFactory {
          return [](const sim::LocalView& v) {
            return std::make_unique<ContentionGlobalProcess>(
                v, SemigroupOp::kSum, static_cast<sim::Word>(v.self) + 1);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return static_cast<std::uint64_t>(
                dynamic_cast<const ContentionGlobalProcess&>(p).result());
          });
        },
        {64, 256},
        7,
        200'000'000};
    tdma_sum.discipline = sim::DisciplineKind::kTdma;
    r.add(std::move(tdma_sum));
  }

  {
    Scenario unslotted_size{
        "size/unslotted/clique",
        "Exact network size on a clique over the unslotted busy-tone channel",
        TopoKind::kComplete,
        [](const Graph&) -> sim::ProcessFactory {
          return [](const sim::LocalView& v) {
            return std::make_unique<DeterministicSizeProcess>(v);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return dynamic_cast<const DeterministicSizeProcess&>(p)
                .network_size();
          });
        },
        {48, 96},
        7,
        200'000'000};
    unslotted_size.discipline = sim::DisciplineKind::kUnslotted;
    r.add(std::move(unslotted_size));
  }

  {
    Scenario unslotted_part{
        "partition/det/unslotted/random",
        "Section 3 partition driven over the unslotted busy-tone channel",
        TopoKind::kRandom,
        [](const Graph&) -> sim::ProcessFactory {
          return [](const sim::LocalView& v) {
            return std::make_unique<PartitionDetProcess>(v,
                                                         PartitionDetConfig{});
          };
        },
        fragment_digest,
        {64, 256},
        7,
        200'000'000};
    unslotted_part.discipline = sim::DisciplineKind::kUnslotted;
    r.add(std::move(unslotted_part));
  }

  {
    Scenario unslotted_p2p{
        "global/min/p2p/unslotted/grid",
        "P2P min fold with the synchronizer's tones on the unslotted channel",
        TopoKind::kGrid,
        [](const Graph&) -> sim::ProcessFactory {
          P2pGlobalConfig config;
          config.op = SemigroupOp::kMin;
          return [config](const sim::LocalView& v) {
            return std::make_unique<P2pGlobalProcess>(
                v, config, static_cast<sim::Word>(v.self) + 3);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return static_cast<std::uint64_t>(
                dynamic_cast<const P2pGlobalProcess&>(p).result());
          });
        },
        {64, 256},
        7,
        200'000'000};
    // Channel-free workload: on the synchronous engine the unslotted
    // discipline only idles, but the async run routes the synchronizer's
    // busy tones through the emulation — the discipline-under-async case.
    unslotted_p2p.channel_free = true;
    unslotted_p2p.discipline = sim::DisciplineKind::kUnslotted;
    r.add(std::move(unslotted_p2p));
  }

  r.add(Scenario{
      "size/det/random",
      "Section 7.3 exact network-size computation on a random graph",
      TopoKind::kRandom,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<DeterministicSizeProcess>(v);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return dynamic_cast<const DeterministicSizeProcess&>(p)
              .network_size();
        });
      },
      {64, 256},
      7,
      200'000'000});

  // ---- lower-bound and implicit-topology entries -------------------------
  //
  // The ray graph is the Theorem 2 topology: the multimedia lower bound is
  // proved on a center with vertex-disjoint rays, where the channel is the
  // only way to beat the diameter.  The implicit-clique entries run on
  // Graph::implicit_complete — O(1) topology storage — which is what lets
  // the dense scenarios reach n = 16384 inside the CI memory ceiling.

  r.add(Scenario{
      "global/min/det/ray",
      "Section 5 deterministic global min on the Theorem 2 ray graph",
      TopoKind::kRay,
      [](const Graph&) -> sim::ProcessFactory {
        GlobalFunctionConfig config;
        config.op = SemigroupOp::kMin;
        config.variant = GlobalFunctionConfig::Variant::kDeterministic;
        return [config](const sim::LocalView& v) {
          return std::make_unique<GlobalFunctionProcess>(
              v, config, static_cast<sim::Word>(v.self) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const GlobalFunctionProcess&>(p).result());
        });
      },
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "partition/det/ray",
      "Section 3 deterministic partition on the Theorem 2 ray graph",
      TopoKind::kRay,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<PartitionDetProcess>(v,
                                                       PartitionDetConfig{});
        };
      },
      fragment_digest,
      {64, 256},
      7,
      200'000'000});

  r.add(Scenario{
      "global/sum/bcast/iclique",
      "Channel-only TDMA sum on an implicit (O(1)-storage) clique",
      TopoKind::kCliqueImplicit,
      [](const Graph&) -> sim::ProcessFactory {
        return [](const sim::LocalView& v) {
          return std::make_unique<BroadcastGlobalProcess>(
              v, SemigroupOp::kSum, static_cast<sim::Word>(v.self) + 1);
        };
      },
      [](const NodeResults& results) {
        return fold_nodes(results, [](const sim::Process& p, NodeId) {
          return static_cast<std::uint64_t>(
              dynamic_cast<const BroadcastGlobalProcess&>(p).result());
        });
      },
      {64, 128},
      7,
      200'000'000});

  {
    Scenario iclique_size{
        "size/unslotted/iclique",
        "Exact network size on an implicit clique, unslotted busy-tone",
        TopoKind::kCliqueImplicit,
        [](const Graph&) -> sim::ProcessFactory {
          return [](const sim::LocalView& v) {
            return std::make_unique<DeterministicSizeProcess>(v);
          };
        },
        [](const NodeResults& results) {
          return fold_nodes(results, [](const sim::Process& p, NodeId) {
            return dynamic_cast<const DeterministicSizeProcess&>(p)
                .network_size();
          });
        },
        {48, 96},
        7,
        200'000'000};
    iclique_size.discipline = sim::DisciplineKind::kUnslotted;
    r.add(std::move(iclique_size));
  }

  // ---- open-loop load family (core/openloop.hpp) -------------------------
  //
  // Load-capable scenarios: every entry carries make_load_factory (so
  // scenario_sweep --load= and bench_load_sweep can rebuild the stations at
  // any offered load) plus the native-async variant, and its plain
  // make_factory runs the stations at default_load for the legacy sweeps
  // and the equivalence suites.  The free-for-all entry livelocks past
  // saturation by design — two simultaneously backlogged stations
  // re-collide every slot forever.  Its synchronous runs cut off right
  // after the horizon (a non-deferring discipline holds no backlog the
  // engine could see) and its native-async runs burn to the slot cap with
  // completed == false; both cutoffs are deterministic, and the standing
  // backlog is the result — the load-sweep story's baseline curve.

  const auto add_load = [&r](std::string name, std::string desc,
                             TopoKind topo, sim::ArrivalKind arrivals,
                             double default_load, sim::DisciplineKind disc,
                             std::vector<NodeId> sweep) {
    OpenLoopConfig base;
    base.arrivals = arrivals;
    base.horizon = 1200;
    Scenario s;
    s.name = std::move(name);
    s.description = std::move(desc);
    s.topology = topo;
    s.make_factory = [base, default_load](const Graph&) {
      OpenLoopConfig c = base;
      c.offered = default_load;
      return make_open_loop_factory(c);
    };
    s.digest = load_digest;
    s.sweep_n = std::move(sweep);
    s.max_rounds = base.horizon * 8 + 4096;  // generation + drain window
    s.discipline = disc;
    s.default_load = default_load;
    s.make_load_factory = [base](const Graph&, double load) {
      OpenLoopConfig c = base;
      c.offered = load;
      return make_open_loop_factory(c);
    };
    s.make_async_load_factory = [base](const Graph&, double load) {
      OpenLoopConfig c = base;
      c.offered = load;
      return make_open_loop_async_factory(c);
    };
    r.add(std::move(s));
  };

  add_load("load/poisson/ffa/ring",
           "Open-loop Poisson QoS stations on the bare collision channel",
           TopoKind::kRing, sim::ArrivalKind::kPoisson, 0.6,
           sim::DisciplineKind::kFreeForAll, {64, 128});
  add_load("load/poisson/pb/ring",
           "Open-loop Poisson stations under pseudo-Bayesian stabilization",
           TopoKind::kRing, sim::ArrivalKind::kPoisson, 0.3,
           sim::DisciplineKind::kPseudoBayesian, {64, 128});
  add_load("load/poisson/resv/ring",
           "Open-loop Poisson stations under the reservation multimedia MAC",
           TopoKind::kRing, sim::ArrivalKind::kPoisson, 0.8,
           sim::DisciplineKind::kReservation, {64, 128});
  add_load("load/onoff/resv/grid",
           "Bursty on-off stations under the reservation MAC on a grid",
           TopoKind::kGrid, sim::ArrivalKind::kOnOff, 0.7,
           sim::DisciplineKind::kReservation, {64, 256});
  add_load("load/poisson/pb/iclique",
           "Saturated Poisson stations, stabilized Aloha on an implicit clique",
           TopoKind::kCliqueImplicit, sim::ArrivalKind::kPoisson, 0.9,
           sim::DisciplineKind::kPseudoBayesian, {64, 128});
  // Deferring disciplines on the native-async path (the synchronizer would
  // reject them; open-loop stations don't read idle slots, so they are fine
  // here).  TDMA is stable at any offered load below 1; Capetanakis tree
  // splitting saturates near 0.5 packets/slot — 0.4 sits inside capacity.
  add_load("load/poisson/tdma/ring",
           "Open-loop Poisson stations under fixed TDMA slot ownership",
           TopoKind::kRing, sim::ArrivalKind::kPoisson, 0.5,
           sim::DisciplineKind::kTdma, {64, 128});
  add_load("load/poisson/cape/ring",
           "Open-loop Poisson stations under Capetanakis tree splitting",
           TopoKind::kRing, sim::ArrivalKind::kPoisson, 0.4,
           sim::DisciplineKind::kCapetanakis, {64, 128});

  // ---- fault-injection family (sim/fault.hpp) ----------------------------
  //
  // The recovery entries pin protocol re-convergence after topology damage:
  // phase A runs the protocol into k connectivity-safe link kills, the epoch
  // overlay compacts the surviving graph, and phase B must re-converge to a
  // valid result on it — the digest (protocol result + kill-set word) is
  // deterministic per (n, seed, k) and invariant to the epoch boundary.  The
  // churn entry runs the open-loop reservation MAC through rate-driven link
  // and station churn; its FaultStats fold into the digest, so the
  // equivalence suites cover drop accounting across schedulers too.

  {
    Scenario s;
    s.name = "fault/partition/det/random";
    s.description =
        "Section 3 partition re-converging after k mid-run link kills";
    s.topology = TopoKind::kRandom;
    s.make_factory = [](const Graph&) -> sim::ProcessFactory {
      return [](const sim::LocalView& v) {
        return std::make_unique<PartitionDetProcess>(v, PartitionDetConfig{});
      };
    };
    s.digest = fragment_digest;
    s.sweep_n = {64, 128};
    s.make_fault_plan = [](const Graph& g, std::uint32_t k,
                           std::uint64_t seed) {
      return sim::FaultPlan::link_kills(g, k, /*slot=*/24, seed);
    };
    s.default_faults = 4;
    s.fault_recovery = true;
    s.fault_epoch_slots = 96;
    r.add(std::move(s));
  }

  {
    Scenario s;
    s.name = "fault/mst/random";
    s.description =
        "Section 6 multimedia MST rebuilt after k mid-run link kills";
    s.topology = TopoKind::kRandom;
    s.make_factory = [](const Graph&) -> sim::ProcessFactory {
      return [](const sim::LocalView& v) {
        return std::make_unique<MstProcess>(v);
      };
    };
    s.digest = [](const NodeResults& results) {
      return fold_nodes(results, [](const sim::Process& p, NodeId) {
        const auto& mst = dynamic_cast<const MstProcess&>(p);
        std::vector<EdgeId> edges = mst.mst_edges();
        std::sort(edges.begin(), edges.end());
        std::uint64_t h = kDigestSeed;
        for (EdgeId e : edges) h = digest_mix(h, e);
        return h;
      });
    };
    s.sweep_n = {64, 128};
    s.make_fault_plan = [](const Graph& g, std::uint32_t k,
                           std::uint64_t seed) {
      return sim::FaultPlan::link_kills(g, k, /*slot=*/24, seed);
    };
    s.default_faults = 4;
    s.fault_recovery = true;
    s.fault_epoch_slots = 96;
    r.add(std::move(s));
  }

  {
    OpenLoopConfig base;
    base.arrivals = sim::ArrivalKind::kPoisson;
    base.horizon = 1200;
    Scenario s;
    s.name = "fault/load/churn/ring";
    s.description =
        "Reservation-MAC ring at offered 0.6 under link and station churn";
    s.topology = TopoKind::kRing;
    s.make_factory = [base](const Graph&) {
      OpenLoopConfig c = base;
      c.offered = 0.6;
      return make_open_loop_factory(c);
    };
    s.digest = load_digest;
    s.sweep_n = {64, 128};
    s.max_rounds = base.horizon * 8 + 4096;
    s.discipline = sim::DisciplineKind::kReservation;
    s.default_load = 0.6;
    s.make_load_factory = [base](const Graph&, double load) {
      OpenLoopConfig c = base;
      c.offered = load;
      return make_open_loop_factory(c);
    };
    s.make_async_load_factory = [base](const Graph&, double load) {
      OpenLoopConfig c = base;
      c.offered = load;
      return make_open_loop_async_factory(c);
    };
    // Intensity k scales both churn rates; stations stay down 40 slots.
    const std::uint64_t horizon = base.horizon;
    s.make_fault_plan = [horizon](const Graph& g, std::uint32_t k,
                                  std::uint64_t seed) {
      sim::FaultPlan plan =
          sim::FaultPlan::link_churn(g, 0.004 * k, horizon, seed);
      plan.merge(sim::FaultPlan::node_churn(g, 0.001 * k, /*down_slots=*/40,
                                            horizon, seed));
      return plan;
    };
    s.default_faults = 1;
    r.add(std::move(s));
  }
}

}  // namespace

void register_builtin() {
  static const bool once = [] {
    register_all();
    return true;
  }();
  (void)once;
}

}  // namespace mmn::scenario
