// Positional entry point for sharded runs, kept for existing callers:
// run_sharded(s, n, seed, K, load, faults, stats) is
// run(s, RunConfig{.n = n, .seed = seed, .ranks = K, .load = load,
//                  .faults = faults})
// with the result's ShardStats copied to *stats.  New code calls run().
#pragma once

#include <cstdint>

#include "scenario/registry.hpp"

namespace mmn::scenario {

RunResult run_sharded(const Scenario& s, NodeId n, std::uint64_t seed,
                      unsigned ranks, double load = 0.0,
                      std::uint32_t faults = 0, ShardStats* stats = nullptr);

}  // namespace mmn::scenario
