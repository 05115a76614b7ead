// Scenario sweep: drive every registered workload from one table.
//
// The scenario registry (src/scenario/registry.hpp) names each workload —
// topology family x protocol x channel discipline x default n/seed sweep —
// once; this example validates the whole table, walks it (by default at each
// scenario's smallest sweep size), optionally under the parallel scheduler,
// and prints the topology family, the realized size, the model metrics and
// the per-node result digest.  Every entry is size-parameterized through
// TopologySpec, so the same driver sweeps any size:
//
//   $ ./example_scenario_sweep                 # serial, default sizes
//   $ ./example_scenario_sweep 8               # 8-thread parallel scheduler
//   $ ./example_scenario_sweep --n=65536 --scenario=global/min/rand/ring
//   $ ./example_scenario_sweep 4 --n=16384 --scenario=global/sum/bcast/iclique
//   $ ./example_scenario_sweep --scenario=load/poisson/resv/ring --load=0.9
//   $ ./example_scenario_sweep --ranks=4 --scenario=global/min/rand/ring
//
// --ranks=K runs the synchronous rows sharded over K OS processes
// (RunConfig::ranks): each rank builds only its node window and the rows —
// digest included — are bit-identical to the serial table's, which is
// exactly what the CI serial-vs-sharded diff pins.  Rank mode is
// synchronous-only, so the @async section is skipped; the full table also
// skips the two-phase fault-recovery scenarios (naming one with
// --scenario exits non-zero).  It composes with --n/--load/--faults but not
// with a thread count (one process per rank, serial inside).
//
// --n is STRICT: a size the topology family does not admit (a non-power-of-
// two hypercube, a non-square grid) exits non-zero instead of silently
// clamping — sweep automation must never report a different n than asked.
// --load scales the offered load of the open-loop load/ scenarios and
// --faults the fault intensity k of the fault/ ones (which run at their
// default_faults even without the flag).  A selected scenario that cannot
// take the requested load, faults or ranks exits non-zero with
// scenario::unsupported_reason — the rule run() enforces — instead of
// silently running something other than what was asked.
//
// CI diffs the serial and parallel tables row by row, so a malformed
// registry entry must fail the sweep loudly instead of being skipped:
// duplicate names, missing digests, or empty sweeps exit non-zero before
// any run starts.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>

#include "graph/generators.hpp"
#include "scenario/registry.hpp"
#include "sim/channel_discipline.hpp"

namespace {

/// Rejects registry entries the sweep (and the CI diff over its rows)
/// cannot meaningfully drive, with a clean exit-1 instead of a skipped row.
/// Registry::add already aborts the process on duplicate names, missing
/// factories, and empty sweeps, so the load-bearing check here is the
/// digest: a digest-less scenario would print 0 and make the CI
/// serial/parallel diff blind to its results.  The duplicate-name re-check
/// stays as cheap defense in depth for a future registration path that
/// bypasses add().
bool validate_registry(const std::deque<mmn::scenario::Scenario>& scenarios) {
  bool ok = true;
  std::set<std::string> names;
  for (const auto& s : scenarios) {
    if (!names.insert(s.name).second) {
      std::fprintf(stderr, "malformed registry: duplicate scenario name %s\n",
                   s.name.c_str());
      ok = false;
    }
    if (!s.digest) {
      std::fprintf(stderr,
                   "malformed registry: %s has no digest — the sweep's "
                   "serial/parallel diff would be blind to its results\n",
                   s.name.c_str());
      ok = false;
    }
    if (s.sweep_n.empty()) {
      std::fprintf(stderr, "malformed registry: %s has an empty sweep\n",
                   s.name.c_str());
      ok = false;
    }
  }
  return ok;
}

void print_row(const mmn::scenario::Scenario& s, const char* suffix,
               const mmn::scenario::RunResult& r) {
  std::printf("%-30s %-9s %-11s %8u %10llu %12llu %18llx",
              (s.name + suffix).c_str(), mmn::topology_name(s.topology),
              mmn::sim::discipline_name(s.discipline), r.realized_n,
              (unsigned long long)r.metrics.rounds,
              (unsigned long long)r.metrics.p2p_messages,
              (unsigned long long)r.digest);
  // Faulted rows append their degradation tail; the columns are as
  // deterministic as the digest, so the CI serial/parallel diff covers them.
  if (!(r.faults == mmn::sim::FaultStats{})) {
    std::printf("  drops=%llu orphans=%llu rec=%llu",
                (unsigned long long)r.faults.drops,
                (unsigned long long)r.faults.orphaned_pkts,
                (unsigned long long)r.recovery_slots);
  }
  std::printf("\n");
}

/// Strict parse of a whole argument into [lo, hi]: a sign, trailing junk,
/// a fraction where an integer is due, or an out-of-range value fails
/// instead of being truncated into a different value than the caller
/// asked for.
bool parse_number(const char* text, bool integral, double lo, double hi,
                  double& out) {
  if (integral && (*text == '\0' ||
                   std::strspn(text, "0123456789") != std::strlen(text))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !(v >= lo) ||
      v > hi) {
    return false;
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmn;
  using scenario::EngineKind;
  double threads = 1;
  double n = 0;       // 0 = each scenario's smallest sweep size
  double load = 0;    // 0 = each load scenario's default_load
  double faults = 0;  // 0 = each fault scenario's default_faults
  double ranks = 1;   // 1 = in-process serial/parallel run
  std::string only;   // empty = every scenario
  const struct {
    const char* flag;
    bool integral;
    double lo, hi;
    double* out;
  } flags[] = {
      {"--n=", true, 1, 4294967295.0, &n},
      {"--load=", false, std::numeric_limits<double>::denorm_min(), 64, &load},
      {"--faults=", true, 1, 4096, &faults},
      {"--ranks=", true, 1, 64, &ranks},
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scenario=", 11) == 0) {
      only = arg + 11;
      continue;
    }
    bool matched = false;
    for (const auto& f : flags) {
      const std::size_t len = std::strlen(f.flag);
      if (std::strncmp(arg, f.flag, len) != 0) continue;
      matched = true;
      if (!parse_number(arg + len, f.integral, f.lo, f.hi, *f.out)) {
        std::fprintf(stderr, "bad %.*s value: %s\n", int(len - 1), f.flag,
                     arg + len);
        return 2;
      }
    }
    if (!matched && !parse_number(arg, true, 1, 256, threads)) {
      std::fprintf(stderr,
                   "usage: %s [threads: 1..256] [--n=N] [--load=L] "
                   "[--faults=K] [--ranks=K] [--scenario=NAME]\n",
                   argv[0]);
      return 2;
    }
  }
  const NodeId requested_n = static_cast<NodeId>(n);
  scenario::RunConfig base{.threads = static_cast<unsigned>(threads),
                           .ranks = static_cast<unsigned>(ranks),
                           .load = load,
                           .faults = static_cast<std::uint32_t>(faults)};
  // --ranks with a thread count is a usage error whatever the scenario.
  if (const char* why = scenario::unsupported_reason(
          scenario::Scenario{},
          {.threads = base.threads, .ranks = base.ranks})) {
    std::fprintf(stderr, "%s\n", why);
    return 2;
  }

  scenario::register_builtin();
  const auto& scenarios = scenario::Registry::instance().all();
  if (!validate_registry(scenarios)) return 1;
  if (!only.empty() && scenario::Registry::instance().find(only) == nullptr) {
    std::fprintf(stderr, "no such scenario: %s\n", only.c_str());
    return 1;
  }
  const auto selected = [&](const scenario::Scenario& s) {
    return only.empty() || s.name == only;
  };
  const auto config = [&](const scenario::Scenario& s, EngineKind engine) {
    scenario::RunConfig cfg = base;
    cfg.n = requested_n != 0 ? requested_n : s.sweep_n.front();
    cfg.seed = s.default_seed;
    cfg.engine = engine;
    return cfg;
  };
  // Strict up front: with an explicit --n every selected scenario's
  // topology must admit exactly that n — no silent clamping — and every
  // selected scenario must accept the requested load, faults and ranks.
  bool ok = true;
  for (const auto& s : scenarios) {
    if (!selected(s)) continue;
    if (requested_n != 0 && !topology_valid_n(s.topology, requested_n)) {
      std::fprintf(stderr,
                   "%s: topology '%s' does not admit n=%u (nearest "
                   "supported: %u)\n",
                   s.name.c_str(), topology_name(s.topology), requested_n,
                   topology_round_n(s.topology, requested_n));
      ok = false;
    }
    scenario::RunConfig cfg = config(s, EngineKind::kSync);
    const char* why = scenario::unsupported_reason(s, cfg);
    // The full table under --ranks skips the rows only rank mode cannot
    // run (the two-phase recovery scenarios); a scenario named with
    // --scenario must run as asked.
    cfg.ranks = 1;
    if (why != nullptr &&
        !(only.empty() && scenario::unsupported_reason(s, cfg) == nullptr)) {
      std::fprintf(stderr, "%s: %s\n", s.name.c_str(), why);
      ok = false;
    }
  }
  if (!ok) return 1;

  std::size_t count = 0;
  for (const auto& s : scenarios) count += selected(s);
  if (base.ranks > 1) {
    std::printf("%zu scenario(s) selected of %zu registered; %u rank "
                "processes\n\n",
                count, scenarios.size(), base.ranks);
  } else {
    std::printf("%zu scenario(s) selected of %zu registered; scheduler: "
                "%s\n\n",
                count, scenarios.size(),
                base.threads > 1 ? "parallel" : "serial");
  }
  std::printf("%-30s %-9s %-11s %8s %10s %12s %18s\n", "scenario", "topology",
              "discipline", "n", "rounds", "msgs", "digest");
  for (const auto& s : scenarios) {
    if (!selected(s)) continue;
    const scenario::RunConfig cfg = config(s, EngineKind::kSync);
    if (const char* why = scenario::unsupported_reason(s, cfg)) {
      std::fprintf(stderr, "%s: %s; skipped under --ranks\n", s.name.c_str(),
                   why);
      continue;
    }
    print_row(s, "", scenario::run(s, cfg));
  }
  // The asynchronous engine runs channel-free workloads (through the
  // busy-tone synchronizer) and the open-loop load scenarios (natively, no
  // synchronizer); rounds are channel slots there.  Rank mode is
  // synchronous-only, so the section is empty under --ranks.
  for (const auto& s : scenarios) {
    if (!selected(s)) continue;
    const scenario::RunConfig cfg = config(s, EngineKind::kAsync);
    if (scenario::unsupported_reason(s, cfg) != nullptr) continue;
    const scenario::RunResult r = scenario::run(s, cfg);
    // Synchronizer-path protocols must terminate; an open-loop run capped
    // mid-livelock (free-for-all past saturation) is a valid, deterministic
    // row — the backlog is the result.
    if (!r.completed && !s.make_async_load_factory) {
      std::fprintf(stderr, "%s@async hit the slot cap without terminating\n",
                   s.name.c_str());
      return 1;
    }
    print_row(s, "@async", r);
  }
  std::printf("\nRe-run with a thread count (e.g. `%s 8`): the rounds, msgs,\n"
              "and digest columns are identical by construction — both the\n"
              "synchronous rounds and the async slot phases run on the same\n"
              "deterministic scheduler, whichever channel discipline the\n"
              "scenario declares.\n",
              argv[0]);
  return 0;
}
