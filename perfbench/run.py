#!/usr/bin/env python3
"""End-to-end benchmark of the multimedia-network simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_min_32k --seed 7 --seconds 20 --trace 0

builds the simulator and the benchmark worker from source (optimized, into
.bench_build/perfbench), runs the workload for --seconds (`--workload all`:
every workload in turn), prints each metric with its unit and the oracle
verdict, and, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (and writes its spans as Chrome trace-event JSON under
.bench_build/traces/).  Other modes:

    --corrupt            flip each run's checked digest or counter; the oracle
                         must then fail every run (pass_frac 0, exit 1)
    --two-sets RUNS      steadiness check: two sets of RUNS runs of the
                         workload, each run with its own seed, printing each
                         end-to-end metric's median and quartiles per set
    --selftest           build and run the benchmark's own small-n tests

See perfbench/README.md for the metrics, the workloads and why each exists.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKER = BUILD / "perfbench_worker"
SELFTEST = BUILD / "perfbench_selftest"

SPEC_FILE = ROOT / "BENCHMARK.json"  # workloads, metric registry, bounds

INPUTS = 3               # scenario seeds per run, derived from --seed
WORKER_TIMEOUT_S = 60    # one worker process, hard cap
RUN_CAP_S = 120          # a run stops starting workers after this long


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(f"perfbench: {msg}")
    sys.exit(code)


def build():
    """Configures (once) and builds the optimized benchmark from source."""
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (ROOT / "src").is_dir():
        fail(f"no simulator sources: {ROOT / 'src'} is missing")
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if cfg.returncode != 0:
            log(cfg.stdout)
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    b = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if b.returncode != 0:
        log(b.stdout[-4000:])
        fail("build failed")


def worker(*args, timeout=WORKER_TIMEOUT_S):
    """Runs one worker process; returns its JSON object (last stdout line)."""
    try:
        p = subprocess.run([str(WORKER), *args], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr[-2000:])
        return None
    return json.loads(lines[-1])


def host_context():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = worker("info")
    if info is None:
        fail("benchmark worker does not start")
    return {"nproc": os.cpu_count(), "cpu": model,
            "build_type": info["build_type"], "optimized": info["optimized"],
            "simd": info["simd"], "compiler": info["compiler"]}


def load_spec():
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC_FILE.name}: {e}")
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]},
            spec["run_seconds"])


WORKLOADS, END_TO_END, PER_LAYER, RUN_SECONDS = load_spec()


def pin_to_one_cpu():
    """Pins this process, and so every worker and rank it starts, to one CPU.

    Two ranks on two vCPUs of a shared KVM host wait on each other's
    wake-ups every round, and a vCPU the host steals stalls its partner: the
    two-rank workload's wall time swung between 1.4 and 2.9 s from one
    minute to the next.  On one CPU the ranks hand over by a plain context
    switch and the wall time is their work plus the exchange overhead.  The
    serial workloads run on one CPU anyway."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def median(xs):
    return statistics.median(xs)


def inputs(seed):
    """The run's INPUTS scenario seeds: --seed itself, then seeds offset by
    multiples of 2^32, so no two --seed values below 2^32 share an input.
    Scenario seeds are 64-bit."""
    return [(seed + (i << 32)) % (1 << 64) for i in range(INPUTS)]


def measure(workload, seed, seconds, corrupt):
    """Untraced runs for `seconds`: one fresh worker process per run, cycling
    over the run's inputs (at least one run each), each process timing 20
    set-ups and then one full run.  Returns the
    end-to-end metrics and the (attempted, failed) counts."""
    extra = ["--corrupt"] if corrupt else []
    seeds = inputs(seed)
    setup = []
    run = {s: [] for s in seeds}
    rss = {s: [] for s in seeds}
    model = {}
    attempted = failed = 0
    start = time.monotonic()
    while True:
        s = seeds[attempted % len(seeds)]
        r = worker("measure", "--workload", workload, "--seed", str(s),
                   *extra)
        attempted += 1
        if r is None:
            failed += 1  # crashed or timed out
        else:
            key = (r["sim_rounds"], r["sim_msgs"], r["p99_delay_slots"],
                   r["goodput"], r["digest"])
            model.setdefault(s, key)
            if not r["pass"] or key != model[s]:
                failed += 1
                log(f"perfbench: {workload} seed {s} failed: "
                    f"{r['failure'] or 'result differs between processes'}")
            setup += r["setup_s"]
            run[s].append(r["run_s"])
            rss[s].append(r["peak_rss_mib"])
        elapsed = time.monotonic() - start
        if elapsed >= RUN_CAP_S or (
                attempted >= len(seeds) and
                elapsed * (attempted + 0.5) / attempted >= seconds):
            break
    if len(model) < len(seeds):
        fail(f"{workload}: not every input completed a run")
    log(f"perfbench: {workload} run_s per input: " + "; ".join(
        f"{s}: " + " ".join(f"{x:.4g}" for x in run[s]) for s in seeds))

    def mean_over_inputs(per_input):
        return statistics.fmean(per_input(s) for s in seeds)

    metrics = {
        "setup_s": median(setup),
        "run_s": mean_over_inputs(lambda s: median(run[s])),
        "peak_rss_mib": mean_over_inputs(lambda s: median(rss[s])),
        "pass_frac": (attempted - failed) / attempted,
        "sim_rounds": mean_over_inputs(lambda s: model[s][0]),
        "sim_msgs": mean_over_inputs(lambda s: model[s][1]),
        "p99_delay_slots": mean_over_inputs(lambda s: model[s][2]),
        "goodput": mean_over_inputs(lambda s: model[s][3]),
    }
    return metrics, attempted, failed


def trace_run(workload, seed, corrupt):
    TRACES.mkdir(parents=True, exist_ok=True)
    out = TRACES / f"{workload}-seed{seed}.json"
    extra = ["--corrupt"] if corrupt else []
    r = worker("trace", "--workload", workload, "--seed",
               str(inputs(seed)[0]), "--out", str(out), *extra)
    if r is None:
        return None, 1, 1
    ok = r["pass"] and r["equal"] and r["trace_written"]
    if not ok:
        log(f"perfbench: traced {workload} seed {seed} failed: "
            f"pass={r['pass']} equal={r['equal']} {r['failure']}")
    log(f"perfbench: trace of {r['spans']} spans (run id {r['run_id']}) "
        f"written to {out.relative_to(ROOT)}")
    return r["layers"], 1, 0 if ok else 1


def prepare():
    """Builds, refuses a non-optimized build, pins, prints the host line."""
    build()
    host = host_context()
    if not host["optimized"]:
        fail(f"refusing to time a non-optimized build ({host['build_type']})",
             3)
    host["pinned_cpu"] = pin_to_one_cpu()
    print("host: " + json.dumps(host, sort_keys=True), flush=True)


def run_one_workload(workload, args):
    """Returns the metrics ({name: {value, unit}}), attempted and failed."""
    if args.trace:
        layers, attempted, failed = trace_run(workload, args.seed,
                                              args.corrupt)
        if layers is None:
            fail("traced run did not complete")
        missing = PER_LAYER.keys() - layers.keys()
        if missing:
            fail(f"traced run lacks per-layer metrics {sorted(missing)}")
        return ({k: {"value": layers[k], "unit": m["unit"]}
                 for k, m in PER_LAYER.items()}, attempted, failed)
    values, attempted, failed = measure(workload, args.seed, args.seconds,
                                        args.corrupt)
    return ({k: {"value": values[k], "unit": m["unit"]}
             for k, m in END_TO_END.items()}, attempted, failed)


def one_run(args):
    """Runs one workload, or with --workload all each in turn; the last line
    is the JSON result (metric names prefixed by workload for `all`)."""
    prepare()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for w in names:
        m, a, f = run_one_workload(w, args)
        attempted += a
        failed += f
        for k, v in m.items():
            print(f"{w:20s} {k:32s} {v['value']:<14.6g} {v['unit']}")
            metrics[k if len(names) == 1 else f"{w}.{k}"] = v
        print(f"{w:20s} {'correct':32s} {f == 0}", flush=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def two_sets(args):
    """Two sets of runs, each run a separate invocation with its own seed;
    prints per metric and set the median and quartiles, the spread (IQR /
    median) and the second median's change, against the metric's bound."""
    runs = args.two_sets
    seeds = [[args.seed + s * runs + i for i in range(runs)] for s in (0, 1)]
    sets = []
    host = None
    for s, seed_list in enumerate(seeds):
        values = {k: [] for k in END_TO_END}
        for seed in seed_list:
            p = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 args.workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail(f"run with seed {seed} failed (exit {p.returncode})")
            host = host or next(
                (x for x in lines if x.startswith("host: ")), None)
            last = json.loads(lines[-1])
            for k in END_TO_END:
                values[k].append(last["metrics"][k]["value"])
            log(f"set {s + 1} seed {seed}: " + " ".join(
                f"{k}={values[k][-1]:.6g}" for k in END_TO_END))
        sets.append(values)
    ok = True
    print(host)
    print(f"{args.workload}: two sets of {runs} runs, {args.seconds} s each")
    for k, m in END_TO_END.items():
        unit, better, bound = m["unit"], m["better"], m["bound"]
        stats = []
        for values in sets:
            q1, q2, q3 = quartiles(values[k])
            spread = (q3 - q1) / q2 if q2 else float("inf")
            stats.append((q1, q2, q3, spread))
        m1, m2 = stats[0][1], stats[1][1]
        change = (m2 - m1) if better == "lower" else (m1 - m2)
        worse = change / m1 if m1 else 0
        steady = all(st[3] <= bound / 3 for st in stats)
        holds = worse <= bound and all(st[3] <= bound for st in stats)
        ok = ok and holds
        print(f"  {k:16s} [{unit}] " + "  ".join(
            f"set{i + 1}: q1={st[0]:.6g} med={st[1]:.6g} q3={st[2]:.6g} "
            f"spread={st[3]:.3f}" for i, st in enumerate(stats)) +
            f"  shift={worse:+.3f} bound={bound}"
            f"{'' if holds else '  OUTSIDE BOUND'}"
            f"{'' if steady or not holds else '  (spread > bound/3)'}")
    return 0 if ok else 1


def selftest():
    build()
    p = subprocess.run([str(SELFTEST), str(BUILD)])
    return p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--two-sets", type=int, metavar="RUNS", default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    if args.two_sets:
        if args.workload == "all":
            ap.error("--two-sets takes one workload")
        return two_sets(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
