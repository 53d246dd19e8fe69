#!/usr/bin/env python3
"""End-to-end pipeline benchmark: text edges -> .tlpc -> load -> grow ->
refine -> validate -> write, with per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload powerlaw-refine --seed 1 \
        --seconds 45 --trace 0

builds the pipeline driver from the sources beside this directory (into
.bench_build/), generates the workload's edge list from the seed (into
.bench_out/), then runs pipeline repetitions, each in its own child
process, until --seconds have passed. A fixed probe kernel is timed before
and after every repetition, and the repetition's times are scaled by it to
seconds of a reference host. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
the end-to-end metrics; --trace 1 reports the per-layer metrics and writes
a Chrome trace-event file to .bench_out/trace-<workload>.json.

    python3 perfbench/run.py --spread 10 --seconds 45 [--workload W ...]

runs each workload (default: those in BENCHMARK.json) once per seed, seeds
--seed .. --seed+N-1, and prints the median, quartiles and IQR/median of
every end-to-end metric, next to the bound BENCHMARK.json fixes for it. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench_pipeline")
CHILD_TIMEOUT_S = 150
# Seconds `perfbench_pipeline probe` took (median) on the host the bounds
# were set on: a 4-vCPU x86-64 VM. Every reported time is in seconds of that
# host: a repetition's times are scaled by PROBE_REF_S over the probe time
# measured around it (see README.md, "Host-speed scaling").
PROBE_REF_S = 0.17

# Inputs a run generates from its seed (seeds seed*INPUTS .. +INPUTS-1);
# repetitions take them in turn. The seed changes the vertex order, and
# with it the amount of growth and refinement work by up to about 10%; a
# median over several inputs keeps that from widening the spread of a run.
INPUTS = 4

# Workload name -> arguments of the reference run a traced run makes, whose
# partition must be byte-identical to the measured one (None: none).
# powerlaw-parallel is not in BENCHMARK.json (its BSP timings are not steady
# on a shared host, see README.md); a traced powerlaw-refine run makes one
# powerlaw-parallel run on its own input instead, so the BSP growth and
# scheduler layers are still measured.
WORKLOADS = {
    "powerlaw-refine": None,
    "powerlaw-parallel": ["--threads", "1"],
    "sparse-outofcore": ["--tier", "in_memory"],
}
# Per-layer metrics only multi_tlp's growth moves.
BSP_METRICS = [
    "core.bsp_grow_s", "core.super_steps", "core.claim_conflicts",
    "core.stale_claims", "core.claim_useful_ratio", "core.worker_propose_s",
    "core.worker_update_s", "util.threads", "util.imbalance", "util.steals",
    "util.steal_success_ratio",
]

# Every end-to-end metric with its unit, in report order.
END_TO_END = {"edges_per_s": "1/s", "setup_s": "s", "partition_s": "s",
              "rf": "ratio", "balance": "ratio", "peak_rss_mb": "MB",
              "ok_frac": "ratio"}

# Every per-layer metric with its unit, in report order. Time and
# throughput metrics come from spans, counts from the record a traced
# repetition writes; a layer that does no work on a workload reports 0.
PER_LAYER = {
    "graph.ingest_s": "s", "graph.ingest_edges_per_s": "1/s",
    "graph.spill_runs": "count", "graph.build_peak_mb": "MB",
    "graph.load_s": "s", "graph.resident_mb": "MB", "graph.mapped_mb": "MB",
    "graph.minor_faults": "count", "graph.major_faults": "count",
    "core.grow_s": "s", "core.joins_per_s": "1/s",
    "core.stage1_joins": "count", "core.stage2_joins": "count",
    "core.restarts": "count", "core.peak_frontier": "count",
    "core.rf_grown": "ratio", "core.super_steps": "count",
    "core.claim_conflicts": "count", "core.stale_claims": "count",
    "core.claim_useful_ratio": "ratio", "core.bsp_grow_s": "s",
    "core.worker_propose_s": "s",
    "core.worker_update_s": "s",
    "util.threads": "count", "util.imbalance": "ratio",
    "util.steals": "count", "util.steal_success_ratio": "ratio",
    "util.speedup_vs_1t": "ratio",
    "refine.refine_s": "s", "refine.moves": "count",
    "refine.replicas_removed": "count", "refine.removed_per_move": "ratio",
    "refine.passes": "count", "refine.escape_moves": "count",
    "refine.rollbacks": "count", "refine.heap_rebuilds": "count",
    "partition.validate_s": "s", "partition.metrics_s": "s",
    "partition.write_s": "s", "partition.write_mb": "MB",
    "graph.self_s": "s", "core.self_s": "s", "refine.self_s": "s",
    "partition.self_s": "s", "trace.remainder_s": "s",
    "trace.remainder_frac": "ratio", "trace.overhead_frac": "ratio",
    "host.cores": "count", "host.numa_nodes": "count", "host.kernel": "id",
    "host.probe_s": "s",
}
# Span name -> per-layer duration metric.
SPAN_METRICS = {
    "graph.ingest": "graph.ingest_s", "graph.load": "graph.load_s",
    "core.grow": "core.grow_s", "refine.refine": "refine.refine_s",
    "partition.validate": "partition.validate_s",
    "partition.metrics": "partition.metrics_s",
    "partition.write": "partition.write_s",
}
LAYERS = ["graph", "core", "refine", "partition"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------------ build --

def build():
    """Configures (once) and builds the driver; exits 1 on failure."""
    os.makedirs(OUT, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.relpath(HERE, ROOT), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "perfbench_pipeline"])
    with open(os.path.join(OUT, "build.log"), "w") as build_log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=build_log,
                              stderr=subprocess.STDOUT).returncode != 0:
                build_log.flush()
                with open(build_log.name) as f:
                    log("perfbench: build failed:\n" + "".join(
                        f.readlines()[-20:]))
                sys.exit(1)


# ------------------------------------------------------------ repetitions --

def spawn(args, log_path):
    """Runs the driver in a child process; returns (exit code, rusage).

    wait4 hands back the child's own rusage, so ru_maxrss is the peak RSS
    of this one repetition, not of this harness or the input generator.
    """
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        pid = os.posix_spawn(BINARY, [BINARY] + args, os.environ,
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    # Block in wait4 (no polling that would compete with the child for a
    # core); a timer kills a child that hangs.
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, rusage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return os.waitstatus_to_exitcode(status), rusage


def probe():
    """Seconds the driver's fixed probe kernel takes now (None: failed)."""
    try:
        out = subprocess.run([BINARY, "probe"], capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        return float(out.stdout) if out.returncode == 0 else None
    except (subprocess.TimeoutExpired, ValueError):
        return None


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_rep(workload, edges, work, trace, threads, extra=(), inject="none"):
    """One pipeline repetition; returns its record (see pipeline.cpp)."""
    os.makedirs(work, exist_ok=True)
    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    before = probe()
    code, rusage = spawn(
        ["run", "--workload", workload, "--input", edges, "--work", work,
         "--result", result, "--trace", "1" if trace else "0",
         "--threads", str(threads), "--inject", inject] + list(extra),
        os.path.join(work, "driver.log"))
    after = probe()
    if code == 0 and os.path.exists(result):
        with open(result) as f:
            rec = json.load(f)
    else:
        rec = {"ok": False, "values": {}, "spans": [], "host": {},
               "errors": ["driver exited with %d (see %s)" %
                          (code, os.path.join(work, "driver.log"))]}
    rec["traced"] = trace
    if before is None or after is None:
        rec["ok"] = False
        rec["errors"].append("the host probe failed")
    # Host-speed scale of this repetition's times (1.0 if the probe failed:
    # the repetition then counts as failed and is not reported).
    rec["probe_s"] = (before + after) / 2 if rec["ok"] else PROBE_REF_S
    rec["scale"] = PROBE_REF_S / rec["probe_s"]
    rec["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6
    partition = os.path.join(work, "partition.partsb")
    rec["digest"] = file_digest(partition) if rec["ok"] else None
    return rec


def run_workload(args):
    """Generates the inputs, runs repetitions and checks; returns results."""
    threads = min(4, len(os.sched_getaffinity(0)))
    base = os.path.join(OUT, args.workload)
    os.makedirs(base, exist_ok=True)
    inputs = []
    for i in range(INPUTS):
        edges = os.path.join(base, "edges-%d-%d.txt" % (args.seed, i))
        gen = subprocess.run(
            [BINARY, "gen", "--workload", args.workload, "--seed",
             str(args.seed * INPUTS + i), "--scale", repr(args.scale),
             "--out", edges], capture_output=True, text=True)
        if gen.returncode != 0:
            log("perfbench: input generation failed: " + gen.stderr)
            sys.exit(1)
        inputs.append(edges)

    reps = []
    deadline = time.monotonic() + args.seconds
    while not reps or time.monotonic() < deadline:
        # A traced run alternates traced and untraced repetitions: the
        # traced ones give the per-layer numbers, the gap between the two
        # medians is the tracing overhead.
        traced = bool(args.trace) and len(reps) % 2 == 0
        inject = args.inject if args.inject in ("unassigned", "readback") \
            and not reps else "none"
        which = len(reps) % INPUTS
        reps.append(run_rep(args.workload, inputs[which],
                            os.path.join(base, "work"), traced, threads,
                            inject=inject))
        reps[-1]["input"] = which
    # Every repetition of one input must write the same bytes.
    digests = {}
    for r in reps:
        if r["ok"] and digests.setdefault(r["input"], r["digest"]) != \
                r["digest"]:
            r["ok"] = False
            r["errors"].append("partition differs between repetitions")

    # The traced run's reference runs use the first input.
    edges = inputs[0]
    measured = digests.get(0)

    bsp = reference = None
    if args.trace:
        grown_by = args.workload
        if args.workload == "powerlaw-refine":
            grown_by = "powerlaw-parallel"
            bsp = run_rep(grown_by, edges, os.path.join(base, "bsp"), True,
                          threads)
            measured = bsp["digest"]
        if WORKLOADS[grown_by] is not None:
            inject = "divergent" if args.inject == "divergent" else "none"
            reference = run_rep(grown_by, edges, os.path.join(base, "ref"),
                                False, threads, WORKLOADS[grown_by], inject)
            if reference["ok"] and reference["digest"] != measured:
                reference["ok"] = False
                reference["errors"].append(
                    "partition differs from the reference run (%s)" %
                    " ".join(WORKLOADS[grown_by]))
    for edges in inputs:
        os.remove(edges)
    for work in ("work", "bsp", "ref"):
        tlpc = os.path.join(base, work, "graph.tlpc")
        if os.path.exists(tlpc):
            os.remove(tlpc)
    return reps, bsp, reference


# ---------------------------------------------------------------- metrics --

def scaled(rec, name):
    """A time of one repetition, in seconds of the reference host."""
    return rec["values"][name] * rec["scale"]


def end_to_end(reps, attempts):
    good = [r for r in reps if r["ok"]]
    failed = sum(1 for r in attempts if not r["ok"])
    return {
        "edges_per_s": median([r["values"]["input_edges"] /
                               scaled(r, "pipeline_s") for r in good]),
        "setup_s": median([scaled(r, "setup_s") for r in good]),
        "partition_s": median([scaled(r, "partition_s") for r in good]),
        "rf": median([r["values"]["rf"] for r in good]),
        "balance": median([r["values"]["balance"] for r in good]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in good]),
        "ok_frac": (len(attempts) - failed) / len(attempts),
    }


def span_times(spans):
    """Per-span-name durations and per-layer self times of one record.

    A span's self time is its duration minus the time its children cover;
    the root "pipeline" span's self time is the part no layer accounts for.
    """
    durations, self_times = {}, {}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += s["end"] - s["start"]
    for i, s in enumerate(spans):
        dur = s["end"] - s["start"]
        durations[s["name"]] = durations.get(s["name"], 0.0) + dur
        self_times[s["layer"]] = self_times.get(s["layer"], 0.0) + \
            dur - child_time[i]
    return durations, self_times


def layer_row(rec):
    """Per-layer metrics of one traced, passing repetition; times are in
    seconds of the reference host, like the end-to-end ones."""
    v = rec["values"]
    k = rec["scale"]
    durations, self_times = span_times(rec["spans"])
    row = {name: v[name] for name in PER_LAYER if name in v}
    for span, name in SPAN_METRICS.items():
        row[name] = durations.get(span, 0.0) * k
    for layer in LAYERS:
        row[layer + ".self_s"] = self_times.get(layer, 0.0) * k
    row["trace.remainder_s"] = self_times.get("pipeline", 0.0) * k
    row["trace.remainder_frac"] = \
        self_times.get("pipeline", 0.0) / durations["pipeline"]
    row["core.worker_propose_s"] = v["core.worker_propose_s"] * k
    row["core.worker_update_s"] = v["core.worker_update_s"] * k
    row["host.probe_s"] = rec["probe_s"]
    row["graph.ingest_edges_per_s"] = v["input_edges"] / row["graph.ingest_s"]
    joins = v["core.stage1_joins"] + v["core.stage2_joins"]
    row["core.joins_per_s"] = joins / row["core.grow_s"]
    if v["core.super_steps"]:
        row["core.bsp_grow_s"] = row["core.grow_s"]
    m = v["input_edges"]
    row["core.claim_useful_ratio"] = \
        m / (m + v["core.claim_conflicts"] + v["core.stale_claims"])
    attempts = v["util.steals"] + v["util.steal_failures"]
    row["util.steal_success_ratio"] = \
        v["util.steals"] / attempts if attempts else 0.0
    moves = v.get("refine.moves", 0.0)
    row["refine.removed_per_move"] = \
        v.get("refine.replicas_removed", 0.0) / moves if moves else 0.0
    return row


def per_layer(reps, bsp, reference):
    traced = [r for r in reps if r["ok"] and r["traced"]]
    untraced = [r for r in reps if r["ok"] and not r["traced"]]
    rows = [layer_row(r) for r in traced]
    metrics = {name: median([row.get(name, 0.0) for row in rows])
               for name in PER_LAYER}
    # BSP growth measured beside a sequential workload: its own run.
    grown = reps
    if bsp is not None:
        grown = [bsp]
        if bsp["ok"]:
            row = layer_row(bsp)
            metrics.update({name: row.get(name, 0.0) for name in BSP_METRICS})
    # util.speedup_vs_1t: the one-thread reference run's growth time over
    # the measured BSP growth time (partition_s is growth alone there).
    metrics["util.speedup_vs_1t"] = 0.0
    grow_s = median([scaled(r, "partition_s") for r in grown if r["ok"]])
    if reference is not None and reference["ok"] and grow_s and \
            reference["values"].get("util.threads", 0) == 1:
        metrics["util.speedup_vs_1t"] = \
            scaled(reference, "partition_s") / grow_s
    traced_s = median([scaled(r, "pipeline_s") for r in traced])
    untraced_s = median([scaled(r, "pipeline_s") for r in untraced])
    metrics["trace.overhead_frac"] = \
        traced_s / untraced_s - 1.0 if untraced and traced else 0.0
    host = next((r["host"] for r in reps if r["host"]), {})
    metrics["host.cores"] = host.get("cores", 0)
    metrics["host.numa_nodes"] = host.get("numa_nodes", 0)
    metrics["host.kernel"] = host.get("kernel", 0)
    return metrics


def write_trace(workload, reps):
    """Chrome trace-event JSON of every traced repetition, one lane."""
    lane = list(WORKLOADS).index(workload) + 1
    events = [{"name": "thread_name", "ph": "M", "pid": 1, "tid": lane,
               "args": {"name": workload}}]
    starts = [s["start"] for r in reps for s in r["spans"]]
    t0 = min(starts) if starts else 0.0
    for rep_index, r in enumerate(reps):
        for i, s in enumerate(r["spans"]):
            events.append({
                "name": s["name"], "cat": s["layer"], "ph": "X", "pid": 1,
                "tid": lane, "ts": (s["start"] - t0) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"rep": rep_index, "id": i, "parent": s["parent"]}})
    path = os.path.join(OUT, "trace-%s.json" % workload)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
    return path


def measure(args):
    build()
    reps, bsp, reference = run_workload(args)
    attempts = reps + [r for r in (bsp, reference) if r]
    failed = [r for r in attempts if not r["ok"]]
    for r in failed:
        log("perfbench: failed attempt: " + "; ".join(r["errors"]))
    host = next((r["host"] for r in reps if r["host"]), {})
    print("# host cores=%s numa_nodes=%s kernel=%s; workload=%s seed=%d "
          "reps=%d" % (host.get("cores"), host.get("numa_nodes"),
                       host.get("kernel_name"), args.workload, args.seed,
                       len(reps)))
    if args.trace:
        values = per_layer(reps, bsp, reference)
        print("# trace: " + write_trace(
            args.workload, [r for r in reps + [bsp] if r and r["ok"]]))
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name]}
                   for name in PER_LAYER}
    else:
        values = end_to_end(reps, attempts)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failed, "attempted": len(attempts),
                      "failed": len(failed), "metrics": metrics}))


# ----------------------------------------------------------------- spread --

def spread(args):
    """Runs each workload once per seed and reports the spread per metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    summary = {}
    for workload in workloads:
        values = {name: [] for name in END_TO_END}
        for seed in range(args.seed, args.seed + args.spread):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0", "--scale",
                 repr(args.scale)], capture_output=True, text=True)
            if out.returncode != 0:
                log(out.stderr)
                sys.exit(1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                log("perfbench: %s seed %d failed a check" % (workload, seed))
            for name in END_TO_END:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds from %d, %ds each)" %
              (workload, args.spread, args.seed, args.seconds))
        print("  %-12s %14s %14s %14s %9s %7s" %
              ("metric", "median", "q1", "q3", "iqr/med", "bound"))
        summary[workload] = {}
        for name in END_TO_END:
            vals = values[name]
            q1, med, q3 = statistics.quantiles(vals, n=4) \
                if len(vals) > 1 else (vals[0],) * 3
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name, 0.0)
            print("  %-12s %14.6g %14.6g %14.6g %9.4f %7.3f%s" %
                  (name, med, q1, q3, rel, bound,
                   "" if rel < bound / 3 else "  > bound/3"))
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "iqr_over_median": rel,
                                       "values": vals}
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (tests use tiny scales)")
    parser.add_argument("--inject", default="none",
                        choices=("none", "unassigned", "readback",
                                 "divergent"),
                        help="test hook: break one attempt on purpose")
    parser.add_argument("--spread", type=int, default=0, metavar="N",
                        help="run each workload on N seeds, report spreads")
    args = parser.parse_args()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # Compilers and the driver keep their temporary files in the checkout.
    os.environ["TMPDIR"] = os.path.join(OUT, "tmp")
    if args.spread:
        spread(args)
        return
    if not args.workloads or len(args.workloads) != 1:
        parser.error("give exactly one --workload (or --spread N)")
    args.workload = args.workloads[0]
    measure(args)


if __name__ == "__main__":
    main()
