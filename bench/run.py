"""taquin benchmark: closed-loop workloads through the CLI entry, with a
separate traced run for per-layer metrics.

    python3 bench/run.py --workload {verify,pipe} --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports the package from `src/`.  One
process, one client, no threads: each operation starts only after the
previous one returns.

--trace 0 sets up the workload several times (import plus input
generation), runs one warm-up operation, then runs operations for S
seconds in rounds of at least ROUND_S seconds.  The shared host's speed
drifts by tens of percent within minutes, so the gated timings are taken
relative to a fixed reference kernel (reference.py), timed before the
first set-up or round and after each one, and divided out as the mean of
the two kernel times around it:
  setup_s      median set-up time relative to the kernel, times
               reference.NOMINAL_S: seconds on a host where the kernel
               takes NOMINAL_S;
  op_p50_ref   median over rounds of the round's median operation time,
               in kernel times;
  ops_per_ref  median over rounds of operations completed per kernel time.
Wall-clock set-up time, throughput and latency are printed and recorded
beside them, with the process's peak RSS, but not gated.

--trace 1 gives the per-layer table.  Each per-layer metric belongs to the
workload that exercises its layer, so the traced run covers every workload
whatever --workload names: for each, one warm-up operation, then each of
the same fixed, seeded operations (so counters repeat exactly and S is not
used) untraced and traced back to back, and the tracing overhead as the
median traced over untraced time, less one.  End-to-end numbers never come
from traced runs.

Every operation's output is checked; a failed check counts in `failed` and
the run goes on.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A run record (git sha, dirty
flag, Python, nproc, seed, sizes, sample counts, metrics, raw latencies)
and, for traced runs, the spans and the per-layer table go to
bench/results/.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import reference
import spans
from workloads import WORKLOADS, invoke

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 15
ROUND_S = 0.5


def load_cli():
    """Import taquin.cli afresh from src/, dropping any earlier import."""
    for key in [k for k in sys.modules if k == "taquin" or k.startswith("taquin.")]:
        del sys.modules[key]
    cli = importlib.import_module("taquin.cli")
    if Path(cli.__file__).resolve().parent != SRC / "taquin":
        raise ImportError(f"imported taquin from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload, seed: int):
    start = time.perf_counter()
    cli = load_cli()
    ops = workload.make_ops(seed)
    return cli, ops, time.perf_counter() - start


class Tally:
    """Attempted and failed operations, with the first failure kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure = None

    def run(self, workload, call, op) -> float:
        """Run and check one operation; return its wall time in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            problem = workload.run_op(call, op)
        except Exception:
            problem = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if problem is not None:
            self.failed += 1
            self.first_failure = self.first_failure or f"{workload.name}: {problem}"
        return elapsed


def closed_loop(workload, call, ops, seconds: float, tally: Tally):
    """Run operations back to back, cycling through `ops`, in rounds of at
    least ROUND_S seconds until `seconds` have passed (at least one round),
    timing the reference kernel before the first round and after each one.
    Return the latencies and, per round, its latencies and the mean kernel
    time on either side of it."""
    latencies, rounds = [], []
    ref_before = reference.timed()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        round_start = time.perf_counter()
        lat = []
        while not lat or time.perf_counter() - round_start < ROUND_S:
            lat.append(tally.run(workload, call, ops[(len(latencies) + len(lat)) % len(ops)]))
        ref_after = reference.timed()
        rounds.append((lat, (ref_before + ref_after) / 2))
        latencies += lat
        ref_before = ref_after
    return latencies, rounds


def end_to_end(workload, seed: int, seconds: float, tally: Tally):
    reference.timed()  # the kernel's first run in a process is not timed
    setups, setups_rel = [], []
    ref_before = reference.timed()
    for _ in range(SETUP_REPEATS):
        cli, ops, elapsed = setup(workload, seed)
        ref_after = reference.timed()
        setups.append(elapsed)
        setups_rel.append(elapsed / ((ref_before + ref_after) / 2))
        ref_before = ref_after
    call = functools.partial(invoke, cli.main)
    # The first operation in a process runs cold (the first verify run takes
    # about 2.1 s against 1.5 s after it), so it is checked but not timed.
    tally.run(workload, call, ops[0])
    latencies, rounds = closed_loop(workload, call, ops, seconds, tally)
    ms = [x * 1e3 for x in latencies]
    metrics = {
        "setup_s": (statistics.median(setups_rel) * reference.NOMINAL_S, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "op_p50_ref": (statistics.median(statistics.median(lat) / ref for lat, ref in rounds), "ref"),
        "ops_per_ref": (statistics.median(len(lat) * ref / sum(lat) for lat, ref in rounds), "1/ref"),
    }
    # Printed and recorded, not gated: wall-clock figures, which move with
    # the host's speed; a tail percentile only once ten samples lie beyond it.
    extra = {
        "setup_wall_s": (statistics.median(setups), "s"),
        "samples": (len(latencies), "count"),
        "rounds": (len(rounds), "count"),
        "reference_ms": (statistics.median(ref for _, ref in rounds) * 1e3, "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
    }
    if len(ms) >= 1000:
        extra["op_p99_ms"] = (statistics.quantiles(ms, n=100, method="inclusive")[98], "ms")
    if workload.name == "verify":
        extra["verify_s"] = (statistics.median(latencies), "s")
    return metrics, extra, ms


def traced(seed: int, tally: Tally):
    """Per-layer metrics of every workload, each labelled with its workload."""
    metrics, table, records = {}, {}, []
    cli = load_cli()
    for workload in WORKLOADS.values():
        attempted, failed = tally.attempted, tally.failed
        ops = workload.make_ops(seed)[: workload.trace_ops]
        tally.run(workload, functools.partial(invoke, cli.main), ops[0])  # warm-up, so no pass starts cold
        tracer, overhead_pct = traced_pass(cli, workload, ops, tally)
        layers = spans.layer_table(tracer, len(ops), workload.layer_metrics)
        layers["trace.overhead_pct"] = {"value": overhead_pct, "unit": "%"}
        table[workload.name] = {
            "ops": len(ops),
            "attempted": tally.attempted - attempted,
            "failed": tally.failed - failed,
            "spans": len(tracer.spans),
            "metrics": layers,
        }
        for name, entry in layers.items():
            metrics[f"{workload.name}.{name}"] = (entry["value"], entry["unit"])
        records.append((workload.name, tracer))
    return metrics, table, records


def traced_pass(cli, workload, ops, tally: Tally):
    """Run each of `ops` untraced and then again with every layer wrapped;
    return the tracer and the tracing overhead in percent, from the median
    over operations of traced over untraced time.  Each pair runs back to
    back, so the host's drifting speed stays out of the overhead."""
    tracer = spans.Tracer()

    def traced_call(argv, stdin=""):
        return tracer.call(f"cli.{argv[0]}", invoke, cli.main, argv, stdin)

    untraced_call = functools.partial(invoke, cli.main)
    ratios = []
    for i, op in enumerate(ops):
        untraced = tally.run(workload, untraced_call, op)
        tracer.op = i
        undo = spans.install(tracer)
        try:
            ratios.append(tally.run(workload, traced_call, op) / untraced)
        finally:
            spans.uninstall(undo)
    return tracer, 100 * (statistics.median(ratios) - 1)


def git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_record(args, tally: Tally, metrics: dict, extra: dict, latencies_ms: list) -> dict:
    # a checkout that is not a repository of its own has no sha, even when
    # a directory above it is a repository
    in_repo = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain") if in_repo else None
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": {w.name: w.size for w in WORKLOADS.values()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "first_failure": tally.first_failure,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "latencies_ms": latencies_ms,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "taquin" / "cli.py").is_file():
        print(f"error: no taquin package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        metrics, table, records = traced(args.seed, tally)
        extra, latencies_ms = {}, []
        with open(RESULTS / f"spans-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
            for name, tracer in records:
                for record in spans.span_records(tracer, name):
                    fh.write(json.dumps(record) + "\n")
        with open(RESULTS / f"layers-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1)
    else:
        metrics, extra, latencies_ms = end_to_end(WORKLOADS[args.workload], args.seed, args.seconds, tally)
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(run_record(args, tally, metrics, extra, latencies_ms), fh, indent=1)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed/attempted {tally.failed}/{tally.attempted}")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
