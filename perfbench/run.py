"""Benchmark of prodcsp's command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every end-to-end metric, by name and with its unit, for every workload:

    for w in classify-mix solve-exhaustive solve-parity-large; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

Run from the root of a source checkout; it imports `prodcsp` from `src/`.
One process, one client, closed loop: `prodcsp.cli.main(argv)` is called
in-process on files generated from the seed before any timing starts, its
stdout is captured, and every output is checked after the call returns.

--trace 0 calls until the calls' own time adds up to S seconds and reports
the end-to-end metrics. --trace 1 replays a fixed number of cycles of the
workload's calls without and then with spans at the module boundaries, and
reports the per-layer metrics (see spans.py). The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_STARTS = 9  # at least; one more per cycle beyond that
POOL_REPEATS = 2
ROUTES = ("brute_force", "parity_components")  # solve routes named in the per-layer metrics

# A fresh interpreter: import the CLI, then make the workload's warm-up calls.
SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import prodcsp.cli
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        if prodcsp.cli.main(argv) != 0:
            sys.exit(1)
"""


class Runner:
    """Calls the CLI, times each call, and checks its output untimed."""

    def __init__(self, cli):
        from workloads import TieBreak

        self.cli = cli  # looked up on every call, so that spans see cli.main
        self.tie_break_type = TieBreak
        self.attempted = 0
        self.failed = 0
        self.checked: dict[tuple[str, str], str | None] = {}
        self.routes: dict[str, int] = {}  # solve calls per `method:` line
        self.tie_breaks = 0  # correct outputs off the package's argmax tie-break

    def call(self, item) -> float:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(item.argv)
            except (Exception, SystemExit) as exc:
                rc = repr(exc)
            elapsed = time.perf_counter() - start
        text = out.getvalue()
        for line in text.splitlines():
            if line.startswith("method: "):
                route = line[len("method: "):]
                self.routes[route] = self.routes.get(route, 0) + 1
        if rc != 0:
            problem = f"exit {rc}: {err.getvalue().strip()[:200]}"
        else:
            key = (item.key, text)
            if key not in self.checked:
                self.checked[key] = item.check(text)
            problem = self.checked[key]
        self.attempted += 1
        if isinstance(problem, self.tie_break_type):
            self.tie_breaks += 1
            if self.tie_breaks <= 5:
                print(f"TIE-BREAK {' '.join(item.argv)}: {problem}", file=sys.stderr)
        elif problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {' '.join(item.argv)}: {problem}", file=sys.stderr)
        return elapsed

    def setup_start(self, warmup: list[list[str]]) -> float:
        """Wall time of one fresh interpreter doing the warm-up calls."""
        cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(warmup)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            print(f"FAILED setup start: {proc.stderr.decode()[-300:]}", file=sys.stderr)
        return elapsed

    def run_list(self, calls) -> float:
        return sum(self.call(item) for item in calls)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile q (0-100) of the values."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(wl, runner: Runner, seconds: float) -> dict:
    """On a shared host the CPU's speed drifts by about 10% over seconds to
    minutes, in one process and with the same inputs. So each call's
    latency is taken as the best of its repeats in the run (every call of
    the cycle runs once per cycle), and calls_per_s, work_per_s and the
    latency percentiles are computed from those."""
    runner.setup_start(wl.warmup)  # unmeasured: fills the bytecode cache
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in wl.warmup:
            runner.cli.main(argv)
    # Whole cycles until the calls' time adds up to `seconds`, with one set-up
    # start after each cycle, so that set-up is sampled across the run.
    cycles, setups = [], []
    while sum(map(sum, cycles)) < seconds:
        cycles.append([runner.call(item) for item in wl.calls])
        setups.append(runner.setup_start(wl.warmup))
    while len(setups) < SETUP_STARTS:
        setups.append(runner.setup_start(wl.warmup))
    best = [min(times) for times in zip(*cycles)] * len(cycles)
    n = len(best)
    busy = sum(best)
    work = sum(item.work for item in wl.calls) * len(cycles)
    tail = percentile(best, wl.tail_q)
    beyond = sum(1 for x in best if x > tail)
    raw = [x for cycle in cycles for x in cycle]
    thirds = [raw[i * n // 3:(i + 1) * n // 3] for i in range(3)]
    print(f"{wl.name}: {len(wl.calls)} calls per cycle, {len(cycles)} cycles, "
          f"{sum(raw):.3f} busy s; setup_s is the median of {len(setups)} starts; "
          f"{wl.work_name} is work_per_s; latency_tail_ms is "
          f"p{wl.tail_q:g} of {n} samples, {beyond} beyond it; raw throughput "
          f"{n / sum(raw):.6g} calls/s, first third {len(thirds[0]) / sum(thirds[0]):.6g}, "
          f"last third {len(thirds[2]) / sum(thirds[2]):.6g}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "calls_per_s": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(best) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "work_per_s": (work / busy, "1/s"),
    }


def pool_speedup(runner: Runner, instances) -> float:
    """brute_force time with one worker over time with one worker per CPU;
    both must return the same optimum and argmax."""
    from prodcsp.instances import brute_force

    workers = len(os.sched_getaffinity(0))
    timing: dict[int, list[float]] = {1: [], workers: []}
    results: dict[int, list] = {}
    for _ in range(POOL_REPEATS):
        for w in timing:
            start = time.perf_counter()
            results[w] = [brute_force(inst, workers=w) for inst in instances]
            timing[w].append(time.perf_counter() - start)
            runner.attempted += len(instances)
    mismatches = sum(a != b for a, b in zip(results[1], results[workers]))
    if mismatches:
        runner.failed += mismatches
        print(f"FAILED brute_force with {workers} workers differs from 1 worker",
              file=sys.stderr)
    return statistics.median(timing[1]) / statistics.median(timing[workers])


def traced(wl, runner: Runner, seed: int) -> dict:
    """A warm pass over one cycle, then a fixed number of cycles without and
    then with spans, so that per-layer totals compare across commits. The
    support-cache hit share covers all three passes; it is null when the
    `(arity, mask)` caches are gone."""
    import spans
    from workloads import pool_instances

    with contextlib.redirect_stdout(io.StringIO()):
        for argv in wl.warmup:
            runner.cli.main(argv)
    calls = wl.calls * wl.trace_cycles
    caches = [fn for fn in vars(sys.modules["prodcsp.membership"]).values()
              if callable(getattr(fn, "cache_info", None))]
    before = [fn.cache_info() for fn in caches]
    runner.run_list(wl.calls)
    untraced_s = runner.run_list(calls)
    runner.routes.clear()
    tracer = spans.Tracer()
    absent = tracer.install()
    try:
        traced_s = runner.run_list(calls)
    finally:
        tracer.uninstall()
    after = [fn.cache_info() for fn in caches]
    hits = sum(a.hits - b.hits for a, b in zip(after, before))
    misses = sum(a.misses - b.misses for a, b in zip(after, before))
    solves = sum(1 for item in calls if "solve" in item.argv)
    metrics, layer_self = tracer.metrics(solves)
    traced_self = sum(layer_self.values())
    print("self time by layer: " + ", ".join(
        f"{layer} {t:.4g} s ({t / traced_self:.1%})" for layer, t in layer_self.items()))
    metrics["membership.support_cache.hit_frac"] = (
        hits / (hits + misses) if caches and hits + misses else None, "frac")
    for route in ROUTES:
        metrics[f"route.{route}.calls"] = (runner.routes.pop(route, 0), "count")
    metrics["route.other.calls"] = (sum(runner.routes.values()), "count")
    metrics["instances.brute_force.pool_speedup"] = (
        pool_speedup(runner, pool_instances(seed)), "x")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1, "frac")
    if absent:
        print(f"boundaries not found: {', '.join(absent)}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "prodcsp" / "cli.py").is_file():
        print(f"error: no prodcsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import prodcsp.cli
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        wl = WORKLOADS[args.workload](rng, workdir)
        runner = Runner(prodcsp.cli)
        if args.trace:
            metrics = traced(wl, runner, args.seed)
        else:
            metrics = end_to_end(wl, runner, args.seconds)
        for item in wl.siblings:
            runner.call(item)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        metrics["tractable.argmax_tie_break.misses"] = (runner.tie_breaks, "count")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"fail_frac {runner.failed / runner.attempted} ({runner.failed} of {runner.attempted})")
    print(f"argmax tie-break misses {runner.tie_breaks}: correct maximizers that are not "
          "the lexicographically smallest, on a route that documents its own tie-break")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
