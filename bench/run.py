#!/usr/bin/env python3
"""qworlds benchmark: seeded closed-loop workloads with end-to-end and per-layer metrics.

Run from the repository root; qworlds is imported from `src/` of the same
checkout, so nothing needs installing:

    python3 bench/run.py --workload scenario-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client calls the public API in a closed loop with no think time. Every
operation's output is checked against the verdict table in workloads.py.

--trace 0 reports the end-to-end metrics: set-up time (median of ROUNDS
fresh processes that import qworlds and build the inputs), operations per
second, p50 and p90 latency and CPU time per operation (each from the best of
ROUNDS timed rounds), and peak RSS. The share of failed operations is printed
beside them and is the `failed` / `attempted` pair of the result.

--trace 1 runs TRACE_ROUNDS pairs of passes over the same operations in one
process, one untraced and one with the tracer of tracer.py installed, and
reports per-operation self time and calls of every layer, the named span
groups, and the tracing overhead. Each pair must produce identical report
digests, and the layers' self times must account for the traced time.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. `--workload all` runs
each workload in its own process and combines their results.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy loads: the default of one thread
    # per core made the d = 8 cells slower and produced outliers
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import qworlds
except ImportError as exc:
    sys.exit(f"bench: cannot import qworlds from {SRC}: {exc}")
if Path(qworlds.__file__).resolve().parent != SRC / "qworlds":
    sys.exit(f"bench: qworlds was imported from {qworlds.__file__}, not from {SRC}")

import numpy as np  # noqa: E402

import tracer as qtracer  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 10  # timed rounds per untraced run, each after one timed set-up
TRACE_ROUNDS = 3  # untraced/traced pass pairs per traced run
MIN_SAMPLES = 100  # at least 10 samples beyond p90
DIGEST_CYCLES = 4  # the reported digest covers this many schedule cycles
HARD_CAP_S = 120.0  # no run's timed loops take longer together, whatever --seconds says
MAX_UNACCOUNTED = 0.1

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in (*qtracer.LAYERS, *qtracer.GROUPS):
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["qmat.require_density.repeat_frac"] = "1"
    units["numpy.kron.bytes_out"] = "B"
    units["numpy.eig.n3"] = "count"
    units["trace.overhead_frac"] = "1"
    units["trace.unaccounted_frac"] = "1"
    return units


@dataclass
class Pass:
    """One timed closed-loop pass over a prefix of the schedule."""

    latencies: list[float]
    wall_s: float
    cpu_s: float
    failures: Counter
    problems: dict[str, str]  # first problem seen in each failing cell
    digest: str  # sha256 over every output of the pass
    prefix_digest: str  # sha256 over the first `prefix` outputs
    prefix: int

    @property
    def n(self) -> int:
        return len(self.latencies)


def run_pass(ops, *, seconds: float = 0.0, min_ops: int = 0, count: int | None = None,
             prefix: int = 0, tracer: qtracer.Tracer | None = None,
             cap_s: float = HARD_CAP_S) -> Pass:
    """Run ops round-robin: exactly `count` of them, or for `seconds` and at least `min_ops`."""
    latencies: list[float] = []
    failures: Counter = Counter()
    problems: dict[str, str] = {}
    digest = hashlib.sha256()
    prefix_digest = digest.hexdigest()
    clock = time.perf_counter
    wall0, cpu0 = clock(), time.process_time()
    i = 0
    while True:
        elapsed = clock() - wall0
        if count is not None:
            if i >= count:
                break
        elif (i >= min_ops and elapsed >= seconds) or elapsed >= cap_s:
            break
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.begin_op()
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed one; keep measuring
            latencies.append(clock() - t0)
            found, material = [f"raised {type(exc).__name__}: {exc}"], b"raised\n"
        else:
            latencies.append(clock() - t0)
            found, material = op.verdict(out)
        digest.update(material)
        if found:
            failures[op.cell] += 1
            problems.setdefault(op.cell, found[0])
        i += 1
        if i == prefix:
            prefix_digest = digest.hexdigest()
    if i < prefix:
        prefix_digest = digest.hexdigest()
    return Pass(latencies, clock() - wall0, time.process_time() - cpu0, failures, problems,
                digest.hexdigest(), prefix_digest, min(prefix, i))


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports qworlds and builds the inputs, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    return elapsed


def git_sha(root: Path = ROOT) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_sha": git_sha(),
    }


def warm_up(ops) -> None:
    run_pass(ops, count=workloads.cell_count(ops))


def round_metrics(p: Pass) -> dict:
    lat_ms = [x * 1e3 for x in p.latencies]
    return {
        "ops_per_s": p.n / p.wall_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "cpu_ms_per_op": p.cpu_s * 1e3 / p.n,
    }


def measure(workload: str, seed: int, seconds: float, min_ops: int = MIN_SAMPLES,
            rounds: int = ROUNDS) -> tuple[list[Pass], list[dict], list[float], dict]:
    """Untraced rounds over the same operations, each after one timed set-up.

    Each round replays the schedule from its start for `seconds / rounds`.
    Load from other tenants of the machine only ever slows a round down (on
    a shared 2-vCPU VM, by up to 60% for seconds to minutes at a time), so each
    timing metric reports its best round; a slower program is slower in
    every round. Set-up time is the median of the set-ups, which are spread
    over the run so that they sample the same load as the rounds.
    """
    ops = workloads.BUILDERS[workload](seed)
    warm_up(ops)
    prefix = DIGEST_CYCLES * workloads.cell_count(ops)
    passes, setups = [], []
    for _ in range(rounds):
        setups.append(time_setup(workload, seed))
        passes.append(run_pass(ops, seconds=seconds / rounds, min_ops=min_ops, prefix=prefix,
                               cap_s=HARD_CAP_S / rounds))
    per_round = [round_metrics(p) for p in passes]
    metrics = {name: (max if name == "ops_per_s" else min)(m[name] for m in per_round)
               for name in per_round[0]}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, per_round, setups, metrics


def measure_traced(workload: str, seed: int, seconds: float,
                   rounds: int = TRACE_ROUNDS) -> tuple[list[Pass], list[Pass], qtracer.Tracer, dict]:
    """Pairs of untraced and traced passes over the same operations.

    Per-layer metrics are per traced operation; the overhead is the median
    over the pairs of traced wall time over untraced wall time, minus one.
    """
    ops = workloads.BUILDERS[workload](seed)
    cells = workloads.cell_count(ops)
    warm_up(ops)
    tr = qtracer.Tracer()
    plains, traceds = [], []
    for _ in range(rounds):
        plains.append(run_pass(ops, seconds=seconds / (2 * rounds), min_ops=cells))
        with tr:
            traceds.append(run_pass(ops, count=plains[-1].n, tracer=tr))
    n = sum(p.n for p in traceds)
    metrics = {}
    for layer in qtracer.LAYERS:
        calls, self_s = tr.layer_total(layer)
        metrics[f"{layer}.self_s"], metrics[f"{layer}.calls"] = self_s / n, calls / n
    for group, names in qtracer.GROUPS.items():
        calls, self_s = tr.total(names)
        metrics[f"{group}.self_s"], metrics[f"{group}.calls"] = self_s / n, calls / n
    metrics["qmat.require_density.repeat_frac"] = tr.density_repeats / max(tr.density_calls, 1)
    metrics["numpy.kron.bytes_out"] = tr.kron_bytes_out / n
    metrics["numpy.eig.n3"] = tr.eig_n3 / n
    metrics["trace.overhead_frac"] = statistics.median(
        t.wall_s / p.wall_s - 1.0 for p, t in zip(plains, traceds))
    # the layers' self times should cover the traced operations, which are the
    # traced wall time minus the benchmark's own loop and the tracer's bookkeeping
    inside_ops = sum(sum(t.latencies) for t in traceds) - tr.bookkeeping_s
    accounted = sum(tr.layer_total(layer)[1] for layer in qtracer.LAYERS)
    metrics["trace.unaccounted_frac"] = abs(inside_ops - accounted) / inside_ops
    return plains, traceds, tr, metrics


# -- output ----------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def report_failures(passes: list[Pass]) -> int:
    """Print each failing cell once; return the number of failed operations."""
    failures: Counter = Counter()
    problems: dict[str, str] = {}
    for p in passes:
        failures.update(p.failures)
        for cell, problem in p.problems.items():
            problems.setdefault(cell, problem)
    for cell, count in sorted(failures.items()):
        print(f"FAILED {cell}: {count} ops; first: {problems[cell]}")
    return sum(failures.values())


def main_untraced(workload: str, seed: int, seconds: float,
                  min_ops: int = MIN_SAMPLES, rounds: int = ROUNDS) -> str:
    passes, per_round, setups, metrics = measure(workload, seed, seconds, min_ops, rounds)
    print(f"{'setup_s':<16} {metrics['setup_s']:>12.4f} {'s':<6} "
          f"(median of {len(setups)} fresh processes; range {min(setups):.4f}-{max(setups):.4f})")
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        best = values.index(metrics[name])
        p = passes[best]
        beyond = ""
        if name == "latency_p90_ms":
            beyond = f", {sum(x * 1e3 > metrics[name] for x in p.latencies)} beyond p90"
        print(f"{name:<16} {metrics[name]:>12.4f} {END_TO_END[name]:<6} (best of {len(values)} "
              f"rounds: round {best + 1}, {p.n} ops in {p.wall_s:.2f} s{beyond}; "
              f"range {min(values):.4f}-{max(values):.4f})")
    print(f"{'peak_rss_mb':<16} {metrics['peak_rss_mb']:>12.4f} {'MB':<6} (ru_maxrss of this process)")
    attempted = sum(p.n for p in passes)
    failed = report_failures(passes)
    print(f"{'failed_frac':<16} {failed / attempted:>12.4f} {'1':<6} ({failed} of {attempted} ops)")
    digests = {p.prefix_digest for p in passes}
    print(f"report sha256 over the first {passes[0].prefix} ops: {passes[0].prefix_digest}")
    if len(digests) != 1:
        print("the rounds disagree on the report digest: the outputs are not deterministic")
    return result_line(failed == 0 and len(digests) == 1, attempted, failed, metrics, END_TO_END)


def main_traced(workload: str, seed: int, seconds: float) -> str:
    plains, traceds, tr, metrics = measure_traced(workload, seed, seconds)
    units = per_layer_units()
    for name, unit in units.items():
        print(f"{name:<36} {metrics[name]:>14.6g} {unit}")
    n = sum(t.n for t in traceds)
    print(f"spans by self time over {n} traced ops (calls, self s):")
    for name, (calls, self_s) in sorted(tr.stats.items(), key=lambda kv: -kv[1][1])[:30]:
        if calls:
            print(f"  {name:<56} {calls:>9} {self_s:>10.4f}")
    same = all(p.digest == t.digest for p, t in zip(plains, traceds))
    print(f"report sha256 of the traced passes {'equals' if same else 'DIFFERS FROM'} the untraced ones")
    covered = metrics["trace.unaccounted_frac"] <= MAX_UNACCOUNTED
    if not covered:
        print(f"layer self times miss {metrics['trace.unaccounted_frac']:.3f} of the traced time")
    failed = report_failures(plains + traceds)
    attempted = n + sum(p.n for p in plains)
    return result_line(failed == 0 and same and covered, attempted, failed, metrics, units)


def main_all(args) -> str:
    """Each workload in its own process, so set-up time and peak RSS stay its own."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {workload} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for name, m in res["metrics"].items():
            metrics[f"{workload}.{name}"], units[f"{workload}.{name}"] = m["value"], m["unit"]
    return result_line(correct, attempted, failed, metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import qworlds and build the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)
    if args.setup_only:
        workloads.BUILDERS[args.workload](args.seed)
        return 0
    if args.workload == "all":
        print(main_all(args))
        return 0
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{workloads.WORKLOADS[args.workload]}")
    print(f"# env {json.dumps(environment(args.workload, args.seed), sort_keys=True)}", flush=True)
    if args.trace:
        print(main_traced(args.workload, args.seed, args.seconds))
    else:
        print(main_untraced(args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
