#!/usr/bin/env python3
"""qdephase benchmark: closed-loop workloads with checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload chi-banded --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client runs the workload's jobs one after another, in rounds of a fixed
job mix, for ``--seconds`` of timed job time to within half a round, so every
run measures whole mixes.  Each job's answer is checked after its round,
outside the timed region.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced, then as many rounds traced, and
reports per-layer metrics from the spans (see README.md).  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("chi-banded", "dense-modes-mc")
# one BLAS thread on one pinned CPU: on a shared 2-CPU host a threaded solve
# waits on a descheduled sibling (same-seed job times spread by up to 18 %),
# and the two CPUs ran the same loop 15-30 % apart, so a process the
# scheduler moved between them changed speed mid-run
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc serves every block from the heap and never trims it, so peak
# RSS is the heap's high-water mark.  Left to its size thresholds, peak RSS
# jumped 206 <-> 230 MiB between seeds whose arrays differ by under 1 %.
M_TRIM_THRESHOLD, M_MMAP_MAX = -1, -4
NEVER_TRIM_BYTES = 1 << 30
TAIL_PCT = 75.0  # fixed, so runs of different commits compare one percentile
SETUP_REPEATS = 3  # this process plus fresh interpreters; setup_s is their median
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, workload: str, *extra: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)


@dataclass
class Phase:
    """Outcome of running rounds of the job mix."""

    rounds: int = 0
    latencies: list = field(default_factory=list)
    passed: int = 0
    failures: list = field(default_factory=list)
    by_job: dict = field(default_factory=dict)  # job name -> its latency in each round

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_rounds(jobs, layers, phase: Phase, seconds=None, rounds=None, recorder=None) -> Phase:
    """Run whole rounds: ``rounds`` of them, or those that fit in ``seconds``.

    A round starts only if half the mean round so far fits in the time left,
    so a run ends within half a round of ``seconds``.
    """
    first_round, busy_before = phase.rounds, phase.busy_s

    def more() -> bool:
        done = phase.rounds - first_round
        if rounds is not None:
            return done < rounds
        spent = phase.busy_s - busy_before
        return done == 0 or spent + 0.5 * spent / done <= seconds

    while more():
        outputs, errors = {}, {}
        for job in jobs:
            span = recorder.span("bench", "job", job=f"r{phase.rounds}:{job.name}") if recorder else nullcontext()
            t = time.perf_counter()
            try:
                with span:
                    outputs[job.name] = job.run(layers)
            except Exception:  # a failing job is a measured outcome, not a crash
                errors[job.name] = traceback.format_exc(limit=3).strip().splitlines()[-1]
            phase.latencies.append(time.perf_counter() - t)
            phase.by_job.setdefault(job.name, []).append(phase.latencies[-1])
        for job in jobs:
            msg = errors.get(job.name)
            if msg is None:
                try:
                    msg = job.check(outputs[job.name], outputs)
                except Exception as exc:
                    msg = f"check raised {exc!r}"
            if msg is None:
                phase.passed += 1
            else:
                phase.failures.append(f"{job.name}: {msg}")
        phase.rounds += 1
    return phase


def quantile_hd(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean of the order statistics.

    With 13 to 16 jobs in a mix, the plain median is one job's time and
    flips between the few jobs near the middle from run to run; the
    Harrell-Davis weights move smoothly across them.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.diff(edges) @ ordered)


def run_context(np, scipy) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    task_dir = Path("/proc/self/task")
    return {
        "cores": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_thread_cap": BLAS_THREADS,
        "blas_cap_via": ",".join(BLAS_VARS),
        "process_threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "src_lines": sum(len(p.read_text().splitlines()) for p in (SRC / "qdephase").glob("*.py")),
    }


def end_to_end(phase: Phase, setups: list) -> tuple[dict, dict]:
    lat = phase.latencies
    beyond = len(lat) * (1.0 - TAIL_PCT / 100.0)
    # each job's latency is its mean over the rounds: the host's speed drifts
    # by tens of percent over tens of seconds, and over both workloads the
    # mean spread least from run to run (see README.md, Steadiness)
    typical = [statistics.fmean(v) for v in phase.by_job.values()]
    metrics = {
        "jobs_per_s": (phase.passed / phase.busy_s, "1/s"),
        "job_p50_s": (quantile_hd(typical, 0.5), "s"),
        "job_tail_s": (quantile_hd(typical, TAIL_PCT / 100.0), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    detail = {
        "job_tail_pct": TAIL_PCT,
        "jobs": len(lat),
        "jobs_beyond_tail": beyond,
        "rounds": phase.rounds,
        "job_means_s": {name: round(statistics.fmean(v), 4) for name, v in phase.by_job.items()},
        "setup_samples_s": setups,
    }
    return metrics, detail


def pin_malloc_policy() -> bool:
    """Heap-only, never-trimmed malloc; False where mallopt is not available."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_MAX, 0) == 1 and mallopt(M_TRIM_THRESHOLD, NEVER_TRIM_BYTES) == 1


def pin_cpu() -> tuple[int | None, int | None]:
    """Run on the lowest allowed CPU; returns it and how many were allowed."""
    if not hasattr(os, "sched_setaffinity"):
        return None, None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return min(allowed), len(allowed)


def run_workload(args) -> int:
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    pinned = pin_malloc_policy()
    cpu, nproc = pin_cpu()
    if not (SRC / "qdephase" / "__init__.py").is_file():
        print(f"error: qdephase sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import numpy as np
    import scipy
    import qdephase
    from layers import Layers
    from workloads import WORKLOADS, warm_up

    if Path(qdephase.__file__).resolve().parent != (SRC / "qdephase").resolve():
        print(f"error: imported qdephase from {qdephase.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        rng = np.random.default_rng([args.seed % 2**63, WORKLOAD_NAMES.index(args.workload)])
        jobs = workload.build(rng, out_dir)
        warm_up(Layers(), out_dir)
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print(repr(setup_s))
            return 0
        context = {**run_context(np, scipy), "nproc": nproc, "pinned_cpu": cpu,
                   "malloc_heap_only": pinned}
        if args.trace:
            return traced_run(args, workload, jobs, context)
        setups = [setup_s]
        for _ in range(SETUP_REPEATS - 1):
            child = _child(args, args.workload, "--setup-only")
            if child.returncode != 0:
                print(child.stderr, file=sys.stderr)
                return 3
            setups.append(float(child.stdout.strip().splitlines()[-1]))
        phase = run_rounds(jobs, Layers(), Phase(), seconds=args.seconds)
        metrics, detail = end_to_end(phase, setups)
        report(args, phase, metrics, {**detail, "context": context})
        return 0
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def traced_run(args, workload, jobs, context) -> int:
    from layers import Layers
    from spans import Recorder
    from tracemetrics import baseline_table, layer_metrics

    phase = run_rounds(jobs, Layers(), Phase(), seconds=args.seconds / 2.0)
    untraced_s, rounds = phase.busy_s, phase.rounds
    recorder = Recorder()
    traced = Layers(recorder)
    run_rounds(jobs, traced, phase, rounds=rounds, recorder=recorder)
    traced_s = phase.busy_s - untraced_s
    workload.probes(traced)
    metrics = layer_metrics(recorder, traced_s / untraced_s - 1.0)
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    recorder.dump(trace_file)
    detail = {"rounds_each": rounds, "baseline_s": baseline_table(recorder),
              "trace_file": str(trace_file.relative_to(ROOT)), "context": context}
    report(args, phase, metrics, detail)
    return 0


def report(args, phase: Phase, metrics: dict, detail: dict) -> None:
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {phase.rounds} rounds, "
          f"{phase.attempted} jobs, {phase.attempted - phase.passed} failed")
    for failure in phase.failures[:20]:
        print(f"# FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    # never 0 is the rule for compared metrics, so the error rate stays text only
    print(f"error_rate {(phase.attempted - phase.passed) / phase.attempted:.6g} fraction")
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not phase.failures,
        "attempted": phase.attempted,
        "failed": phase.attempted - phase.passed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_all(args) -> int:
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        child = _child(args, name)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            return child.returncode
        result = json.loads(child.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
