"""dclwe benchmark: end-to-end solve cost, and a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload controlled-q401 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one solve at a time (a closed loop with a single client),
BLAS/OpenMP threads pinned to 1. The package is imported from `src/`
next to this directory, never from an installed copy.

--trace 0 times the untraced solve loop for --seconds and prints the
end-to-end metrics. --trace 1 runs the counted tasks untraced, then the
same tasks again with every layer boundary wrapped (see layers.py), and
prints the per-layer metrics. Either way the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it
carries the provenance and the figures behind the metrics. Metric names
and units come from BENCHMARK.json at the repository root.

Every solve is checked against the ground truth (workloads.check_outcome);
a mismatch or an exception counts as a failed operation. Counts are taken
over a prefix of tasks fixed by the seed and the run length, so they repeat
exactly; timings use every solve of the run and are reported in units of a
fixed reference computation timed alongside (see reference.py).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# numpy is imported before any set-up timing starts: its import is the same
# for every version of dclwe and, on a shared machine, the noisiest part.
import numpy  # noqa: E402

from layers import Tracer, ratio  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import (  # noqa: E402
    STREAM_TASKS,
    STREAM_WARMUP,
    WORKLOADS,
    Runner,
    Tally,
    check_outcome,
    check_rates,
    prefix_size,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
SETUP_SAMPLES = 7  # set-ups per run: this process plus fresh child processes
CHILD_TIMEOUT_S = 60
REFERENCE_EVERY_S = 0.1


def load_dclwe():
    """Import dclwe from this checkout's src/, or exit non-zero without a result."""
    src = ROOT / "src"
    if not (src / "dclwe" / "__init__.py").is_file():
        sys.exit(f"bench: no dclwe package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dclwe

    if Path(dclwe.__file__).resolve().parent != (src / "dclwe").resolve():
        sys.exit(f"bench: imported dclwe from {dclwe.__file__}, not from {src}")
    return dclwe


def set_up(workload, seed: int):
    """Import, derive parameters, warm up; returns (dclwe, runner, seconds)."""
    t0 = time.perf_counter()
    dclwe = load_dclwe()
    runner = Runner(workload, dclwe, seed)
    for i in range(workload.warmup):
        runner.run(STREAM_WARMUP, i)
    return dclwe, runner, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Loop:
    """Solves tasks in order, checks each one and tallies the counted prefix.

    The reference computation is timed at the start, at the end and about
    every REFERENCE_EVERY_S in between; each solve is normalised by the
    reference timings around it.
    """

    def __init__(self, runner, counted: int):
        self.runner = runner
        self.counted = counted
        self.reference = Reference(numpy, runner.w.q)
        self.tally = Tally()
        self.solve_s = array("d")  # seconds inside each solve call
        self.task_s = array("d")  # seconds for each task: RNG, make_instance and solve
        self.position = array("l")  # reference timings taken before each task
        self.attempted = 0
        self.errors = []

    def step(self, i: int) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            instance, out, solve_s = self.runner.run(STREAM_TASKS, i)
        except Exception:  # a solve that raises is a failed operation
            self.errors.append(f"task {i}: {traceback.format_exc(limit=3)}")
            return
        self.task_s.append(time.perf_counter() - t0)
        self.solve_s.append(solve_s)
        self.position.append(len(self.reference.times))
        problem = check_outcome(self.runner, instance, out)
        if problem is not None:
            self.errors.append(f"task {i}: {problem}")
        elif i < self.counted:
            self.tally.add(self.runner, instance, out)

    def run(self, tasks: int, seconds: float = 0.0) -> None:
        """Run at least `tasks` tasks and for at least `seconds`."""
        gc.collect()
        start = last = time.perf_counter()
        self.reference.time()
        i = 0
        while i < tasks or time.perf_counter() - start < seconds:
            self.step(i)
            i += 1
            if time.perf_counter() - last >= REFERENCE_EVERY_S:
                self.reference.time()
                last = time.perf_counter()
        self.reference.time()
        local = array("d", (self.reference.around(k) for k in self.position))
        self.solve_ref = array("d", (t / r for t, r in zip(self.solve_s, local)))
        self.task_ref_total = sum(t / r for t, r in zip(self.task_s, local))
        self.reference_s = statistics.median(self.reference.times)


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def solver_counts(tally: Tally) -> dict[str, float]:
    return {
        "solver.success_frac": tally.frac("success"),
        "solver.failure_frac": tally.frac("failure"),
        "solver.wrong_accept_frac": tally.frac("wrong_accept"),
        "solver.quantum_samples_per_solve": ratio(tally.quantum, tally.solves),
        "solver.shots_per_coordinate": ratio(tally.shots, tally.coords),
        "solver.budget_use": ratio(tally.shots, tally.budget),
        "solver.true_rejections": ratio(tally.true_rejections, tally.solves),
        "qsim.null_frac": ratio(tally.nulls, tally.shots),
    }


def replay_matches(runner, tally: Tally, count: int) -> bool:
    """Re-run the first `count` tasks and compare their per-solve sequence."""
    again = []
    for i in range(count):
        _, out, _ = runner.run(STREAM_TASKS, i)
        again.append((out.outcome, out.quantum_samples, out.test_samples))
    return again == tally.head[:count]


def measure(name: str, seed: int, seconds: float, trace: bool, setup_samples: int = SETUP_SAMPLES):
    """One benchmark run; returns (result, detail)."""
    workload = WORKLOADS[name]
    dclwe, runner, setup_s = set_up(workload, seed)
    counted = prefix_size(workload, seconds)
    loop = Loop(runner, counted)
    problems = []
    detail = {"counted_solves": counted}

    if not trace:
        loop.run(counted, seconds)
        if not loop.solve_s:
            sys.exit(f"bench: no solve completed; first error: {loop.errors[0]}")
        if not replay_matches(runner, loop.tally, min(workload.replay, loop.tally.solves)):
            problems.append("replaying the first tasks gave another per-solve sequence")
        setups = [setup_s] + [probe_setup(name, seed) for _ in range(setup_samples - 1)]
        tally = loop.tally
        metrics = {
            "solve_ref.p50": statistics.median(loop.solve_ref),
            "solve_ref.p90": p90(loop.solve_ref),
            "solves_per_ref": ratio(len(loop.task_s), loop.task_ref_total),
            "shots_per_solve": ratio(tally.shots, tally.solves),
            "test_samples_per_solve": ratio(tally.tests, tally.solves),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        solve_ms = [t * 1e3 for t in loop.solve_s]
        detail.update(
            timed_solves=len(solve_ms),
            solve_ms_p50=statistics.median(solve_ms),
            solve_ms_p90=p90(solve_ms),
            solves_per_s=ratio(len(loop.task_s), sum(loop.task_s)),
            reference_ms=loop.reference_s * 1e3,
            reference_timings=len(loop.reference.times),
            setup_samples_s=setups,
            quantum_samples_per_solve=ratio(tally.quantum, tally.solves),
            **solver_counts(tally),
        )
    else:
        loop.run(counted)
        traced = Loop(runner, counted)
        tracer = Tracer(dclwe)
        tracer.install()
        try:
            traced.run(counted)
        finally:
            tracer.restore()
        leftovers = tracer.leftovers()
        if leftovers:
            problems.append(f"wrapped attributes not restored: {leftovers}")
        if traced.tally.digest() != loop.tally.digest():
            problems.append("the traced run gave another per-solve sequence")
        loop.attempted += traced.attempted
        loop.errors += traced.errors
        tally = loop.tally
        metrics = tracer.metrics(traced.tally.solves)
        metrics.update(solver_counts(tally))
        metrics["trace.overhead_frac"] = ratio(traced.task_ref_total, loop.task_ref_total) - 1
        detail.update(
            untraced_wall_s=sum(loop.task_s),
            traced_wall_s=sum(traced.task_s),
            reference_ms=loop.reference_s * 1e3,
        )

    problems += check_rates(workload, tally)
    if tally.solves == 0:
        problems.append("no solve completed")
    detail.update(
        digest=tally.digest(),
        error_frac=len(loop.errors) / loop.attempted,
        errors=loop.errors[:5],
        check_failures=problems,
    )
    result = {
        "correct": not loop.errors and not problems,
        "attempted": loop.attempted,
        "failed": len(loop.errors),
        "metrics": metrics,
    }
    return result, detail


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads(SPEC_PATH.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def label(result, trace: bool) -> list[str]:
    """Attach units from BENCHMARK.json; returns names declared but not emitted
    or emitted but not declared."""
    units = declared_units(trace)
    values = result["metrics"]
    mismatched = sorted(set(units) ^ set(values))
    result["metrics"] = {k: {"value": values[k], "unit": units[k]} for k in units if k in values}
    return mismatched


def provenance(name: str, seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    why = {w["name"]: w["why"] for w in json.loads(SPEC_PATH.read_text())["workloads"]}
    return {
        "workload": name,
        "why": why.get(name),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workers": 1,
    }


def smoke() -> int:
    """Every workload with a tiny run length, untraced and traced."""
    failures = []
    for name in WORKLOADS:
        digests = []
        for trace in (False, True):
            result, detail = measure(name, 7, 0.2, trace, setup_samples=2)
            missing = label(result, trace)
            digests.append(detail["digest"])
            if missing:
                failures.append(f"{name} trace={int(trace)}: metric names off {missing}")
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: {detail['check_failures']} {detail['errors']}")
            print(f"{name} trace={int(trace)} attempted={result['attempted']} digest={detail['digest']}")
        if digests[0] != digests[1]:
            failures.append(f"{name}: same seed gave digests {digests}")
    for failure in failures:
        print("SMOKE FAIL", failure)
    print("smoke ok" if not failures else "smoke failed")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny runs of every workload")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _, _, setup_s = set_up(WORKLOADS[args.workload], args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if not SPEC_PATH.is_file():
        sys.exit(f"bench: {SPEC_PATH} is missing")
    trace = bool(args.trace)
    result, detail = measure(args.workload, args.seed, args.seconds, trace)
    missing = label(result, trace)
    if missing:
        result["correct"] = False
        detail["check_failures"].append(f"metric names off BENCHMARK.json: {missing}")
    print(json.dumps({"provenance": provenance(args.workload, args.seed), "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
