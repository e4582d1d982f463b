"""The benchmark's workloads, one solve per task, and the output checks.

Every task derives its own RNG stream from the workload seed and the
task index, so a seed fixes the whole input sequence. The program only
sees what the public API hands it: an instance from `make_instance`,
parameters from `choose_parameters`, and one `solve` or
`classical_baseline_solve` call.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

XI = 1
GAMMA = 0.125
DELTA = 0.2
BASELINE_M = 2
BASELINE_TRIAL_BUDGET = 1

# Task streams: the timed tasks and the set-up warm-up never share inputs.
# Warm-up inputs ignore the workload seed, so set-up does the same work on
# every run and only the program's cost moves it.
STREAM_TASKS = 0
STREAM_WARMUP = 1
WARMUP_SEED = 0

# Criterion 5's floor for the controlled workloads: success >= 0.8 - 3 sigma.
CONTROLLED_FLOOR = 0.8
# The baseline's per-n success count must not sit in either exact binomial
# tail below this probability around 3^-n. Criterion 6 uses 3 sigma on one
# fixed seed; here the seed changes every run and seven n are tested at
# once, so 3 sigma would fail about one correct run in fifty. This is one
# tail of 4.5 sigma, taken from the exact binomial law because at n=8 only
# about half a success is expected per run and the normal approximation
# understates the upper tail a hundredfold. A correct run fails with
# probability about 5e-5; a wrong per-coordinate rate still shows.
BASELINE_TAIL = 3.4e-6


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "controlled", "elimination" or "baseline"
    q: int
    ns: tuple[int, ...]  # secret dimension, rotated task by task
    kappa: float
    warmup: int  # solves run during set-up
    planned_rate: float  # solves/s assumed when sizing the counted prefix
    replay: int  # leading tasks re-run for the determinism check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("controlled-q401", "controlled", 401, (8,), 2.0, 3, 45.0, 20),
        Workload("controlled-q4093", "controlled", 4093, (8,), 2.0, 2, 10.0, 4),
        Workload("elimination-q101", "elimination", 101, (3,), 2.0, 1, 4.0, 3),
        Workload("baseline-q101", "baseline", 101, tuple(range(2, 9)), 1.0, 14, 1200.0, 140),
    )
}


def prefix_size(workload: Workload, seconds: float) -> int:
    """Tasks whose counts are reported: fixed by the run length alone, so
    the same seed and length give exactly the same counts on any machine."""
    return max(math.ceil(seconds * workload.planned_rate), workload.replay)


class Runner:
    """Runs task i of a workload through the library's public API.

    Library functions are looked up on the package at call time, so a
    tracer that swaps module attributes sees these calls too.
    """

    def __init__(self, workload: Workload, dclwe, seed: int):
        self.w = workload
        self.dc = dclwe
        self.seed = seed
        self.chi = dclwe.ErrorDistribution(dclwe.UNIFORM, XI)
        if workload.mode == "baseline":
            self.params = None
        else:
            self.params = {
                n: dclwe.choose_parameters(n, workload.q, XI, workload.kappa, DELTA, gamma=GAMMA)
                for n in workload.ns
            }

    def budget(self, n: int) -> int:
        """Most candidate draws one coordinate may take."""
        if self.params is None:
            return BASELINE_TRIAL_BUDGET
        return self.params[n].L

    def run(self, stream: int, i: int):
        """Solve task i; returns (instance, outcome, seconds inside the solve call)."""
        dc, w = self.dc, self.w
        n = w.ns[i % len(w.ns)]
        seed = WARMUP_SEED if stream == STREAM_WARMUP else self.seed
        rng = dc.derive_rng(seed, stream, i)
        instance = dc.make_instance(n, w.q, self.chi, rng)
        t0 = time.perf_counter()
        if self.params is None:
            out = dc.classical_baseline_solve(
                instance, w.kappa, BASELINE_M, BASELINE_TRIAL_BUDGET, rng
            )
        else:
            out = dc.solve(instance, self.params[n], w.mode, rng)
        return instance, out, time.perf_counter() - t0


def check_outcome(runner: Runner, instance, out) -> str | None:
    """Re-derive the outcome from returned_s against the ground truth.

    Returns a reason when the program's report disagrees, else None.
    """
    n, q = instance.n, instance.q
    stats = out.per_coordinate
    if len(stats) != n:
        return f"{len(stats)} coordinate records for n={n}"
    if out.returned_s is None:
        expected = "failure"
        if all(st.accepted_value is not None for st in stats):
            return "no secret returned although every coordinate accepted"
    else:
        returned = [int(v) for v in out.returned_s]
        if len(returned) != n or any(not 0 <= v < q for v in returned):
            return f"returned_s {returned} is not a vector in F_{q}^{n}"
        if returned != [st.accepted_value for st in stats]:
            return "returned_s disagrees with the accepted values"
        truth = [int(v) % q for v in instance.s]
        expected = "success" if returned == truth else "wrong_accept"
    if out.outcome != expected:
        return f"outcome {out.outcome!r}, ground truth says {expected!r}"
    shots = sum(st.shots for st in stats)
    if any(st.shots > runner.budget(n) for st in stats):
        return f"a coordinate exceeded its budget of {runner.budget(n)} draws"
    kernel_shots = 0 if runner.params is None else shots
    if out.quantum_samples != kernel_shots:
        return f"quantum_samples {out.quantum_samples} != {kernel_shots} kernel shots"
    if out.test_samples != sum(st.tests_used for st in stats):
        return "test_samples disagrees with the per-coordinate tests"
    return None


class Tally:
    """Counts over a run of solves, with a digest of the per-solve
    (outcome, quantum_samples, test_samples) sequence and its first
    HEAD entries."""

    HEAD = 200

    def __init__(self):
        self.solves = 0
        self.coords = 0
        self.budget = 0
        self.outcomes = Counter()
        self.by_n = defaultdict(lambda: [0, 0])  # n -> [solves, successes]
        self.quantum = self.tests = self.shots = self.nulls = self.true_rejections = 0
        self.head = []
        self._digest = hashlib.sha256()

    def add(self, runner: Runner, instance, out) -> None:
        n = instance.n
        self.solves += 1
        self.coords += n
        self.budget += n * runner.budget(n)
        self.outcomes[out.outcome] += 1
        self.by_n[n][0] += 1
        self.by_n[n][1] += out.outcome == "success"
        self.quantum += out.quantum_samples
        self.tests += out.test_samples
        for st in out.per_coordinate:
            self.shots += st.shots
            self.nulls += st.null_count
            self.true_rejections += st.true_rejections
        entry = (out.outcome, out.quantum_samples, out.test_samples)
        self._digest.update(repr(entry).encode())
        if len(self.head) < self.HEAD:
            self.head.append(entry)

    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    def frac(self, outcome: str) -> float:
        return self.outcomes[outcome] / self.solves if self.solves else 0.0


def check_rates(workload: Workload, tally: Tally) -> list[str]:
    """Statistical checks on the counted prefix; returns failed-check reasons."""
    problems = []
    if workload.mode == "controlled" and tally.solves:
        p = CONTROLLED_FLOOR
        floor = p - 3.0 * math.sqrt(p * (1 - p) / tally.solves)
        if tally.frac("success") < floor:
            problems.append(f"success_frac {tally.frac('success'):.4f} < floor {floor:.4f}")
    if workload.mode == "baseline":
        for n, (solves, hits) in sorted(tally.by_n.items()):
            expect = (1 / (2 * XI + 1)) ** n
            below, above = binomial_tails(hits, solves, expect)
            if min(below, above) < BASELINE_TAIL:
                problems.append(
                    f"n={n}: {hits} successes in {solves} solves, 3^-n={expect:.6f};"
                    f" tails {below:.2e}, {above:.2e} < {BASELINE_TAIL}"
                )
    return problems


def binomial_tails(k: int, trials: int, p: float) -> tuple[float, float]:
    """(P(X <= k), P(X >= k)) for X ~ Binomial(trials, p)."""

    def pmf(i: int) -> float:
        log_choose = math.lgamma(trials + 1) - math.lgamma(i + 1) - math.lgamma(trials - i + 1)
        return math.exp(log_choose + i * math.log(p) + (trials - i) * math.log1p(-p))

    return sum(pmf(i) for i in range(k + 1)), sum(pmf(i) for i in range(k, trials + 1))
