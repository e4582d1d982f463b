"""Coordinate-by-coordinate secret recovery with retry and test budgets.

Each coordinate j gets up to L shots. A shot draws a fresh reduced
batch, pushes it through the transform kernel, measures, and extracts a
candidate; a null outcome (k* = 0) consumes the shot. Candidates face
an M-trial residual test and the first accepted one settles the
coordinate. A run is classified against the ground-truth secret as
success (all coordinates correct), failure (some coordinate never
accepted a candidate), or wrong_accept (a full vector was returned but
some coordinate is wrong).

Budgets follow the retry calculus: with per-shot success probability at
least C/xi' (C = gamma * cos^2(2*pi*gamma)) the coordinate-failure rate
drops below delta/n at L = ceil((xi'/C) * ln(n/delta)); M is the least
trial count pushing the false-accept union bound L*((2*xi'+1)/q)^M
under delta/n.

A controlled solve runs as one array pass per refill (controlled_pass)
over rows from one stream per solve (controlled_refills). Its rows are
s-free batches (a', eta'), whose outputs b' are their errors eta' as
drawn; a refill measures at most CHUNK_ENTRIES // q of them with one
batched FFT, which keeps each (k, q) complex table near 512 KiB. By the
Fourier shift theorem the coordinate-j batch (a', a' s_j + eta') has
the s-free outcome law moved along k_d, P_s(k_d, k*) =
P_0(k_d + s_j k* mod q, k*), so an s-free row's candidate c0 reads as
s_j + c0. Each row carries its own block of M test pairs (t, eta'), and
the residual of s_j + c0 on the pair (t, t s_j + eta') is eta' - t c0:
row_verdicts judges a whole refill at once, with no s, and the pass
then hands rows out in order, each coordinate up to its first accepted
row or L rows. Rows a settled coordinate leaves, and their verdicts, go
to the next one.

In elimination mode every coordinate owns an RNG stream spawned by
index and a kernel_shot, which asks a stack source for k fresh batches
at once, measures all k rows and hands the candidates out one per shot.
Chunks start at FIRST_CHUNK batches, then match the number drawn so
far, capped by the remaining budget and by k * q <= CHUNK_ENTRIES;
candidates drawn after the accepted one are discarded. Both sources go
through reduce.elimination_stack: each chunk of batches is one stacked
elimination, and test pairs are built in blocks sized by the same chunk
rule (with no budget cap) and handed to the M-trial test one per
trial; pairs left in a block when the coordinate settles are discarded.
solve_coordinate is the per-coordinate loop there: it takes a shot, a
callable returning a candidate or None, and runs m_trial_test on each
candidate. The classical direct-candidate baseline runs through it too,
and classify turns the per-coordinate records of any mode into a
SolveOutcome.

In both modes the first accepted candidate is the one a shot-by-shot
loop would accept, and no coordinate takes more than L shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleParameters, InvariantViolation
from .fq import PrimeField
from .instance import ErrorDistribution, LweInstance, sample_errors
from .qsim import extract_candidates, sample_bv_stack
from .reduce import ReducedPair, elimination_stack, synth_reduced_errors
from .verify import m_trial_test

MODE_CONTROLLED = "controlled"
MODE_ELIMINATION = "elimination"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_WRONG_ACCEPT = "wrong_accept"

_MAX_M = 64

# Chunk schedule of kernel_shot and the controlled refills. CHUNK_ENTRIES keeps
# each (k, q) complex table of the stacked sampler near 512 KiB. numpy plans
# a prime-length FFT afresh on every call, so rows measured together share
# that setup: at q=4093 the cap allows 8 rows per call, and one batched ifft
# took 1.4 ms for 8 rows against 1.0 ms for 4 and 0.5 ms for 1 (0.06 ms for
# one row at q=4096; one thread on a 2-core Xeon).
FIRST_CHUNK = 4
CHUNK_ENTRIES = 1 << 15

StackSource = Callable[[int], tuple[np.ndarray, np.ndarray]]  # k -> (a', b') rows
TestSource = Callable[[], ReducedPair]
Shot = Callable[[], "int | None"]
# k -> (k_d, k*) of k measured s-free rows and their (k, M) test pairs (t, eta')
Refill = Callable[[int], tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class SolveParameters:
    gamma: float
    L: int
    M: int
    xi_prime: int
    C: float


@dataclass
class CoordinateStats:
    j: int
    shots: int = 0
    null_count: int = 0
    candidates_tried: int = 0
    tests_used: int = 0
    accepted_value: int | None = None
    true_rejections: int = 0  # harness counter; must stay 0 in controlled mode


@dataclass
class SolveOutcome:
    outcome: str
    returned_s: np.ndarray | None
    per_coordinate: list[CoordinateStats]
    quantum_samples: int
    test_samples: int


def choose_parameters(
    n: int, q: int, xi: int, kappa: float, delta: float, gamma: float = 0.125
) -> SolveParameters:
    """Derive (L, M, xi', C) for the requested failure budget delta.

    Raises InfeasibleParameters when the amplified bound does not fit
    under q/2, when the retry budget L would exceed q, or when no
    M <= 64 pushes the false-accept bound under delta/n.
    """
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    PrimeField(q)
    xi_prime_real = kappa * xi
    xi_prime = round(xi_prime_real)
    if abs(xi_prime_real - xi_prime) > 1e-9:
        raise InfeasibleParameters(f"kappa * xi = {xi_prime_real} is not an integer bound")
    if 2 * xi_prime >= q:
        raise InfeasibleParameters(f"amplified bound xi'={xi_prime} does not fit below q/2")
    c = gamma * math.cos(2 * math.pi * gamma) ** 2
    required = (xi_prime / c) * math.log(n / delta)
    l_budget = max(1, math.ceil(required))
    if l_budget > q:
        raise InfeasibleParameters(
            f"retry budget L={l_budget} exceeds q={q}; shrink xi' or relax delta"
        )
    per_trial = (2 * xi_prime + 1) / q
    target = delta / n
    for m in range(1, _MAX_M + 1):
        if l_budget * per_trial**m <= target:
            break
    else:
        raise InfeasibleParameters(f"no M <= {_MAX_M} reaches the false-accept target {target}")
    return SolveParameters(gamma=gamma, L=l_budget, M=m, xi_prime=xi_prime, C=c)


def _input_rows(q: int, v_size: int | None, rng: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Inputs for k batches: one full-field row they all share, or k fresh v_size subsets."""
    if v_size is None or v_size >= q:
        all_inputs = np.arange(q, dtype=np.int64)[None, :]
        return lambda k: all_inputs
    return lambda k: np.stack([rng.choice(q, size=v_size, replace=False) for _ in range(k)])


def controlled_refills(
    instance: LweInstance,
    xi_prime: int,
    m: int,
    rng: np.random.Generator,
    v_size: int | None = None,
) -> Refill:
    """Refill source of one controlled solve: k -> (k_d, k*, t, eta') for k rows.

    Each call draws k s-free batches (a', eta') with synth_reduced_errors,
    measures them with their errors eta' as their b' in one
    sample_bv_stack call, then draws one (k, m) block of test pairs: t
    uniform on [1, q) and eta' from the same law. Errors come from the
    instance's noise kind rescaled to xi' (gaussian width defaults to
    xi'/3). Nothing here depends on s.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    q = instance.q
    chi_prime = ErrorDistribution(instance.chi.kind, xi_prime)
    inputs = _input_rows(q, v_size, rng)

    def refill(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        a_values = inputs(k)
        eta_values = synth_reduced_errors(q, a_values, k, xi_prime, chi_prime, rng)
        k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
        t = rng.integers(1, q, size=(k, m))
        return k_d, k_star, t, sample_errors(chi_prime, rng, (k, m))

    return refill


def row_verdicts(
    q: int, k_d: np.ndarray, k_star: np.ndarray, t: np.ndarray, eta: np.ndarray, xi_prime: int
) -> tuple[list[int], list[int], list[bool]]:
    """Per row of a refill: its s-free candidate c0, the tests it uses and its verdict.

    c0 = -k_d / k* mod q. Row i's candidate for coordinate j is s_j + c0,
    and its test pairs (t, t s_j + eta') leave the residual eta' - t c0,
    so the verdict holds for every coordinate: accepted iff every
    centered |eta' - t c0| <= xi'. A candidate uses trials up to its
    first failing one, or all M; a null (k* = 0) uses none, so the tests
    used are 0 exactly for nulls.
    """
    field = PrimeField(q)
    null = k_star == 0
    c0 = (-k_d) % q * field.inverse_table()[k_star] % q
    fail = np.abs(field.centered_array(eta - t * c0[:, None])) > xi_prime
    rejected = fail.any(axis=1)
    tests = np.where(rejected, fail.argmax(axis=1) + 1, t.shape[1])
    tests[null] = 0
    return c0.tolist(), tests.tolist(), (~rejected & ~null).tolist()


def controlled_pass(
    s: np.ndarray, q: int, refill: Refill, budget: int, xi_prime: int
) -> list[CoordinateStats]:
    """Every coordinate of one controlled solve from one stream of refills.

    A refill holds min(CHUNK_ENTRIES // q, FIRST_CHUNK * coordinates not
    yet run, shots the solve may still take) rows, judged at once by
    row_verdicts. Coordinate j takes rows in order up to its first
    accepted one or `budget` rows and accepts s_j + c0; the rows it
    leaves go to the next coordinate with their verdicts, which do not
    depend on s. A true candidate (c0 = 0) that is rejected counts as a
    true rejection.
    """
    n = len(s)
    c0s: list[int] = []
    tests: list[int] = []
    accepted: list[bool] = []
    row = 0  # next unused row of the current refill
    per_coordinate = []
    for j in range(n):
        left = n - j  # coordinates not yet run, this one included
        stats = CoordinateStats(j=j)
        while stats.shots < budget:
            if row == len(c0s):
                k = min(max(1, CHUNK_ENTRIES // q), FIRST_CHUNK * left, left * budget - stats.shots)
                c0s, tests, accepted = row_verdicts(q, *refill(k), xi_prime)
                row = 0
            i = row
            row += 1
            stats.shots += 1
            if not tests[i]:
                stats.null_count += 1
                continue
            stats.candidates_tried += 1
            stats.tests_used += tests[i]
            if accepted[i]:
                stats.accepted_value = (int(s[j]) + c0s[i]) % q
                break
            stats.true_rejections += c0s[i] == 0
        per_coordinate.append(stats)
    return per_coordinate


def elimination_sources(
    instance: LweInstance,
    j: int,
    rng: np.random.Generator,
    v_size: int | None = None,
) -> tuple[StackSource, TestSource]:
    """Batch-stack and test-pair sources that eliminate fresh samples each call.

    A test pair is a one-input elimination with a uniform nonzero t;
    pairs are built in blocks through elimination_stack, sized by the
    chunk rule, and handed out one per call. Test pairs use sample sets
    disjoint from every batch's, since both consume the stream strictly
    forward.
    """
    q = instance.q
    inputs = _input_rows(q, v_size, rng)
    pending: list[ReducedPair] = []  # pairs of the current block, next one last
    drawn = 0

    def stack_source(k: int) -> tuple[np.ndarray, np.ndarray]:
        rows = inputs(k)
        a_values = np.broadcast_to(rows, (k, rows.shape[1]))
        return a_values, elimination_stack(instance, j, a_values, rng).b_values

    def test_source() -> ReducedPair:
        nonlocal drawn
        if not pending:
            k = _chunk_size(drawn, q)
            t = rng.integers(1, q, size=(k, 1))
            block = elimination_stack(instance, j, t, rng)
            columns = (t, block.b_values, block.eta_values, block.coeff_l1_values)
            pairs = [
                ReducedPair(a_prime=a, b_prime=b, eta_prime=e, coeff_l1=c, q=q)
                for a, b, e, c in zip(*(col[:, 0].tolist() for col in columns))
            ]
            pending.extend(reversed(pairs))
            drawn += k
        return pending.pop()

    return stack_source, test_source


def _chunk_size(drawn: int, q: int) -> int:
    """Rows in the next chunk after `drawn` rows: FIRST_CHUNK, then the
    number drawn so far, at most CHUNK_ENTRIES // q (and at least 1)."""
    return min(max(drawn, FIRST_CHUNK), max(1, CHUNK_ENTRIES // q))


def kernel_shot(
    stack_source: StackSource, q: int, budget: int, rng: np.random.Generator
) -> Shot:
    """Shot source for the kernel over at most `budget` batches, measured in chunks."""
    pending: list[int | None] = []  # candidates of the current chunk, next one last
    drawn = 0

    def shot() -> int | None:
        nonlocal drawn
        if not pending:
            k = min(_chunk_size(drawn, q), budget - drawn)
            if k < 1:
                raise InvariantViolation(f"shot requested past the budget of {budget} batches")
            a_values, b_values = stack_source(k)
            k_d, k_star = sample_bv_stack(q, a_values, b_values, rng)
            pending.extend(reversed(extract_candidates(k_d, k_star, q)))
            drawn += k
        return pending.pop()

    return shot


def solve_coordinate(
    j: int,
    shot: Shot,
    test_source: TestSource,
    budget: int,
    m: int,
    xi_prime: int,
    *,
    s_true: int | None = None,
) -> tuple[int | None, CoordinateStats]:
    """Run up to `budget` shots for coordinate j; return the accepted value or None.

    A shot returning None is a null and only consumes the shot; any
    other candidate faces an m-trial residual test at bound xi'.
    """
    stats = CoordinateStats(j=j)
    for _ in range(budget):
        stats.shots += 1
        cand = shot()
        if cand is None:
            stats.null_count += 1
            continue
        stats.candidates_tried += 1
        verdict = m_trial_test(cand, m, xi_prime, test_source)
        stats.tests_used += verdict.trials_used
        if verdict.accepted:
            stats.accepted_value = cand
            return cand, stats
        if cand == s_true:
            stats.true_rejections += 1
    return None, stats


def classify(
    instance: LweInstance, per_coordinate: list[CoordinateStats], quantum_samples: int
) -> SolveOutcome:
    """Classify a run by its accepted values against the ground-truth secret."""
    test_samples = sum(st.tests_used for st in per_coordinate)
    values = [st.accepted_value for st in per_coordinate]
    if any(v is None for v in values):
        return SolveOutcome(OUTCOME_FAILURE, None, per_coordinate, quantum_samples, test_samples)
    returned = np.array(values, dtype=np.int64)
    correct = np.array_equal(returned, instance.s % instance.q)
    outcome = OUTCOME_SUCCESS if correct else OUTCOME_WRONG_ACCEPT
    return SolveOutcome(outcome, returned, per_coordinate, quantum_samples, test_samples)


def solve(
    instance: LweInstance,
    params: SolveParameters,
    mode: str,
    rng: np.random.Generator,
    *,
    v_size: int | None = None,
) -> SolveOutcome:
    """Recover the full secret coordinate by coordinate and classify the run.

    A controlled solve is one array pass over refills drawn from `rng`
    (controlled_refills, controlled_pass), each row with its own block
    of M test pairs; in elimination mode every coordinate owns an RNG
    stream spawned by index and runs solve_coordinate. The total
    quantum-sample count is checked against the n * L budget.
    """
    if mode not in (MODE_CONTROLLED, MODE_ELIMINATION):
        raise ValueError(f"mode must be {MODE_CONTROLLED!r} or {MODE_ELIMINATION!r}, got {mode!r}")
    n, q = instance.n, instance.q
    if mode == MODE_CONTROLLED:
        refill = controlled_refills(instance, params.xi_prime, params.M, rng, v_size)
        per_coordinate = controlled_pass(instance.s, q, refill, params.L, params.xi_prime)
    else:
        per_coordinate = []
        for j, stream in enumerate(rng.spawn(n)):
            stack_source, test_source = elimination_sources(instance, j, stream, v_size)
            shot = kernel_shot(stack_source, q, params.L, stream)
            _, stats = solve_coordinate(
                j, shot, test_source, params.L, params.M, params.xi_prime, s_true=int(instance.s[j])
            )
            per_coordinate.append(stats)
    quantum_samples = sum(st.shots for st in per_coordinate)
    if quantum_samples > n * params.L:
        raise InvariantViolation(
            f"consumed {quantum_samples} quantum samples against a budget of {n * params.L}"
        )
    return classify(instance, per_coordinate, quantum_samples)
