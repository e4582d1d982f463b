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

solve_coordinate is the one per-coordinate loop. It takes a shot, a
callable returning a candidate or None, so the kernel and the classical
direct-candidate baseline run through the same budget, test and
bookkeeping code; classify turns the per-coordinate records of either
into a SolveOutcome.

In controlled mode one pool per solve, on the solve's own stream,
serves every coordinate (controlled_sources). Its rows are s-free
batches (a', eta'), whose outputs b' are their errors eta' as drawn;
they are measured in stacks of at most CHUNK_ENTRIES // q rows with one
batched FFT, which keeps each (k, q) complex table near 512 KiB. By the
Fourier shift theorem the coordinate-j batch (a', a' s_j + eta') has
the s-free outcome law moved along k_d, P_s(k_d, k*) =
P_0(k_d + s_j k* mod q, k*), so an s-free row's candidate c0 reads as
s_j + c0. Rows and test pairs a settled coordinate leaves go to the
next one.

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

# Chunk schedule of kernel_shot and the controlled pool. CHUNK_ENTRIES keeps
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


def controlled_sources(
    instance: LweInstance,
    xi_prime: int,
    budget: int,
    rng: np.random.Generator,
    v_size: int | None = None,
) -> Callable[[int], tuple[Shot, TestSource]]:
    """One controlled solve's pool of measured batches and test pairs.

    Returns sources(j) -> (shot, test_source) for coordinate j; the
    coordinates run in order j = 0, 1, ..., n - 1, each for at most
    `budget` shots. Errors are drawn from the instance's noise kind
    rescaled to xi' (gaussian width defaults to xi'/3). Rows are
    measured in refills of min(CHUNK_ENTRIES // q, FIRST_CHUNK *
    coordinates not yet run, shots the solve may still take) s-free
    batches, each measured with its errors eta' as its b'; coordinate j
    reads a row's candidate c0 as s_j + c0, and a null stays a null.
    Test pairs are drawn in blocks of FIRST_CHUNK * coordinates not yet
    run, one array of t and one of eta', and b' = t s_j + eta' is formed
    when a pair is used. A solve discards at most part of one refill of
    each.
    """
    q, n = instance.q, instance.n
    chi_prime = ErrorDistribution(instance.chi.kind, xi_prime)
    inputs = _input_rows(q, v_size, rng)
    coeff = math.ceil(xi_prime / instance.xi) if instance.xi > 0 else 0
    offsets: list[int | None] = []  # s-free candidates c0 of measured rows, next one last
    tests: list[tuple[int, int]] = []  # (t, eta') of drawn test pairs, next one last

    def sources(j: int) -> tuple[Shot, TestSource]:
        s_j = int(instance.s[j]) % q
        left = n - j  # coordinates not yet run, this one included
        taken = 0

        def shot() -> int | None:
            nonlocal taken
            if not offsets:
                k = min(max(1, CHUNK_ENTRIES // q), FIRST_CHUNK * left, left * budget - taken)
                if k < 1:
                    raise InvariantViolation(f"shot requested past the budget of {budget} batches")
                a_values = inputs(k)
                eta_values = synth_reduced_errors(q, a_values, k, xi_prime, chi_prime, rng)
                k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
                offsets.extend(reversed(extract_candidates(k_d, k_star, q)))
            taken += 1
            c0 = offsets.pop()
            return None if c0 is None else (s_j + c0) % q

        def test_source() -> ReducedPair:
            if not tests:
                k = FIRST_CHUNK * left
                t = rng.integers(1, q, size=k)
                eta = sample_errors(chi_prime, rng, k)
                tests.extend(reversed(list(zip(t.tolist(), eta.tolist()))))
            t, eta = tests.pop()
            return ReducedPair(
                a_prime=t, b_prime=(t * s_j + eta) % q, eta_prime=eta, coeff_l1=coeff, q=q
            )

        return shot, test_source

    return sources


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

    A controlled solve draws every coordinate's batches and test pairs
    from one pool on `rng` (controlled_sources); in elimination mode
    every coordinate owns an RNG stream spawned by index. The total
    quantum-sample count is checked against the n * L budget.
    """
    if mode not in (MODE_CONTROLLED, MODE_ELIMINATION):
        raise ValueError(f"mode must be {MODE_CONTROLLED!r} or {MODE_ELIMINATION!r}, got {mode!r}")
    n, q = instance.n, instance.q
    if mode == MODE_CONTROLLED:
        sources = controlled_sources(instance, params.xi_prime, params.L, rng, v_size)
    else:
        streams = rng.spawn(n)

        def sources(j: int) -> tuple[Shot, TestSource]:
            stack_source, test_source = elimination_sources(instance, j, streams[j], v_size)
            return kernel_shot(stack_source, q, params.L, streams[j]), test_source

    per_coordinate = [
        solve_coordinate(
            j, *sources(j), params.L, params.M, params.xi_prime, s_true=int(instance.s[j])
        )[1]
        for j in range(n)
    ]
    quantum_samples = sum(st.shots for st in per_coordinate)
    if quantum_samples > n * params.L:
        raise InvariantViolation(
            f"consumed {quantum_samples} quantum samples against a budget of {n * params.L}"
        )
    return classify(instance, per_coordinate, quantum_samples)
