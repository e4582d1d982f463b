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
drops below delta/n at L = ceil((xi'/C) * ln(n/delta)). At xi' = 0 that
term is 0 and only nulls fail a coordinate, so L = ceil(ln(n/delta) / ln q),
the least with q^-L <= delta/n. M is the least trial count pushing the false-accept union bound L*((2*xi'+1)/q)^M
under delta/n.

Both modes run as array passes over refills drawn from the solve's one
stream. Each row carries its own block of M test pairs (t, b'), and
row_verdicts judges a whole refill at once: a row's candidate is
c = -k_d / k* mod q, with residuals b' - t c. _take_row turns a judged
row into a coordinate's CoordinateStats, so the passes differ only in
where their rows come from and in what happens to the rows a settled
coordinate leaves.

controlled_refills measures s-free batches (a', eta'), at most
CHUNK_ENTRIES // q per batched FFT. By the Fourier shift theorem the
coordinate-j batch (a', a' s_j + eta') has the s-free outcome law moved
along k_d, P_s(k_d, k*) = P_0(k_d + s_j k* mod q, k*), so a row's c reads
as s_j + c for every coordinate, with the same verdict. controlled_pass
hands rows out in order; the rows a settled coordinate leaves go to the
next one.

elimination_pass runs every open coordinate in lockstep: each refill
gives coordinate j the next chunk of its own rows, eliminated through
row j of their own sample matrices' inverses (elimination_refills: one
draw and one batched inversion for the batches and their test pairs,
one sample_bv_stack call). Coordinate j accepts c, and the rows after
its accepted one are discarded.

oracle.classical_baseline_solve runs controlled_pass too, over s-free
direct pairs that no kernel measures. classify turns the per-coordinate records of
any run into a SolveOutcome. In every mode the first accepted candidate
is the one a shot-by-shot loop would accept, and no coordinate takes
more than L shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InfeasibleParameters, InvariantViolation
from .fq import PrimeField
from .instance import ErrorDistribution, LweInstance, sample_errors
from .qsim import CHUNK_ENTRIES, sample_bv_stack
from .reduce import eliminate_rows, invertible_draws, synth_reduced_errors

MODE_CONTROLLED = "controlled"
MODE_ELIMINATION = "elimination"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_WRONG_ACCEPT = "wrong_accept"

_MAX_M = 64

# Refill sizes of both passes: the first refill per coordinate, then at most
# qsim.CHUNK_ENTRIES // q rows per sampler call.
FIRST_CHUNK = 4

Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# k -> (k_d, k*) of k s-free rows and their (k, M) test pairs (t, eta')
Refill = Callable[[int], Rows]
# coordinate of each row -> (k_d, k*) of its measured batch and its (k, M) test pairs (t, b')
EliminationRefill = Callable[[np.ndarray], Rows]


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


def amplified_bound(kappa: float, xi: int) -> int:
    """The amplified error bound xi' = kappa * xi, which must be an integer;
    raises InfeasibleParameters otherwise, and ValueError for a kappa that
    is not positive and finite or for xi < 0."""
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if xi < 0:
        raise ValueError(f"xi must be non-negative, got {xi}")
    xi_prime = round(kappa * xi)
    if abs(kappa * xi - xi_prime) > 1e-9:
        raise InfeasibleParameters(f"kappa * xi = {kappa * xi} is not an integer bound")
    return xi_prime


def choose_parameters(
    n: int, q: int, xi: int, kappa: float, delta: float, gamma: float = 0.125
) -> SolveParameters:
    """Derive (L, M, xi', C) for the requested failure budget delta.

    At xi' = 0 only nulls (k* = 0, probability 1/q per shot) fail a
    coordinate, so L is the least with q^-L <= delta/n. Raises
    InfeasibleParameters when the amplified bound does not fit under
    q/2, when the retry budget L would exceed q, or when no M <= 64
    pushes the false-accept bound under delta/n.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma must lie in (0, 1/4), got {gamma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    PrimeField(q)
    xi_prime = amplified_bound(kappa, xi)
    if 2 * xi_prime >= q:
        raise InfeasibleParameters(f"amplified bound xi'={xi_prime} does not fit below q/2")
    c = gamma * math.cos(2 * math.pi * gamma) ** 2
    if xi_prime == 0:
        required = math.log(n / delta) / math.log(q)
    else:
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

    def refill(k: int) -> Rows:
        a_values = inputs(k)
        eta_values = synth_reduced_errors(q, a_values, k, xi_prime, chi_prime, rng)
        k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
        t = rng.integers(1, q, size=(k, m))
        return k_d, k_star, t, sample_errors(chi_prime, rng, (k, m))

    return refill


def elimination_refills(
    instance: LweInstance, m: int, rng: np.random.Generator, v_size: int | None = None
) -> EliminationRefill:
    """Refill source of one elimination solve: coordinate per row -> (k_d, k*, t, b').

    Each call draws the K rows' inputs, a (K, m) block of test inputs t
    uniform on [1, q) and K * (1 + m) invertible sample matrices: the
    first K make the batches, the rest the test pairs, m per row in row
    order, each eliminated for its row's coordinate and checked against
    its measured bound. One sample_bv_stack call measures the batches.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    q = instance.q
    inputs = _input_rows(q, v_size, rng)

    def refill(coords: np.ndarray) -> Rows:
        k = coords.size
        a_values = inputs(k)
        t = rng.integers(1, q, size=(k, m))
        inv, b = invertible_draws(instance, k * (1 + m), rng)
        batches = eliminate_rows(instance, inv[:k], b[:k], a_values, coords)
        tests = eliminate_rows(instance, inv[k:], b[k:], t.reshape(-1, 1), np.repeat(coords, m))
        k_d, k_star = sample_bv_stack(q, a_values, batches.b_values, rng)
        return k_d, k_star, t, tests.b_values.reshape(k, m)

    return refill


def row_verdicts(
    q: int, k_d: np.ndarray, k_star: np.ndarray, t: np.ndarray, b: np.ndarray, xi_prime: int
) -> tuple[list[int], list[int], list[bool]]:
    """Per row of a refill: its candidate c, the tests it uses and its verdict.

    c = -k_d / k* mod q, and the row's own (t, b') pairs leave the
    residuals b' - t c: accepted iff every centered residual is at most
    xi'. A candidate uses trials up to its first failing one, or all M;
    a null (k* = 0) uses none, so the tests used are 0 exactly for
    nulls. An s-free controlled row passes its errors eta' as b', and its
    c is the offset c0 of every coordinate's candidate s_j + c0.
    """
    field = PrimeField(q)
    null = k_star == 0
    c = (-k_d) % q * field.inverse_table()[k_star] % q
    fail = np.abs(field.centered_array(b - t * c[:, None])) > xi_prime
    rejected = fail.any(axis=1)
    tests = np.where(rejected, fail.argmax(axis=1) + 1, t.shape[1])
    tests[null] = 0
    return c.tolist(), tests.tolist(), (~rejected & ~null).tolist()


def _take_row(stats: CoordinateStats, value: int, tests: int, accepted: bool, s_j: int) -> bool:
    """One judged row's shot for a coordinate; True when it settles it. A
    null (no tests) only consumes the shot; a candidate `value` adds its
    tests and is accepted, or, rejected while equal to s_j, counts as a
    true rejection."""
    stats.shots += 1
    if not tests:
        stats.null_count += 1
        return False
    stats.candidates_tried += 1
    stats.tests_used += tests
    if accepted:
        stats.accepted_value = value
        return True
    stats.true_rejections += value == s_j
    return False


def controlled_pass(
    s: np.ndarray, q: int, refill: Refill, budget: int, xi_prime: int
) -> list[CoordinateStats]:
    """Every coordinate of one controlled or baseline solve from one stream of refills.

    A refill holds min(CHUNK_ENTRIES // q, FIRST_CHUNK * coordinates not
    yet run, shots the solve may still take) rows, judged at once by
    row_verdicts. Coordinate j takes rows in order up to its first
    accepted one or `budget` rows and accepts s_j + c0; the rows it
    leaves go to the next coordinate with their verdicts, which do not
    depend on s.
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
        s_j = int(s[j]) % q
        while stats.shots < budget:
            if row == len(c0s):
                k = min(max(1, CHUNK_ENTRIES // q), FIRST_CHUNK * left, left * budget - stats.shots)
                c0s, tests, accepted = row_verdicts(q, *refill(k), xi_prime)
                row = 0
            i = row
            row += 1
            if _take_row(stats, (s_j + c0s[i]) % q, tests[i], accepted[i], s_j):
                break
        per_coordinate.append(stats)
    return per_coordinate


def elimination_pass(
    s: np.ndarray, q: int, refill: EliminationRefill, budget: int, xi_prime: int
) -> list[CoordinateStats]:
    """Every coordinate of one elimination solve, in lockstep refills.

    A refill serves every open coordinate, one neither settled nor out
    of budget. Coordinate j gets min(max(rows drawn, FIRST_CHUNK),
    budget - rows drawn, max(1, CHUNK_ENTRIES // (q * open coordinates)))
    rows of its own, judged with the rest by row_verdicts. It scans them
    up to its first accepted one and accepts c; the rows it leaves are
    discarded, never carried to another coordinate.
    """
    per_coordinate = [CoordinateStats(j=j) for j in range(len(s))]
    open_coords = list(range(len(s))) if budget > 0 else []
    while open_coords:
        cap = max(1, CHUNK_ENTRIES // (q * len(open_coords)))
        drawn = [per_coordinate[j].shots for j in open_coords]  # an open one scanned them all
        sizes = [min(max(d, FIRST_CHUNK), budget - d, cap) for d in drawn]
        cs, tests, accepted = row_verdicts(q, *refill(np.repeat(open_coords, sizes)), xi_prime)
        still_open = []
        row = 0  # first row of coordinate j in this refill
        for j, k in zip(open_coords, sizes):
            stats, s_j = per_coordinate[j], int(s[j]) % q
            rows = range(row, row + k)
            settled = any(_take_row(stats, cs[i], tests[i], accepted[i], s_j) for i in rows)
            if not settled and stats.shots < budget:
                still_open.append(j)
            row += k
        open_coords = still_open
    return per_coordinate


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

    Either mode is one array pass over refills drawn from `rng`:
    controlled_pass or elimination_pass. Before the first draw, v_size (inputs
    per batch, the full field when None) must lie in [1, q] and xi' and L must
    be non-negative. Quantum samples are checked against the n * L budget.
    """
    if mode not in (MODE_CONTROLLED, MODE_ELIMINATION):
        raise ValueError(f"mode must be {MODE_CONTROLLED!r} or {MODE_ELIMINATION!r}, got {mode!r}")
    for field in ("xi_prime", "L"):
        if getattr(params, field) < 0:
            raise ValueError(f"{field} must be non-negative, got {field}={getattr(params, field)}")
    n, q = instance.n, instance.q
    if v_size is not None and not 1 <= v_size <= q:
        raise ValueError(f"v_size must lie in [1, q={q}], got v_size={v_size}")
    if mode == MODE_CONTROLLED:
        refill = controlled_refills(instance, params.xi_prime, params.M, rng, v_size)
        per_coordinate = controlled_pass(instance.s, q, refill, params.L, params.xi_prime)
    else:
        refill = elimination_refills(instance, params.M, rng, v_size)
        per_coordinate = elimination_pass(instance.s, q, refill, params.L, params.xi_prime)
    quantum_samples = sum(st.shots for st in per_coordinate)
    if quantum_samples > n * params.L:
        raise InvariantViolation(
            f"consumed {quantum_samples} quantum samples against a budget of {n * params.L}"
        )
    return classify(instance, per_coordinate, quantum_samples)
