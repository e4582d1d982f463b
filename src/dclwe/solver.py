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
stream. Each row carries its own block of M test pairs (t, b'): its
candidate c faces residuals b' - t c, and one rule (_verdicts) counts
the trials it uses and gives its verdict. _take_row turns a judged row
into a coordinate's CoordinateStats, so the passes differ only in where
their rows come from and in what happens to the rows a settled
coordinate leaves.

controlled_refills measures s-free batches (a', eta'), as many as its
coordinates ask for, and judges each row once. By the Fourier
shift theorem the coordinate-j batch (a', a' s_j + eta') has the s-free
outcome law moved along k_d, P_s(k_d, k*) = P_0(k_d + s_j k* mod q, k*),
so a row's offset c0 = -k_d / k* reads as s_j + c0 for every
coordinate, with the same verdict. controlled_pass hands rows out in
order; the rows a settled coordinate leaves go to the next one. A row's
c0 is right exactly when it lands on the k_d = 0 atom, whose mass
depends only on the row's error histogram (how many inputs carry each
error value), so a refill draws the histograms, one multinomial row
each, and qsim.atom_rows decides the atom from them. An atom row has
c0 = 0 and residuals eta'. Off the atom c0 != 0, and for t uniform on
[1, q) the product t c0 is uniform on [1, q) and independent of c0, so
such a row is judged on residuals eta' - t at the stand-in c0 = 1. Only
a row that passes every trial is built, as a uniform arrangement of its
histogram over its inputs, and transformed (qsim.transform_rows) for
its own c0. i.i.d. errors are exactly a multinomial histogram plus a
uniform arrangement, so shots, tests and verdicts keep their joint law,
and c0 is drawn exactly when it becomes the accepted s_j + c0.

elimination_pass runs every open coordinate in lockstep: each refill
gives coordinate j the next chunk of its own rows, each eliminated
through an inverse row r drawn by its law, with r . b formed from the
ground-truth s_j and the row's hidden errors (elimination_refills: one
inverse_row_draws call for the batches and their test pairs), and
row_verdicts judges them at their own c = -k_d / k*. Every batch is
noiseless at the moved secret sigma = r . b, b' = a' sigma, so it is
measured as its s-free row moved by sigma: atom_rows decides the
s-free row's k_d = 0 atom, a row on it reads c = sigma, and only a
partial row off it is transformed. Coordinate j accepts c, and the rows
after its accepted one are discarded.

oracle.classical_baseline_solve runs controlled_pass too, over s-free
direct pairs that no kernel measures, judged by row_verdicts. classify
turns the per-coordinate records of any run into a SolveOutcome. In
every mode the first accepted candidate is the one a shot-by-shot loop
would accept, and no coordinate takes more than L shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundTooLarge, InfeasibleParameters, InvariantViolation
from .fq import PrimeField
from .instance import ErrorDistribution, LweInstance, sample_errors
from .qsim import CHUNK_ENTRIES, atom_rows, transform_rows
from .reduce import (
    check_histograms,
    check_rows,
    check_window,
    eliminate_rows,
    inverse_row_draws,
)

MODE_CONTROLLED = "controlled"
MODE_ELIMINATION = "elimination"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_WRONG_ACCEPT = "wrong_accept"

_MAX_M = 64

# Rows per coordinate in a refill: FIRST_CHUNK for each controlled coordinate
# not yet run; an open elimination coordinate starts at FIRST_CHUNK and doubles.
FIRST_CHUNK = 4

Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
# Per row of a refill: its candidate offset c0, the tests it uses and its verdict
Verdicts = tuple[list[int], list[int], list[bool]]
# k -> the verdicts of k s-free rows
Refill = Callable[[int], Verdicts]
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
    """The amplified error bound xi' = kappa * xi. Raises ValueError, worded
    "field: rule, got value", for a kappa that is not positive and finite,
    for xi < 0, for a kappa * xi that is not an integer and for a positive
    kappa * xi that rounds to xi' = 0; the rounding forgives float error only."""
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa: must be positive and finite, got {kappa}")
    if xi < 0:
        raise ValueError(f"xi: must be non-negative, got {xi}")
    xi_prime = round(kappa * xi)
    if abs(kappa * xi - xi_prime) > 1e-9:
        raise ValueError(f"kappa/xi: kappa * xi = {kappa * xi} is not an integer bound")
    if xi_prime == 0 < kappa * xi:
        raise ValueError(f"kappa/xi: a positive kappa * xi must be at least 1, got {kappa * xi}")
    return xi_prime


def amplified_law(chi: ErrorDistribution, xi_prime: int) -> ErrorDistribution:
    """chi' = the law of the errors at the amplified bound xi' = kappa xi:
    chi's kind on [-xi', xi'], with gaussian width sigma' = kappa sigma,
    the width of kappa eta before rounding. A sigma at its default xi/3
    gives chi' at its default xi'/3, computed as such, and a window of
    one value (xi or xi' = 0) has no width to scale."""
    if chi.sigma is None or 0 in (chi.xi, xi_prime) or chi == ErrorDistribution(chi.kind, chi.xi):
        return ErrorDistribution(chi.kind, xi_prime)
    return ErrorDistribution(chi.kind, xi_prime, sigma=chi.sigma * xi_prime / chi.xi)


def choose_parameters(
    n: int, q: int, xi: int, kappa: float, delta: float, gamma: float = 0.125
) -> SolveParameters:
    """Derive (L, M, xi', C) for the requested failure budget delta.

    At xi' = 0 only nulls (k* = 0, probability 1/q per shot) fail a
    coordinate, so L is the least with q^-L <= delta/n. A bad field raises ValueError,
    InvalidModulus (q) or BoundTooLarge (2 max(xi, xi') >= q), worded "field: rule,
    got value". InfeasibleParameters means only that no budget fits: L would exceed
    q, or no M <= 64 pushes the false-accept bound under delta/n.
    """
    if n < 1:
        raise ValueError(f"n: must be at least 1, got {n}")
    if not 0 < gamma < 0.25:
        raise ValueError(f"gamma: must lie in (0, 1/4), got {gamma}")
    if not 0 < delta < 1:
        raise ValueError(f"delta: must lie in (0, 1), got {delta}")
    PrimeField(q)
    xi_prime = amplified_bound(kappa, xi)
    for field, bound in (("xi", xi), ("kappa/xi", xi_prime)):
        if 2 * bound >= q:
            raise BoundTooLarge(f"{field}: bound must lie below q/2 = {q / 2:g}, got {bound}")
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
    """Refill source of one controlled solve: k -> (c0, tests, accepted) for k rows.

    Each call draws k s-free batches as error histograms, one
    rng.multinomial call over the values of chi' = amplified_law(chi, xi'),
    then k* and the uniforms as sample_bv_stack draws them, and decides
    every row's atom with atom_rows; then one (k, m) block of test pairs:
    t uniform on [1, q) and eta' from chi'. Each row is judged once, by
    _verdicts: an atom row at c0 = 0, a row off it at the stand-in
    c0 = 1. A non-null row off the atom that passes every trial has its
    errors arranged (and, for v_size below q, its inputs drawn), checked
    by check_rows and transformed, and returns its own c0. The window and
    the shared full-field input row are checked once, here, and each
    histogram by check_histograms. Nothing here depends on s.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    q = instance.q
    chi_prime = amplified_law(instance.chi, xi_prime)
    check_window(q, xi_prime, chi_prime)
    values = np.arange(-chi_prime.xi, chi_prime.xi + 1, dtype=np.int64)
    weights = chi_prime.weights()
    pvals = weights / weights.sum()
    size = q if v_size is None else v_size
    inputs = _input_rows(q, v_size, rng)
    if size == q:
        check_rows(q, inputs(1), values[None], xi_prime)  # the row every batch shares
    field = PrimeField(q)
    inverse = field.inverse_table()

    def refill(k: int) -> Verdicts:
        counts = rng.multinomial(size, pvals, size=k)
        check_histograms(counts, size)
        k_star = rng.integers(q, size=k)
        u = rng.random(k)
        atom = atom_rows(q, counts, values, k_star, u)
        t = rng.integers(1, q, size=(k, m))
        eta_t = sample_errors(chi_prime, rng, (k, m))
        c0 = np.where(atom, 0, 1)  # off the atom, the stand-in c0 = 1
        tests, accepted = _verdicts(field, c0, t, eta_t, xi_prime, k_star == 0)
        rows = np.flatnonzero(accepted & ~atom)
        if rows.size:
            a_values = inputs(rows.size)
            eta_values = np.stack([rng.permutation(np.repeat(values, c)) for c in counts[rows]])
            check_rows(q, a_values, eta_values, xi_prime)
            k_d = transform_rows(q, a_values, eta_values, k_star[rows], u[rows])
            # atom_rows put these rows off k_d = 0, even where rounding puts
            # the transform's cdf[0] above u * total.
            c0[rows] = -np.maximum(k_d, 1) % q * inverse[k_star[rows]] % q
        return c0.tolist(), tests.tolist(), accepted.tolist()

    return refill


def elimination_refills(
    instance: LweInstance, m: int, rng: np.random.Generator, v_size: int | None = None
) -> EliminationRefill:
    """Refill source of one elimination solve: coordinate per row -> (k_d, k*, t, b').

    Each call draws the K rows' inputs, a (K, m) block of test inputs t
    uniform on [1, q) and, in one inverse_row_draws call, K * (1 + m)
    elimination rows: the first K make the batches, the rest the test
    pairs, m per row in row order, each eliminated for its row's
    coordinate and checked against its measured bound. Then k* and the
    uniforms, as sample_bv_stack draws them. A batch b' = a' sigma, with
    sigma = r . b its row's EliminationStack.rb, is its noiseless s-free
    row (a', 0) moved by sigma (qsim's shift identity), so its
    k_d = k_d0 - sigma k* with k_d0 drawn from that row, whose k_d0 = 0
    atom holds v_size / q: atom_rows decides it. A full-field row is on
    it and reads k_d = -sigma k*; only partial rows off it are
    transformed, with k_d0 clamped to at least 1 as in controlled_refills.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    q = instance.q
    inputs = _input_rows(q, v_size, rng)
    error_free = np.zeros(1, dtype=np.int64)  # the one value of an s-free row's histogram

    def refill(coords: np.ndarray) -> Rows:
        k = coords.size
        a_values = inputs(k)
        t = rng.integers(1, q, size=(k, m))
        r, e = inverse_row_draws(instance, k * (1 + m), rng)
        batches = eliminate_rows(instance, r[:k], e[:k], a_values, coords)
        tests = eliminate_rows(instance, r[k:], e[k:], t.reshape(-1, 1), np.repeat(coords, m))
        k_star = rng.integers(q, size=k)
        u = rng.random(k)
        off = np.flatnonzero(~atom_rows(q, np.full((k, 1), a_values.shape[1]), error_free, k_star, u))
        a_off, k_d0 = a_values[off], np.zeros(k, dtype=np.int64)
        k_d0[off] = np.maximum(transform_rows(q, a_off, np.zeros_like(a_off), k_star[off], u[off]), 1)
        return (k_d0 - batches.rb * k_star) % q, k_star, t, tests.b_values.reshape(k, m)

    return refill


def _verdicts(
    field: PrimeField, c: np.ndarray, t: np.ndarray, b: np.ndarray, xi_prime: int, null: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The tests each row uses and its verdict: candidate c against the
    row's own (t, b') pairs, whose residuals b' - t c pass when centered
    within xi'. Trials run up to the first failing one, or all M; a null
    uses none and is never accepted."""
    fail = np.abs(field.centered_array(b - t * c[:, None])) > xi_prime
    rejected = fail.any(axis=1)
    tests = np.where(rejected, fail.argmax(axis=1) + 1, t.shape[1])
    tests[null] = 0
    return tests, ~rejected & ~null


def row_verdicts(
    q: int, k_d: np.ndarray, k_star: np.ndarray, t: np.ndarray, b: np.ndarray, xi_prime: int
) -> Verdicts:
    """Per row of an elimination or baseline refill: its candidate
    c = -k_d / k* mod q, the tests it uses and its verdict (_verdicts). A
    null (k* = 0) uses no tests, so the tests used are 0 exactly for nulls."""
    field = PrimeField(q)
    c = (-k_d) % q * field.inverse_table()[k_star] % q
    tests, accepted = _verdicts(field, c, t, b, xi_prime, k_star == 0)
    return c.tolist(), tests.tolist(), accepted.tolist()


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


def controlled_pass(s: np.ndarray, q: int, refill: Refill, budget: int) -> list[CoordinateStats]:
    """Every coordinate of one controlled or baseline solve from one stream of refills.

    A refill judges min(FIRST_CHUNK * coordinates not yet run, shots the
    solve may still take) rows at once. Coordinate j takes rows in order
    up to its first accepted one or `budget` rows and accepts s_j + c0;
    the rows it leaves go to the next coordinate with their verdicts,
    which do not depend on s.
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
                k = min(FIRST_CHUNK * left, left * budget - stats.shots)
                c0s, tests, accepted = refill(k)
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
    rows of its own, judged with the rest by row_verdicts; the cap bounds
    the (K, n, m) arrays the refill builds in reduce. It scans them up to
    its first accepted one and accepts c, and discards the rest.
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
    per batch, the full field when None) must lie in [1, q], xi' and L must be
    non-negative, and 2 xi' must lie below q (BoundTooLarge). Quantum samples
    are checked against the n * L budget.
    """
    if mode not in (MODE_CONTROLLED, MODE_ELIMINATION):
        raise ValueError(f"mode must be {MODE_CONTROLLED!r} or {MODE_ELIMINATION!r}, got {mode!r}")
    for field in ("xi_prime", "L"):
        if getattr(params, field) < 0:
            raise ValueError(f"{field} must be non-negative, got {field}={getattr(params, field)}")
    n, q = instance.n, instance.q
    if 2 * params.xi_prime >= q:
        raise BoundTooLarge(f"xi'={params.xi_prime} does not fit below q/2 for q={q}")
    if v_size is not None and not 1 <= v_size <= q:
        raise ValueError(f"v_size must lie in [1, q={q}], got v_size={v_size}")
    if mode == MODE_CONTROLLED:
        refill = controlled_refills(instance, params.xi_prime, params.M, rng, v_size)
        per_coordinate = controlled_pass(instance.s, q, refill, params.L)
    else:
        refill = elimination_refills(instance, params.M, rng, v_size)
        per_coordinate = elimination_pass(instance.s, q, refill, params.L, params.xi_prime)
    quantum_samples = sum(st.shots for st in per_coordinate)
    if quantum_samples > n * params.L:
        raise InvariantViolation(
            f"consumed {quantum_samples} quantum samples against a budget of {n * params.L}"
        )
    return classify(instance, per_coordinate, quantum_samples)
