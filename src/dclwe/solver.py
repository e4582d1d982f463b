"""Coordinate-by-coordinate secret recovery with retry and test budgets.

Each coordinate j gets up to L shots. A shot measures a fresh reduced
batch after the transform kernel and gives a candidate; a null outcome
(k* = 0) consumes the shot. Candidates face an M-trial residual test and
the first accepted one settles the coordinate. A run is classified
against the ground-truth secret as success (all coordinates correct),
failure (some coordinate never accepted a candidate), or wrong_accept
(a full vector was returned but some coordinate is wrong).

Budgets follow the retry calculus: with per-shot success probability at
least C/xi' (C = gamma * cos^2(2*pi*gamma)) the coordinate-failure rate
drops below delta/n at L = ceil((xi'/C) * ln(n/delta)). At xi' = 0 that
term is 0 and only nulls fail a coordinate, so L = ceil(ln(n/delta) / ln q),
the least with q^-L <= delta/n. M is the least trial count pushing the false-accept union bound L*((2*xi'+1)/q)^M
under delta/n.

Every solve, controlled, elimination or the classical baseline, is one
controlled_pass over refills drawn from the solve's one stream. A refill
judges k s-free rows at once: each row carries its candidate offset c0
and its verdict, the tests it uses and whether it is accepted. Coordinate
j reads a row's candidate as s_j + c0 with that verdict, which does not
depend on s, so the pass hands rows out in order and the rows a settled
coordinate leaves go to the next one, which counts them into its
CoordinateStats, built once. One rule sizes every refill in rows, by the
rows the solve has used, up to REFILL_ROWS at any q (controlled_pass): a
refill's fixed cost far outweighs its rows', so a solve opens few, and a
coordinate that never settles costs O(log L).

Every refill is one body, _refills, over one sampler, _shots, at its
mode's (nu, p_c). A row reads c0 = rho on the k_d = 0 atom and
c0 = rho + U off it, with U uniform on [1, q), so no solve runs a
transform: given a row's error histogram, and averaged over its inputs V
and the arrangement of its errors over them, which no refill reads
anywhere else, its k_d off the atom is exactly uniform on [1, q)
(exchangeability), and so is -k_d / k*. A verdict reads only whether
c0 = 0 and an accepted value c0, so one uniform places a row, a null
(k* = 0, its c0 never read) with nu and else c0 = 0 with p_c, and U is
drawn for the accepted rows off the atom alone. No solve draws a test
pair either: given c0, a row's M trials are i.i.d., passing with pi_c at
c0 = 0 and pi_w elsewhere (verify.trial_pass_rates), so a second uniform
draws its verdict by that law. A solve holds one refill's arrays and the
(2, M + 1) _powers table at a time, and no q-sized array.

- controlled_refills, nu = 1/q: s-free batches (a', eta'), rho = 0. By
  the Fourier shift theorem the coordinate-j batch (a', a' s_j + eta')
  has the s-free law moved by s_j k* along k_d, so c0 = -k_d / k* reads
  as s_j + c0 for every coordinate, with the same verdict. Only the atom
  decision reads the row's errors and, past the null, its k*: it uses
  their mean, p_c = qsim.atom_mass(q, chi', m). A test pair
  (t, t s_j + eta') leaves the residual eta' - t c0, within xi' at c0 = 0.
- elimination_refills, nu = 1/q: a row's inverse row r and hidden errors
  e give r . b = s_j + r . e, so its batch b' = a' (r . b) is the
  noiseless s-free row (a', 0) moved by rho = r . e, on its atom with
  share = v_size / q = m / q. rho, with (on, off) = reduce.offset_law,
  is independent of the atom and U, and rho + U is 0 with
  (1 - on) / (q - 1) = off, so c0 = 0 with p_c = share on +
  (1 - share) off and is uniform on [1, q) otherwise: no inverse row or
  error is drawn. A test pair (t, t (s_j + rho')) leaves the residual
  t (rho' - c0).
- baseline_refills, nu = 0: the classical baseline's direct pairs
  (a', a' s_j + eta'), with no kernel and so no null: c0 = eta' a'^-1 is
  0 with p_c = chi'(0) and uniform on [1, q) otherwise, as a' is.
  oracle.classical_baseline_solve runs them.

classify turns the per-coordinate records of any run into a
SolveOutcome. In every mode the first accepted candidate is the one a
shot-by-shot loop would accept, and no coordinate takes more than L
shots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import BoundTooLarge, InfeasibleParameters, InvariantViolation
from .fq import PrimeField
from .instance import ErrorDistribution, LweInstance
from .qsim import atom_mass
from .reduce import offset_law
from .verify import trial_pass_rates

MODE_CONTROLLED = "controlled"
MODE_ELIMINATION = "elimination"

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_WRONG_ACCEPT = "wrong_accept"

_MAX_M = 64

# Rows a refill holds at least for each coordinate not yet run, within the
# budget (controlled_pass).
FIRST_CHUNK = 8

# The rate term of a refill stops at REFILL_ROWS rows at any q (controlled_pass):
# rows cost the same at every q, and 256 cost about one refill's fixed cost, so
# the cap bounds what the term wastes when it runs ahead of the rows used.
REFILL_ROWS = 256

# Per row of a refill: its candidate offset c0, the tests it uses and its verdict
Verdicts = tuple[list[int], list[int], list[bool]]
# k -> the verdicts of k s-free rows
Refill = Callable[[int], Verdicts]


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


@lru_cache(maxsize=16)
def _powers(pi_c: float, pi_w: float, m: int) -> np.ndarray:
    """The read-only (2, M + 1) table pi^1 .. pi^M, 0: row 0 pi_c, row 1 pi_w."""
    table = np.zeros((2, m + 1))
    table[:, :m] = np.array([[pi_c], [pi_w]]) ** np.arange(1, m + 1)
    table.flags.writeable = False
    return table


def _refills(
    m: int, q: int, rng: np.random.Generator, nu: float, p_c: float, pi_c: float, pi_w: float
) -> Refill:
    """k -> (c0, tests, accepted) for k rows of _shots(rng, nu, p_c, k).
    A row's M trials pass i.i.d. with pi = pi_c on the atom and pi_w off
    it, so its u passes passed = #{i <= M : u < pi^i} of them,
    P(passed >= i) = pi^i: the first column of its _powers row, picked by
    its off mask, that u does not lie below (argmin). It uses
    min(passed + 1, M) tests; a null uses none and is never accepted. An
    accepted row off the atom reads c0 = U, drawn only then, in one call for
    the refill; a rejected one c0 = 1, which the pass reads only as nonzero."""
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    powers = _powers(pi_c, pi_w, m)

    def refill(k: int) -> Verdicts:
        null, off, u = _shots(rng, nu, p_c, k)
        passed = (u[:, None] < powers.take(off.view(np.int8), axis=0)).argmin(axis=1)
        passed[null] = -1
        accepted = passed == m
        c0 = off.astype(np.int64)
        hits = np.flatnonzero(off & accepted)
        if hits.size:
            c0[hits] = rng.integers(1, q, size=hits.size)
        return c0.tolist(), np.minimum(passed + 1, m).tolist(), accepted.tolist()

    return refill


def _shots(rng: np.random.Generator, nu: float, share: float, k: int) -> tuple[np.ndarray, ...]:
    """k s-free rows from one (2, k) block of uniforms (y, u): y places a
    row, a null below nu, on the atom below nu + (1 - nu) share and off it
    above, and u draws its verdict. Returns the null mask, the off mask and u."""
    y, u = rng.random((2, k))
    return y < nu, y >= nu + (1 - nu) * share, u


def controlled_refills(
    instance: LweInstance, xi_prime: int, m: int, rng: np.random.Generator, v_size: int | None = None
) -> Refill:
    """Refill source of one controlled solve: k -> (c0, tests, accepted)
    for k rows at nu = 1/q, with rho = 0, the atom_mass of chi' =
    amplified_law(chi, xi') over v_size inputs and the pass rates (1, r).
    solve checks the window; nothing here depends on s, and no error is
    drawn."""
    q = instance.q
    share = atom_mass(q, amplified_law(instance.chi, xi_prime), q if v_size is None else v_size)
    return _refills(m, q, rng, 1 / q, share, *trial_pass_rates(1.0, 0.0, xi_prime, q))


def elimination_refills(
    instance: LweInstance, xi_prime: int, m: int, rng: np.random.Generator, v_size: int | None = None
) -> Refill:
    """Refill source of one elimination solve: k -> (c0, tests, accepted)
    for k rows at nu = 1/q and p_c = share on + (1 - share) off, with (on,
    off) = reduce.offset_law and share = v_size / q, and the pass rates of
    that rho'. Nothing here depends on s."""
    q = instance.q
    on, off = offset_law(instance.n, q, instance.chi)
    share = (q if v_size is None else v_size) / q
    p_c = share * on + (1 - share) * off
    return _refills(m, q, rng, 1 / q, p_c, *trial_pass_rates(on, off, xi_prime, q))


def baseline_refills(
    instance: LweInstance, xi_prime: int, m: int, rng: np.random.Generator
) -> Refill:
    """Refill source of the classical baseline: k -> (c0, tests, accepted)
    for k rows at nu = 0 and p_c = chi'(0) = offset_law(1, q, chi')[0],
    chi' = amplified_law(chi, xi'); pass rates (1, r)."""
    q = instance.q
    chi_zero = offset_law(1, q, amplified_law(instance.chi, xi_prime))[0]
    return _refills(m, q, rng, 0.0, chi_zero, *trial_pass_rates(1.0, 0.0, xi_prime, q))


def controlled_pass(s: np.ndarray, q: int, refill: Refill, budget: int) -> list[CoordinateStats]:
    """Every coordinate of one solve, in any mode, from one stream of refills.

    A refill opened by coordinate j judges k = min(max(FIRST_CHUNK * left,
    shots, min(4 * left * drawn // (j + 1), REFILL_ROWS)),
    left * budget - shots) rows at once, where left counts the coordinates
    not yet run, this one included, drawn the rows drawn so far in this
    solve and shots those of coordinate j. A refill opens only when every
    row drawn has been used, so drawn / (j + 1) is the mean rows used by
    each coordinate reached, and the refill holds four times that for each
    coordinate left, up to REFILL_ROWS rows at any q. A refill costs
    about 11 us in any mode and about 0.04 us a row, and the pass about
    0.15 us a row it takes (2-core Xeon, numpy 2.4), so 256 rows cost about
    one refill's fixed cost, and sizing by the rows used opens few refills
    per solve, for some rows drawn and left unused. The shots term at least
    doubles the rows of a coordinate that never settles, so it costs
    O(log L) refills wherever it sits, and no refill holds more rows than
    the solve may still take. Coordinate j takes rows in order up to its
    first accepted one or `budget` rows and accepts s_j + c0; the rows it
    leaves go to the next coordinate with their verdicts, which do not
    depend on s, so the size of a refill moves the stream but not the law
    of a solve.
    """
    n = len(s)
    c0s: list[int] = []
    tests: list[int] = []
    accepted: list[bool] = []
    row = end = 0  # next unused row of the current refill, and its length
    drawn = 0  # rows drawn so far in this solve
    per_coordinate = []
    for j in range(n):
        left = n - j  # coordinates not yet run, this one included
        s_j = int(s[j]) % q
        shots = nulls = used = true_rejections = 0
        value = None
        while shots < budget:
            if row == end:
                rate = min(4 * left * drawn // (j + 1), REFILL_ROWS)
                k = min(max(FIRST_CHUNK * left, shots, rate), left * budget - shots)
                c0s, tests, accepted = refill(k)
                drawn += k
                row, end = 0, len(c0s)
            i = row
            row += 1
            shots += 1
            if not tests[i]:  # a null only consumes its shot
                nulls += 1
                continue
            used += tests[i]
            if accepted[i]:
                value = (s_j + c0s[i]) % q
                break
            true_rejections += c0s[i] % q == 0  # rejected while reading s_j
        per_coordinate.append(
            CoordinateStats(j, shots, nulls, shots - nulls, used, value, true_rejections)
        )
    return per_coordinate


def classify(
    instance: LweInstance, per_coordinate: list[CoordinateStats], quantum_samples: int
) -> SolveOutcome:
    """Classify a run by its accepted values against the ground-truth secret."""
    test_samples = sum(st.tests_used for st in per_coordinate)
    values = [st.accepted_value for st in per_coordinate]
    if None in values:
        return SolveOutcome(OUTCOME_FAILURE, None, per_coordinate, quantum_samples, test_samples)
    correct = values == (instance.s % instance.q).tolist()
    outcome = OUTCOME_SUCCESS if correct else OUTCOME_WRONG_ACCEPT
    returned = np.array(values, dtype=np.int64)
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

    Either mode is one controlled_pass over its refills, controlled_refills
    or elimination_refills, drawn from `rng`. Before the first draw, v_size
    (inputs per batch, the full field when None) must lie in [1, q], xi' and
    L must be non-negative, and 2 xi' must lie below q (BoundTooLarge):
    this is the one gate, and no refill source checks again. Quantum
    samples are checked against the n * L budget.
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
    refills = controlled_refills if mode == MODE_CONTROLLED else elimination_refills
    refill = refills(instance, params.xi_prime, params.M, rng, v_size)
    per_coordinate = controlled_pass(instance.s, q, refill, params.L)
    quantum_samples = sum(st.shots for st in per_coordinate)
    if quantum_samples > n * params.L:
        raise InvariantViolation(
            f"consumed {quantum_samples} quantum samples against a budget of {n * params.L}"
        )
    return classify(instance, per_coordinate, quantum_samples)
