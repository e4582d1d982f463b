"""Closed-form probabilities, bounds, baselines, and cost bookkeeping.

Everything here is an independent route to a number the simulator can
also produce empirically: the exact per-shot success probability of a
batch, its analytic lower bound, the wrong-accept bound, the classical
direct-candidate baseline, a coordinate's success, shots and tests
under a row law (solver.row_law), and the query-cost table for the
four memory layouts. Keeping these routes separate from the
statevector path is the point; tests compare them with it, and the
closed forms import nothing from the simulator. The baseline alone
runs the solver's loop: solver.gated_pass at the baseline's row_law,
nu = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLength
from .instance import LweInstance
from .reduce import ReducedBatch
from .solver import MODE_BASELINE, SolveOutcome, amplified_bound, classify, gated_pass
from .verify import FalseAcceptBound, false_accept_probability

SCHEME_PRIMITIVE = "primitive"
SCHEME_BUCKET = "bucket_brigade"
FORM_FULL = "full"
FORM_DIVIDED = "divided"


@dataclass(frozen=True)
class BoundReport:
    q: int
    xi_prime: int
    gamma: float
    batch_size: int
    exact_p: float
    lower_bound: float
    violated: bool


def exact_success_probability(batch: ReducedBatch) -> float:
    """Probability that one shot lands on the correlated ridge k_d = -s_j k*.

    The ridge mass is (1/(q^2 m)) sum_{k*} |sum_{a'} w^{eta'(a') k*}|^2
    over the batch's ground-truth errors, k* = 0 included, so a noiseless
    full-field batch scores exactly 1. By Parseval over k* it equals
    sum_r c_r^2 / (q m), where c_r counts the pairs with eta' = r mod q:
    O(m) time and memory, no phase table. The ridge mass depends only on
    the stored errors, never on s_j.
    """
    counts = np.unique(batch.eta_values % batch.q, return_counts=True)[1]
    return float(counts @ counts / (batch.q * batch.size))


def lower_bound_p(gamma: float, batch_size: int, xi_prime: int, q: int) -> float:
    """Analytic floor gamma * m * cos^2(2 pi gamma) / (xi' q) on the ridge mass.

    Valid for 0 <= gamma < 1/4 and xi' >= 1; gamma = 0 keeps no k*
    window at all and the bound degenerates to 0.
    """
    if not 0 <= gamma < 0.25:
        raise ValueError(f"gamma must lie in [0, 1/4), got {gamma}")
    if xi_prime < 1:
        raise ValueError(f"lower bound needs xi' >= 1, got {xi_prime}")
    if not 1 <= batch_size <= q:
        raise InvalidLength(f"batch size {batch_size} out of range for q={q}")
    return gamma * batch_size * math.cos(2 * math.pi * gamma) ** 2 / (xi_prime * q)


def bound_report(batch: ReducedBatch, gamma: float) -> BoundReport:
    exact = exact_success_probability(batch)
    bound = lower_bound_p(gamma, batch.size, batch.xi_prime, batch.q)
    return BoundReport(
        q=batch.q,
        xi_prime=batch.xi_prime,
        gamma=gamma,
        batch_size=batch.size,
        exact_p=exact,
        lower_bound=bound,
        violated=bool(exact < bound - 1e-10),
    )


def prob_iii_bound(l_budget: int, kappa: float, alpha: float, m: int, q: int) -> FalseAcceptBound:
    """Wrong-accept probability bound after L candidates of M trials each:
    L times the per-candidate false_accept_probability, in its reporting
    form L * (2 kappa alpha)^M and its exact-count form L * ((2 xi' + 1)/q)^M.
    """
    if l_budget < 1:
        raise ValueError(f"L must be at least 1, got {l_budget}")
    per_candidate = false_accept_probability(kappa, alpha, q, m)
    return FalseAcceptBound(exact=l_budget * per_candidate.exact, approx=l_budget * per_candidate.approx)


def coordinate_law(
    nu: float, p_c: float, pi_c: float, pi_w: float, l_budget: int, m: int
) -> tuple[float, float, float]:
    """(P(success), E[shots], E[tests]) of a coordinate of at most L i.i.d.
    shots: a null with nu, else a candidate, correct with p_c, whose M
    trials each pass with pi_c if correct and pi_w if wrong, up to the
    first failing one. A shot settles it with A = A_c + A_w, A_c =
    (1 - nu) p_c pi_c^M and A_w = (1 - nu)(1 - p_c) pi_w^M; E[tests]
    follows from E[shots] by Wald's identity.
    """
    if l_budget < 1 or m < 1:
        raise ValueError(f"L and M must be at least 1, got L={l_budget}, M={m}")
    a_c = (1 - nu) * p_c * pi_c**m
    a = a_c + (1 - nu) * (1 - p_c) * pi_w**m
    settled = -math.expm1(l_budget * math.log1p(-a)) if a < 1 else 1.0
    shots = settled / a if a > 0 else float(l_budget)
    trials = sum(p_c * pi_c**i + (1 - p_c) * pi_w**i for i in range(m))
    return (a_c / a * settled if a > 0 else 0.0), shots, shots * (1 - nu) * trials


def classical_baseline_solve(
    instance: LweInstance,
    kappa: float,
    m: int,
    trial_budget: int,
    rng: np.random.Generator,
) -> SolveOutcome:
    """Classical control: read the candidate straight off one reduced pair.

    Coordinate j's pair (a', a' s_j + eta'), with eta' at the amplified
    bound xi' = kappa * xi, gives s~ = b' * a'^-1 = s_j + c0 with the
    s-free offset c0 = eta' * a'^-1, run as solver.gated_pass at the
    baseline's solver.row_law. The candidate is correct only when eta'
    vanished, so with uniform errors the per-coordinate rate is
    1/(2 xi' + 1) and the full-solve rate decays geometrically in n.
    Refuses trial_budget or m below 1, kappa <= 0, a non-integer
    kappa * xi and 2 xi' >= q before any draw.
    """
    if trial_budget < 1:
        raise ValueError(f"trial_budget must be at least 1, got {trial_budget}")
    xi_prime = amplified_bound(kappa, instance.xi)
    per_coordinate = gated_pass(instance, MODE_BASELINE, xi_prime, m, trial_budget, rng)
    return classify(instance, per_coordinate, quantum_samples=0)  # no kernel shots


def qram_cost(q: int, n: int, d: int, scheme: str, sample_form: str) -> float:
    """Query cost of one memory access for the four layout combinations.

    full + primitive scales as q^(n/d); full + bucket_brigade as
    n log2 q; divided + primitive as q^(1/d); divided + bucket_brigade
    as log2 q. Constants are taken as 1.
    """
    if q < 2 or n < 1 or d < 1:
        raise InvalidLength(f"need q >= 2, n >= 1, d >= 1; got q={q}, n={n}, d={d}")
    if sample_form == FORM_FULL:
        if scheme == SCHEME_PRIMITIVE:
            return float(q ** (n / d))
        if scheme == SCHEME_BUCKET:
            return float(n * math.log2(q))
    elif sample_form == FORM_DIVIDED:
        if scheme == SCHEME_PRIMITIVE:
            return float(q ** (1 / d))
        if scheme == SCHEME_BUCKET:
            return float(math.log2(q))
    raise ValueError(f"unknown scheme/sample_form combination ({scheme!r}, {sample_form!r})")
