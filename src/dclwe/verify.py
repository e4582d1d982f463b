"""Candidate verification by repeated residual tests.

A candidate s~ for one secret coordinate is checked against fresh test
pairs (t, b') by the centered residual |b' - t*s~ mod q|. The true
value always lands within the error bound; a wrong value survives one
trial only if t happens to drop the residual into the acceptance
window, which a uniform nonzero t does with probability below
(2*xi' + 1)/q. M independent trials drive the false-accept rate down
geometrically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateTest
from .fq import PrimeField
from .instance import ErrorDistribution
from .reduce import ReducedPair


@dataclass(frozen=True)
class TestVerdict:
    accepted: bool
    trials_used: int
    deltas: tuple[int, ...]


class FalseAcceptBound(NamedTuple):
    exact: float  # ((2 xi' + 1)/q)^M
    approx: float  # (2 kappa alpha)^M


def delta(test_pair: ReducedPair, s_tilde: int) -> int:
    """Centered residual magnitude |b' - t * s~| for one test pair."""
    q = test_pair.q
    t = test_pair.a_prime % q
    if t == 0:
        raise DegenerateTest("test input t = 0 carries no information")
    return abs(PrimeField(q).centered(test_pair.b_prime - t * (int(s_tilde) % q)))


def m_trial_test(
    s_tilde: int,
    m: int,
    xi_prime: int,
    test_source: Callable[[], ReducedPair],
) -> TestVerdict:
    """Accept s~ iff M consecutive fresh test pairs keep the residual
    within xi'. Stops at the first violation."""
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    deltas: list[int] = []
    for i in range(m):
        d = delta(test_source(), s_tilde)
        deltas.append(d)
        if d > xi_prime:
            return TestVerdict(accepted=False, trials_used=i + 1, deltas=tuple(deltas))
    return TestVerdict(accepted=True, trials_used=m, deltas=tuple(deltas))


def false_accept_probability(kappa: float, alpha: float, q: int, m: int) -> FalseAcceptBound:
    """Per-candidate false-accept bound after M trials.

    The exact per-trial bound counts acceptance-window residues,
    (2 xi' + 1)/q with xi' = kappa * alpha * q; the companion value is
    the (2 kappa alpha)^M approximation used for reporting.
    """
    if m < 1:
        raise ValueError(f"M must be at least 1, got {m}")
    xi_prime = kappa * alpha * q
    xi_int = round(xi_prime)
    if abs(xi_prime - xi_int) > 1e-9:
        raise ValueError(f"kappa * alpha * q = {xi_prime} is not an integer bound")
    per_trial = (2 * xi_int + 1) / q
    if per_trial > 1.0:
        raise ValueError(f"window 2*xi'+1 = {2 * xi_int + 1} exceeds the field size {q}")
    return FalseAcceptBound(exact=per_trial**m, approx=(2 * kappa * alpha) ** m)


def single_trial_pass_rate(
    s_true: int,
    s_tilde: int,
    chi_prime: ErrorDistribution,
    xi_prime: int,
    q: int,
) -> float:
    """Exhaustive single-trial pass probability for a candidate.

    Enumerates every nonzero t and every error value with its weight;
    no sampling involved, so this serves as the oracle for Monte Carlo
    rates. For the true candidate this is 1 whenever chi' respects xi'.
    """
    field = PrimeField(q)
    gap = (int(s_true) - int(s_tilde)) % q
    etas = np.arange(-chi_prime.xi, chi_prime.xi + 1, dtype=np.int64)
    weights = chi_prime.weights()
    ts = np.arange(1, q, dtype=np.int64)
    resid = field.centered_array((ts[:, None] * gap + etas[None, :]) % q)
    passing = (np.abs(resid) <= xi_prime) @ weights
    return float(passing.sum() / ((q - 1) * weights.sum()))
