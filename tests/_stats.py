"""Small statistical helpers shared by the test modules."""

from __future__ import annotations

import math

from dclwe.cli import pooled_chi_square


def binom_3sigma(p: float, trials: int) -> float:
    """Three-sigma half-width of a Bernoulli(p) mean over `trials` draws."""
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def chi_square_ok(counts, probs, shots: int, n_sigma: float = 4.0) -> bool:
    """True when the statistic sits within n_sigma of its chi-square mean."""
    stat, dof = pooled_chi_square(counts, probs, shots)
    return stat <= dof + n_sigma * math.sqrt(2 * dof)
