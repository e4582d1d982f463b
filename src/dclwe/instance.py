"""LWE instance generation: secrets, bounded error draws, sample streams.

Ground truth (the secret and each sample's error term) is carried for
the measurement harness only. Solver-facing code must consume just the
(a, b) pair of a sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundTooLarge, InvalidLength, InvariantViolation
from .fq import PrimeField, mat_vec

UNIFORM = "uniform"
GAUSSIAN = "gaussian"
_KINDS = (UNIFORM, GAUSSIAN)


@dataclass(frozen=True)
class ErrorDistribution:
    """Noise law on the integer window [-xi, xi].

    kind "uniform" draws each value with equal weight and takes no sigma;
    "gaussian" draws proportionally to exp(-eta^2 / (2 sigma^2))
    truncated to the window, with sigma defaulting to xi / 3.
    """

    kind: str
    xi: int
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"chi_kind: must be {UNIFORM!r} or {GAUSSIAN!r}, got {self.kind!r}")
        if not isinstance(self.xi, (int, np.integer)):
            raise ValueError(f"xi: must be an integer, got {self.xi!r}")
        if self.xi < 0:
            raise ValueError(f"xi: must be non-negative, got {self.xi}")
        if self.kind == UNIFORM and self.sigma is not None:
            raise ValueError("sigma: has no effect with uniform noise")
        if self.kind == GAUSSIAN:
            if self.sigma is None:
                object.__setattr__(self, "sigma", self.xi / 3 if self.xi > 0 else 1.0)
            elif not 0 < self.sigma < np.inf:
                raise ValueError(f"sigma: must be positive and finite, got {self.sigma}")

    def weights(self) -> np.ndarray:
        """Unnormalized weight of each eta in [-xi, xi], in window order."""
        etas = np.arange(-self.xi, self.xi + 1, dtype=np.int64)
        if self.kind == UNIFORM:
            return np.ones_like(etas, dtype=float)
        return np.exp(-(etas.astype(float) ** 2) / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class Sample:
    """One LWE sample; `eta` is ground truth visible to the harness only."""

    a: np.ndarray
    b: int
    eta: int


@dataclass(frozen=True)
class LweInstance:
    n: int
    q: int
    s: np.ndarray
    chi: ErrorDistribution

    @property
    def xi(self) -> int:
        return self.chi.xi


def gen_secret(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform secret in F_q^n."""
    PrimeField(q)
    if n < 1:
        raise InvalidLength(f"n must be at least 1, got {n}")
    return rng.integers(0, q, size=n, dtype=np.int64)


def make_instance(n: int, q: int, chi: ErrorDistribution, rng: np.random.Generator) -> LweInstance:
    if 2 * chi.xi >= q:
        raise BoundTooLarge(f"xi={chi.xi} does not fit below q/2 for q={q}")
    return LweInstance(n=n, q=q, s=gen_secret(n, q, rng), chi=chi)


def sample_errors(
    chi: ErrorDistribution, rng: np.random.Generator, size: int | tuple[int, ...] | None = None
):
    """Draws from chi: one int64 for size=None, else an array of shape `size`.

    Uniform noise takes one bounded-integer draw per value; gaussian
    noise inverts the CDF of chi.weights() with one uniform double per
    value. Either way n scalar draws consume the stream exactly as one
    vector draw of n does, and give the same values.
    """
    if chi.kind == UNIFORM:
        return rng.integers(-chi.xi, chi.xi + 1, size=size, dtype=np.int64)
    cdf = np.cumsum(chi.weights())
    idx = np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right")
    return np.minimum(idx, 2 * chi.xi) - chi.xi


def sample_error(chi: ErrorDistribution, rng: np.random.Generator) -> int:
    """One draw from chi, the scalar form of sample_errors.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
    return int(sample_errors(chi, rng))


def draw_samples(
    instance: LweInstance, rng: np.random.Generator, shape: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block of samples as arrays: inputs (*shape, n), outputs and errors (*shape,).

    One draw of all inputs, then one draw of all errors. The ground-truth
    identity b = a . s + eta mod q with |eta| <= xi is checked once over
    the whole block.
    """
    q = instance.q
    a = rng.integers(0, q, size=(*shape, instance.n), dtype=np.int64)
    eta = sample_errors(instance.chi, rng, shape)
    clean = mat_vec(a, instance.s, q)
    b = (clean + eta) % q
    if eta.size and (int(np.abs(eta).max()) > instance.chi.xi or ((b - clean - eta) % q).any()):
        raise InvariantViolation("generated samples break b = a . s + eta with |eta| <= xi")
    return a, b, eta


def gen_samples(instance: LweInstance, rng: np.random.Generator, count: int) -> list[Sample]:
    """count samples: draw_samples as a list of Sample values.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
    a, b, eta = draw_samples(instance, rng, (count,))
    return [Sample(a=row, b=int(bi), eta=int(e)) for row, bi, e in zip(a, b.tolist(), eta.tolist())]


def samples_to_arrays(samples: Sequence[Sample], q: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack the public parts of samples into (A, b) arrays mod q.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
    a = np.stack([s.a for s in samples]).astype(np.int64) % q
    b = np.array([s.b for s in samples], dtype=np.int64) % q
    return a, b
