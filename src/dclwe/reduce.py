"""Reduction of n-dimensional LWE samples to single-coordinate pairs.

A reduced pair fixes one coordinate j of the secret: it looks like a
one-dimensional sample (a', a' * s_j + eta') where eta' is the original
noise pushed through an integer combination of samples. Combining rows
amplifies the error bound by the L1 norm of the centered combination
coefficients, so each pair records that norm and batches record the
worst case over their pairs.

Two ways to build a batch:

- elimination: combine n samples through row j of their matrix's
  inverse; the amplification is whatever the elimination produced,
  and it is measured, never assumed.
- controlled: synthesize pairs whose errors are drawn directly within a
  declared bound xi', so probability statements downstream can be
  checked in isolation from the elimination's amplification behavior.

An elimination row uses only r, row j of its sample matrix's inverse,
and r . b = s_j + r . e, e the matrix's n hidden errors.
inverse_row_draws draws (r, e) directly, with the law of an invertible
sample matrix, so no sample matrix is drawn or inverted. The solver's
elimination refill draws no row, only its s-free c0 and verdict from
offset_law, the law of rho = r . e: r . b = s_j + r . e is the identity
they rest on. eliminate_row pushes a batch's inputs through one such row
and measures each input's amplification; the selftest runs it on real
sample matrices to check that identity, elimination_batch on one drawn
row, and make_test_sample on one input t over given samples, since a
test pair is an elimination whose only input is t. No solve calls these
three or inverse_row_draws. synth_reduced_batch draws one controlled
batch's errors and adds them to a' s_j. A controlled refill draws no
batch, only each row's atom decision by its law over the window
check_window bounds once per refill source.

Batches store their pairs as parallel arrays, which the simulator and
the analysis oracles consume whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BoundTooLarge,
    DegenerateTest,
    DuplicateInput,
    InvalidLength,
    InvariantViolation,
)
from .fq import PrimeField, mat_inverse
from .instance import ErrorDistribution, LweInstance, Sample, sample_errors, samples_to_arrays


@dataclass(frozen=True)
class ReducedPair:
    a_prime: int
    b_prime: int
    eta_prime: int  # ground truth, harness only
    coeff_l1: int
    q: int


@dataclass(frozen=True)
class ReducedBatch:
    j: int
    q: int
    a_values: np.ndarray
    b_values: np.ndarray
    eta_values: np.ndarray  # ground truth, harness only
    coeff_l1_values: np.ndarray
    xi_prime: int
    kappa: float

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        """Lengths, then check_rows on the batch."""
        m = self.a_values.size
        if m == 0:
            raise InvalidLength("batch needs at least one pair")
        if m > self.q:
            raise InvalidLength(f"batch of {m} pairs exceeds field size {self.q}")
        if not (self.b_values.size == self.eta_values.size == self.coeff_l1_values.size == m):
            raise InvalidLength("batch arrays disagree on length")
        check_rows(self.q, self.a_values, self.eta_values, self.xi_prime)

    @property
    def size(self) -> int:
        return int(self.a_values.size)


def check_rows(q: int, a_values: np.ndarray, eta_values: np.ndarray, xi_prime: int) -> None:
    """The one structural check on a batch's (m,) pairs: 0 <= a' < q,
    distinct a', and |eta'| <= xi'."""
    if int(a_values.min()) < 0 or int(a_values.max()) >= q:
        raise InvariantViolation(f"batch inputs a' must lie in [0, {q})")
    if int(np.bincount(a_values).max()) > 1:
        raise DuplicateInput("batch inputs a' must be distinct")
    if int(np.abs(eta_values).max()) > xi_prime:
        raise InvariantViolation("batch error exceeds declared bound xi'")


def _input_array(v: Iterable[int], q: int) -> np.ndarray:
    """Sorted inputs mod q from any iterable; the batch checks distinctness."""
    if isinstance(v, (set, frozenset)):
        v = list(v)
    arr = np.sort(np.asarray(v, dtype=np.int64) % q)
    if arr.size == 0:
        raise InvalidLength("v must be nonempty")
    return arr


def eliminate_row(
    r: np.ndarray, rb: int, a_values: np.ndarray, s_j: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push each input a' of a batch through one inverse row r.

    r is (n,), row j of a sample matrix's inverse, and rb = r . b mod q
    for the matching sample outputs b. The combination of a' is a' * r,
    linear in a', so b' = a' * rb = a' * s_j + eta' with eta' that
    combination of the hidden errors, recovered from the ground-truth
    s_j. Returns (b', eta', coeff_l1) over a_values, coeff_l1 the L1 norm
    of the centered a' * r.
    """
    combos = np.multiply.outer(r, a_values) % q  # (n, m), below q^2 before reduction
    coeff_l1_values = np.minimum(combos, q - combos).sum(axis=0)
    b_values = a_values * rb % q
    eta_values = PrimeField(q).centered_array(b_values - a_values * s_j)
    return b_values, eta_values, coeff_l1_values


def make_test_sample(
    samples: Sequence[Sample], j: int, t_target: int, secret: np.ndarray, q: int
) -> ReducedPair:
    """Test pair (t, t * s_j + eta') for coordinate j from n given samples:
    eliminate_row on the one input t.

    The combination is t times row j of the inverse sample matrix, so
    eta' is the same combination applied to the hidden errors; the
    pair's eta_prime is recovered from the ground-truth secret for
    harness use only. t = 0 would reduce to a pure noise sample and is
    rejected. It stays only for bench/layers.py and the tests, until ROADMAP item 3.
    """
    target = int(t_target) % q
    if target == 0:
        raise DegenerateTest("test input t = 0 carries no information")
    n = len(samples)
    a, b = samples_to_arrays(samples, q)
    if a.shape != (n, n):
        raise InvalidLength(f"need n samples of dimension n, got shape {a.shape}")
    if not 0 <= j < n:
        raise InvalidLength(f"coordinate {j} out of range for n={n}")
    row = mat_inverse(a, q)[j]
    pair = eliminate_row(row, int(row @ b % q), np.array([target], dtype=np.int64), int(secret[j]), q)
    return ReducedPair(target, *(int(x[0]) for x in pair), q)


def check_window(q: int, xi_prime: int, chi_prime) -> None:
    """Raise BoundTooLarge unless the declared bound xi' fits below q/2 and
    the controlled error law chi_prime draws within it."""
    if xi_prime < 0 or 2 * xi_prime >= q:
        raise BoundTooLarge(f"xi'={xi_prime} does not fit below q/2 for q={q}")
    if chi_prime.xi > xi_prime:
        raise BoundTooLarge(f"chi bound {chi_prime.xi} exceeds declared xi'={xi_prime}")


def synth_reduced_batch(
    s_j: int,
    q: int,
    v: Iterable[int],
    xi_prime: int,
    chi_prime,
    rng: np.random.Generator,
    *,
    xi: int = 1,
) -> ReducedBatch:
    """Controlled-mode batch over inputs v: a' s_j + eta', with eta' drawn
    from chi_prime and checked by check_rows as the batch is built.

    Raises BoundTooLarge, before the draw, when xi' does not fit below
    q/2 or chi_prime's bound exceeds xi' (check_window). The recorded
    amplification is the ratio of xi_prime to the reference bound xi.
    """
    a_values = _input_array(v, q)
    check_window(q, xi_prime, chi_prime)
    eta_values = sample_errors(chi_prime, rng, a_values.size)
    kappa = xi_prime / xi if xi > 0 else 1.0
    coeff = math.ceil(kappa) if xi > 0 else 0
    return ReducedBatch(
        j=0,
        q=q,
        a_values=a_values,
        b_values=(a_values * (int(s_j) % q) + eta_values) % q,
        eta_values=eta_values,
        coeff_l1_values=np.full(a_values.size, coeff, dtype=np.int64),
        xi_prime=int(xi_prime),
        kappa=kappa,
    )


def inverse_row_draws(
    instance: LweInstance, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k elimination rows: their (k, n) inverse rows r and (k, n) hidden errors e.

    An elimination row reads only r, row j of the inverse of its n x n
    sample matrix A, and r . b = s_j + r . e, where b = A s + e. For A
    uniform on GL_n(F_q), A^-1 is uniform on GL_n(F_q) too, and GL_n acts
    transitively on nonzero vectors, so r is uniform on F_q^n minus 0, for
    every j; A is drawn independently of e, so r is too. This draws r
    uniform on [0, q)^n, redrawing only the all-zero rows until none is
    left, then e from chi: the law of the rows an invertible draw of
    sample matrices gives, with no sample matrix drawn or inverted.
    elimination_batch forms r . b from the ground-truth s_j and e, so it
    materialises no samples, and no solve calls this; make_test_sample
    and the selftest check the identity on real samples.
    """
    r = rng.integers(0, instance.q, size=(k, instance.n), dtype=np.int64)
    zero = np.flatnonzero(np.einsum("ij->i", r) == 0)  # entries lie in [0, q)
    while zero.size:
        r[zero] = rng.integers(0, instance.q, size=(zero.size, instance.n), dtype=np.int64)
        zero = zero[np.einsum("ij->i", r[zero]) == 0]
    return r, sample_errors(instance.chi, rng, (k, instance.n))


@lru_cache(maxsize=16)
def offset_law(n: int, q: int, chi: ErrorDistribution) -> tuple[float, float]:
    """(P(rho = 0), P(rho = x) for each x != 0) of rho = r . e, r uniform
    on F_q^n minus 0 (inverse_row_draws) and e from chi^n. rho is 0 when
    e = 0 (P0 = chi(0)^n); any other e meets 0 at q^(n-1) - 1 of the
    q^n - 1 rows r and each x != 0 at q^(n-1). At n = 1, P(rho = 0) = chi(0)."""
    p0 = float(chi.weights()[chi.xi] / chi.weights().sum()) ** n
    rows = q**n - 1
    return p0 + (1 - p0) * ((q ** (n - 1) - 1) / rows), (1 - p0) * (q ** (n - 1) / rows)


def elimination_batch(
    instance: LweInstance, j: int, v: Iterable[int], rng: np.random.Generator
) -> ReducedBatch:
    """Batch for coordinate j over inputs v: one inverse_row_draws row
    (r, e), with r . b = s_j + r . e, through eliminate_row. Its bound xi'
    is its measured worst-case amplification times the instance bound.

    One elimination row serves the whole batch, so each input's error is
    that row's combined noise scaled by a'. It stays only for
    bench/layers.py and the tests, until ROADMAP item 3.
    """
    q, s_j = instance.q, int(instance.s[j])
    a_values = _input_array(v, q)
    (r,), (e,) = inverse_row_draws(instance, 1, rng)
    b_values, eta_values, l1 = eliminate_row(r, (s_j + int(r @ e)) % q, a_values, s_j, q)
    kappa = int(l1.max())
    return ReducedBatch(j, q, a_values, b_values, eta_values, l1, kappa * instance.xi, float(kappa))


def kappa_observed(batch: ReducedBatch) -> int:
    """Worst-case measured amplification across the batch. It stays only
    for bench/layers.py and the tests, until ROADMAP item 3."""
    return int(batch.coeff_l1_values.max())
