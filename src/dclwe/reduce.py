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
elimination refill reads only r . e from them: its offsets and test
residuals are s-free, and r . b = s_j + r . e is the identity they rest
on. eliminate_rows builds whole batches from such rows for one
coordinate, summing each input's amplification over n contiguous
planes, and validates them against each row's own measured bound with
one check_rows call; it serves elimination_batch (one batch, which the
CLI's probe measures) and the selftest, which checks the identity on
real sample matrices. make_test_sample runs the same combination for
one input t over given samples, since a test pair is an elimination
whose only input is t. synth_reduced_batch draws one controlled batch's
errors and adds them to a' s_j. A controlled refill draws each batch as
its error histogram instead; check_window bounds the window it counts
once per refill source, and check_histograms checks each histogram's
counts.

Batches store their pairs as parallel arrays, which the simulator and
the analysis oracles consume whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BoundTooLarge,
    DegenerateTest,
    DuplicateInput,
    InvalidLength,
    InvariantViolation,
)
from .fq import PrimeField, mat_inverse
from .instance import LweInstance, Sample, sample_errors, samples_to_arrays


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
        """Lengths, then check_rows on the batch as a one-row stack."""
        m = self.a_values.size
        if m == 0:
            raise InvalidLength("batch needs at least one pair")
        if m > self.q:
            raise InvalidLength(f"batch of {m} pairs exceeds field size {self.q}")
        if not (self.b_values.size == self.eta_values.size == self.coeff_l1_values.size == m):
            raise InvalidLength("batch arrays disagree on length")
        check_rows(self.q, self.a_values[None], self.eta_values[None], self.xi_prime)

    @property
    def size(self) -> int:
        return int(self.a_values.size)


def check_rows(q: int, a_values: np.ndarray, eta_values: np.ndarray, xi_prime) -> None:
    """The one structural check on batches, one batch per row of a stack:
    0 <= a' < q, distinct a' within each row, and |eta'| <= xi'.

    a_values is (k, m), or a single (1, m) row that all k rows of the
    (k, m) eta_values share. xi_prime is one bound for every row or a
    (k,) array with each row's own bound.
    """
    if int(a_values.min()) < 0 or int(a_values.max()) >= q:
        raise InvariantViolation(f"batch inputs a' must lie in [0, {q})")
    keys = a_values + q * np.arange(a_values.shape[0])[:, None]  # row r owns [rq, rq + q)
    if int(np.bincount(keys.ravel()).max()) > 1:
        raise DuplicateInput("batch inputs a' must be distinct")
    if (np.abs(eta_values).max(axis=1) > xi_prime).any():
        raise InvariantViolation("batch error exceeds declared bound xi'")


def _input_array(v: Iterable[int], q: int) -> np.ndarray:
    """Sorted inputs mod q from any iterable; the batch checks distinctness."""
    if isinstance(v, (set, frozenset)):
        v = list(v)
    arr = np.sort(np.asarray(v, dtype=np.int64) % q)
    if arr.size == 0:
        raise InvalidLength("v must be nonempty")
    return arr


class EliminationStack(NamedTuple):
    """k eliminated batches, one per row, all for one coordinate; every
    array is (k, m) except the per-row ones marked (k,)."""

    b_values: np.ndarray
    eta_values: np.ndarray  # ground truth, harness only
    coeff_l1_values: np.ndarray
    kappa: np.ndarray  # (k,) worst coeff_l1 of each row
    xi_prime: np.ndarray  # (k,) kappa * xi


def _combine(
    r: np.ndarray, rb: np.ndarray, a_values: np.ndarray, s_j: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push each input a' of row i through row i's inverse row.

    r is (k, n), row j(i) of each sample matrix's inverse, and rb the
    (k,) column r[i] . b[i] mod q of the matching sample outputs. a_values
    is (k, m) or one shared (1, m) row. The combination of a' is a' * r[i],
    linear in a', so b' = a' * rb[i] = a' * s_j + eta' with eta' that
    combination of the hidden errors, recovered from the ground-truth s_j.
    Returns (b', eta', coeff_l1), each (k, m).

    The coefficients are formed as n planes of (k, m) per row, (k, n, m),
    reduced and centered in place, and summed plane by plane, so every
    step runs over whole contiguous rows of m.
    """
    field = PrimeField(q)
    combos = r[:, :, None] * a_values[:, None, :]  # (k, n, m), below q^2
    np.remainder(combos, q, out=combos)
    np.minimum(combos, q - combos, out=combos)  # |centered combos|
    coeff_l1_values = combos.sum(axis=1)
    b_values = a_values * rb[:, None] % q
    eta_values = field.centered_array(b_values - a_values * s_j)
    return b_values, eta_values, coeff_l1_values


def make_test_sample(
    samples: Sequence[Sample], j: int, t_target: int, secret: np.ndarray, q: int
) -> ReducedPair:
    """Test pair (t, t * s_j + eta') for coordinate j from n given samples:
    the one-row, one-input case of the stacked elimination.

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
    rb = (row * b).sum(keepdims=True) % q
    b_prime, eta_prime, coeff_l1 = _combine(
        row[None], rb, np.array([[target]], dtype=np.int64), int(secret[j]), q
    )
    return ReducedPair(
        a_prime=target,
        b_prime=int(b_prime[0, 0]),
        eta_prime=int(eta_prime[0, 0]),
        coeff_l1=int(coeff_l1[0, 0]),
        q=q,
    )


def check_window(q: int, xi_prime: int, chi_prime) -> None:
    """Raise BoundTooLarge unless the declared bound xi' fits below q/2 and
    the controlled error law chi_prime draws within it."""
    if xi_prime < 0 or 2 * xi_prime >= q:
        raise BoundTooLarge(f"xi'={xi_prime} does not fit below q/2 for q={q}")
    if chi_prime.xi > xi_prime:
        raise BoundTooLarge(f"chi bound {chi_prime.xi} exceeds declared xi'={xi_prime}")


def check_histograms(counts: np.ndarray, m: int) -> None:
    """The structural check on batches drawn as error histograms, one per
    row of counts: every count non-negative and each row's counts summing
    to its m pairs. The values counted are a window check_window bounds."""
    if int(counts.min()) < 0 or (counts.sum(axis=1) != m).any():
        raise InvariantViolation(f"error histograms must count m={m} pairs each")


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
    The solver's elimination refill reads r . e, and eliminate_rows forms
    r . b from the ground-truth s_j and e, so neither materialises
    samples; make_test_sample and the selftest check the identity on
    real samples.
    """
    r = rng.integers(0, instance.q, size=(k, instance.n), dtype=np.int64)
    zero = np.flatnonzero(~r.any(axis=1))
    while zero.size:
        r[zero] = rng.integers(0, instance.q, size=(zero.size, instance.n), dtype=np.int64)
        zero = zero[~r[zero].any(axis=1)]
    return r, sample_errors(instance.chi, rng, (k, instance.n))


def eliminate_rows(
    instance: LweInstance, r: np.ndarray, e: np.ndarray, a_values: np.ndarray, j: int
) -> EliminationStack:
    """Batches by elimination for coordinate j, one per row of the (k, m)
    inputs: row i pushes every input a' through its inverse row r[i],
    with r[i] . b = (s_j + r[i] . e[i]) mod q from its hidden errors e[i].

    Each row's bound xi' is its measured worst-case amplification times
    the instance bound, and one check_rows call validates the stack
    against those bounds.
    """
    q = instance.q
    s_j = int(instance.s[j])
    rb = (s_j + (r * e).sum(axis=1)) % q
    b_values, eta_values, coeff_l1_values = _combine(r, rb, a_values, s_j, q)
    kappa = coeff_l1_values.max(axis=1)
    xi_prime = kappa * instance.xi
    check_rows(q, a_values, eta_values, xi_prime)
    return EliminationStack(b_values, eta_values, coeff_l1_values, kappa, xi_prime)


def elimination_batch(
    instance: LweInstance, j: int, v: Iterable[int], rng: np.random.Generator
) -> ReducedBatch:
    """Batch for coordinate j over inputs v: one inverse_row_draws row,
    then eliminate_rows, as a one-row stack.

    One elimination row serves the whole batch, so each input's error is
    that row's combined noise scaled by a'.
    """
    a_values = _input_array(v, instance.q)
    r, e = inverse_row_draws(instance, 1, rng)
    stack = eliminate_rows(instance, r, e, a_values[None], j)
    return ReducedBatch(
        j=j,
        q=instance.q,
        a_values=a_values,
        b_values=stack.b_values[0],
        eta_values=stack.eta_values[0],
        coeff_l1_values=stack.coeff_l1_values[0],
        xi_prime=int(stack.xi_prime[0]),
        kappa=float(stack.kappa[0]),
    )


def kappa_observed(batch: ReducedBatch) -> int:
    """Worst-case measured amplification across the batch."""
    return int(batch.coeff_l1_values.max())
