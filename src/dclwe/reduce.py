"""Reduction of n-dimensional LWE samples to single-coordinate pairs.

A reduced pair fixes one coordinate j of the secret: it looks like a
one-dimensional sample (a', a' * s_j + eta') where eta' is the original
noise pushed through an integer combination of samples. Combining rows
amplifies the error bound by the L1 norm of the centered combination
coefficients, so each pair records that norm and batches record the
worst case over their pairs.

Two ways to build a batch:

- elimination: invert a matrix of n real samples and combine them;
  the amplification is whatever the elimination produced, and it is
  measured, never assumed.
- controlled: synthesize pairs whose errors are drawn directly within a
  declared bound xi', so probability statements downstream can be
  checked in isolation from the elimination's amplification behavior.

Both build k batches at once, one per row of a stack. invertible_draws
draws a (k, n, n) block of samples, inverts it with one batched
Gauss-Jordan and redraws only the singular matrices; eliminate_rows
combines all rows in one vectorised step, each through the inverse row
of its own coordinate, and validates the stack against each row's own
measured bound with one check_rows call. elimination_batch is the two
for one batch of one coordinate; make_test_sample runs the same
combination for one input t over given samples, since a test pair is an
elimination whose only input is t.
synth_reduced_errors is the checked error draw of k controlled batches,
which synth_reduced_batch adds to a' s_j and a controlled refill
measures as s-free b'.

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
    SingularMatrix,
)
from .fq import PrimeField, mat_inverse, mat_inverse_stack
from .instance import LweInstance, Sample, draw_samples, sample_errors, samples_to_arrays

# Draws of one sample matrix before invertible_draws gives up on it.
MAX_REDRAWS = 64


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
    """k eliminated batches, one per row, each for its row's coordinate; every
    array is (k, m) except the per-row measured amplification and bound."""

    b_values: np.ndarray
    eta_values: np.ndarray  # ground truth, harness only
    coeff_l1_values: np.ndarray
    kappa: np.ndarray  # (k,) worst coeff_l1 of each row
    xi_prime: np.ndarray  # (k,) kappa * xi


def _combine(
    inv_rows: np.ndarray, b: np.ndarray, a_values: np.ndarray, s_j: int | np.ndarray, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push each input a' of row i through row i's inverse row.

    inv_rows and b are (k, n): row j(i) of each sample matrix's inverse
    and the matching sample outputs. a_values is (k, m) or one shared
    (1, m) row. The combination of a' is a' * inv_rows[i], linear in a',
    so b' = a' * (inv_rows[i] . b[i]) = a' * s_j + eta' with eta' that
    combination of the hidden errors, recovered from the ground-truth s_j
    (one value or a (k, 1) column). Returns (b', eta', coeff_l1), each (k, m).
    """
    field = PrimeField(q)
    combos = a_values[:, :, None] * inv_rows[:, None, :] % q  # (k, m, n)
    b_values = a_values * ((inv_rows * b).sum(axis=1) % q)[:, None] % q
    eta_values = field.centered_array(b_values - a_values * s_j)
    coeff_l1_values = np.minimum(combos, q - combos).sum(axis=2)  # |centered combos|
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
    b_prime, eta_prime, coeff_l1 = _combine(
        row[None], b[None], np.array([[target]], dtype=np.int64), int(secret[j]), q
    )
    return ReducedPair(
        a_prime=target,
        b_prime=int(b_prime[0, 0]),
        eta_prime=int(eta_prime[0, 0]),
        coeff_l1=int(coeff_l1[0, 0]),
        q=q,
    )


def synth_reduced_errors(
    q: int, a_values: np.ndarray, k: int, xi_prime: int, chi_prime, rng: np.random.Generator
) -> np.ndarray:
    """The (k, m) errors eta' of k controlled-mode batches, one per row of
    a_values ((k, m), or one (1, m) row all k share), checked by
    check_rows. For s_j = 0 they are the batches' outputs b' up to mod q.

    Raises BoundTooLarge when xi' does not fit below q/2 or chi_prime's
    bound exceeds xi'.
    """
    if xi_prime < 0 or 2 * xi_prime >= q:
        raise BoundTooLarge(f"xi'={xi_prime} does not fit below q/2 for q={q}")
    if chi_prime.xi > xi_prime:
        raise BoundTooLarge(f"chi bound {chi_prime.xi} exceeds declared xi'={xi_prime}")
    eta_values = sample_errors(chi_prime, rng, (k, a_values.shape[1]))
    check_rows(q, a_values, eta_values, xi_prime)
    return eta_values


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
    """Controlled-mode batch over inputs v (a' s_j + eta', with eta' from
    synth_reduced_errors).

    Every error honors |eta'| <= xi_prime by construction; the recorded
    amplification is the ratio of xi_prime to the reference bound xi.
    """
    a_values = _input_array(v, q)
    eta_values = synth_reduced_errors(q, a_values[None], 1, xi_prime, chi_prime, rng)[0]
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


def invertible_draws(
    instance: LweInstance, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k fresh invertible n x n sample matrices: their (k, n, n) inverses
    and (k, n) outputs.

    All k matrices are drawn and inverted at once; only the singular
    ones are drawn again, and a matrix still singular after MAX_REDRAWS
    draws raises SingularMatrix.
    """
    a, b, _ = draw_samples(instance, rng, (k, instance.n))
    inv, invertible = mat_inverse_stack(a, instance.q)
    draws = 1
    while not invertible.all():
        if draws >= MAX_REDRAWS:
            raise SingularMatrix(f"no invertible sample matrix in {MAX_REDRAWS} draws")
        bad = np.flatnonzero(~invertible)
        a_bad, b_bad, _ = draw_samples(instance, rng, (bad.size, instance.n))
        b[bad] = b_bad
        inv[bad], invertible[bad] = mat_inverse_stack(a_bad, instance.q)
        draws += 1
    return inv, b


def eliminate_rows(
    instance: LweInstance, inv: np.ndarray, b: np.ndarray, a_values: np.ndarray, j: int | np.ndarray
) -> EliminationStack:
    """Batches by elimination, one per row of the (k, m) inputs: row i
    pushes every input a' through row j(i) of inverse i.

    j is one coordinate for every row or a (k,) array of them. Each
    row's bound xi' is its measured worst-case amplification times the
    instance bound, and one check_rows call validates the stack against
    those bounds.
    """
    inv_rows = inv[np.arange(inv.shape[0]), j]
    s_j = np.reshape(instance.s[j], (-1, 1))
    b_values, eta_values, coeff_l1_values = _combine(inv_rows, b, a_values, s_j, instance.q)
    kappa = coeff_l1_values.max(axis=1)
    xi_prime = kappa * instance.xi
    check_rows(instance.q, a_values, eta_values, xi_prime)
    return EliminationStack(b_values, eta_values, coeff_l1_values, kappa, xi_prime)


def elimination_batch(
    instance: LweInstance, j: int, v: Iterable[int], rng: np.random.Generator
) -> ReducedBatch:
    """Batch for coordinate j over inputs v from n fresh samples:
    invertible_draws, then eliminate_rows, as a one-row stack.

    One invertible sample matrix serves the whole batch, so each input's
    error is that row's combined noise scaled by a'.
    """
    a_values = _input_array(v, instance.q)
    inv, b = invertible_draws(instance, 1, rng)
    stack = eliminate_rows(instance, inv, b, a_values[None], j)
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
