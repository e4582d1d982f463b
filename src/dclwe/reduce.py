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

Both build k batches at once, one per row of a stack. elimination_stack
draws a (k, n, n) block of samples, inverts it with one batched
Gauss-Jordan, redraws only the singular matrices, combines all rows in
one vectorised step, and validates the stack against each row's own
measured bound with one check_rows call. elimination_batch is its
one-row case; reduce_to_coordinate and make_test_sample run the same
combination for one input over given samples, and a test pair is an
elimination whose only input is t. synth_reduced_batch is likewise the
one-row case of synth_reduced_stack, and synth_reduced_errors is its
checked error draw, which a controlled refill measures as s-free b'.

Batches store their pairs as parallel arrays (the simulator and the
analysis oracles consume them whole); `pairs()` materializes individual
ReducedPair values when object-level access reads better.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, TextIO

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

    def pairs(self) -> list[ReducedPair]:
        return [
            ReducedPair(
                a_prime=int(a),
                b_prime=int(b),
                eta_prime=int(e),
                coeff_l1=int(c),
                q=self.q,
            )
            for a, b, e, c in zip(
                self.a_values, self.b_values, self.eta_values, self.coeff_l1_values
            )
        ]


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
    """k eliminated batches for one coordinate, one per row; every array is (k, m)
    except the per-row measured amplification and bound."""

    b_values: np.ndarray
    eta_values: np.ndarray  # ground truth, harness only
    coeff_l1_values: np.ndarray
    kappa: np.ndarray  # (k,) worst coeff_l1 of each row
    xi_prime: np.ndarray  # (k,) kappa * xi


def _combine(
    inv_rows: np.ndarray, b: np.ndarray, a_values: np.ndarray, s_j: int, q: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Push each input a' of row i through row i's inverse row.

    inv_rows and b are (k, n): row j of each sample matrix's inverse and
    the matching sample outputs. a_values is (k, m) or one shared (1, m)
    row. The combination of a' is a' * inv_rows[i], so b' = a' * s_j + eta'
    with eta' that combination applied to the hidden errors; eta' is
    recovered from the ground-truth s_j. Returns (b', eta', coeff_l1),
    each (k, m).
    """
    field = PrimeField(q)
    combos = a_values[:, :, None] * inv_rows[:, None, :] % q  # (k, m, n)
    b_values = (combos * b[:, None, :] % q).sum(axis=2) % q
    eta_values = field.centered_array(b_values - a_values * s_j)
    coeff_l1_values = np.abs(field.centered_array(combos)).sum(axis=2)
    return b_values, eta_values, coeff_l1_values


def reduce_to_coordinate(
    samples: Sequence[Sample], j: int, a_target: int, secret: np.ndarray, q: int
) -> ReducedPair:
    """Combine n given samples into one pair for coordinate j with input
    a_target: the one-row, one-input case of the stacked elimination.

    The combination is a_target times row j of the inverse sample
    matrix, so b' = a_target * s_j + eta' where eta' is the same
    combination applied to the hidden errors. The pair's eta_prime is
    recovered from the ground-truth secret for harness use only.
    """
    target = int(a_target) % q
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


def make_test_sample(
    samples: Sequence[Sample], j: int, t_target: int, secret: np.ndarray, q: int
) -> ReducedPair:
    """Deterministic test pair (t, t * s_j + eta') for candidate checking.

    t = 0 would reduce to a pure noise sample and is rejected.
    """
    if int(t_target) % q == 0:
        raise DegenerateTest("test input t = 0 carries no information")
    return reduce_to_coordinate(samples, j, t_target, secret, q)


def synth_reduced_stack(
    s_j: int,
    q: int,
    a_values: np.ndarray,
    k: int,
    xi_prime: int,
    chi_prime,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """k controlled-mode batches for one coordinate, one per row, from
    one (k, m) draw of errors from chi_prime.

    a_values is (k, m), or one (1, m) row of inputs all k batches share.
    Returns (b_values, eta_values), both (k, m), after check_rows.
    """
    eta_values = synth_reduced_errors(q, a_values, k, xi_prime, chi_prime, rng)
    return (a_values * (int(s_j) % q) + eta_values) % q, eta_values


def synth_reduced_errors(
    q: int, a_values: np.ndarray, k: int, xi_prime: int, chi_prime, rng: np.random.Generator
) -> np.ndarray:
    """The (k, m) errors eta' of synth_reduced_stack's batches, checked by
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
    j: int = 0,
    xi: int = 1,
) -> ReducedBatch:
    """Controlled-mode batch over inputs v: synth_reduced_stack's one-row case.

    Every error honors |eta'| <= xi_prime by construction; the recorded
    amplification is the ratio of xi_prime to the reference bound xi.
    """
    a_values = _input_array(v, q)
    b_values, eta_values = synth_reduced_stack(s_j, q, a_values[None], 1, xi_prime, chi_prime, rng)
    kappa = xi_prime / xi if xi > 0 else 1.0
    coeff = math.ceil(kappa) if xi > 0 else 0
    return ReducedBatch(
        j=j,
        q=q,
        a_values=a_values,
        b_values=b_values[0],
        eta_values=eta_values[0],
        coeff_l1_values=np.full(a_values.size, coeff, dtype=np.int64),
        xi_prime=int(xi_prime),
        kappa=kappa,
    )


def elimination_stack(
    instance: LweInstance,
    j: int,
    a_values: np.ndarray,
    rng: np.random.Generator,
    *,
    max_redraws: int = 64,
) -> EliminationStack:
    """k batches for coordinate j by elimination, one per row of the
    (k, m) inputs, each from its own n fresh samples.

    All k sample matrices are drawn and inverted at once; only the
    singular ones are drawn again, and a row still singular after
    max_redraws draws raises SingularMatrix. Within a row, every input
    a' is pushed through the same inverse row. Each row's bound xi' is
    its measured worst-case amplification times the instance bound, and
    one check_rows call validates the stack against those bounds.
    """
    q, n = instance.q, instance.n
    k = a_values.shape[0]
    a, b, _ = draw_samples(instance, rng, (k, n))
    inv, invertible = mat_inverse_stack(a, q)
    draws = 1
    while not invertible.all():
        if draws >= max_redraws:
            raise SingularMatrix(f"no invertible sample matrix in {max_redraws} draws")
        bad = np.flatnonzero(~invertible)
        a_bad, b_bad, _ = draw_samples(instance, rng, (bad.size, n))
        b[bad] = b_bad
        inv[bad], invertible[bad] = mat_inverse_stack(a_bad, q)
        draws += 1

    b_values, eta_values, coeff_l1_values = _combine(
        inv[:, j], b, a_values, int(instance.s[j]), q
    )
    kappa = coeff_l1_values.max(axis=1)
    xi_prime = kappa * instance.xi
    check_rows(q, a_values, eta_values, xi_prime)
    return EliminationStack(b_values, eta_values, coeff_l1_values, kappa, xi_prime)


def elimination_batch(
    instance: LweInstance,
    j: int,
    v: Iterable[int],
    rng: np.random.Generator,
    *,
    max_redraws: int = 64,
) -> ReducedBatch:
    """Batch for coordinate j over inputs v: elimination_stack's one-row case.

    One invertible sample matrix serves the whole batch, so each input's
    error is that row's combined noise scaled by a'.
    """
    a_values = _input_array(v, instance.q)
    stack = elimination_stack(instance, j, a_values[None], rng, max_redraws=max_redraws)
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


def dump_batch(batch: ReducedBatch, fh: TextIO) -> None:
    """One line per pair: `a_prime b_prime eta_prime coeff_l1`."""
    for a, b, e, c in zip(batch.a_values, batch.b_values, batch.eta_values, batch.coeff_l1_values):
        fh.write(f"{int(a)} {int(b)} {int(e)} {int(c)}\n")
