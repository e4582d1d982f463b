"""Exact two-register statevector simulation of the transform kernel.

The state of the data register D and input register A is a dense (q, q)
complex grid indexed [d, a]. The kernel applies the q-point Fourier
transform |j> -> (1/sqrt(q)) sum_k w^{jk} |k> with w = exp(2*pi*i/q) to
each register, as a direct dense matrix product: exactness beats FFT
cleverness at these sizes.

Three independent routes to the post-kernel distribution coexist and
must agree (tests enforce it):

1. the dense matrix path, prepare_sample_state -> bv_kernel -> measure;
2. kernel_distribution, the closed-form amplitude grid
   amp[k_d, k*] = (1/(q sqrt(m))) sum_{a'} w^{a' k_d + b'(a') k*};
3. sample_bv_stack, a factored sampler that draws k* first (its
   marginal is exactly uniform, by Parseval over the D register) and
   then k_d from the conditional row. It measures a (k, m) stack of
   batches at once, one row per shot, with one batched length-q
   transform; this is the fast path the solver uses, and
   sample_bv_outcome is its one-row case.

Every phase w^r is read from one cached table, root_table(q), which the
closed forms here and in the oracle share.

Shift identity: a batch b'(a') = a' s + eta'(a') has amplitude
amp_s[k_d, k*] = amp_0[k_d + s k* mod q, k*], where amp_0 belongs to the
s-free batch (a', eta'), so its outcome law is the s-free law with each
column k* moved by s k* along k_d, and the candidate -k_d / k* moves by
+s. The controlled solver measures s-free batches only, in one pool per
solve, and reads coordinate j's candidate as s_j + c0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidLength, InvariantViolation
from .fq import PrimeField, check_dense_size
from .reduce import ReducedBatch

REGISTER_D = "D"
REGISTER_A = "A"

# Norm drift beyond this is an error; never silently renormalize.
NORM_TOL = 1e-8


class MeasurementOutcome(NamedTuple):
    k_d: int
    k_star: int


class TwoQuditState:
    """Unit-norm (q, q) complex amplitude grid over registers (D, A)."""

    __slots__ = ("q", "amps")

    def __init__(self, q: int, amps: np.ndarray, check: bool = True):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (q, q):
            raise InvalidLength(f"amplitude grid must be ({q}, {q}), got {amps.shape}")
        if check:
            drift = abs(float(np.vdot(amps, amps).real) - 1.0)
            if drift > NORM_TOL:
                raise InvariantViolation(f"state norm drifted by {drift:.3e}")
        self.q = q
        self.amps = amps

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@lru_cache(maxsize=16)
def root_table(q: int) -> np.ndarray:
    """table[r] = w^r = exp(2 pi i r / q) for r in [0, q); read-only, shared.

    Built with the same expression the phases were once computed with
    element by element, so a lookup gives bit-identical values.
    """
    table = np.exp(2j * np.pi * np.arange(q, dtype=np.int64) / q)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def _qft_matrix(q: int, inverse: bool) -> np.ndarray:
    check_dense_size(q, q, "the transform matrix")
    ks = np.arange(q, dtype=np.int64)
    phases = np.outer(ks, ks) % q
    sign = -2j if inverse else 2j
    return np.exp(sign * np.pi * phases / q) / np.sqrt(q)


def qft_matrix(q: int, inverse: bool = False) -> np.ndarray:
    """The q-point transform matrix F[k, j] = w^{jk} / sqrt(q)."""
    return _qft_matrix(int(q), bool(inverse)).copy()


def prepare_sample_state(batch: ReducedBatch) -> TwoQuditState:
    """Uniform superposition (1/sqrt(m)) sum |a'>|b'(a')> over the batch."""
    q, m = batch.q, batch.size
    check_dense_size(q, q, "the dense statevector")
    batch.validate()  # a colliding a' would silently overwrite an amplitude
    amps = np.zeros((q, q), dtype=np.complex128)
    amps[batch.a_values, batch.b_values] = 1.0 / np.sqrt(m)
    return TwoQuditState(q, amps)


def qft_register(state: TwoQuditState, register: str, inverse: bool = False) -> TwoQuditState:
    """Apply the transform to one register; returns a new state."""
    f = _qft_matrix(state.q, inverse)
    if register == REGISTER_D:
        amps = f @ state.amps
    elif register == REGISTER_A:
        amps = state.amps @ f.T
    else:
        raise InvalidLength(f"register must be {REGISTER_D!r} or {REGISTER_A!r}, got {register!r}")
    return TwoQuditState(state.q, amps)


def bv_kernel(state: TwoQuditState) -> TwoQuditState:
    """Transform both registers (the tensor product commutes, order is moot)."""
    return qft_register(qft_register(state, REGISTER_D), REGISTER_A)


def measure(state: TwoQuditState, rng: np.random.Generator) -> MeasurementOutcome:
    """Sample one (k_d, k*) from |amplitude|^2. The state is not reused after."""
    p = state.probabilities().ravel()
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise InvariantViolation(f"probability mass {total} is not 1")
    idx = int(np.searchsorted(np.cumsum(p), rng.random() * total, side="right"))
    idx = min(idx, p.size - 1)
    k_d, k_star = divmod(idx, state.q)
    return MeasurementOutcome(k_d=k_d, k_star=k_star)


def extract_candidates(k_d: np.ndarray, k_star: np.ndarray, q: int) -> list[int | None]:
    """Candidate secret coordinate per outcome: (-k_d) * k*^-1 mod q.

    A zero k* pins nothing down; that shot is a null and yields None.
    """
    k_star = np.asarray(k_star, dtype=np.int64) % q
    inv = PrimeField(q).inverse_table()
    cand = (-np.asarray(k_d, dtype=np.int64)) % q * inv[k_star] % q
    return [None if ks == 0 else c for c, ks in zip(cand.tolist(), k_star.tolist())]


def extract_candidate(outcome: MeasurementOutcome, q: int) -> int | None:
    """extract_candidates for one outcome."""
    return extract_candidates(np.array([outcome.k_d]), np.array([outcome.k_star]), q)[0]


def kernel_distribution(batch: ReducedBatch) -> np.ndarray:
    """Closed-form post-kernel probability grid, bypassing the dense state.

    amp[k_d, k*] = (1/(q sqrt(m))) sum_{a'} w^{a' k_d} w^{b'(a') k*},
    evaluated as a rank-m product of two phase tables.
    """
    q, m = batch.q, batch.size
    check_dense_size(q, q, "kernel_distribution")
    ks = np.arange(q, dtype=np.int64)
    roots = root_table(q)
    ea = roots[np.outer(batch.a_values, ks) % q]
    eb = roots[np.outer(batch.b_values, ks) % q]
    amp = ea.T @ eb / (q * np.sqrt(m))
    return np.abs(amp) ** 2


def sample_bv_stack(
    q: int, a_values: np.ndarray, b_values: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One post-kernel measurement per row of a stack of batches.

    Row i holds the pairs (a_values[i], b_values[i]); a_values may be a
    single row that every batch shares, and b_values may hold any
    representative of each b' mod q (an s-free row passes its errors
    eta' as they are). The A-register marginal is exactly uniform for
    any batch of unit-weight pairs with distinct a', so each k* is drawn
    flat; each conditional over k_d is one length-q transform of that
    row's pair phases, all rows in one batched call.
    Phases w^{b' k*} come from root_table(q). When the stack's values
    span fewer than m integers, each row gets a table over that span
    and every phase is one flat take from the k tables; otherwise each
    phase is a direct lookup at b' k* mod q. Both read the same table
    entry. When every row's inputs are 0..q-1 in order, the phases are
    the transform's input as they are, with no scatter.
    Returns the (k_d, k*) arrays; a row whose conditional mass drifts
    from 1 raises InvariantViolation. The stream per call: k bounded
    integers for k*, then k uniform doubles for k_d.
    """
    k, m = b_values.shape
    k_star = rng.integers(q, size=k)
    lo, hi = int(b_values.min()), int(b_values.max())
    span = hi - lo + 1
    if span < m:
        # Row i's table is root_table(q)[v k*_i mod q] for v in [lo, hi].
        table = root_table(q)[np.outer(k_star, np.arange(lo, hi + 1)) % q]
        x = table.ravel().take(b_values + (np.arange(k) * span - lo)[:, None])
    else:
        x = root_table(q)[b_values * k_star[:, None] % q]
    if m != q or not (a_values == np.arange(q)).all():
        # Rows that are not the full field in order scatter into a zero table.
        phases, x = x, np.zeros((k, q), dtype=np.complex128)
        x[np.arange(k)[:, None], a_values] = phases
    g = np.fft.ifft(x, axis=1)  # g[i, k] = (1/q) sum_a x[i, a] w^{a k}
    cdf = g.real**2
    cdf += g.imag**2
    np.cumsum(cdf, axis=1, out=cdf)
    # Thresholds at u * total need no scaled cdf; row i's mass is total[i] * q / m.
    total = cdf[:, -1]
    drift = float(np.abs(total * (q / m) - 1.0).max())
    if drift > NORM_TOL:
        raise InvariantViolation(f"conditional mass drifted from 1 by {drift:.3e}")
    # k_d is the count of cdf <= u * total, i.e. searchsorted(side="right").
    k_d = (cdf <= (rng.random(k) * total)[:, None]).sum(axis=1)
    return np.minimum(k_d, q - 1), k_star


def sample_bv_outcome(batch: ReducedBatch, rng: np.random.Generator) -> MeasurementOutcome:
    """One post-kernel measurement without building the q x q state:
    sample_bv_stack on a one-row stack."""
    k_d, k_star = sample_bv_stack(batch.q, batch.a_values[None], batch.b_values[None], rng)
    return MeasurementOutcome(k_d=int(k_d[0]), k_star=int(k_star[0]))


def sample_bv_outcomes(batch: ReducedBatch, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Vectorized draws from one batch's exact output grid; shape (shots, 2)."""
    q = batch.q
    p = kernel_distribution(batch).ravel()
    p = p / p.sum()
    idx = rng.choice(q * q, size=shots, p=p)
    return np.stack(divmod(idx, q), axis=1)
