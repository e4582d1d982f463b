"""Exact two-register statevector simulation of the transform kernel.

The state of the data register D and input register A is a dense (q, q)
complex grid indexed [d, a]. The kernel applies the q-point Fourier
transform |j> -> (1/sqrt(q)) sum_k w^{jk} |k> with w = exp(2*pi*i/q) to
each register, as a direct dense matrix product: exactness beats FFT
cleverness at these sizes.

Three independent routes to the post-kernel distribution coexist and
must agree (tests enforce it):

1. the dense matrix path, prepare_sample_state -> bv_kernel ->
   TwoQuditState.probabilities(), where bv_kernel transforms both
   registers at once as F amps F;
2. kernel_distribution, the closed-form amplitude grid
   amp[k_d, k*] = (1/(q sqrt(m))) sum_{a'} w^{a' k_d + b'(a') k*},
   an oracle that nothing samples from;
3. sample_bv_stack, a factored sampler that draws k* first (its
   marginal is exactly uniform, by Parseval over the D register) and
   then k_d from the conditional row. It measures a (k, m) stack of
   batches at once, one row per shot: it draws every row's k* and
   uniform, then transform_rows draws every row's k_d, one batched
   length-q transform per block of max(1, CHUNK_ENTRIES // q) rows.
   sample_bv_outcome is its one-row view and sample_bv_outcomes its view
   of one batch repeated. Each block builds its own tables and shares
   no state with another call, so the sampler is re-entrant.

No solve runs the transform. The solver's refills draw k* and the
uniforms as the sampler does and decide each row's k_d = 0 atom by
atom_law, the atom's mass given k* averaged over the row's i.i.d.
errors, (1 + (m - 1) |phi(k*)|^2) / q with phi the errors' Fourier
coefficient. Off the atom, averaged over the inputs and error
arrangement that no refill reads, k_d is exactly uniform on [1, q); the
tests check both laws against kernel_distribution by enumeration at
small q. transform_rows serves sample_bv_stack only: the `bounds` Monte
Carlo column, the selftest and the one-row form.

Every phase w^r is read from one cached table, root_table(q), which the
closed forms here and in the oracle share.

Shift identity: a batch b'(a') = a' s + eta'(a') has amplitude
amp_s[k_d, k*] = amp_0[k_d + s k* mod q, k*], where amp_0 belongs to the
s-free batch (a', eta'), so its outcome law is the s-free law with each
column k* moved by s k* along k_d, and the candidate -k_d / k* moves by
+s. So the solver draws s-free rows only, in one pool per solve, and
reads coordinate j's candidate as s_j + c0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidLength, InvariantViolation
from .fq import PrimeField, check_dense_size
from .instance import ErrorDistribution
from .reduce import ReducedBatch

# Norm drift beyond this is an error; never silently renormalize.
NORM_TOL = 1e-8

# Rows per transform_rows block: at most max(1, CHUNK_ENTRIES // q), so a
# block's tables hold at most max(CHUNK_ENTRIES, q) entries each; 16 rows
# at q=4093 make one complex table of 1 MiB. numpy plans a prime-length
# FFT (Bluestein) afresh on every call, so the rows of a block share that
# setup. 2^17 entries measured no faster, at 3% more memory.
CHUNK_ENTRIES = 1 << 16


class MeasurementOutcome(NamedTuple):
    k_d: int
    k_star: int


class TwoQuditState:
    """Unit-norm (q, q) complex amplitude grid over registers (D, A)."""

    __slots__ = ("q", "amps")

    def __init__(self, q: int, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (q, q):
            raise InvalidLength(f"amplitude grid must be ({q}, {q}), got {amps.shape}")
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


@lru_cache(maxsize=1)  # up to 256 MiB at q = 4093, so one modulus at a time
def qft_matrix(q: int) -> np.ndarray:
    """The q-point transform matrix F[k, j] = w^{jk} / sqrt(q); read-only, shared."""
    check_dense_size(q, q, "the transform matrix")
    ks = np.arange(q, dtype=np.int64)
    phases = np.outer(ks, ks) % q
    f = np.exp(2j * np.pi * phases / q) / np.sqrt(q)
    f.flags.writeable = False
    return f


def prepare_sample_state(batch: ReducedBatch) -> TwoQuditState:
    """Uniform superposition (1/sqrt(m)) sum |a'>|b'(a')> over the batch."""
    q, m = batch.q, batch.size
    check_dense_size(q, q, "the dense statevector")
    batch.validate()  # a colliding a' would silently overwrite an amplitude
    amps = np.zeros((q, q), dtype=np.complex128)
    amps[batch.a_values, batch.b_values] = 1.0 / np.sqrt(m)
    return TwoQuditState(q, amps)


def bv_kernel(state: TwoQuditState) -> TwoQuditState:
    """Transform both registers: F amps F^T, which is F amps F as F is symmetric."""
    f = qft_matrix(state.q)
    return TwoQuditState(state.q, f @ state.amps @ f)


def extract_candidates(k_d: np.ndarray, k_star: np.ndarray, q: int) -> list[int | None]:
    """Candidate secret coordinate per outcome: (-k_d) * k*^-1 mod q.

    A zero k* pins nothing down; that shot is a null and yields None.
    """
    k_star = np.asarray(k_star, dtype=np.int64) % q
    inv = PrimeField(q).inverse_table()
    cand = (-np.asarray(k_d, dtype=np.int64)) % q * inv[k_star] % q
    return [None if ks == 0 else c for c, ks in zip(cand.tolist(), k_star.tolist())]


def extract_candidate(outcome: MeasurementOutcome, q: int) -> int | None:
    """extract_candidates for one outcome.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
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


@lru_cache(maxsize=16)
def atom_law(q: int, chi: ErrorDistribution, m: int) -> np.ndarray:
    """law[k*] = P(k_d = 0 | k*) of an s-free row of m pairs whose errors
    are i.i.d. from chi, averaged over those errors; read-only, shared.

    A row whose errors have the phase sum dc = sum_{a'} w^{eta'(a') k*}
    holds |dc|^2 / (q m) on its k_d = 0 atom (Parseval over the D
    register), and E|dc|^2 = m + m (m - 1) |phi(k*)|^2 with
    phi(k*) = sum_e chi(e) w^{e k*}, so law = (1 + (m - 1) |phi|^2) / q.
    phi is summed one window value at a time, so the table is built in
    O(q) entries. chi = ErrorDistribution(UNIFORM, 0) gives m / q exactly.
    """
    ks, roots = np.arange(q, dtype=np.int64), root_table(q)
    weights = chi.weights()
    phi = np.zeros(q, dtype=np.complex128)
    for e, weight in zip(range(-chi.xi, chi.xi + 1), weights / weights.sum()):
        phi += weight * roots[e * ks % q]
    law = (1 + (m - 1) * (phi.real**2 + phi.imag**2)) / q
    law.flags.writeable = False
    return law


def transform_rows(
    q: int, a_values: np.ndarray, b_values: np.ndarray, k_star: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """k_d in [0, q - 1] of every row of a stack, each drawn with its own
    uniform u from its conditional over k_d given its k*.

    Row i holds the pairs (a_values[i], b_values[i]); a_values may be a
    single row that every batch shares, and b_values may hold any
    representative of each b' mod q (an s-free row passes its errors
    eta' as they are). The rows go through one batched length-q
    transform per block of max(1, CHUNK_ENTRIES // q) rows, and a row
    draws the same k_d in any block. A row whose conditional mass
    sum |x|^2 / m drifts from 1 (Parseval; a repeated input loses a
    phase) raises InvariantViolation.
    """
    m = b_values.shape[1]
    rows = max(1, CHUNK_ENTRIES // q)
    k_d = np.empty(len(b_values), dtype=np.int64)
    for start in range(0, len(k_d), rows):
        block = slice(start, start + rows)
        a_block = a_values if len(a_values) == 1 else a_values[block]
        b_block = b_values[block]
        # Row i's phases w^{b' k*_i}, scattered to its inputs in a zero row.
        x = np.zeros((len(b_block), q), dtype=np.complex128)
        x[np.arange(len(b_block))[:, None], a_block] = root_table(q)[b_block * k_star[block, None] % q]
        x = np.fft.ifft(x, axis=1)  # x[i, k] = (1/q) sum_a phases[i, a] w^{a k}
        cdf = np.cumsum(x.real**2 + x.imag**2, axis=1)
        # Thresholds at u * total need no scaled cdf; row i's mass is total[i] * q / m.
        total = cdf[:, -1]
        drift = float(np.abs(total * (q / m) - 1.0).max())
        if drift > NORM_TOL:
            raise InvariantViolation(f"conditional mass drifted from 1 by {drift:.3e}")
        # k_d is the count of cdf <= u * total, i.e. searchsorted(side="right").
        k_d[block] = (cdf <= (u[block] * total)[:, None]).sum(axis=1)
    return np.minimum(k_d, q - 1)


def sample_bv_stack(
    q: int, a_values: np.ndarray, b_values: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One post-kernel measurement per row of a stack of batches: the
    (k_d, k*) arrays.

    The A-register marginal is exactly uniform for any batch of
    unit-weight pairs with distinct a', so each k* is drawn flat; then
    transform_rows draws every row's k_d. The stream per call: k bounded
    integers for k*, then k uniform doubles. The inputs are only read, so
    read-only or broadcast rows are fine.
    """
    k = len(b_values)
    k_star = rng.integers(q, size=k)
    u = rng.random(k)
    return transform_rows(q, a_values, b_values, k_star, u), k_star


def sample_bv_outcome(batch: ReducedBatch, rng: np.random.Generator) -> MeasurementOutcome:
    """One post-kernel measurement without building the q x q state:
    sample_bv_stack on a one-row stack.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
    k_d, k_star = sample_bv_stack(batch.q, batch.a_values[None], batch.b_values[None], rng)
    return MeasurementOutcome(k_d=int(k_d[0]), k_star=int(k_star[0]))


def sample_bv_outcomes(batch: ReducedBatch, rng: np.random.Generator, shots: int) -> np.ndarray:
    """`shots` post-kernel measurements of one batch, as (k_d, k*) rows of a
    (shots, 2) array: sample_bv_stack on the batch's row repeated, no q x q table."""
    b_rows = np.broadcast_to(batch.b_values, (shots, batch.size))
    return np.column_stack(sample_bv_stack(batch.q, batch.a_values[None], b_rows, rng))
