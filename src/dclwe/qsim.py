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
   batches at once, one row per shot, with one batched length-q
   transform. Every simulated shot comes from it: the solver calls it
   directly, sample_bv_outcome is its one-row view and
   sample_bv_outcomes its view of one batch repeated. A row whose
   values span at most m/2 integers (an s-free error row, on k_d = 0
   with probability f(k*) + (1 - f(k*))/q) draws that atom from its
   phase sum dc, with mass |dc|^2 / (q m), and checks its mass
   sum |x|^2 / m (Parseval) in place of the transform; rows with b'
   spread over [0, q) hold about 1/q there and are all transformed.
   The phases and their int64 indices go into two flat tables kept for
   the whole process, grown to its largest call: for a controlled solve
   max(CHUNK_ENTRIES, q) x 24 B, about 1.5 MiB. On the full field the
   rows off the atom move to the front of the kept phase table, and the
   transform, the squares and the cdf overwrite them there. So the
   sampler is not re-entrant; `--workers` runs solves in processes,
   each with its own tables.

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

# Norm drift beyond this is an error; never silently renormalize.
NORM_TOL = 1e-8

# Rows per sample_bv_stack call: at most CHUNK_ENTRIES // q, and the least
# size of the kept phase and index tables, so 16 rows at q=4093 fill them
# (1 MiB + 512 KiB). numpy plans a prime-length FFT (Bluestein) afresh on
# every call, so rows measured together share that setup and its freshly
# faulted buffers. A controlled n=8 solve at q=4093 makes 3.5 calls and takes
# 694 minor page faults, nearly all in the transform and the error draws,
# against 1,133 when each call built its own tables (300 solves, one thread
# on a 2-core Xeon). 2^17 entries measured no faster, at 3% more memory.
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


_kept: dict[type, np.ndarray] = {}


def _kept_table(dtype: type, k: int, m: int) -> np.ndarray:
    """A (k, m) view of the process's one table of `dtype`, grown to at least
    CHUNK_ENTRIES and never given back: fresh pages on every call cost
    about as much as the transform at q=4093."""
    table = _kept.get(dtype)
    if table is None or table.size < k * m:
        table = _kept[dtype] = np.empty(max(k * m, CHUNK_ENTRIES), dtype=dtype)
    return table[: k * m].reshape(k, m)


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


def _check_mass(mass: np.ndarray) -> None:
    """Raise InvariantViolation when any row's conditional mass drifts from 1."""
    drift = float(np.abs(mass - 1.0).max())
    if drift > NORM_TOL:
        raise InvariantViolation(f"conditional mass drifted from 1 by {drift:.3e}")


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
    row's pair phases x, all transformed rows in one batched call.
    Phases w^{b' k*} come from root_table(q). When the stack's values
    span at most m/2 integers, each row gets a table over that span
    and every phase is one flat take from the k tables; otherwise each
    phase is a direct lookup at b' k* mod q. Both read the same table
    entry, and both write into the kept (k, m) tables. When every row's
    inputs are 0..q-1 in order, the phases are the transform's input as
    they are; otherwise they scatter into a fresh zero (k, q) table.
    The k_d = 0 atom needs no transform: its mass is |dc|^2 / (q m) with
    dc = sum_a x[i, a], so a row whose uniform u has |dc|^2 > u m q
    draws k_d = 0, and only the other rows are transformed. Span-table
    rows take the atom: they are s-free error rows, which land on
    k_d = 0 with probability f(k*) + (1 - f(k*))/q. Direct-lookup rows
    spread b' over [0, q), their atom holds about 1/q of the mass, and
    they are all transformed. The transformed rows move to the front of
    the phase table, which the transform and the cdf then overwrite; the
    inputs are only read, so read-only or broadcast rows are fine.
    Returns the (k_d, k*) arrays. A transformed row whose conditional
    mass drifts from 1 raises InvariantViolation, and so does an atom
    row whose sum_a |x[i, a]|^2 / m (its mass, by Parseval) drifts; both
    read the row the transform would read, after the scatter, so a
    repeated input raises either way. The stream per call: k bounded
    integers for k*, then k uniform doubles for k_d.
    """
    k, m = b_values.shape
    k_star = rng.integers(q, size=k)
    u = rng.random(k)
    lo, hi = int(b_values.min()), int(b_values.max())
    span = hi - lo + 1
    spanned = 2 * span <= m
    index, x = _kept_table(np.int64, k, m), _kept_table(np.complex128, k, m)
    if spanned:
        # Row i's table is root_table(q)[v k*_i mod q] for v in [lo, hi].
        table = root_table(q)[np.outer(k_star, np.arange(lo, hi + 1)) % q]
        np.add(b_values, (np.arange(k) * span - lo)[:, None], out=index)
    else:
        table = root_table(q)
        np.multiply(b_values, k_star[:, None], out=index)
        np.remainder(index, q, out=index)
    # Every index is in range by construction, and "clip" writes straight
    # into x where the default mode would fill a buffer first.
    table.ravel().take(index, out=x, mode="clip")
    if m != q or not (a_values == np.arange(q)).all():
        # Rows that are not the full field in order scatter into a zero table.
        phases, x = x, np.zeros((k, q), dtype=np.complex128)
        x[np.arange(k)[:, None], a_values] = phases
    k_d = np.zeros(k, dtype=np.int64)
    rows = np.arange(k)
    if spanned:
        # k_d = 0 iff cdf[0] > u * total, i.e. |dc|^2 / q^2 > u m / q.
        dc = x.sum(axis=1)
        atom = dc.real**2 + dc.imag**2 > u * (m * q)
        if atom.any():
            # As (re, im) pairs, a row's sum of squares is sum |x|^2. Summing
            # every row in place costs no more than copying the atom rows out.
            pairs = x.view(np.float64)
            _check_mass(np.vecdot(pairs, pairs)[atom] / m)
            rows = np.flatnonzero(~atom)
            u = u[rows]
            # The rows off the atom move to the front of x, each to its rank
            # among them, which is at most its index, so no block reads a row
            # that an earlier block wrote. Each block is gathered through a
            # copy of at most ceil(k / 8) rows, in at most eight steps.
            first = int(atom.argmax())
            step = -(-k // 8)
            for dst in range(first, len(rows), step):
                src = rows[dst : dst + step]
                x[dst : dst + len(src)] = x[src]
    if len(rows):
        # Every step from here on overwrites x: no second (k, q) table.
        g = x[: len(rows)]
        np.fft.ifft(g, axis=1, out=g)  # g[i, k] = (1/q) sum_a x[i, a] w^{a k}
        pairs = g.view(np.float64)
        np.square(pairs, out=pairs)
        cdf = pairs[:, 0::2]
        np.add(cdf, pairs[:, 1::2], out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        # Thresholds at u * total need no scaled cdf; row i's mass is total[i] * q / m.
        total = cdf[:, -1]
        _check_mass(total * (q / m))
        # k_d is the count of cdf <= u * total, i.e. searchsorted(side="right").
        k_d[rows] = np.minimum((cdf <= (u * total)[:, None]).sum(axis=1), q - 1)
    return k_d, k_star


def sample_bv_outcome(batch: ReducedBatch, rng: np.random.Generator) -> MeasurementOutcome:
    """One post-kernel measurement without building the q x q state:
    sample_bv_stack on a one-row stack.
    It stays only for bench/layers.py and the tests, until ROADMAP item 3."""
    k_d, k_star = sample_bv_stack(batch.q, batch.a_values[None], batch.b_values[None], rng)
    return MeasurementOutcome(k_d=int(k_d[0]), k_star=int(k_star[0]))


def sample_bv_outcomes(batch: ReducedBatch, rng: np.random.Generator, shots: int) -> np.ndarray:
    """`shots` post-kernel measurements of one batch, as (k_d, k*) rows of a
    (shots, 2) array: sample_bv_stack on the batch's row repeated, in calls
    of max(1, CHUNK_ENTRIES // q) rows. No q x q table is built."""
    q = batch.q
    out = np.empty((shots, 2), dtype=np.int64)
    rows = max(1, CHUNK_ENTRIES // q)
    for start in range(0, shots, rows):
        chunk = out[start : start + rows]
        b_rows = np.broadcast_to(batch.b_values, (len(chunk), batch.size))
        chunk[:, 0], chunk[:, 1] = sample_bv_stack(q, batch.a_values[None], b_rows, rng)
    return out
