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
3. sample_bv_outcome, a factored sampler that draws k* first (its
   marginal is exactly uniform, by Parseval over the D register) and
   then k_d from the conditional row; this is the fast path the solver
   uses, costing one length-q transform per shot instead of O(q^3).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, TextIO

import numpy as np

from .errors import InvalidLength, InvariantViolation
from .fq import check_dense_size
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
def _qft_matrix(q: int, inverse: bool) -> np.ndarray:
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


def extract_candidate(outcome: MeasurementOutcome, q: int) -> int | None:
    """Candidate secret coordinate from one outcome: (-k_d) * k*^-1 mod q.

    A zero k* pins nothing down; the shot is a null and returns None.
    """
    k_star = int(outcome.k_star) % q
    if k_star == 0:
        return None
    neg_kd = (-int(outcome.k_d)) % q
    return neg_kd * pow(k_star, -1, q) % q


def kernel_distribution(batch: ReducedBatch) -> np.ndarray:
    """Closed-form post-kernel probability grid, bypassing the dense state.

    amp[k_d, k*] = (1/(q sqrt(m))) sum_{a'} w^{a' k_d} w^{b'(a') k*},
    evaluated as a rank-m product of two phase tables.
    """
    q, m = batch.q, batch.size
    check_dense_size(q, q, "kernel_distribution")
    ks = np.arange(q, dtype=np.int64)
    ea = np.exp(2j * np.pi * (np.outer(batch.a_values, ks) % q) / q)
    eb = np.exp(2j * np.pi * (np.outer(batch.b_values, ks) % q) / q)
    amp = ea.T @ eb / (q * np.sqrt(m))
    return np.abs(amp) ** 2


def sample_bv_outcome(batch: ReducedBatch, rng: np.random.Generator) -> MeasurementOutcome:
    """One post-kernel measurement without building the q x q state.

    The A-register marginal is exactly uniform for any batch of
    unit-weight pairs with distinct a', so k* is drawn flat; the
    conditional over k_d is one length-q transform of the pair phases.
    """
    q, m = batch.q, batch.size
    k_star = int(rng.integers(q))
    x = np.zeros(q, dtype=np.complex128)
    x[batch.a_values] = np.exp(2j * np.pi * (batch.b_values * k_star % q) / q)
    g = np.fft.ifft(x) * q  # g[k] = sum_a x[a] w^{a k}
    p = np.abs(g) ** 2 / (q * m)
    total = float(p.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise InvariantViolation(f"conditional mass {total} is not 1")
    k_d = int(np.searchsorted(np.cumsum(p), rng.random() * total, side="right"))
    return MeasurementOutcome(k_d=min(k_d, q - 1), k_star=k_star)


def sample_bv_outcomes(batch: ReducedBatch, rng: np.random.Generator, shots: int) -> np.ndarray:
    """Vectorized draws from one batch's exact output grid; shape (shots, 2)."""
    q = batch.q
    p = kernel_distribution(batch).ravel()
    p = p / p.sum()
    idx = rng.choice(q * q, size=shots, p=p)
    return np.stack(divmod(idx, q), axis=1)


def dump_state(state: TwoQuditState, fh: TextIO, tol: float = 0.0) -> None:
    """One line per nonzero amplitude: `k_d k_star re im prob`."""
    probs = state.probabilities()
    for k_d, k_star in zip(*np.nonzero(probs > tol)):
        amp = state.amps[k_d, k_star]
        fh.write(
            f"{int(k_d)} {int(k_star)} {amp.real:.17g} {amp.imag:.17g} {probs[k_d, k_star]:.17g}\n"
        )
