"""Arithmetic and dense linear algebra over a prime field.

Field elements are plain ints in [0, q); vectors and matrices are numpy
int64 arrays reduced mod q. Centered representatives live in the
symmetric window (-q/2, q/2], which for odd q is the integer range
[-(q-1)/2, (q-1)/2].

Supported moduli are odd primes with 3 <= q <= MODULUS_CEILING. The
ceiling keeps a product of two reduced values, plus a length-n
accumulation of such products, comfortably inside int64: routines here
reduce mod q before summing, so intermediate magnitudes stay below
n * q^2 < 2**63 for any realistic n.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .errors import InvalidLength, InvalidModulus, SingularMatrix, ZeroInverse

MODULUS_CEILING = 1 << 25

# Largest complex128 table the exact dense paths may build: 4096 x 4096,
# so every q up to 4093 fits. Those paths hold up to four such tables at
# once, so their peak stays near 1 GiB. The kernel sampler holds tables of
# one row of q at q > 65536, about eleven at its peak (176 q bytes, plus
# 56 bytes per pair), and qsim.check_block_size keeps that peak under the
# same 1 GiB.
DENSE_BYTES_LIMIT = 1 << 28


def is_prime(n: int) -> bool:
    """Primality by trial division over odd divisors up to sqrt(n): exact
    for every n, and at most 2,895 divisions up to MODULUS_CEILING."""
    return n == 2 or (n > 2 and n % 2 == 1 and all(n % d for d in range(3, isqrt(n) + 1, 2)))


@lru_cache(maxsize=32)
def _check_modulus(q: int) -> None:
    """Raise InvalidModulus unless q is a supported odd prime. A raise is
    never cached, so a bad q fails on every call. The ceiling is checked
    first, so trial division never meets a huge q."""
    if q > MODULUS_CEILING:
        raise InvalidModulus(f"q: must be at most {MODULUS_CEILING}, got {q}")
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise InvalidModulus(f"q: must be an odd prime, got {q}")


class PrimeField:
    """Arithmetic context for one odd prime modulus, validated once per q."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        q = int(q)
        _check_modulus(q)
        self.q = q

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"

    def inv(self, x: int) -> int:
        """Multiplicative inverse of x mod q (Fermat)."""
        x = int(x) % self.q
        if x == 0:
            raise ZeroInverse("0 has no inverse")
        return pow(x, self.q - 2, self.q)

    def inverse_table(self) -> np.ndarray:
        """table[x] = x^-1 mod q for x in [1, q); table[0] = 0 as a sentinel.

        Built once per q and shared between callers, so it is read-only.
        """
        return _inverse_table(self.q)

    def centered(self, x: int) -> int:
        """Representative of x in (-q/2, q/2]."""
        h = self.q // 2
        return (int(x) + h) % self.q - h

    def centered_array(self, xs) -> np.ndarray:
        h = self.q // 2
        return (np.asarray(xs, dtype=np.int64) + h) % self.q - h


@lru_cache(maxsize=16)
def _inverse_table(q: int) -> np.ndarray:
    # x^(q-2) for every x at once by square-and-multiply; 0 maps to 0.
    table = np.ones(q, dtype=np.int64)
    base = np.arange(q, dtype=np.int64)
    e = q - 2
    while e:
        if e & 1:
            table = table * base % q
        base = base * base % q
        e >>= 1
    table.flags.writeable = False
    return table


def check_dense_size(rows: int, cols: int, what: str) -> None:
    """Refuse a rows x cols complex table above DENSE_BYTES_LIMIT before
    anything is allocated."""
    nbytes = 16 * int(rows) * int(cols)
    if nbytes > DENSE_BYTES_LIMIT:
        raise InvalidLength(
            f"{what} needs a {rows} x {cols} complex table ({nbytes / 2**30:.1f} GiB),"
            f" over the {DENSE_BYTES_LIMIT / 2**30:.2f} GiB dense limit"
        )


def mat_vec(a: np.ndarray, x: np.ndarray, q: int) -> np.ndarray:
    """a @ x mod q with per-term reduction before accumulation."""
    a = np.asarray(a, dtype=np.int64) % q
    x = np.asarray(x, dtype=np.int64) % q
    return (a * x % q).sum(axis=-1) % q


def mat_inverse_stack(a: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverses of a (k, n, n) stack of square matrices mod q by one
    Gauss-Jordan elimination over the whole stack.

    Each step pivots every matrix on the first nonzero entry in its
    column and normalises with the field's inverse table. Returns the
    (k, n, n) inverses and a (k,) mask that is False where a matrix is
    singular; the rows of a singular matrix's "inverse" are meaningless.
    Raises InvalidModulus for a bad q, InvalidLength for a bad shape.
    """
    table = PrimeField(q).inverse_table()
    a = np.array(a, dtype=np.int64) % q
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidLength(f"expected a stack of square matrices, got shape {a.shape}")
    k, n, _ = a.shape
    if n == 0:
        raise InvalidLength("empty matrix has no inverse")
    aug = np.concatenate([a, np.broadcast_to(np.eye(n, dtype=np.int64), a.shape)], axis=2)
    invertible = np.ones(k, dtype=bool)
    rows = np.arange(k)
    for col in range(n):
        nonzero = aug[:, col:, col] != 0
        invertible &= nonzero.any(axis=1)
        # A matrix with no pivot keeps row col, which the table's 0 -> 0 zeroes.
        r = col + nonzero.argmax(axis=1)
        pivot = aug[rows, r]
        aug[rows, r] = aug[:, col]
        aug[:, col] = pivot * table[pivot[:, col]][:, None] % q
        factors = aug[:, :, col].copy()
        factors[:, col] = 0
        aug = (aug - factors[:, :, None] * aug[:, col][:, None, :]) % q
    return aug[:, :, n:], invertible


def mat_inverse(a: np.ndarray, q: int) -> np.ndarray:
    """Inverse of one square matrix mod q: mat_inverse_stack's one-matrix case.

    Raises SingularMatrix when no pivot exists, InvalidModulus for a bad q,
    InvalidLength unless a is square. Only make_test_sample calls it; it
    stays only for bench/layers.py and the tests, until ROADMAP item 3.
    """
    inv, invertible = mat_inverse_stack(np.asarray(a)[None], q)
    if not invertible[0]:
        raise SingularMatrix(f"matrix is singular mod {q}")
    return inv[0]
