import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dclwe import (
    MODULUS_CEILING,
    InvalidLength,
    InvalidModulus,
    PrimeField,
    SingularMatrix,
    ZeroInverse,
    derive_rng,
)
from dclwe.fq import is_prime, mat_inverse, mat_inverse_stack, mat_vec

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 101]


def brute_inverse(x: int, q: int) -> int:
    """Oracle: exhaustive search for the multiplicative inverse."""
    for y in range(1, q):
        if (x * y) % q == 1:
            return y
    raise AssertionError(f"{x} has no inverse mod {q}")


def test_is_prime_small_table():
    primes_below_100 = {
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
        53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    }
    for x in range(2, 100):
        assert is_prime(x) == (x in primes_below_100), x
    assert not is_prime(0)
    assert not is_prime(1)
    assert not is_prime(-7)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat tests; trial division reads their factors.
    for c in (561, 1105, 1729, 2465, 294409):
        assert not is_prime(c), c
    assert is_prime(33554467)
    assert is_prime(2**31 - 1)


def test_field_rejects_bad_modulus():
    for q in (0, 1, 2, 4, 9, 15, 33554432):
        with pytest.raises(InvalidModulus):
            PrimeField(q)


def test_bad_modulus_raises_on_every_call():
    # Validation is cached per q; a refusal must never be.
    for q in (9, 33554467):
        for _ in range(3):
            with pytest.raises(InvalidModulus):
                PrimeField(q)


def test_shared_inverse_table_is_read_only():
    table = PrimeField(13).inverse_table()
    assert table is PrimeField(13).inverse_table()
    with pytest.raises(ValueError):
        table[2] = 0


def test_field_rejects_prime_above_ceiling():
    # 33554467 is the first prime past the 2**25 ceiling.
    assert 33554467 > MODULUS_CEILING
    with pytest.raises(InvalidModulus):
        PrimeField(33554467)


def test_a_huge_prime_is_refused_by_the_ceiling_before_any_primality_test():
    # Trial division of the Mersenne prime 2**89 - 1 would never finish.
    with pytest.raises(InvalidModulus, match=f"must be at most {MODULUS_CEILING}, got {2**89 - 1}"):
        PrimeField(2**89 - 1)


def test_inverse_examples():
    f7 = PrimeField(7)
    assert f7.inv(3) == 5
    assert f7.inv(1) == 1
    assert PrimeField(11).inv(10) == 10


def test_inverse_of_zero_raises():
    f = PrimeField(13)
    with pytest.raises(ZeroInverse):
        f.inv(0)
    with pytest.raises(ZeroInverse):
        f.inv(26)


def test_inverse_exhaustive_against_oracle():
    # Every nonzero element has exactly one inverse and inv() finds it.
    for q in SMALL_PRIMES:
        f = PrimeField(q)
        table = f.inverse_table()
        for x in range(1, q):
            expect = brute_inverse(x, q)
            assert f.inv(x) == expect
            assert table[x] == expect
        assert table[0] == 0


def test_centered_examples():
    f = PrimeField(7)
    assert f.centered(6) == -1
    assert f.centered(3) == 3
    assert f.centered(0) == 0
    assert f.centered(4) == -3
    assert list(f.centered_array(np.arange(7))) == [0, 1, 2, 3, -3, -2, -1]


def test_centered_is_a_bijection_onto_the_window():
    for q in (3, 7, 31, 101):
        f = PrimeField(q)
        values = {f.centered(x) for x in range(q)}
        half = (q - 1) // 2
        assert values == set(range(-half, half + 1))
        for x in range(q):
            c = f.centered(x)
            assert c % q == x
            assert abs(c) <= half


@given(
    x=st.integers(min_value=-(10**9), max_value=10**9),
    q=st.sampled_from(SMALL_PRIMES),
)
def test_centered_congruence_property(x, q):
    c = PrimeField(q).centered(x)
    assert (c - x) % q == 0
    assert -q // 2 < c <= q // 2


def test_mat_vec_reduces_each_term():
    # Products near the ceiling stay inside int64 because every term is
    # reduced before the sum.
    q = 33554393
    assert is_prime(q) and q < MODULUS_CEILING
    a = np.full((4,), q - 1, dtype=np.int64)
    x = np.full((4,), q - 1, dtype=np.int64)
    assert mat_vec(a, x, q) == (4 * 1) % q  # (-1)*(-1) per term


def test_mat_mul_and_inverse_example():
    q = 5
    a = np.array([[1, 1], [0, 1]], dtype=np.int64)
    inv = mat_inverse(a, q)
    assert inv.tolist() == [[1, 4], [0, 1]]
    assert (a @ inv % q).tolist() == [[1, 0], [0, 1]]
    assert (inv @ a % q).tolist() == [[1, 0], [0, 1]]


def test_mat_inverse_one_by_one():
    assert mat_inverse(np.array([[3]], dtype=np.int64), 7).tolist() == [[5]]


def test_mat_inverse_singular_raises():
    q = 5
    with pytest.raises(SingularMatrix):
        mat_inverse(np.array([[2, 4], [1, 2]], dtype=np.int64), q)
    with pytest.raises(SingularMatrix):
        mat_inverse(np.zeros((3, 3), dtype=np.int64), q)


def test_mat_inverse_rejects_non_square():
    with pytest.raises(InvalidLength):
        mat_inverse(np.zeros((2, 3), dtype=np.int64), 5)


@settings(deadline=None, max_examples=60)
@given(
    q=st.sampled_from([3, 5, 7, 11, 13]),
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=1, max_value=4),
)
def test_mat_inverse_product_is_identity(q, seed, n):
    rng = derive_rng(seed, 0)
    a = rng.integers(0, q, size=(n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    try:
        inv = mat_inverse(a, q)
    except SingularMatrix:
        # The oracle for singularity: no x solves a @ x = e_0 uniquely,
        # equivalently some nonzero vector maps to zero.
        found_kernel = False
        for code in range(1, q**n):
            v = np.array(
                [(code // q**i) % q for i in range(n)], dtype=np.int64
            )
            if not v.any():
                continue
            if not (a @ v % q).any():
                found_kernel = True
                break
        assert found_kernel
        return
    assert np.array_equal(a @ inv % q, eye)
    assert np.array_equal(inv @ a % q, eye)


def loop_inverse(a, q):
    """Reference: one matrix at a time, first nonzero pivot, Fermat inverses;
    None when singular."""
    n = len(a)
    aug = [[int(x) % q for x in row] + [int(i == r) for i in range(n)] for r, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], q - 2, q)
        aug[col] = [x * inv % q for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % q for x, y in zip(aug[r], aug[col])]
    return np.array([row[n:] for row in aug], dtype=np.int64)


@pytest.mark.parametrize("q", [3, 7, 101])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mat_inverse_stack_matches_one_matrix_at_a_time(q, n):
    rng = derive_rng(q, n)
    a = rng.integers(0, q, size=(40, n, n), dtype=np.int64)
    a[0] = 0
    a[7, :, -1] = 0  # a zero column
    forced = [0, 7]
    if n > 1:
        a[13, -1] = a[13, 0] * 2 % q  # a row that repeats another
        forced.append(13)
    inv, invertible = mat_inverse_stack(a, q)
    assert inv.shape == a.shape and invertible.shape == (40,)
    assert not invertible[forced].any()
    eye = np.eye(n, dtype=np.int64)
    for i in range(40):
        expected = loop_inverse(a[i], q)
        assert invertible[i] == (expected is not None)
        if expected is None:
            with pytest.raises(SingularMatrix):
                mat_inverse(a[i], q)
            continue
        assert np.array_equal(inv[i], expected)
        assert np.array_equal(mat_inverse(a[i], q), expected)
        assert np.array_equal(a[i] @ inv[i] % q, eye)


def test_mat_inverse_stack_rejects_bad_shapes_and_moduli():
    with pytest.raises(InvalidLength):
        mat_inverse_stack(np.zeros((2, 2, 3), dtype=np.int64), 5)
    with pytest.raises(InvalidLength):
        mat_inverse_stack(np.zeros((2, 2), dtype=np.int64), 5)
    with pytest.raises(InvalidModulus):
        mat_inverse_stack(np.eye(2, dtype=np.int64)[None], 9)


# The solve_noiseless tests: the inverse solves an exact system, s = A^-1 b.
def test_solve_noiseless_single_sample():
    # 3 * s = 5 (mod 7) has the unique solution s = 4.
    a = np.array([[3]], dtype=np.int64)
    b = np.array([5], dtype=np.int64)
    assert mat_vec(mat_inverse(a, 7), b, 7).tolist() == [4]


def test_solve_noiseless_recovers_known_secret():
    q = 31
    rng = derive_rng(99, 1)
    s = rng.integers(0, q, size=5, dtype=np.int64)
    while True:
        a = rng.integers(0, q, size=(5, 5), dtype=np.int64)
        try:
            mat_inverse(a, q)
            break
        except SingularMatrix:
            continue
    b = (a * s % q).sum(axis=1) % q
    assert np.array_equal(mat_vec(mat_inverse(a, q), b, q), s)


@settings(deadline=None, max_examples=40)
@given(
    q=st.sampled_from([5, 7, 11]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_solve_round_trips_generated_systems(q, seed):
    rng = derive_rng(seed, 2)
    n = int(rng.integers(1, 5))
    s = rng.integers(0, q, size=n, dtype=np.int64)
    for _ in range(20):
        a = rng.integers(0, q, size=(n, n), dtype=np.int64)
        try:
            mat_inverse(a, q)
        except SingularMatrix:
            continue
        b = (a * s % q).sum(axis=1) % q
        assert np.array_equal(mat_vec(mat_inverse(a, q), b, q), s)
        return
