import itertools

import numpy as np
import pytest

from dclwe import (
    MODE_ELIMINATION,
    BoundTooLarge,
    DegenerateTest,
    DuplicateInput,
    ErrorDistribution,
    InvalidLength,
    InvariantViolation,
    MODULUS_CEILING,
    PrimeField,
    ReducedBatch,
    derive_rng,
    SingularMatrix,
    choose_parameters,
    elimination_batch,
    make_instance,
    solve,
    synth_reduced_batch,
)
from dclwe.fq import is_prime
from dclwe.instance import UNIFORM, Sample, draw_samples, gen_samples, samples_to_arrays
from dclwe.reduce import (
    check_rows,
    eliminate_rows,
    invertible_draws,
    kappa_observed,
    _draw_count,
    make_test_sample,
)
import dclwe.reduce
from dclwe import solver as solver_module


def _noisy_instance(n, q, xi, seed, kind=UNIFORM):
    rng = derive_rng(seed, 100)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    return inst, rng


def brute_effective_solution(a, b, q):
    """Oracle: enumerate x in F_q^n with a @ x = b (mod q)."""
    n = a.shape[1]
    hits = [
        np.array(x, dtype=np.int64)
        for x in itertools.product(range(q), repeat=n)
        if not ((a @ np.array(x, dtype=np.int64) - b) % q).any()
    ]
    assert len(hits) == 1, "system must be uniquely solvable"
    return hits[0]


def test_identity_matrix_reduction_is_a_row_pick():
    # With sample matrix I, combining for coordinate 1 with input 3
    # just scales the second sample: b' = 3 * b_1 (mod 7).
    q = 7
    s = np.array([2, 4], dtype=np.int64)
    samples = [
        Sample(a=np.array([1, 0], dtype=np.int64), b=int((s[0] + 1) % q), eta=1),
        Sample(a=np.array([0, 1], dtype=np.int64), b=int((s[1] - 1) % q), eta=-1),
    ]
    pair = make_test_sample(samples, 1, 3, s, q)
    assert pair.a_prime == 3
    assert pair.b_prime == (3 * samples[1].b) % q
    assert pair.eta_prime == PrimeField(q).centered(3 * -1)
    assert pair.coeff_l1 == 3


def test_identity_matrix_unit_target_has_unit_amplification():
    q = 7
    s = np.array([5, 6], dtype=np.int64)
    samples = [
        Sample(a=np.array([1, 0], dtype=np.int64), b=int(s[0]), eta=0),
        Sample(a=np.array([0, 1], dtype=np.int64), b=int(s[1]), eta=0),
    ]
    pair = make_test_sample(samples, 0, 1, s, q)
    assert pair.coeff_l1 == 1
    assert pair.b_prime == s[0]
    assert pair.eta_prime == 0


def test_reduction_matches_enumeration_oracle():
    # b' must equal a_target * x_j where x is the unique effective
    # solution of the (noisy) linear system, found by brute force.
    for seed in range(8):
        inst, rng = _noisy_instance(2, 11, 1, seed)
        while True:
            samples = gen_samples(inst, rng, 2)
            a, b = samples_to_arrays(samples, 11)
            try:
                x = brute_effective_solution(a, b, 11)
            except AssertionError:
                continue
            break
        for j in (0, 1):
            for target in (1, 5, 10):
                pair = make_test_sample(samples, j, target, inst.s, 11)
                assert pair.b_prime == (target * int(x[j])) % 11
                assert (pair.b_prime - target * int(inst.s[j]) - pair.eta_prime) % 11 == 0


def test_reduction_error_respects_l1_bound():
    # |eta'| <= coeff_l1 * xi whenever no modular wrap occurs; the
    # centered representative is always within (q-1)/2 regardless.
    q = 101
    for seed in range(10):
        inst, rng = _noisy_instance(3, q, 2, seed)
        samples = gen_samples(inst, rng, 3)
        try:
            pair = make_test_sample(samples, 1, 7, inst.s, q)
        except Exception:
            continue
        assert abs(pair.eta_prime) <= (q - 1) // 2
        if pair.coeff_l1 * inst.xi < q // 2:
            assert abs(pair.eta_prime) <= pair.coeff_l1 * inst.xi


def test_reduction_rejects_bad_shapes_and_indices():
    q = 7
    s = np.array([1, 2], dtype=np.int64)
    samples = [
        Sample(a=np.array([1, 0], dtype=np.int64), b=1, eta=0),
        Sample(a=np.array([0, 1], dtype=np.int64), b=2, eta=0),
    ]
    with pytest.raises(InvalidLength):
        make_test_sample(samples, 2, 1, s, q)
    with pytest.raises(InvalidLength):
        make_test_sample(samples[:1], 0, 1, s, q)


def test_test_sample_rejects_zero_target():
    q = 7
    s = np.array([1, 2], dtype=np.int64)
    samples = [
        Sample(a=np.array([1, 0], dtype=np.int64), b=1, eta=0),
        Sample(a=np.array([0, 1], dtype=np.int64), b=2, eta=0),
    ]
    with pytest.raises(DegenerateTest):
        make_test_sample(samples, 0, 0, s, q)
    with pytest.raises(DegenerateTest):
        make_test_sample(samples, 0, 14, s, q)  # 14 = 0 mod 7
    pair = make_test_sample(samples, 0, 9, s, q)  # 9 = 2 mod 7
    assert pair.a_prime == 2


def test_synth_batch_arithmetic_example():
    # s_j = 2, q = 11, input 5, error +1: b' = (5*2 + 1) mod 11 = 0.
    assert (5 * 2 + 1) % 11 == 0
    rng = derive_rng(20, 0)
    chi = ErrorDistribution(UNIFORM, 1)
    found = False
    for _ in range(64):
        batch = synth_reduced_batch(2, 11, [5], 1, chi, rng)
        if batch.eta_values[0] == 1:
            assert batch.b_values[0] == 0
            found = True
            break
    assert found
    assert batch.a_values.tolist() == [5]


def test_synth_batch_identity_holds_for_every_pair():
    rng = derive_rng(21, 0)
    chi = ErrorDistribution(UNIFORM, 3)
    batch = synth_reduced_batch(9, 31, range(31), 3, chi, rng, xi=1)
    assert batch.size == 31
    assert batch.kappa == 3.0
    assert not ((batch.b_values - batch.a_values * 9 - batch.eta_values) % 31).any()
    assert np.abs(batch.eta_values).max() <= 3
    assert batch.coeff_l1_values.tolist() == [3] * 31


def test_synth_batch_noiseless():
    rng = derive_rng(22, 0)
    batch = synth_reduced_batch(4, 13, range(13), 0, ErrorDistribution(UNIFORM, 0), rng, xi=0)
    assert not batch.eta_values.any()
    assert np.array_equal(batch.b_values, np.arange(13) * 4 % 13)
    assert batch.kappa == 1.0


def test_synth_batch_kappa_is_bound_ratio():
    rng = derive_rng(23, 0)
    batch = synth_reduced_batch(1, 101, range(20), 6, ErrorDistribution(UNIFORM, 6), rng, xi=2)
    assert batch.kappa == 3.0
    assert batch.coeff_l1_values.tolist() == [3] * 20


def test_synth_batch_input_validation():
    rng = derive_rng(24, 0)
    chi = ErrorDistribution(UNIFORM, 1)
    with pytest.raises(BoundTooLarge):
        synth_reduced_batch(1, 11, range(5), 6, ErrorDistribution(UNIFORM, 6), rng)
    with pytest.raises(BoundTooLarge):
        synth_reduced_batch(1, 11, range(5), 1, ErrorDistribution(UNIFORM, 2), rng)
    with pytest.raises(DuplicateInput):
        synth_reduced_batch(1, 11, [3, 3], 1, chi, rng)
    with pytest.raises(DuplicateInput):
        synth_reduced_batch(1, 11, [1, 12], 1, chi, rng)  # 12 = 1 mod 11
    with pytest.raises(InvalidLength):
        synth_reduced_batch(1, 11, [], 1, chi, rng)


def test_batch_invariants_are_enforced():
    ok = dict(
        j=0,
        q=7,
        a_values=np.array([1, 2], dtype=np.int64),
        b_values=np.array([3, 4], dtype=np.int64),
        eta_values=np.array([1, -1], dtype=np.int64),
        coeff_l1_values=np.array([1, 1], dtype=np.int64),
        xi_prime=1,
        kappa=1.0,
    )
    ReducedBatch(**ok)
    with pytest.raises(DuplicateInput):
        ReducedBatch(**{**ok, "a_values": np.array([2, 2], dtype=np.int64)})
    with pytest.raises(InvariantViolation):
        ReducedBatch(**{**ok, "eta_values": np.array([2, 0], dtype=np.int64)})
    with pytest.raises(InvalidLength):
        ReducedBatch(**{**ok, "b_values": np.array([3], dtype=np.int64)})
    big = dict(ok)
    big.update(
        a_values=np.arange(8, dtype=np.int64),
        b_values=np.arange(8, dtype=np.int64),
        eta_values=np.zeros(8, dtype=np.int64),
        coeff_l1_values=np.ones(8, dtype=np.int64),
    )
    with pytest.raises(InvalidLength):
        ReducedBatch(**big)


def test_row_check_is_per_row():
    eta = np.zeros((2, 3), dtype=np.int64)
    # The same inputs in two rows are fine; a repeat within a row is not.
    check_rows(7, np.array([[0, 1, 2], [2, 1, 0]]), eta, 0)
    check_rows(7, np.array([[4, 5, 6]]), eta, 0)  # one row shared by both
    with pytest.raises(DuplicateInput):
        check_rows(7, np.array([[0, 1, 2], [6, 1, 6]]), eta, 0)
    with pytest.raises(InvariantViolation):
        check_rows(7, np.array([[0, 1, 7]]), eta, 0)
    with pytest.raises(InvariantViolation):
        check_rows(7, np.array([[0, 1, 2]]), np.array([[0, 0, 0], [0, 2, 0]]), 1)


def test_row_check_takes_a_bound_per_row():
    eta = np.array([[0, 2, 0], [0, 3, -3]], dtype=np.int64)
    a = np.array([[0, 1, 2]])
    check_rows(7, a, eta, np.array([2, 3]))
    # Row 0 breaks its own bound of 1 although row 1 allows 3.
    with pytest.raises(InvariantViolation):
        check_rows(7, a, eta, np.array([1, 3]))


def test_elimination_stack_rows_satisfy_their_own_identity():
    q, xi = 101, 2
    inst, rng = _noisy_instance(3, q, xi, 70)
    a_values = np.broadcast_to(np.arange(q), (12, q))
    inv, b = invertible_draws(inst, 12, rng)
    stack = eliminate_rows(inst, inv, b, a_values, 2)
    s_j = int(inst.s[2])
    assert stack.b_values.shape == stack.eta_values.shape == (12, q)
    assert not ((stack.b_values - a_values * s_j - stack.eta_values) % q).any()
    assert np.array_equal(stack.kappa, stack.coeff_l1_values.max(axis=1))
    assert np.array_equal(stack.xi_prime, stack.kappa * xi)
    assert (np.abs(stack.eta_values).max(axis=1) <= stack.xi_prime).all()
    # Within a row eta'(a') = a' * r, r the row's combined noise (its a' = 1 error).
    r = stack.eta_values[:, 1]
    assert not ((stack.eta_values - a_values * r[:, None]) % q).any()
    # Each row eliminates its own sample matrix, so r varies across the stack.
    assert np.unique(r).size > 1


def _inverse_mod(a, q):
    """Gauss-Jordan on Python ints: the inverse of a mod q, or None when a is singular."""
    n = len(a)
    rows = [[int(x) % q for x in row] + [int(c == r) for c in range(n)] for r, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        scale = pow(rows[col][col], -1, q)
        rows[col] = [x * scale % q for x in rows[col]]
        for r in range(n):
            if r != col:
                f = rows[r][col]
                rows[r] = [(x - f * y) % q for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _python_draws(inst, k, rng):
    """k invertible sample matrices inverted in Python ints, with no O(q)
    table: their (k, n, n) inverses, outputs and hidden errors."""
    inv, b, eta = [], [], []
    while len(inv) < k:
        a, b_draw, eta_draw = draw_samples(inst, rng, (inst.n,))
        a_inv = _inverse_mod(a.tolist(), inst.q)
        if a_inv is not None:
            inv.append(a_inv)
            b.append(b_draw)
            eta.append(eta_draw)
    return np.array(inv, dtype=np.int64), np.array(b), np.array(eta)


def _pairs_by_hand(inst, inv, b, eta, a_values, coords):
    """b', eta' and coeff_l1 pair by pair in Python ints, and each row's kappa:
    row i pushes its inputs a' through row coords[i] of its inverse, and
    eta' must also be that combination of the row's hidden errors."""
    q, h = inst.q, inst.q // 2

    def centered(x):
        return (x + h) % q - h

    b_out, eta_out, l1_out = [], [], []
    for i, j in enumerate(coords):
        row = [int(x) for x in inv[i][j]]
        r = sum(x * int(y) for x, y in zip(row, b[i])) % q
        noise = sum(x * int(e) for x, e in zip(row, eta[i]))
        s_j = int(inst.s[j])
        a_row = [int(a) for a in a_values[i if len(a_values) > 1 else 0]]
        b_out.append([a * r % q for a in a_row])
        eta_out.append([centered(a * r - a * s_j) for a in a_row])
        assert eta_out[-1] == [centered(a * noise) for a in a_row]
        l1_out.append([sum(abs(centered(a * x)) for x in row) for a in a_row])
    return b_out, eta_out, l1_out, [max(row) for row in l1_out]


@pytest.mark.parametrize("q", [3, 101, 4093, 33554393])
def test_eliminate_rows_matches_a_per_pair_reference(q):
    # 33554393 is the largest prime below MODULUS_CEILING: a' * r and a' * inv
    # reach q^2 ~ 2^50, which int64 must hold without wrapping. A full-field
    # row there would have 2^25 pairs, so its shared row is a spread of inputs
    # that includes both ends of [1, q).
    assert is_prime(q) and q <= MODULUS_CEILING
    k, m, xi = 5, 4, min(2, (q - 1) // 2)
    inst, rng = _noisy_instance(3, q, xi, 72)
    if q <= 4093:
        shared = np.arange(q, dtype=np.int64)[None]
    else:
        shared = np.unique(np.r_[1, q - 1, q // 2, rng.integers(1, q, size=61)])[None]
    t = rng.integers(1, q, size=(k, m))
    coords = rng.integers(0, inst.n, size=k)
    blocks = [
        (shared, int(coords[0]), [int(coords[0])] * k),
        (t.reshape(-1, 1), np.repeat(coords, m), np.repeat(coords, m).tolist()),
    ]
    for a_values, j, per_row in blocks:
        inv, b, eta = _python_draws(inst, len(per_row), rng)
        stack = eliminate_rows(inst, inv, b, a_values, j)
        b_ref, eta_ref, l1_ref, kappa_ref = _pairs_by_hand(inst, inv, b, eta, a_values, per_row)
        assert stack.b_values.tolist() == b_ref
        assert stack.eta_values.tolist() == eta_ref
        assert stack.coeff_l1_values.tolist() == l1_ref
        assert stack.kappa.tolist() == kappa_ref
        assert stack.xi_prime.tolist() == [kappa * xi for kappa in kappa_ref]


def _spy_on_draws(monkeypatch):
    """Record every block of samples invertible_draws draws, as (a, b)."""
    drawn = []
    real_draw = dclwe.reduce.draw_samples

    def spy(instance, rng, shape):
        out = real_draw(instance, rng, shape)
        drawn.append(out[:2])
        return out

    monkeypatch.setattr(dclwe.reduce, "draw_samples", spy)
    return drawn


def _replay_draws(drawn, k, q, n):
    """The (matrix, outputs) pairs invertible_draws must keep: the first k
    invertible matrices over its draws in order. Each draw is k plus spares,
    or the shortfall plus spares, and comes only while the kept fall short."""
    kept = []
    for a, b in drawn:
        short = k - len(kept)
        assert short > 0 and a.shape == (_draw_count(q, n, short), n, n)
        kept += [(mat, out) for mat, out in zip(a, b) if _inverse_mod(mat.tolist(), q)][:short]
    assert len(kept) == k
    return kept


def test_elimination_stack_redraws_only_singular_rows(monkeypatch):
    # At q = 3 about 43% of 3 x 3 matrices are singular, and a draw's spares
    # fall short of k a few times in a thousand; draw one-matrix stacks until
    # one does.
    q, n = 3, 3
    inst, rng = _noisy_instance(n, q, 1, 71)
    drawn = _spy_on_draws(monkeypatch)
    assert _draw_count(q, n, 24) > 24
    for call in range(3000):
        k = 24 if call == 0 else 1
        drawn.clear()
        inv, b = invertible_draws(inst, k, rng)
        kept = _replay_draws(drawn, k, q, n)
        assert [_inverse_mod(mat.tolist(), q) for mat, _ in kept] == inv.tolist()
        assert [out.tolist() for _, out in kept] == b.tolist()
        if len(drawn) > 1:
            break
    assert len(drawn) > 1
    # With a' = 1 a row's combination is row 0 of its kept matrix's inverse.
    stack = eliminate_rows(inst, inv, b, np.ones((1, 1), dtype=np.int64), 0)
    field = PrimeField(q)
    row_l1 = [sum(abs(field.centered(x)) for x in row[0]) for row in inv.tolist()]
    assert stack.coeff_l1_values[:, 0].tolist() == row_l1
    assert not ((stack.b_values - int(inst.s[0]) - stack.eta_values) % q).any()
    # A stack still short after MAX_REDRAWS draws is refused.
    spy = dclwe.reduce.draw_samples

    def all_singular(instance, rng, shape):
        a, b, eta = spy(instance, rng, shape)
        return 0 * a, b, eta

    monkeypatch.setattr(dclwe.reduce, "draw_samples", all_singular)
    drawn.clear()
    with pytest.raises(SingularMatrix):
        invertible_draws(inst, 4, rng)
    assert len(drawn) == dclwe.reduce.MAX_REDRAWS


def test_elimination_refills_rarely_draw_twice(monkeypatch):
    # About 1% of 3 x 3 matrices are singular at q = 101; without spares,
    # 72% of these refills drew a second block for them.
    drawn = _spy_on_draws(monkeypatch)
    refills = []
    real_draws = solver_module.invertible_draws

    def counted(instance, k, rng):
        refills.append(k)
        return real_draws(instance, k, rng)

    monkeypatch.setattr(solver_module, "invertible_draws", counted)
    params = choose_parameters(3, 101, 1, 2.0, 0.2)
    for i in range(200):
        rng = derive_rng(4242, i)
        inst = make_instance(3, 101, ErrorDistribution(UNIFORM, 1), rng)
        solve(inst, params, MODE_ELIMINATION, rng)
    assert len(refills) >= 1000
    assert len(drawn) - len(refills) <= 0.01 * len(refills)


def test_elimination_batch_identity_and_amplification():
    for seed in range(6):
        inst, rng = _noisy_instance(3, 101, 1, seed + 50)
        batch = elimination_batch(inst, 1, range(40), rng)
        s_j = int(inst.s[1])
        assert batch.size == 40
        # b' = a' s_j + eta' for every pair, by construction of eta'.
        assert not ((batch.b_values - batch.a_values * s_j - batch.eta_values) % 101).any()
        assert kappa_observed(batch) == batch.coeff_l1_values.max()
        assert batch.xi_prime == kappa_observed(batch) * inst.xi
        assert batch.kappa == float(kappa_observed(batch))
        # Errors within the declared bound is a constructor invariant;
        # reaching here means it held.
        assert np.abs(batch.eta_values).max() <= batch.xi_prime


def test_elimination_batch_noiseless_has_zero_errors():
    inst, rng = _noisy_instance(4, 31, 0, 60)
    batch = elimination_batch(inst, 2, range(10), rng)
    assert not batch.eta_values.any()
    assert np.array_equal(batch.b_values, batch.a_values * int(inst.s[2]) % 31)


def test_elimination_batch_shares_one_combination_per_batch():
    # Scaling the input scales the error: eta'(a') = a' * r (centered),
    # where r is the combined noise of the shared elimination row.
    inst, rng = _noisy_instance(3, 101, 2, 61)
    batch = elimination_batch(inst, 0, [1, 2, 3, 50], rng)
    base = int(batch.eta_values[batch.a_values.tolist().index(1)])
    for a, e in zip(batch.a_values, batch.eta_values):
        assert (int(e) - int(a) * base) % 101 == 0
