import itertools

import numpy as np
import pytest

from dclwe import (
    BoundTooLarge,
    DegenerateTest,
    DuplicateInput,
    ErrorDistribution,
    InvalidLength,
    InvariantViolation,
    LweInstance,
    PrimeField,
    ReducedBatch,
    Sample,
    check_rows,
    derive_rng,
    SingularMatrix,
    eliminate_rows,
    elimination_batch,
    gen_samples,
    invertible_draws,
    mat_inverse,
    kappa_observed,
    make_instance,
    make_test_sample,
    samples_to_arrays,
    synth_reduced_batch,
)
import dclwe.reduce
from dclwe.instance import UNIFORM


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


def test_elimination_stack_redraws_only_singular_rows(monkeypatch):
    # At q = 3 about 44% of 3 x 3 matrices are singular.
    q, n, k = 3, 3, 24
    inst, rng = _noisy_instance(n, q, 1, 71)
    drawn = []
    real_draw = dclwe.reduce.draw_samples

    def spy(instance, rng, shape):
        out = real_draw(instance, rng, shape)
        drawn.append(out[0])
        return out

    monkeypatch.setattr(dclwe.reduce, "draw_samples", spy)
    ones = np.ones((k, 1), dtype=np.int64)
    inv, b = invertible_draws(inst, k, rng)
    stack = eliminate_rows(inst, inv, b, ones, 0)
    assert drawn[0].shape == (k, n, n) and len(drawn) > 1

    def singular(mats):
        out = []
        for i, mat in enumerate(mats):
            try:
                mat_inverse(mat, q)
            except SingularMatrix:
                out.append(i)
        return np.array(out, dtype=np.int64)

    # Replay the redraws: each later draw replaces exactly the rows still singular.
    final = drawn[0].copy()
    pending = np.arange(k)[singular(drawn[0])]
    for redraw in drawn[1:]:
        assert redraw.shape[0] == pending.size > 0
        final[pending] = redraw
        pending = pending[singular(redraw)]
    assert pending.size == 0
    # With a' = 1 a row's combination is row 0 of its final matrix's inverse.
    field = PrimeField(q)
    row_l1 = [sum(abs(field.centered(x)) for x in mat_inverse(m, q)[0]) for m in final]
    assert stack.coeff_l1_values[:, 0].tolist() == row_l1
    assert not ((stack.b_values - int(inst.s[0]) - stack.eta_values) % q).any()
    monkeypatch.setattr(dclwe.reduce, "MAX_REDRAWS", 1)
    with pytest.raises(SingularMatrix):
        invertible_draws(inst, k, rng)


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
