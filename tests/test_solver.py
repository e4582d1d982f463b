import math

import numpy as np
import pytest

from dclwe import (
    MODE_CONTROLLED,
    MODE_ELIMINATION,
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    OUTCOME_WRONG_ACCEPT,
    BoundTooLarge,
    ErrorDistribution,
    InfeasibleParameters,
    ReducedPair,
    SolveParameters,
    choose_parameters,
    controlled_pass,
    controlled_refills,
    derive_rng,
    elimination_sources,
    extract_candidates,
    kernel_shot,
    make_instance,
    sample_bv_stack,
    solve,
    solve_coordinate,
)
from dclwe import solver as solver_module
from dclwe.instance import UNIFORM

from _stats import binom_3sigma


def _instance(n, q, xi, seed):
    rng = derive_rng(seed, 300)
    return make_instance(n, q, ErrorDistribution(UNIFORM, xi), rng)


def test_retry_constant_at_gamma_eighth():
    p = choose_parameters(4, 101, 1, 1.0, 0.2)
    assert p.C == pytest.approx(1 / 16)
    assert p.gamma == 0.125
    assert p.xi_prime == 1


def test_budget_example_large_field():
    # xi' = 8, gamma = 1/8, n = 4, delta = 0.2:
    # L = ceil(128 * ln 20) = 384, within q = 401.
    p = choose_parameters(4, 401, 1, 8.0, 0.2)
    assert p.L == 384
    assert p.L == math.ceil((8 / (1 / 16)) * math.log(4 / 0.2))


def test_budget_example_production_point():
    p = choose_parameters(8, 401, 1, 2.0, 0.2)
    assert (p.L, p.M, p.xi_prime) == (119, 2, 2)


def test_budget_never_below_one_shot():
    p = choose_parameters(1, 101, 1, 1.0, 0.99)
    assert p.L == 1


def test_trial_count_is_minimal():
    for n, q, kappa in [(8, 401, 2.0), (4, 101, 1.0), (2, 401, 4.0)]:
        p = choose_parameters(n, q, 1, kappa, 0.2)
        per_trial = (2 * p.xi_prime + 1) / q
        target = 0.2 / n
        assert p.L * per_trial**p.M <= target
        if p.M > 1:
            assert p.L * per_trial ** (p.M - 1) > target


def test_parameter_infeasibility():
    with pytest.raises(InfeasibleParameters):
        choose_parameters(4, 101, 1, 8.0, 0.2)  # L = 384 > q
    with pytest.raises(InfeasibleParameters):
        choose_parameters(4, 101, 1, 51.0, 0.2)  # 2 xi' >= q
    with pytest.raises(InfeasibleParameters):
        choose_parameters(4, 101, 2, 0.75, 0.2)  # kappa xi not integral


def test_parameter_validation():
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 0.2, gamma=0.25)
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 0.2, gamma=0.0)
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 1.0)


def test_noiseless_coordinate_settles_on_first_informative_shot():
    # Null rate is exactly 1/q, so shots per coordinate are geometric
    # with mean q / (q - 1).
    q = 31
    inst = _instance(1, q, 0, 80)
    params = SolveParameters(gamma=0.125, L=20, M=1, xi_prime=0, C=1 / 16)
    shots = []
    rng = derive_rng(81, 0)
    for _ in range(2000):
        refill = controlled_refills(inst, params.xi_prime, params.M, rng)
        [stats] = controlled_pass(inst.s, q, refill, params.L, params.xi_prime)
        assert stats.accepted_value == int(inst.s[0]) % q
        assert stats.null_count == stats.shots - 1
        shots.append(stats.shots)
    mean = float(np.mean(shots))
    var = (1 / q) / (1 - 1 / q) ** 2
    assert abs(mean - q / (q - 1)) < 3 * math.sqrt(var / 2000)


def test_zero_budget_consumes_nothing():
    inst = _instance(1, 31, 0, 82)
    params = SolveParameters(gamma=0.125, L=0, M=1, xi_prime=0, C=1 / 16)
    refill = controlled_refills(inst, params.xi_prime, params.M, derive_rng(83, 0))
    requested = []

    def spy(k):
        requested.append(k)
        return refill(k)

    [stats] = controlled_pass(inst.s, 31, spy, params.L, params.xi_prime)
    assert stats.accepted_value is None
    assert stats.shots == 0 and stats.tests_used == 0
    assert requested == []


def test_chunks_stay_within_the_budget_and_the_table_cap():
    # Elimination mode's kernel_shot. A test bound no residual meets
    # rejects every candidate, so the coordinate spends its whole budget.
    for q, budget in ((401, 119), (4093, 30), (101, 3)):
        inst = _instance(1, q, 1, 103)
        rng = derive_rng(104, q)
        bs, ts = elimination_sources(inst, 0, rng)
        requested = []

        def spy(k):
            requested.append(k)
            return bs(k)

        value, stats = solve_coordinate(0, kernel_shot(spy, q, budget, rng), ts, budget, 1, -1)
        assert value is None and stats.shots == budget
        assert sum(requested) == budget
        assert max(requested) <= max(1, solver_module.CHUNK_ENTRIES // q)
        assert requested[0] == min(4, budget, solver_module.CHUNK_ENTRIES // q)


def _spy_on_refills(monkeypatch):
    """Record every stack the controlled pool measures: (a', b', c0 per row)."""
    refills = []

    def spy(q, a_values, b_values, rng):
        k_d, k_star = sample_bv_stack(q, a_values, b_values, rng)
        refills.append((a_values, b_values, extract_candidates(k_d, k_star, q)))
        return k_d, k_star

    monkeypatch.setattr(solver_module, "sample_bv_stack", spy)
    return refills


def test_controlled_pool_hands_each_row_to_one_coordinate(monkeypatch):
    # A test bound no residual meets rejects every candidate, so every
    # coordinate spends its whole budget L on the next L rows.
    refills = _spy_on_refills(monkeypatch)
    for n, q, budget in ((8, 401, 119), (3, 4093, 30), (4, 101, 3), (5, 31, 6)):
        refills.clear()
        inst = _instance(n, q, 1, 105)
        refill = controlled_refills(inst, 2, 1, derive_rng(106, q))
        per_coordinate = controlled_pass(inst.s, q, refill, budget, -1)
        sizes = [len(c0) for _, _, c0 in refills]
        assert all(k * q <= solver_module.CHUNK_ENTRIES for k in sizes)
        drawn = [c0 for _, _, rows in refills for c0 in rows]
        assert n * budget <= len(drawn) < n * budget + 4
        for j, stats in enumerate(per_coordinate):
            rows = drawn[j * budget : (j + 1) * budget]
            nulls = rows.count(None)
            assert stats.accepted_value is None and stats.shots == budget
            assert stats.null_count == nulls
            assert stats.candidates_tried == stats.tests_used == budget - nulls
            # Row c0 = 0 is coordinate j's true value s_j + 0, rejected here.
            assert stats.true_rejections == rows.count(0)


def test_controlled_pool_refills_are_s_free_and_shrink_with_the_coordinates(monkeypatch):
    refills = _spy_on_refills(monkeypatch)
    inst = _instance(4, 101, 1, 107)
    controlled_pass(inst.s, 101, controlled_refills(inst, 2, 1, derive_rng(108, 0)), 20, -1)
    # FIRST_CHUNK rows per coordinate not yet run; what a coordinate
    # leaves opens the next one.
    assert [len(c0) for _, _, c0 in refills] == [16, 16, 12, 8, 8, 4, 4, 4, 4, 4]
    for a_values, b_values, _ in refills:
        assert a_values.tolist() == [list(range(101))]
        eta = (b_values + 50) % 101 - 50  # b' = eta' for an s-free row
        assert np.abs(eta).max() <= 2


def test_controlled_pool_keeps_the_bound_refusals(monkeypatch):
    inst = _instance(2, 101, 1, 109)
    refill = controlled_refills(inst, 51, 1, derive_rng(110, 0))  # 2 * 51 >= 101
    with pytest.raises(BoundTooLarge):
        controlled_pass(inst.s, 101, refill, 10, 51)
    # An error law wider than the declared xi' is refused, not measured.
    monkeypatch.setattr(
        solver_module, "ErrorDistribution", lambda kind, xi: ErrorDistribution(kind, xi + 1)
    )
    refill = controlled_refills(inst, 2, 1, derive_rng(110, 1))
    with pytest.raises(BoundTooLarge):
        controlled_pass(inst.s, 101, refill, 10, 2)


def test_controlled_refill_at_q4093_holds_eight_rows(monkeypatch):
    refills = _spy_on_refills(monkeypatch)
    inst = _instance(3, 4093, 1, 111)
    controlled_pass(inst.s, 4093, controlled_refills(inst, 2, 1, derive_rng(112, 0)), 30, -1)
    assert len(refills[0][2]) == 8 == solver_module.CHUNK_ENTRIES // 4093


def _recorded(refill):
    """A refill source that also keeps every row it hands out, in order,
    as (k_d, k*, its test pairs' t, their eta')."""
    rows = []

    def recorded(k):
        out = refill(k)
        rows.extend(zip(*(column.tolist() for column in out)))
        return out

    return recorded, rows


def _synthetic_refill(q, m, xi_prime, rng):
    """Rows rich in nulls, true candidates (c0 = 0) and c0 = 1, with
    errors one wider than xi' so that true candidates can fail too."""

    def refill(k):
        k_star = rng.integers(q, size=k)
        k_star[rng.random(k) < 0.2] = 0
        k_d = rng.integers(q, size=k)
        pick = rng.random(k)
        k_d[pick < 0.3] = 0
        k_d[pick > 0.8] = (-k_star[pick > 0.8]) % q  # c0 = 1
        t = rng.integers(1, q, size=(k, m))
        eta = rng.integers(-xi_prime - 1, xi_prime + 2, size=(k, m))
        return k_d, k_star, t, eta

    return refill


def _scalar_reference(s, q, rows, budget, m, xi_prime):
    """solve_coordinate and m_trial_test over `rows` in order: coordinate j
    reads a row's candidate as s_j + c0 and tests it on that row's own
    block of pairs (t, t s_j + eta')."""
    rows = iter(rows)
    per_coordinate = []
    for j in range(len(s)):
        s_j = int(s[j]) % q
        block = []  # the current candidate's test pairs, next one last

        def shot():
            k_d, k_star, t, eta = next(rows)
            block[:] = [ReducedPair(a, (a * s_j + e) % q, e, 0, q) for a, e in zip(t, eta)][::-1]
            [c0] = extract_candidates(np.array([k_d]), np.array([k_star]), q)
            return None if c0 is None else (s_j + c0) % q

        _, stats = solve_coordinate(j, shot, block.pop, budget, m, xi_prime, s_true=s_j)
        per_coordinate.append(stats)
    return per_coordinate


@pytest.mark.parametrize(
    "n, q, budget, m, xi_prime, v_size",
    [
        (1, 13, 6, 2, 0, None),  # xi' = 0
        (3, 13, 5, 3, -1, None),  # a bound no residual meets
        (8, 31, 2, 2, 1, None),  # L smaller than a refill
        (3, 101, 12, 2, 2, 40),  # measured rows, partial v_size
        (8, 401, 119, 2, 2, None),  # measured rows, the acceptance point
        (3, 11, 4, 1, 1, None),
    ],
)
def test_controlled_pass_matches_the_scalar_loop(n, q, budget, m, xi_prime, v_size):
    totals = dict.fromkeys(("accepted", "nulls", "rejected", "true_rejections"), 0)
    for seed in range(25):
        inst = _instance(n, q, 1, 1200 + seed)
        rng = derive_rng(1201, n, q, seed)
        if v_size is None and q < 400:
            refill = _synthetic_refill(q, m, xi_prime, rng)
        else:
            refill = controlled_refills(inst, xi_prime, m, rng, v_size)
        refill, rows = _recorded(refill)
        per_coordinate = controlled_pass(inst.s, q, refill, budget, xi_prime)
        assert per_coordinate == _scalar_reference(inst.s, q, rows, budget, m, xi_prime)
        for st in per_coordinate:
            totals["accepted"] += st.accepted_value is not None
            totals["nulls"] += st.null_count
            totals["rejected"] += st.candidates_tried - (st.accepted_value is not None)
            totals["true_rejections"] += st.true_rejections
    # Every case sees nulls and rejections; only the bound no residual
    # meets accepts nothing, and only synthetic rows fail a true value.
    assert totals["nulls"] > 0 and totals["rejected"] > 0
    assert (totals["accepted"] > 0) == (xi_prime >= 0)
    synthetic = v_size is None and q < 400
    assert (totals["true_rejections"] > 0) == synthetic


def test_true_candidate_never_rejected_in_controlled_mode():
    # The controlled test source draws |eta| <= xi', so the true value
    # always passes; any true rejection is a harness bug.
    inst = _instance(3, 101, 1, 84)
    params = choose_parameters(3, 101, 1, 2.0, 0.2)
    for seed in range(60):
        out = solve(inst, params, MODE_CONTROLLED, derive_rng(85, seed))
        assert all(st.true_rejections == 0 for st in out.per_coordinate)


def test_solve_respects_quantum_budget_and_classifies():
    inst = _instance(4, 101, 1, 86)
    params = choose_parameters(4, 101, 1, 2.0, 0.2)
    seen = set()
    for seed in range(40):
        out = solve(inst, params, MODE_CONTROLLED, derive_rng(87, seed))
        seen.add(out.outcome)
        assert out.quantum_samples <= 4 * params.L
        assert out.test_samples == sum(st.tests_used for st in out.per_coordinate)
        if out.outcome == OUTCOME_FAILURE:
            assert out.returned_s is None
        else:
            assert out.returned_s is not None and out.returned_s.shape == (4,)
    assert OUTCOME_SUCCESS in seen


def test_solve_is_deterministic_under_a_fixed_stream():
    inst = _instance(3, 101, 1, 88)
    params = choose_parameters(3, 101, 1, 2.0, 0.2)
    a = solve(inst, params, MODE_CONTROLLED, derive_rng(89, 0))
    b = solve(inst, params, MODE_CONTROLLED, derive_rng(89, 0))
    assert a.outcome == b.outcome
    assert a.quantum_samples == b.quantum_samples
    assert a.test_samples == b.test_samples
    assert [st.shots for st in a.per_coordinate] == [st.shots for st in b.per_coordinate]


def test_solve_mode_validation():
    inst = _instance(2, 17, 0, 92)
    params = SolveParameters(gamma=0.125, L=5, M=1, xi_prime=0, C=1 / 16)
    with pytest.raises(ValueError):
        solve(inst, params, "hybrid", derive_rng(93, 0))
    # Without a trial a candidate's verdict would read as a null's.
    no_trials = SolveParameters(gamma=0.125, L=5, M=0, xi_prime=0, C=1 / 16)
    with pytest.raises(ValueError):
        solve(inst, no_trials, MODE_CONTROLLED, derive_rng(93, 1))


def test_single_shot_budget_mostly_fails():
    # With L = 1 a noisy coordinate usually yields no accepted value.
    inst = _instance(2, 11, 1, 94)
    params = SolveParameters(gamma=0.125, L=1, M=2, xi_prime=2, C=1 / 16)
    outcomes = [
        solve(inst, params, MODE_CONTROLLED, derive_rng(95, seed)).outcome
        for seed in range(200)
    ]
    assert outcomes.count(OUTCOME_FAILURE) > 100


def test_wrong_accept_rate_within_union_bound():
    # Deliberately weak test (M = 1) on a noisy instance: the rate of
    # accepting a wrong coordinate somewhere must stay under the
    # n * L * (2 xi' + 1)/q union bound.
    q, n, xi_p, l_budget = 101, 2, 4, 8
    params = SolveParameters(gamma=0.125, L=l_budget, M=1, xi_prime=xi_p, C=1 / 16)
    trials = 1500
    wrong = 0
    for seed in range(trials):
        inst = _instance(n, q, 1, 9000 + seed)
        out = solve(inst, params, MODE_CONTROLLED, derive_rng(96, seed))
        wrong += out.outcome == OUTCOME_WRONG_ACCEPT
    bound = n * l_budget * (2 * xi_p + 1) / q
    assert wrong / trials <= bound + binom_3sigma(min(bound, 1.0), trials)


def test_controlled_sources_honor_v_size(monkeypatch):
    refills = _spy_on_refills(monkeypatch)
    inst = _instance(2, 101, 1, 97)
    params = choose_parameters(2, 101, 1, 2.0, 0.2)
    rng = derive_rng(98, 0)
    refill = controlled_refills(inst, params.xi_prime, params.M, rng, v_size=25)
    controlled_pass(inst.s, 101, refill, params.L, params.xi_prime)
    a_values, b_values, _ = refills[0]
    assert a_values.shape == b_values.shape == (8, 25)
    assert all(np.unique(row).size == 25 for row in a_values)
    refills.clear()
    refill = controlled_refills(inst, params.xi_prime, params.M, rng)
    controlled_pass(inst.s, 101, refill, params.L, params.xi_prime)
    a_values, b_values, _ = refills[0]
    assert a_values.tolist() == [list(range(101))]
    assert b_values.shape == (8, 101)


def test_elimination_mode_recovers_noiseless_secret():
    inst = _instance(3, 31, 0, 99)
    params = SolveParameters(gamma=0.125, L=10, M=2, xi_prime=0, C=1 / 16)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(100, 0))
    assert out.outcome == OUTCOME_SUCCESS
    assert np.array_equal(out.returned_s, inst.s % 31)


def test_elimination_mode_with_noise_stays_classified():
    # Amplification is measured per batch here, so xi' in the params
    # must cover the worst case; use a generous bound and confirm the
    # run completes with a legal classification.
    inst = _instance(2, 101, 1, 101)
    rng = derive_rng(102, 0)
    bs, ts = elimination_sources(inst, 0, rng, v_size=40)
    a_values, b_values = bs(3)
    assert a_values.shape == b_values.shape == (3, 40)
    assert all(np.unique(row).size == 40 for row in a_values)
    # Test pairs come in blocks (4, 4, 8, 16, ...); 50 of them span five.
    # Each satisfies the reduced identity for coordinate 0 within its own bound.
    pairs = [ts() for _ in range(50)]
    for pair in pairs:
        assert 1 <= pair.a_prime < 101
        assert (pair.b_prime - pair.a_prime * int(inst.s[0]) - pair.eta_prime) % 101 == 0
        assert abs(pair.eta_prime) <= pair.coeff_l1 * inst.xi
    assert len({pair.a_prime for pair in pairs}) > 1

