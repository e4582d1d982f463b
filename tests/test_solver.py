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
    CoordinateStats,
    ErrorDistribution,
    InfeasibleParameters,
    SolveParameters,
    choose_parameters,
    derive_rng,
    make_instance,
    sample_bv_stack,
    solve,
)
from dclwe import solver as solver_module
from dclwe.fq import mat_inverse
from dclwe.instance import GAUSSIAN, UNIFORM, Sample
from dclwe.qsim import atom_stage, extract_candidates
from dclwe.instance import sample_errors
from dclwe.reduce import ReducedPair, make_test_sample, synth_reduced_errors
from dclwe.solver import (
    amplified_bound,
    amplified_law,
    controlled_pass,
    controlled_refills,
    elimination_pass,
    elimination_refills,
)
from dclwe.verify import m_trial_test

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
    with pytest.raises(BoundTooLarge):
        choose_parameters(4, 101, 1, 51.0, 0.2)  # 2 xi' >= q
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 2, 0.75, 0.2)  # kappa xi not integral


def test_noiseless_budget_covers_the_nulls():
    # At xi' = 0 a coordinate fails only when all L shots are nulls (1/q
    # each), so L is the least with q^-L <= delta/n.
    n, delta = 3, 0.2
    for q, budget in [(3, 3), (5, 2), (7, 2), (11, 2)]:
        p = choose_parameters(n, q, 0, 1.0, delta)
        assert p.L == budget
        assert q**-p.L <= delta / n < q ** -(p.L - 1)
    assert choose_parameters(20, 101, 0, 1.0, delta).L == 1
    with pytest.raises(InfeasibleParameters):
        choose_parameters(8, 3, 0, 1.0, delta)  # L = 4 > q
    q, trials = 3, 400
    params = choose_parameters(n, q, 0, 1.0, delta)
    rng = derive_rng(84, 0)
    failures = sum(
        solve(_instance(n, q, 0, 85 + t), params, MODE_CONTROLLED, rng).outcome == OUTCOME_FAILURE
        for t in range(trials)
    )
    expect = 1 - (1 - q**-params.L) ** n
    assert abs(failures / trials - expect) <= binom_3sigma(expect, trials)


def test_parameter_validation():
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 0.2, gamma=0.25)
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 0.2, gamma=0.0)
    with pytest.raises(ValueError):
        choose_parameters(4, 101, 1, 1.0, 1.0)


def test_parameter_refusals_name_the_argument():
    # Each is refused before any budget is computed; a negative kappa would
    # otherwise give xi' < 0 and a budget a solve can only run to failure.
    with pytest.raises(ValueError, match="n: must be at least 1"):
        choose_parameters(0, 101, 1, 1.0, 0.2)
    for kappa in (-2.0, 0.0, float("nan")):
        with pytest.raises(ValueError, match="kappa: must be positive"):
            choose_parameters(3, 101, 1, kappa, 0.2)
    with pytest.raises(ValueError, match="xi: must be non-negative"):
        choose_parameters(3, 101, -1, 1.0, 0.2)


def test_a_bound_at_or_above_half_q_is_refused_whichever_side_of_kappa():
    # kappa < 1 keeps xi' = 1 small, but make_instance refuses xi = 51 at q = 101,
    # so no budget can be run; kappa > 1 overflows xi' instead.
    with pytest.raises(BoundTooLarge, match="^xi: bound must lie below q/2 = 50.5, got 51$"):
        choose_parameters(2, 101, 51, 1 / 51, 0.2)
    with pytest.raises(BoundTooLarge, match="^kappa/xi: bound must lie below q/2 = 50.5, got 51$"):
        choose_parameters(2, 101, 1, 51.0, 0.2)
    assert choose_parameters(2, 101, 50, 1 / 50, 0.2).xi_prime == 1  # 2 * 50 < 101 still fits


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


def _recorded_coords(refill):
    """An elimination refill source that also keeps each call's row coordinates."""
    calls = []

    def recorded(coords):
        calls.append(coords.tolist())
        return refill(coords)

    return recorded, calls


_CHUNK_CASES = (  # n, q, budget, xi, xi'
    (1, 401, 119, 1, -1),
    (1, 4093, 30, 1, -1),
    (1, 101, 3, 1, -1),
    (3, 4093, 30, 1, -1),  # a cap of 5 rows per coordinate while all three are open
    (3, 101, 87, 1, 2),
    # A wrong candidate passes one trial with probability (2 xi' + 1)/q, about
    # 0.1 here, so coordinates settle at different refills by construction.
    (8, 401, 40, 1, 20),
)


def test_chunks_stay_within_the_budget_and_the_table_cap():
    # Elimination mode's lockstep refills. At xi' = -1 no residual meets
    # the bound, so every coordinate spends its whole budget; at xi' >= 2
    # with one trial, coordinates settle at different refills.
    for n, q, budget, xi, xi_prime in _CHUNK_CASES:
        _check_elimination_chunks(n, q, budget, xi, xi_prime)


def _check_elimination_chunks(n, q, budget, xi, xi_prime):
    inst = _instance(n, q, xi, 103)
    refill, calls = _recorded_coords(elimination_refills(inst, 1, derive_rng(104, n, q)))
    per_coordinate = elimination_pass(inst.s, q, refill, budget, xi_prime)
    drawn = [0] * n
    closed = {}  # coordinate -> the refill after which it is settled or spent
    for r, coords in enumerate(calls):
        open_coords = sorted(set(coords))
        assert closed.keys().isdisjoint(open_coords)  # closed coordinates leave
        assert len(coords) * q <= solver_module.CHUNK_ENTRIES
        cap = max(1, solver_module.CHUNK_ENTRIES // (q * len(open_coords)))
        for j in open_coords:
            k = coords.count(j)
            assert k == min(max(drawn[j], 4), budget - drawn[j], cap)  # per-coordinate doubling
            drawn[j] += k
            stats = per_coordinate[j]
            if stats.accepted_value is not None and stats.shots <= drawn[j] or drawn[j] == budget:
                closed[j] = r
    assert sorted(closed) == list(range(n))
    for j, stats in enumerate(per_coordinate):
        assert stats.shots <= drawn[j] <= budget
        if stats.accepted_value is None:
            assert stats.shots == drawn[j] == budget
        else:
            # The accepted row lies in the coordinate's last chunk.
            assert drawn[j] - stats.shots < [c.count(j) for c in calls if j in c][-1]
    if xi_prime < 0:
        assert all(st.shots == budget for st in per_coordinate)
    elif n > 1:
        assert any(st.accepted_value is not None for st in per_coordinate)
        assert len(set(closed.values())) > 1


def _spy_on_refills(monkeypatch):
    """Record every stack the controlled pool measures: (a', b', c0 per row)
    as the atom stage leaves them: 0 on the atom, the stand-in 1 off it and
    None for a null."""
    refills = []

    def spy(q, a_values, b_values, rng):
        stage = atom_stage(q, a_values, b_values, rng)
        k_d = np.where(stage.atom, 0, -stage.k_star % q)
        refills.append((a_values, b_values, extract_candidates(k_d, stage.k_star, q)))
        return stage

    monkeypatch.setattr(solver_module, "atom_stage", spy)
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


def test_controlled_refill_at_q4093_holds_sixteen_rows(monkeypatch):
    # Five coordinates ask for FIRST_CHUNK * 5 = 20 rows; the table cap cuts
    # the first refill to CHUNK_ENTRIES // 4093 = 16.
    refills = _spy_on_refills(monkeypatch)
    inst = _instance(5, 4093, 1, 111)
    controlled_pass(inst.s, 4093, controlled_refills(inst, 2, 1, derive_rng(112, 0)), 30, -1)
    assert len(refills[0][2]) == 16 == solver_module.CHUNK_ENTRIES // 4093


def test_two_sigmas_give_two_amplified_laws(monkeypatch):
    # chi' keeps the instance's sigma, scaled by kappa, in the controlled
    # refill and in the classical baseline alike.
    from dclwe import classical_baseline_solve
    from dclwe import oracle as oracle_module

    seen = []
    real = solver_module.sample_errors

    def spy(chi, rng, shape):
        seen.append(chi)
        return real(chi, rng, shape)

    monkeypatch.setattr(solver_module, "sample_errors", spy)
    monkeypatch.setattr(oracle_module, "sample_errors", spy)
    q, xi, kappa = 401, 3, 2.0
    params = choose_parameters(3, q, xi, kappa, 0.2)
    for sigma in (0.3, 5.0):
        rng = derive_rng(125, 0)
        inst = make_instance(3, q, ErrorDistribution(GAUSSIAN, xi, sigma=sigma), rng)
        seen.clear()
        solve(inst, params, MODE_CONTROLLED, rng)
        classical_baseline_solve(inst, kappa, 2, 1, rng)
        assert {(chi.kind, chi.xi) for chi in seen} == {(GAUSSIAN, 6)}
        assert [chi.sigma for chi in seen] == pytest.approx([kappa * sigma] * len(seen))
    # The default sigma xi/3 maps to xi'/3 exactly, so default streams stay put.
    assert amplified_law(ErrorDistribution(GAUSSIAN, xi), 6) == ErrorDistribution(GAUSSIAN, 6)
    assert amplified_law(ErrorDistribution(UNIFORM, xi), 6) == ErrorDistribution(UNIFORM, 6)


def _every_row_refills(instance, xi_prime, m, rng):
    """Reference: the full-field controlled refill that transforms every row
    with sample_bv_stack and leaves row_verdicts to judge it at its own c0."""
    q = instance.q
    chi_prime = amplified_law(instance.chi, xi_prime)
    a_values = np.arange(q)[None]

    def refill(k):
        eta_values = synth_reduced_errors(q, a_values, k, xi_prime, chi_prime, rng)
        k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
        t = rng.integers(1, q, size=(k, m))
        return k_d, k_star, t, sample_errors(chi_prime, rng, (k, m))

    return refill


def _coordinate_law(refills, solves, seed):
    """Shots and tests per coordinate, and the offsets of the wrong accepted
    values, over `solves` n=3, q=101 solves at xi' = 2 and M = 1."""
    q = 101
    inst = _instance(3, q, 1, 121)
    budget = choose_parameters(3, q, 1, 2.0, 0.2).L
    rng = derive_rng(122, seed)
    shots, tests, wrong = [], [], []
    for _ in range(solves):
        for st, s_j in zip(controlled_pass(inst.s, q, refills(inst, 2, 1, rng), budget, 2), inst.s):
            assert st.true_rejections == 0
            shots.append(st.shots)
            tests.append(st.tests_used)
            if st.accepted_value is not None and st.accepted_value != s_j:
                wrong.append((st.accepted_value - s_j) % q)
    return np.array(shots), np.array(tests), np.bincount(wrong, minlength=q)[1:]


def _within_3_sigma(a, b):
    return abs(a.mean() - b.mean()) <= 3 * math.sqrt(a.var() / a.size + b.var() / b.size)


def test_deferred_transform_keeps_the_law_of_the_every_row_refill():
    # At xi' = 2 and M = 1 about 13.8% of coordinates accept a wrong value,
    # which the deferred refill reads off transforms of accepted rows only.
    solves = 5000
    ref_shots, ref_tests, ref_wrong = _coordinate_law(_every_row_refills, solves, 0)
    shots, tests, wrong = _coordinate_law(controlled_refills, solves, 1)
    coordinates = 3 * solves
    assert 0.12 < ref_wrong.sum() / coordinates < 0.16
    share = ref_wrong.sum() / coordinates
    # Three sigma of the difference of two independent shares.
    assert abs(wrong.sum() / coordinates - share) <= math.sqrt(2) * binom_3sigma(share, coordinates)
    assert _within_3_sigma(shots, ref_shots) and _within_3_sigma(tests, ref_tests)
    # The wrong offsets over [1, q) must agree bin by bin (homogeneity chi-square).
    both = (wrong + ref_wrong) > 0
    a, b = wrong[both], ref_wrong[both]
    scale = math.sqrt(b.sum() / a.sum())
    stat = float((((a * scale - b / scale) ** 2) / (a + b)).sum())
    dof = int(both.sum()) - 1
    assert dof > 90 and stat <= dof + 4 * math.sqrt(2 * dof)


def test_only_accepted_rows_off_the_atom_are_transformed(monkeypatch):
    # Every refill's transformed rows are exactly its non-null rows off the
    # atom that row_verdicts accepts; the others keep the stand-in c0 = 1.
    stages, handed = [], []
    real_atom, real_transform = solver_module.atom_stage, solver_module.transform_stage

    def atom_spy(*args):
        stages.append(real_atom(*args))
        return stages[-1]

    def transform_spy(stage, rows):
        handed.append(rows.tolist())
        return real_transform(stage, rows)

    monkeypatch.setattr(solver_module, "atom_stage", atom_spy)
    monkeypatch.setattr(solver_module, "transform_stage", transform_spy)
    # With M = 1 a wrong candidate passes with probability 4/100, so some
    # rows off the atom are accepted and transformed.
    q = 101
    inst = _instance(8, q, 1, 123)
    refill = controlled_refills(inst, 2, 1, derive_rng(124, 0))
    transformed = 0
    for _ in range(20):
        k_d, k_star, t, eta_t = refill(16)
        stage = stages[-1]
        assert stage.decided
        c0, _, accepted = solver_module.row_verdicts(q, k_d, k_star, t, eta_t, 2)
        off = ~stage.atom & (k_star != 0)
        assert handed[-1] == np.flatnonzero(off & accepted).tolist()
        assert (k_d[stage.atom] == 0).all()
        assert (np.array(c0)[off & ~np.array(accepted)] == 1).all()  # the stand-in
        assert ((1 <= t) & (t < q)).all()
        transformed += len(handed[-1])
    assert len(handed) == 20 and 0 < transformed < 40
@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw",
    [
        (
            8, 401, UNIFORM, 1, 2.0, None, 0,
            [(1, 2), (5, 6), (5, 6), (9, 11), (3, 4), (11, 12), (3, 4), (6, 7)],
            1052367934,
        ),
        # 21 rows over five coordinates: the first refill is cut to 16.
        (5, 4093, UNIFORM, 1, 2.0, None, 1, [(6, 7), (3, 4), (3, 4), (5, 6), (4, 5)], 940869534),
        (3, 101, GAUSSIAN, 2, 1.0, 40, 2, [(1, 3), (8, 10), (9, 11)], 862592886),
    ],
)
def test_controlled_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw
):
    # Frozen per-coordinate (shots, tests) and the next draw of the stream:
    # one changed draw anywhere in a refill, or in the sampler's tables,
    # moves a count or the next draw.
    rng = derive_rng(701, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_CONTROLLED, rng, v_size=v_size)
    assert out.outcome == OUTCOME_SUCCESS
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw",
    [
        (3, 101, UNIFORM, 1, 2.0, None, 0, OUTCOME_FAILURE, [(87, 93), (87, 91), (87, 93)], 671658735),
        (3, 101, GAUSSIAN, 1, 2.0, 40, 1, OUTCOME_SUCCESS, [(1, 3), (1, 3), (3, 5)], 293069126),
    ],
)
def test_elimination_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw
):
    # As for the controlled stream: one changed draw of a sample matrix,
    # a test input or a kernel shot moves a count or the next draw.
    rng = derive_rng(702, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_ELIMINATION, rng, v_size=v_size)
    assert out.outcome == outcome
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


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


def solve_coordinate(j, shot, test_source, budget, m, xi_prime, *, s_true=None):
    """The scalar per-coordinate loop both passes must match: up to
    `budget` shots for coordinate j, returning the accepted value or None.

    A shot returning None is a null and only consumes the shot; any
    other candidate faces an m-trial residual test at bound xi'.
    """
    stats = CoordinateStats(j=j)
    for _ in range(budget):
        stats.shots += 1
        cand = shot()
        if cand is None:
            stats.null_count += 1
            continue
        stats.candidates_tried += 1
        verdict = m_trial_test(cand, m, xi_prime, test_source)
        stats.tests_used += verdict.trials_used
        if verdict.accepted:
            stats.accepted_value = cand
            return cand, stats
        if cand == s_true:
            stats.true_rejections += 1
    return None, stats


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


def test_solve_refuses_a_negative_bound_or_budget_before_drawing():
    inst = _instance(3, 101, 1, 96)
    for field, params in (
        ("xi_prime", SolveParameters(0.125, 5, 2, -2, 0.1)),
        ("L", SolveParameters(0.125, -3, 2, 1, 0.1)),
    ):
        for mode in (MODE_CONTROLLED, MODE_ELIMINATION):
            rng = derive_rng(97, 0)
            with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
                solve(inst, params, mode, rng)
            assert rng.random() == derive_rng(97, 0).random()  # nothing was drawn
    # L = 0 is a budget, not an error: the solve fails having consumed nothing.
    for mode in (MODE_CONTROLLED, MODE_ELIMINATION):
        result = solve(inst, SolveParameters(0.125, 0, 2, 1, 0.1), mode, derive_rng(97, 1))
        assert result.outcome == OUTCOME_FAILURE and result.quantum_samples == 0


def test_amplified_bound_refuses_non_finite_kappa():
    for kappa in (math.inf, -math.inf, math.nan):
        for xi in (0, 1):
            with pytest.raises(ValueError, match="kappa: must be positive and finite"):
                amplified_bound(kappa, xi)


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


def _spy_on_eliminations(monkeypatch):
    """Record every block an elimination refill builds: (a', coordinate per row, stack)."""
    blocks = []
    real = solver_module.eliminate_rows

    def spy(instance, inv, b, a_values, coords):
        stack = real(instance, inv, b, a_values, coords)
        blocks.append((a_values, coords, stack))
        return stack

    monkeypatch.setattr(solver_module, "eliminate_rows", spy)
    return blocks


def test_elimination_mode_with_noise_stays_classified(monkeypatch):
    # Amplification is measured per row here, so each row and each test
    # pair carries its own bound; check every one against its own
    # coordinate, and confirm a whole solve completes with a legal
    # classification.
    q, n = 101, 3
    blocks = _spy_on_eliminations(monkeypatch)
    inst = _instance(n, q, 1, 101)
    refill = elimination_refills(inst, 2, derive_rng(102, 0), v_size=40)
    coords = np.array([0, 0, 1, 2, 2, 2, 1])
    k_d, k_star, t, b_t = refill(coords)
    assert k_d.shape == k_star.shape == (7,) and t.shape == b_t.shape == (7, 2)
    (a_values, batch_coords, batches), (t_values, test_coords, tests) = blocks
    assert a_values.shape == batches.b_values.shape == (7, 40)
    assert all(np.unique(row).size == 40 for row in a_values)
    assert batch_coords.tolist() == coords.tolist()
    assert t_values[:, 0].tolist() == t.ravel().tolist()
    assert test_coords.tolist() == np.repeat(coords, 2).tolist()
    assert tests.b_values.reshape(7, 2).tolist() == b_t.tolist()
    for a, j, stack in blocks:
        s_j = inst.s[j][:, None]
        assert not ((stack.b_values - a * s_j - stack.eta_values) % q).any()
        assert np.array_equal(stack.kappa, stack.coeff_l1_values.max(axis=1))
        assert (np.abs(stack.eta_values).max(axis=1) <= stack.kappa * inst.xi).all()
        assert (np.abs(stack.eta_values) <= stack.coeff_l1_values * inst.xi).all()
    assert ((1 <= t) & (t < q)).all() and np.unique(t).size > 1
    params = choose_parameters(n, q, 1, 2.0, 0.2)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(102, 1), v_size=40)
    assert out.outcome in (OUTCOME_SUCCESS, OUTCOME_FAILURE, OUTCOME_WRONG_ACCEPT)
    assert out.quantum_samples == sum(st.shots for st in out.per_coordinate) <= n * params.L


@pytest.mark.parametrize("mode", [MODE_CONTROLLED, MODE_ELIMINATION])
def test_solve_refuses_a_v_size_outside_the_field(mode):
    q = 101
    inst = _instance(2, q, 1, 113)
    params = choose_parameters(2, q, 1, 2.0, 0.2)
    rng = derive_rng(114, 0)
    state = rng.bit_generator.state
    for v_size in (0, -5, q + 1, 500):
        with pytest.raises(ValueError, match=f"v_size={v_size}") as err:
            solve(inst, params, mode, rng, v_size=v_size)
        assert f"q={q}" in str(err.value)
    assert rng.bit_generator.state == state  # refused before any draw
    out = solve(inst, params, mode, rng, v_size=q)  # the full field stays legal
    assert out.quantum_samples > 0


@pytest.mark.parametrize("mode, v_size", [
    (MODE_CONTROLLED, None),
    (MODE_CONTROLLED, 40),  # draws its inputs before the first batch's bound check
    (MODE_ELIMINATION, None),  # tests residuals against a window wider than the field
    (MODE_ELIMINATION, 40),
])
def test_solve_refuses_a_bound_that_does_not_fit_below_half_q_before_drawing(mode, v_size):
    inst = make_instance(3, 101, ErrorDistribution(UNIFORM, 1), derive_rng(1, 2))
    for xi_prime in (51, 60):
        rng = derive_rng(1, 3)
        state = rng.bit_generator.state
        with pytest.raises(BoundTooLarge, match=f"xi'={xi_prime} does not fit below q/2 for q=101"):
            solve(inst, SolveParameters(0.125, 5, 1, xi_prime, 0.1), mode, rng, v_size=v_size)
        assert rng.bit_generator.state == state
    out = solve(inst, SolveParameters(0.125, 5, 1, 50, 0.1), mode, derive_rng(1, 3), v_size=v_size)
    assert out.quantum_samples > 0  # 2 * 50 < 101 still runs


def _recorded_eliminations(monkeypatch, refill):
    """Wrap an elimination refill and record, per call, the rows' coordinates,
    the final sample draws (inverses, outputs), the measured batches
    (a', b') and the refill's output."""
    calls = []
    current = {}
    real_draws, real_measure = solver_module.invertible_draws, solver_module.sample_bv_stack

    def draws(instance, k, rng):
        current["inv"], current["b"] = real_draws(instance, k, rng)
        return current["inv"], current["b"]

    def measure(q, a_values, b_values, rng):
        current["a_values"], current["b_values"] = a_values, b_values
        return real_measure(q, a_values, b_values, rng)

    def recorded(coords):
        out = refill(coords)
        calls.append(dict(current, coords=coords.tolist(), out=out))
        return out

    monkeypatch.setattr(solver_module, "invertible_draws", draws)
    monkeypatch.setattr(solver_module, "sample_bv_stack", measure)
    return recorded, calls


def _samples(inst, inv, b):
    """The n samples behind one recorded draw: its matrix is the inverse of inv."""
    a = mat_inverse(inv, inst.q)
    eta = (b - a @ inst.s + inst.q // 2) % inst.q - inst.q // 2
    return [Sample(a=row, b=int(bi), eta=int(e)) for row, bi, e in zip(a, b, eta)]


def _scalar_elimination(inst, calls, budget, m, xi_prime):
    """solve_coordinate and m_trial_test on the recorded draws: coordinate j
    takes its own rows in order, checks each measured batch against the
    one-input elimination of that row's samples for j, and tests each
    candidate on pairs it eliminates itself from the row's own m test
    draws with make_test_sample."""
    q = inst.q
    per_coordinate = []
    for j in range(inst.n):
        s_j = int(inst.s[j])
        rows = iter(
            (call, i) for call in calls for i, c in enumerate(call["coords"]) if c == j
        )
        block = []  # the current candidate's test pairs, next one last

        def shot():
            call, i = next(rows)
            k = len(call["coords"])
            samples = _samples(inst, call["inv"][i], call["b"][i])
            # A row's combination of a' is a' times its combination of 1.
            unit = make_test_sample(samples, j, 1, inst.s, q).b_prime
            a_row = call["a_values"][i if call["a_values"].shape[0] > 1 else 0]
            assert call["b_values"][i].tolist() == (a_row * unit % q).tolist()
            t = call["out"][2][i].tolist()
            draws = [(call["inv"][k + i * m + r], call["b"][k + i * m + r]) for r in range(m)]
            block[:] = [
                lambda t_r=t_r, d=d: make_test_sample(_samples(inst, *d), j, t_r, inst.s, q)
                for t_r, d in zip(t, draws)
            ][::-1]
            k_d, k_star = call["out"][0][i], call["out"][1][i]
            return extract_candidates(np.array([k_d]), np.array([k_star]), q)[0]

        _, stats = solve_coordinate(
            j, shot, lambda: block.pop()(), budget, m, xi_prime, s_true=s_j
        )
        per_coordinate.append(stats)
    return per_coordinate


@pytest.mark.parametrize(
    "n, q, xi, budget, m, xi_prime, v_size, seeds",
    [
        (1, 31, 0, 10, 2, 0, None, 10),  # noiseless
        (3, 31, 0, 10, 2, 0, None, 10),  # noiseless, coordinates settle apart
        (3, 101, 1, 87, 3, 2, None, 3),  # noisy, the elimination-q101 point
        (3, 101, 1, 30, 2, 2, 40, 3),  # per-row input subsets
        (3, 31, 1, 2, 1, 2, None, 10),  # L below the first chunk
        (2, 31, 0, 9, 2, -1, None, 5),  # a bound no residual meets
    ],
)
def test_elimination_pass_matches_the_scalar_loop(
    monkeypatch, n, q, xi, budget, m, xi_prime, v_size, seeds
):
    totals = dict.fromkeys(("accepted", "rejected", "true_rejections"), 0)
    for seed in range(seeds):
        inst = _instance(n, q, xi, 1300 + seed)
        refill = elimination_refills(inst, m, derive_rng(1301, n, q, seed), v_size)
        refill, calls = _recorded_eliminations(monkeypatch, refill)
        per_coordinate = elimination_pass(inst.s, q, refill, budget, xi_prime)
        assert per_coordinate == _scalar_elimination(inst, calls, budget, m, xi_prime)
        for st in per_coordinate:
            totals["accepted"] += st.accepted_value is not None
            totals["rejected"] += st.candidates_tried - (st.accepted_value is not None)
            totals["true_rejections"] += st.true_rejections
    # Noiseless rows accept only true values; noisy ones reject candidates.
    assert totals["accepted"] > 0 if xi == 0 <= xi_prime else totals["rejected"] > 0
    # A noiseless true candidate always passes; a bound no residual meets rejects it.
    assert (totals["true_rejections"] > 0) == (xi > 0 or xi_prime < 0)
