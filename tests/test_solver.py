import math
from collections import Counter

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
from dclwe.fq import PrimeField
from dclwe.instance import GAUSSIAN, UNIFORM
from dclwe.qsim import CHUNK_ENTRIES, atom_rows, extract_candidates, kernel_distribution
from dclwe.instance import sample_errors
from dclwe.reduce import ReducedBatch, ReducedPair, check_rows
from dclwe.solver import (
    _verdicts,
    amplified_bound,
    amplified_law,
    controlled_pass,
    controlled_refills,
    elimination_pass,
    elimination_refills,
)
from dclwe.verify import m_trial_test

from _stats import binom_3sigma, chi_square_ok


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
        [stats] = controlled_pass(inst.s, q, refill, params.L)
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

    [stats] = controlled_pass(inst.s, 31, spy, params.L)
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
    """Record every stack the controlled pool measures: (error values, each
    row's histogram over them, c0 per row) as atom_rows leaves them: 0 on
    the atom, the stand-in 1 off it and None for a null."""
    refills = []

    def spy(q, counts, values, k_star, u):
        atom = atom_rows(q, counts, values, k_star, u)
        k_d = np.where(atom, 0, -k_star % q)
        refills.append((values, counts, extract_candidates(k_d, k_star, q)))
        return atom

    monkeypatch.setattr(solver_module, "atom_rows", spy)
    return refills


def _rejecting(refill):
    """The refill with every candidate rejected at its first trial, as
    under a test bound no residual meets; nulls keep using no tests."""

    def rejecting(k):
        c0, tests, _ = refill(k)
        return c0, [min(used, 1) for used in tests], [False] * len(c0)

    return rejecting


def test_controlled_pool_hands_each_row_to_one_coordinate(monkeypatch):
    # Every candidate is rejected, so every coordinate spends its whole
    # budget L on the next L rows.
    refills = _spy_on_refills(monkeypatch)
    for n, q, budget in ((8, 401, 119), (3, 4093, 30), (4, 101, 3), (5, 31, 6)):
        refills.clear()
        inst = _instance(n, q, 1, 105)
        refill = controlled_refills(inst, 2, 1, derive_rng(106, q))
        per_coordinate = controlled_pass(inst.s, q, _rejecting(refill), budget)
        # A refill opened at the solve's row r, inside coordinate r // budget,
        # holds FIRST_CHUNK = 4 rows per coordinate left, within the budget.
        r = 0
        for k in [len(c0) for _, _, c0 in refills]:
            assert k == min(4 * (n - r // budget), n * budget - r)
            r += k
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
    controlled_pass(inst.s, 101, _rejecting(controlled_refills(inst, 2, 1, derive_rng(108, 0))), 20)
    # FIRST_CHUNK rows per coordinate not yet run; what a coordinate
    # leaves opens the next one.
    assert [len(c0) for _, _, c0 in refills] == [16, 16, 12, 8, 8, 4, 4, 4, 4, 4]
    for values, counts, _ in refills:
        # Every batch holds all 101 inputs of the field, so its 101 pairs.
        assert (counts.sum(axis=1) == 101).all()
        assert np.abs(values[counts.any(axis=0)]).max() <= 2  # b' = eta' for an s-free row


def test_controlled_pool_keeps_the_bound_refusals(monkeypatch):
    # Both are refused when the refill source is built, before any draw.
    inst = _instance(2, 101, 1, 109)
    rng = derive_rng(110, 0)
    state = rng.bit_generator.state
    with pytest.raises(BoundTooLarge):
        controlled_refills(inst, 51, 1, rng)  # 2 * 51 >= 101
    # An error law wider than the declared xi' is refused, not measured.
    monkeypatch.setattr(
        solver_module, "ErrorDistribution", lambda kind, xi: ErrorDistribution(kind, xi + 1)
    )
    with pytest.raises(BoundTooLarge):
        controlled_refills(inst, 2, 1, rng)
    assert rng.bit_generator.state == state


def test_controlled_refill_at_q4093_is_sized_by_its_coordinates(monkeypatch):
    # Five coordinates ask for FIRST_CHUNK * 5 = 20 rows, more than
    # CHUNK_ENTRIES // 4093 = 16: the refill judges all 20, and only
    # transform_rows bounds its tables.
    refills = _spy_on_refills(monkeypatch)
    inst = _instance(5, 4093, 1, 111)
    refill = _rejecting(controlled_refills(inst, 2, 1, derive_rng(112, 0)))
    controlled_pass(inst.s, 4093, refill, 30)
    assert len(refills[0][2]) == 20 > CHUNK_ENTRIES // 4093


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


def _every_row_refills(instance, xi_prime, m, rng, v_size=None):
    """Reference: the controlled refill that draws every row's inputs and
    i.i.d. errors, transforms every row with sample_bv_stack and returns
    row_verdicts of its rows, each judged at its own c0."""
    q = instance.q
    chi_prime = amplified_law(instance.chi, xi_prime)

    def refill(k):
        if v_size is None:
            a_values = np.arange(q)[None]
        else:
            a_values = np.stack([rng.choice(q, size=v_size, replace=False) for _ in range(k)])
        eta_values = sample_errors(chi_prime, rng, (k, a_values.shape[1]))
        check_rows(q, a_values, eta_values, xi_prime)
        k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
        t = rng.integers(1, q, size=(k, m))
        eta_t = sample_errors(chi_prime, rng, (k, m))
        return solver_module.row_verdicts(q, k_d, k_star, t, eta_t, xi_prime)

    return refill


def _coordinate_law(refills, solves, seed, kind=UNIFORM, v_size=None):
    """Shots and tests per coordinate, and the offsets of the wrong accepted
    values, over `solves` n=3, q=101 solves at xi = 1, xi' = 2 and M = 1."""
    q = 101
    inst = make_instance(3, q, ErrorDistribution(kind, 1), derive_rng(121, 300))
    budget = choose_parameters(3, q, 1, 2.0, 0.2).L
    rng = derive_rng(122, seed)
    shots, tests, wrong = [], [], []
    for _ in range(solves):
        refill = refills(inst, 2, 1, rng, v_size)
        for st, s_j in zip(controlled_pass(inst.s, q, refill, budget), inst.s):
            assert st.true_rejections == 0
            shots.append(st.shots)
            tests.append(st.tests_used)
            if st.accepted_value is not None and st.accepted_value != s_j:
                wrong.append((st.accepted_value - s_j) % q)
    return np.array(shots), np.array(tests), np.bincount(wrong, minlength=q)[1:]


def _within_3_sigma(a, b):
    return abs(a.mean() - b.mean()) <= 3 * math.sqrt(a.var() / a.size + b.var() / b.size)


def _check_same_law(solves, wrong_share, kind=UNIFORM, v_size=None):
    """The histogram refill against the every-row reference at xi' = 2 and
    M = 1, where a sizable share of coordinates accept a wrong value: the
    wrong share, shots and tests per coordinate within 3 sigma, and the
    wrong offsets bin by bin."""
    ref_shots, ref_tests, ref_wrong = _coordinate_law(_every_row_refills, solves, 0, kind, v_size)
    shots, tests, wrong = _coordinate_law(controlled_refills, solves, 1, kind, v_size)
    coordinates = 3 * solves
    assert wrong_share[0] < ref_wrong.sum() / coordinates < wrong_share[1]
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


def test_deferred_transform_keeps_the_law_of_the_every_row_refill():
    # About 13.8% of coordinates accept a wrong value, which the histogram
    # refill reads off transforms of accepted rows only.
    _check_same_law(5000, (0.12, 0.16))


@pytest.mark.parametrize(
    "kind, v_size, solves, wrong_share",
    [
        (GAUSSIAN, 40, 2000, (0.13, 0.18)),
        # Batches of five span all 2 xi' + 1 = 5 values: no atom decision
        # before histograms, and most coordinates accept a wrong value.
        (UNIFORM, 5, 800, (0.64, 0.72)),
    ],
)
def test_partial_batches_keep_the_law_of_the_every_row_refill(kind, v_size, solves, wrong_share):
    _check_same_law(solves, wrong_share, kind, v_size)


def test_only_accepted_rows_off_the_atom_are_transformed(monkeypatch):
    # Every refill's transformed rows are exactly its non-null rows off the
    # atom that pass every trial at the stand-in c0 = 1; the others keep
    # it, and atom rows read c0 = 0.
    atoms, handed = [], []
    real_atom, real_transform = solver_module.atom_rows, solver_module.transform_rows

    def atom_spy(q, counts, values, k_star, u):
        atoms.append((real_atom(q, counts, values, k_star, u), k_star))
        return atoms[-1][0]

    def transform_spy(q, a_values, b_values, k_star, u):
        handed[-1].extend(k_star.tolist())
        return real_transform(q, a_values, b_values, k_star, u)

    monkeypatch.setattr(solver_module, "atom_rows", atom_spy)
    monkeypatch.setattr(solver_module, "transform_rows", transform_spy)
    # With M = 1 a wrong candidate passes with probability 4/100, so some
    # rows off the atom are accepted and transformed.
    q = 101
    inst = _instance(8, q, 1, 123)
    refill = controlled_refills(inst, 2, 1, derive_rng(124, 0))
    transformed = 0
    for _ in range(20):
        handed.append([])
        c0, tests, accepted = (np.array(v) for v in refill(16))
        atom, k_star = atoms[-1]
        off = ~atom & (k_star != 0)
        assert handed[-1] == k_star[off & accepted].tolist()
        assert (c0[atom] == 0).all() and (c0[off & accepted] != 0).all()
        assert (c0[off & ~accepted] == 1).all()  # the stand-in
        assert ((tests == 0) == (k_star == 0)).all()
        transformed += len(handed[-1])
    assert len(atoms) == 20 and 0 < transformed < 40


class _CountingRng:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("v_size", [None, 25])
def test_errors_and_inputs_are_arranged_only_for_transformed_rows(monkeypatch, v_size):
    # A refill draws every row's error histogram, but only the rows it hands
    # to transform_rows get their errors arranged (one permutation each of
    # their own histogram) and, below the full field, their inputs drawn
    # (one choice each).
    built = []
    real_transform = solver_module.transform_rows

    def transform_spy(q, a_values, b_values, k_star, u):
        built.append((a_values, b_values))
        return real_transform(q, a_values, b_values, k_star, u)

    monkeypatch.setattr(solver_module, "transform_rows", transform_spy)
    refills = _spy_on_refills(monkeypatch)
    q = 101
    rng = _CountingRng(derive_rng(126, 0))
    refill = controlled_refills(_instance(8, q, 1, 125), 2, 1, rng, v_size)
    transformed = 0
    for _ in range(20):
        built.clear()
        rng.calls.clear()
        _, _, accepted = refill(16)
        values, counts, c0 = refills[-1]
        rows = np.flatnonzero((np.array(c0) == 1) & np.array(accepted))  # off the atom
        assert rng.calls["permutation"] == len(rows)
        assert rng.calls["choice"] == (len(rows) if v_size else 0)
        if not len(rows):
            assert built == []
            continue
        [(a_values, eta_values)] = built
        assert eta_values.shape == (len(rows), v_size or q)
        for row, eta in zip(rows, eta_values):
            assert np.array_equal(np.bincount(eta - values[0], minlength=values.size), counts[row])
        if v_size:
            assert a_values.shape == (len(rows), v_size)
            assert all(np.unique(row).size == v_size for row in a_values)
        else:
            assert a_values.tolist() == [list(range(q))]
        transformed += len(rows)
    assert transformed > 0


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw",
    [
        (
            8, 401, UNIFORM, 1, 2.0, None, 0,
            [(6, 7), (2, 3), (1, 2), (1, 2), (1, 2), (26, 27), (7, 8), (5, 6)],
            716670544,
        ),
        # 17 rows over five coordinates, all from the first refill of 20.
        (5, 4093, UNIFORM, 1, 2.0, None, 1, [(6, 7), (4, 5), (4, 5), (2, 3), (1, 2)], 565013089),
        (3, 101, GAUSSIAN, 2, 1.0, 40, 2, [(2, 4), (13, 14), (5, 8)], 18941742),
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
        (3, 101, UNIFORM, 1, 2.0, None, 0, OUTCOME_FAILURE, [(87, 90), (87, 90), (87, 92)], 305988543),
        (3, 101, GAUSSIAN, 1, 2.0, 40, 1, OUTCOME_SUCCESS, [(5, 7), (4, 8), (1, 3)], 746146400),
    ],
)
def test_elimination_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw
):
    # As for the controlled stream: one changed draw of an elimination row,
    # a test input or a kernel shot moves a count or the next draw.
    rng = derive_rng(702, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_ELIMINATION, rng, v_size=v_size)
    assert out.outcome == outcome
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


def _recorded_synthetic(q, m, xi_prime, rng):
    """A refill of synthetic rows, judged by row_verdicts, and the rows it
    hands out, in order, as (c0 or None for a null, test inputs, errors):
    rows rich in nulls, true candidates (c0 = 0) and c0 = 1, with errors
    one wider than xi' so that true candidates can fail too."""
    rows = []

    def refill(k):
        k_star = rng.integers(q, size=k)
        k_star[rng.random(k) < 0.2] = 0
        k_d = rng.integers(q, size=k)
        pick = rng.random(k)
        k_d[pick < 0.3] = 0
        k_d[pick > 0.8] = (-k_star[pick > 0.8]) % q  # c0 = 1
        t = rng.integers(1, q, size=(k, m))
        eta = rng.integers(-xi_prime - 1, xi_prime + 2, size=(k, m))
        c0s = extract_candidates(k_d, k_star, q)
        rows.extend(zip(c0s, t.tolist(), eta.tolist()))
        return solver_module.row_verdicts(q, k_d, k_star, t, eta, xi_prime)

    return refill, rows


def _recorded_controlled(monkeypatch, refill, q):
    """The controlled refill and the rows it hands out, in order, as
    (c0 or None for a null, test inputs, errors), rebuilt from each row's
    c0, its k* (as atom_rows gets it) and its test pairs (t, eta') (as
    _verdicts gets them). An atom row keeps its inputs t, for residuals
    eta'; a row off it takes t c0^-1, for residuals eta' - t whatever its
    c0, as the refill judged it."""
    rows, k_stars, pairs = [], [], []
    inverse = PrimeField(q).inverse_table()

    def atom_spy(q, counts, values, k_star, u):
        k_stars.append(k_star)
        return atom_rows(q, counts, values, k_star, u)

    def verdicts_spy(field, c, t, b, xi_prime, null):
        pairs.append((t, b))
        return _verdicts(field, c, t, b, xi_prime, null)

    monkeypatch.setattr(solver_module, "atom_rows", atom_spy)
    monkeypatch.setattr(solver_module, "_verdicts", verdicts_spy)

    def recorded(k):
        c0s, tests, accepted = refill(k)
        (t, eta), k_star = pairs[-1], k_stars[-1]
        for c0, null, t_row, eta_row in zip(c0s, k_star == 0, t, eta):
            inputs = t_row * inverse[c0] % q if c0 else t_row
            rows.append((None if null else c0, inputs.tolist(), eta_row.tolist()))
        return c0s, tests, accepted

    return recorded, rows


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
    block of pairs (a, a s_j + e)."""
    rows = iter(rows)
    per_coordinate = []
    for j in range(len(s)):
        s_j = int(s[j]) % q
        block = []  # the current candidate's test pairs, next one last

        def shot():
            c0, inputs, errors = next(rows)
            block[:] = [ReducedPair(a, (a * s_j + e) % q, e, 0, q) for a, e in zip(inputs, errors)]
            block.reverse()
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
def test_controlled_pass_matches_the_scalar_loop(monkeypatch, n, q, budget, m, xi_prime, v_size):
    totals = dict.fromkeys(("accepted", "nulls", "rejected", "true_rejections"), 0)
    for seed in range(25):
        inst = _instance(n, q, 1, 1200 + seed)
        rng = derive_rng(1201, n, q, seed)
        if v_size is None and q < 400:
            refill, rows = _recorded_synthetic(q, m, xi_prime, rng)
        else:
            refill = controlled_refills(inst, xi_prime, m, rng, v_size)
            refill, rows = _recorded_controlled(monkeypatch, refill, q)
        per_coordinate = controlled_pass(inst.s, q, refill, budget)
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


def test_amplified_bound_refuses_a_noisy_bound_rounded_to_zero():
    # The tolerance forgives float error such as 0.1 * 30, not a kappa
    # that turns a noisy xi = 1 into xi' = 0.
    for kappa, xi in ((1e-10, 1), (1e-12, 5)):
        with pytest.raises(ValueError, match="kappa/xi: a positive kappa \\* xi must be at least 1"):
            amplified_bound(kappa, xi)
    assert amplified_bound(1e-10, 0) == 0
    assert amplified_bound(0.1, 30) == 3


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
    controlled_pass(inst.s, 101, refill, params.L)
    # Eight histograms of 25 pairs each; test_errors_and_inputs_are_arranged_
    # only_for_transformed_rows checks the inputs of the rows transformed.
    values, counts, _ = refills[0]
    assert counts.shape == (8, values.size) and (counts.sum(axis=1) == 25).all()
    refills.clear()
    refill = controlled_refills(inst, params.xi_prime, params.M, rng)
    controlled_pass(inst.s, 101, refill, params.L)
    values, counts, _ = refills[0]
    assert counts.shape == (8, values.size) and (counts.sum(axis=1) == 101).all()


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

    def spy(instance, r, e, a_values, coords):
        stack = real(instance, r, e, a_values, coords)
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


@pytest.mark.parametrize("kind, v_size", [(GAUSSIAN, 40), (UNIFORM, 5)])
def test_partial_elimination_rows_draw_the_law_of_their_batch(monkeypatch, kind, v_size):
    # Each row's k_d, given its sigma = r . b and k*, against the closed-form
    # grid of its own batch b' = a' sigma. Every row ranks its k_d values
    # from most to least likely, and the ranks drawn are pooled over rows
    # against the mean ranked law (chi-square).
    q, k = 101, 1000
    blocks = _spy_on_eliminations(monkeypatch)
    inst = make_instance(3, q, ErrorDistribution(kind, 1), derive_rng(131, 0))
    k_d, k_star, _, _ = elimination_refills(inst, 1, derive_rng(131, 1), v_size)(np.arange(k) % 3)
    (a_values, _, batches), _ = blocks
    expected, ranks = np.zeros(q), []
    zeros = np.zeros(v_size, dtype=np.int64)
    for a, sigma, ks, kd in zip(a_values, batches.rb, k_star, k_d):
        law = kernel_distribution(ReducedBatch(0, q, a, a * sigma % q, zeros, zeros, 0, 1.0))[:, ks]
        order = np.argsort(-law, kind="stable")
        expected += law[order] * q
        ranks.append(int(np.flatnonzero(order == kd)[0]))
    assert chi_square_ok(np.bincount(ranks, minlength=q), expected / k, k)
    on_atom = k_d == -batches.rb * k_star % q
    assert 0 < on_atom.sum() < k  # rows on the atom and rows off it


def test_elimination_rows_off_the_atom_are_transformed_as_their_s_free_rows(monkeypatch):
    # Only partial rows that atom_rows puts off the atom reach the transform,
    # each as its own inputs at error 0, and a k_d0 = 0 from it reads as 1:
    # k_d = 1 - sigma k*. Every other row reads k_d = -sigma k*.
    q = 101
    blocks, decided, handed = _spy_on_eliminations(monkeypatch), [], []
    real_atom = solver_module.atom_rows

    def atom_spy(q, counts, values, k_star, u):
        decided.append(real_atom(q, counts, values, k_star, u))
        return decided[-1]

    def zeros(q, a_values, b_values, k_star, u):
        handed.append((a_values, b_values, k_star))
        return np.zeros(len(k_star), dtype=np.int64)

    monkeypatch.setattr(solver_module, "atom_rows", atom_spy)
    monkeypatch.setattr(solver_module, "transform_rows", zeros)
    inst = _instance(3, q, 1, 132)
    for v_size in (40, None):
        del blocks[:], decided[:], handed[:]
        k_d, k_star, _, _ = elimination_refills(inst, 2, derive_rng(132, 0), v_size)(np.arange(64) % 3)
        [atom] = decided
        (a_values, _, batches), _ = blocks
        [(a_off, b_off, k_star_off)] = handed
        off = ~atom
        assert np.array_equal(a_off, a_values[np.flatnonzero(off)]) and not b_off.any()
        assert np.array_equal(k_star_off, k_star[off])
        assert np.array_equal(k_d, (off - batches.rb * k_star) % q)
        assert off.any() if v_size else not off.any()


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
    the elimination rows drawn (inverse rows r, hidden errors e), the measured
    batches (a', b') from its first eliminate_rows call, and its output."""
    calls = []
    current = {}
    real_draws, real_eliminate = solver_module.inverse_row_draws, solver_module.eliminate_rows

    def draws(instance, k, rng):
        current["r"], current["e"] = real_draws(instance, k, rng)
        return current["r"], current["e"]

    def eliminate(instance, r, e, a_values, coords):
        stack = real_eliminate(instance, r, e, a_values, coords)
        current.setdefault("a_values", a_values)  # the batches; their test pairs come next
        current.setdefault("b_values", stack.b_values)
        return stack

    def recorded(coords):
        current.clear()
        out = refill(coords)
        calls.append(dict(current, coords=coords.tolist(), out=out))
        return out

    monkeypatch.setattr(solver_module, "inverse_row_draws", draws)
    monkeypatch.setattr(solver_module, "eliminate_rows", eliminate)
    return recorded, calls


def _pair_by_hand(inst, r, e, j, a):
    """The pair (a, a (r . b)) for coordinate j in Python ints, r . b = s_j + r . e."""
    q, h = inst.q, inst.q // 2
    noise = sum(int(x) * int(y) for x, y in zip(r, e))
    return ReducedPair(a, a * (int(inst.s[j]) + noise) % q, (a * noise + h) % q - h, 0, q)


def _scalar_elimination(inst, calls, budget, m, xi_prime):
    """solve_coordinate and m_trial_test on the recorded draws: coordinate j
    takes its own rows in order, checks each measured batch against its
    row's (r, e) combined by hand, and tests each candidate on pairs it
    forms by hand from the row's own m test draws."""
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
            k, r, e = len(call["coords"]), call["r"], call["e"]
            a_row = call["a_values"][i if call["a_values"].shape[0] > 1 else 0].tolist()
            by_hand = [_pair_by_hand(inst, r[i], e[i], j, a).b_prime for a in a_row]
            assert call["b_values"][i].tolist() == by_hand
            t = call["out"][2][i].tolist()
            tests = [k + i * m + d for d in range(m)]
            block[:] = [_pair_by_hand(inst, r[d], e[d], j, t_d) for t_d, d in zip(t, tests)][::-1]
            k_d, k_star = call["out"][0][i], call["out"][1][i]
            return extract_candidates(np.array([k_d]), np.array([k_star]), q)[0]

        _, stats = solve_coordinate(j, shot, block.pop, budget, m, xi_prime, s_true=s_j)
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
