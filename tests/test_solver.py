import cmath
import dataclasses
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
from dclwe import qsim
from dclwe import solver as solver_module
from dclwe.fq import PrimeField
from dclwe.instance import GAUSSIAN, UNIFORM
from dclwe.qsim import extract_candidates
from dclwe.instance import sample_errors
from dclwe.reduce import ReducedPair, inverse_row_draws
from dclwe.solver import (
    FIRST_CHUNK,
    REFILL_ENTRIES,
    _verdicts,
    amplified_bound,
    amplified_law,
    controlled_pass,
    controlled_refills,
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


_CHUNK_CASES = (  # n, q, budget, xi, xi'
    (1, 401, 119, 1, -1),
    (1, 4093, 30, 1, -1),
    (1, 101, 3, 1, -1),
    (3, 4093, 30, 1, -1),  # the rate term stops at REFILL_ENTRIES // q = 16 rows
    (3, 101, 87, 1, 2),
    # A wrong candidate passes one trial with probability (2 xi' + 1)/q, about
    # 0.02 here, so coordinates settle at different refills by construction.
    (8, 401, 40, 1, 4),
)


def test_chunks_stay_within_the_budget_and_the_table_cap():
    # One rule sizes every refill by the rows the solve has used, its rate
    # term capped at REFILL_ENTRIES // q rows. At xi' = -1 no residual meets
    # the bound, so every coordinate spends its whole budget; at xi' >= 2
    # with one trial, coordinates settle at different refills.
    for n, q, budget, xi, xi_prime in _CHUNK_CASES:
        _check_chunks(n, q, budget, xi, xi_prime)


def _check_chunks(n, q, budget, xi, xi_prime):
    inst = _instance(n, q, xi, 103)
    refill = elimination_refills(inst, xi_prime, 1, derive_rng(104, n, q))
    sizes = []

    def recorded(k):
        sizes.append(k)
        return refill(k)

    per_coordinate = controlled_pass(inst.s, q, recorded, budget)
    first = np.cumsum([0] + [st.shots for st in per_coordinate])  # each coordinate's first row
    opened = 0  # the solve's row at which the refill opens
    for k in sizes:
        # The coordinate that asked: its rows run from first[j] up to first[j + 1].
        j = int(np.searchsorted(first, opened, side="right")) - 1
        left, shots = n - j, opened - first[j]
        assert 0 <= shots < per_coordinate[j].shots
        rate = min(2 * left * opened // (j + 1), REFILL_ENTRIES // q)
        assert k == min(max(FIRST_CHUNK * left, shots, rate), left * budget - shots)
        assert k <= max(FIRST_CHUNK * n, budget - 1, REFILL_ENTRIES // q)
        opened += k
    # Only the last refill leaves rows unused, and growth keeps refills few.
    assert first[-1] <= opened < first[-1] + sizes[-1]
    assert len(sizes) <= n + math.log2(n * budget)
    if xi_prime < 0:
        assert all(st.shots == budget and st.accepted_value is None for st in per_coordinate)
    elif n > 1:
        assert any(st.accepted_value is not None for st in per_coordinate)
        assert len({st.shots for st in per_coordinate}) > 1


def _stub_refill(accepts, opened):
    """A Refill of non-null rows, each using one test, whose row i of the
    solve is accepted when accepts(i); the solve's row at which each refill
    opens, and its size, are appended to `opened`."""

    def refill(k):
        first = sum(size for _, size in opened)
        opened.append((first, k))
        return [0] * k, [1] * k, [accepts(i) for i in range(first, first + k)]

    return refill


@pytest.mark.parametrize("budget, used", [(3, 1), (119, 1), (119, 37), (1000, 1), (1000, 37)])
def test_a_coordinate_that_never_settles_costs_log_refills_at_every_position(budget, used):
    # Coordinates before j settle on their `used`-th row, coordinate j
    # rejects all of its budget L, and those after j settle on their first
    # row. Each refill opened inside coordinate j at least doubles its shots,
    # so it opens at most ceil(log2 L) + 1 of them, wherever j sits and
    # however few rows the coordinates before it used.
    n, q = 8, 401
    for j in range(n):
        start = j * used
        opened = []

        def accepts(i):
            if i < start:
                return i % used == used - 1
            return i >= start + budget

        per_coordinate = controlled_pass(np.zeros(n), q, _stub_refill(accepts, opened), budget)
        assert [st.accepted_value is None for st in per_coordinate] == [i == j for i in range(n)]
        inside = [r for r, _ in opened if start <= r < start + budget]
        assert len(inside) <= math.ceil(math.log2(budget)) + 1


def test_a_solve_that_settles_every_fifth_row_opens_one_refill():
    # Eight coordinates use 40 rows, fewer than the FIRST_CHUNK rows per
    # coordinate the first refill holds.
    n, opened = 8, []
    per_coordinate = controlled_pass(np.zeros(n), 401, _stub_refill(lambda i: i % 5 == 4, opened), 119)
    assert [st.shots for st in per_coordinate] == [5] * n
    assert opened == [(0, FIRST_CHUNK * n)]


def _spy_on_refills(refill):
    """The controlled refill, and a mark per row of each of its calls, read
    off what it hands out: None for a null, which uses no test, True on
    the atom, where c0 = rho = 0, and False off it."""
    refills = []

    def spy(k):
        c0, tests, accepted = refill(k)
        refills.append([None if used == 0 else c == 0 for c, used in zip(c0, tests)])
        return c0, tests, accepted

    return spy, refills


def _rejecting(refill):
    """The refill with every candidate rejected at its first trial, as
    under a test bound no residual meets; nulls keep using no tests."""

    def rejecting(k):
        c0, tests, _ = refill(k)
        return c0, [min(used, 1) for used in tests], [False] * len(c0)

    return rejecting


def test_controlled_pool_hands_each_row_to_one_coordinate():
    # Every candidate is rejected, so every coordinate spends its whole
    # budget L on the next L rows.
    for n, q, budget in ((8, 401, 119), (3, 4093, 30), (4, 101, 3), (5, 31, 6)):
        inst = _instance(n, q, 1, 105)
        refill, refills = _spy_on_refills(_rejecting(controlled_refills(inst, 2, 1, derive_rng(106, q))))
        per_coordinate = controlled_pass(inst.s, q, refill, budget)
        # A refill opened at the solve's row r, inside coordinate j = r // budget,
        # holds the most of FIRST_CHUNK rows per coordinate left, j's r % budget
        # shots, and twice the mean r / (j + 1) rows per coordinate reached for
        # each coordinate left, up to REFILL_ENTRIES // q; within the budget.
        r = 0
        for k in [len(marks) for marks in refills]:
            j, left = r // budget, n - r // budget
            rate = min(2 * left * r // (j + 1), REFILL_ENTRIES // q)
            assert k == min(max(FIRST_CHUNK * left, r % budget, rate), n * budget - r)
            r += k
        drawn = [mark for marks in refills for mark in marks]
        assert len(drawn) == n * budget
        for j, stats in enumerate(per_coordinate):
            rows = drawn[j * budget : (j + 1) * budget]
            nulls = rows.count(None)
            assert stats.accepted_value is None and stats.shots == budget
            assert stats.null_count == nulls
            assert stats.candidates_tried == stats.tests_used == budget - nulls
            # An atom row's c0 = 0 is coordinate j's true value s_j + 0,
            # rejected here; a row off it has c0 != 0.
            assert stats.true_rejections == rows.count(True)


def test_controlled_pool_refills_are_s_free_and_shrink_with_the_coordinates():
    inst = _instance(4, 4093, 1, 107)
    refill, refills = _spy_on_refills(_rejecting(controlled_refills(inst, 2, 1, derive_rng(108, 0))))
    controlled_pass(inst.s, 4093, refill, 20)
    # At q=4093 the rate term stops at REFILL_ENTRIES // q = 16 rows, so
    # FIRST_CHUNK rows per coordinate not yet run size the refills, and what
    # a coordinate leaves opens the next one with fewer coordinates left.
    sizes = [len(marks) for marks in refills]
    assert sizes[0] == FIRST_CHUNK * 4 and sum(sizes) == 4 * 20
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    # Two secrets, one stream: the same offsets, tests and verdicts.
    other = dataclasses.replace(inst, s=(inst.s + np.array([1, 50, 77, 4092])) % 4093)
    a, b = (controlled_refills(i, 2, 2, derive_rng(108, 1))(64) for i in (inst, other))
    assert a == b


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


def test_controlled_refill_at_q4093_is_sized_by_its_coordinates():
    # Five coordinates ask for FIRST_CHUNK rows each, more than
    # REFILL_ENTRIES // 4093 = 16 in all: the cap bounds the rate term
    # only, so the refill judges all of them.
    inst = _instance(5, 4093, 1, 111)
    refill, refills = _spy_on_refills(_rejecting(controlled_refills(inst, 2, 1, derive_rng(112, 0))))
    controlled_pass(inst.s, 4093, refill, 30)
    assert len(refills[0]) == FIRST_CHUNK * 5 > REFILL_ENTRIES // 4093


def test_two_sigmas_give_two_amplified_laws(monkeypatch):
    # chi' keeps the instance's sigma, scaled by kappa, in the controlled
    # refill and in the classical baseline alike.
    from dclwe import classical_baseline_solve

    seen = []
    real = solver_module.sample_errors

    def spy(chi, rng, shape):
        seen.append(chi)
        return real(chi, rng, shape)

    monkeypatch.setattr(solver_module, "sample_errors", spy)
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
    i.i.d. errors, transforms every row with sample_bv_stack and judges
    each row at its own candidate c0 = -k_d / k*, trial by trial up to the
    first residual eta' - t c0 outside the bound."""
    q = instance.q
    chi_prime = amplified_law(instance.chi, xi_prime)
    inverse = PrimeField(q).inverse_table()

    def refill(k):
        if v_size is None:
            a_values = np.arange(q)[None]
        else:
            a_values = np.stack([rng.choice(q, size=v_size, replace=False) for _ in range(k)])
        eta_values = sample_errors(chi_prime, rng, (k, a_values.shape[1]))
        assert np.abs(eta_values).max() <= xi_prime
        k_d, k_star = sample_bv_stack(q, a_values, eta_values, rng)
        t = rng.integers(1, q, size=(k, m))
        eta_t = sample_errors(chi_prime, rng, (k, m))
        c0 = (-k_d) % q * inverse[k_star] % q
        residual = (eta_t - t * c0[:, None]) % q
        fail = np.minimum(residual, q - residual) > xi_prime
        rejected = fail.any(axis=1)
        tests = np.where(rejected, fail.argmax(axis=1) + 1, m)
        tests[k_star == 0] = 0
        return c0.tolist(), tests.tolist(), (~rejected & (k_star != 0)).tolist()

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
    # refill reads off the uniform offsets of its rows off the atom.
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


class _CountingRng:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


@pytest.mark.parametrize("v_size", [None, 25])
def test_no_solve_runs_a_transform(monkeypatch, v_size):
    # Controlled and elimination solves, and the baseline, draw every row's
    # offset by its law: no transform, no FFT, and no inputs or error
    # arrangement drawn, below the full field too.
    from dclwe import classical_baseline_solve

    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return spy

    monkeypatch.setattr(qsim, "transform_rows", refuse("transform_rows"))
    monkeypatch.setattr(np.fft, "ifft", refuse("ifft"))
    q, n = 101, 4
    inst = _instance(n, q, 1, 127)
    params = choose_parameters(n, q, 1, 2.0, 0.2)
    rng = _CountingRng(derive_rng(128, 0))
    rows = 0
    for mode in (MODE_CONTROLLED, MODE_ELIMINATION):
        for _ in range(20):
            rows += solve(inst, params, mode, rng, v_size=v_size).quantum_samples
    classical_baseline_solve(inst, 2.0, params.M, 3, rng)
    assert rows > 200
    assert rng.calls["permutation"] == rng.calls["choice"] == rng.calls["multinomial"] == 0


def _offsets(monkeypatch, refills, inst, xi_prime, m, rng, v_size, k):
    """One k-row refill's c0, the tests each row used, and its offsets rho:
    r . e of its first k elimination rows, or 0 for a controlled refill."""
    seen = {}

    def draws(instance, count, rng):
        seen["r"], seen["e"] = inverse_row_draws(instance, count, rng)
        return seen["r"], seen["e"]

    monkeypatch.setattr(solver_module, "inverse_row_draws", draws)
    c0, tests, _ = refills(inst, xi_prime, m, rng, v_size)(k)
    rho = (seen["r"][:k] * seen["e"][:k]).sum(axis=1) % inst.q if "r" in seen else np.zeros(k, int)
    return np.array(c0), np.array(tests), rho


@pytest.mark.parametrize(
    "refills, v_size",
    [
        (controlled_refills, None),
        (controlled_refills, 25),
        (elimination_refills, 5),
        # An atom of 1 / q: an off-atom row that could read c0 = rho doubles it.
        (elimination_refills, 1),
    ],
    ids=["controlled-full", "controlled-25", "elimination-5", "elimination-1"],
)
def test_rows_off_the_atom_add_a_uniform_offset(monkeypatch, refills, v_size):
    # A null, a row that uses no test, reads c0 = rho, and so does a row on
    # its atom; a row off it reads c0 = rho + U with U uniform on [1, q),
    # never 0 (chi-square). So the non-null rows read c0 = rho at the atom's
    # mean mass over k* != 0, (1 + (m - 1) |phi(k*)|^2) / q, with phi the
    # Fourier coefficient of the row's errors, summed here term by term:
    # chi' = U[-2, 2] for a controlled row, the one error 0 for elimination.
    q, k = 101, 4000
    inst = make_instance(3, q, ErrorDistribution(UNIFORM, 1), derive_rng(134, 0))
    c0, tests, rho = _offsets(monkeypatch, refills, inst, 2, 2, derive_rng(134, 1), v_size, k)
    null, on = tests == 0, c0 == rho
    assert on[null].all() and abs(null.mean() - 1 / q) <= binom_3sigma(1 / q, k)
    m = q if v_size is None else v_size
    errors = range(-2, 3) if refills is controlled_refills else [0]
    phi = [sum(cmath.exp(2j * cmath.pi * e * ks / q) for e in errors) / len(errors) for ks in range(1, q)]
    p_atom = sum(1 + (m - 1) * abs(f) ** 2 for f in phi) / (q * (q - 1))
    live = ~null
    assert abs(on[live].mean() - p_atom) <= binom_3sigma(p_atom, int(live.sum()))
    u = (c0 - rho)[live & ~on] % q
    assert u.size > 2000
    assert chi_square_ok(np.bincount(u - 1, minlength=q - 1), np.full(q - 1, 1 / (q - 1)), u.size)


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw",
    [
        (
            8, 401, UNIFORM, 1, 2.0, None, 0,
            [(5, 6), (4, 5), (5, 6), (2, 3), (8, 9), (5, 6), (5, 6), (4, 5)],
            717882248,
        ),
        # 34 rows over five coordinates, all from the first refill of 40.
        (5, 4093, UNIFORM, 1, 2.0, None, 1, [(2, 3), (4, 5), (8, 9), (3, 4), (17, 18)], 68089863),
        (3, 101, GAUSSIAN, 2, 1.0, 40, 2, [(10, 12), (3, 5), (2, 4)], 180979956),
    ],
)
def test_controlled_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw
):
    # Frozen per-coordinate (shots, tests) and the next draw of the stream:
    # one changed draw anywhere in a refill, such as an offset drawn off the
    # atom, moves a count or the next draw.
    rng = derive_rng(701, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_CONTROLLED, rng, v_size=v_size)
    assert out.outcome == OUTCOME_SUCCESS
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw",
    [
        (3, 101, UNIFORM, 1, 2.0, None, 0, OUTCOME_FAILURE, [(87, 92), (87, 90), (87, 90)], 465791451),
        (3, 101, GAUSSIAN, 1, 2.0, 40, 1, OUTCOME_SUCCESS, [(1, 3), (2, 4), (4, 6)], 837969611),
        # Partial rows at q=4093, most of them off the atom.
        (
            3, 4093, GAUSSIAN, 1, 2.0, 1000, 140, OUTCOME_SUCCESS,
            [(9, 10), (9, 10), (6, 8)], 353853043,
        ),
    ],
)
def test_elimination_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw
):
    # As for the controlled stream: one changed draw of an elimination row,
    # a test input, a kernel shot or an offset moves a count or the next draw.
    rng = derive_rng(702, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_ELIMINATION, rng, v_size=v_size)
    assert out.outcome == outcome
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


def _recorded_synthetic(q, m, xi_prime, rng):
    """A refill of synthetic rows, judged by _verdicts, and the rows it
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
        rows.extend(zip(extract_candidates(k_d, k_star, q), t.tolist(), eta.tolist()))
        c0 = (-k_d) % q * PrimeField(q).inverse_table()[k_star] % q
        tests, accepted = _verdicts(PrimeField(q), c0, t, eta, xi_prime, k_star == 0)
        return c0.tolist(), tests.tolist(), accepted.tolist()

    return refill, rows


def _recorded_controlled(monkeypatch, refill):
    """The controlled refill and the rows it hands out, in order, as
    (c0 or None for a null, test inputs, errors), as _verdicts gets them:
    each row's c0 and its test pairs (t, eta')."""
    rows, judged = [], []

    def verdicts_spy(field, c, t, b, xi_prime, null):
        judged.append((c, t, b, null))
        return _verdicts(field, c, t, b, xi_prime, null)

    monkeypatch.setattr(solver_module, "_verdicts", verdicts_spy)

    def recorded(k):
        out = refill(k)
        for c0, t_row, eta_row, null in zip(*judged[-1]):
            rows.append((None if null else int(c0), t_row.tolist(), eta_row.tolist()))
        return out

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
            refill, rows = _recorded_controlled(monkeypatch, refill)
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
    # The atom table is built for batches of v_size pairs, the full field
    # when None; no inputs are drawn (test_no_solve_runs_a_transform).
    built = []

    def spy(q, chi, m):
        built.append((q, chi, m))
        return qsim.atom_law(q, chi, m)

    monkeypatch.setattr(solver_module, "atom_law", spy)
    inst = _instance(2, 101, 1, 97)
    params = choose_parameters(2, 101, 1, 2.0, 0.2)
    chi_prime = amplified_law(inst.chi, params.xi_prime)
    rng = derive_rng(98, 0)
    for v_size, m in ((25, 25), (None, 101)):
        built.clear()
        refill, refills = _spy_on_refills(controlled_refills(inst, params.xi_prime, params.M, rng, v_size))
        controlled_pass(inst.s, 101, refill, params.L)
        assert built == [(101, chi_prime, m)]
        assert len(refills[0]) == FIRST_CHUNK * 2


def test_elimination_mode_recovers_noiseless_secret():
    inst = _instance(3, 31, 0, 99)
    params = SolveParameters(gamma=0.125, L=10, M=2, xi_prime=0, C=1 / 16)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(100, 0))
    assert out.outcome == OUTCOME_SUCCESS
    assert np.array_equal(out.returned_s, inst.s % 31)


def _recorded_eliminations(monkeypatch, inst, xi_prime, m, rng, v_size=None):
    """An elimination refill for inst, built with spies in place, and the
    draws of each of its calls, as a dict: the elimination rows (r, e),
    the test inputs t and the output (c0, tests, accepted)."""
    calls, current = [], {}

    def draws(instance, k, rng):
        current["r"], current["e"] = inverse_row_draws(instance, k, rng)
        return current["r"], current["e"]

    def verdicts_spy(field, c, t, b, xi_prime, null):
        current["t"] = t
        return _verdicts(field, c, t, b, xi_prime, null)

    monkeypatch.setattr(solver_module, "inverse_row_draws", draws)
    monkeypatch.setattr(solver_module, "_verdicts", verdicts_spy)
    refill = elimination_refills(inst, xi_prime, m, rng, v_size)

    def recorded(k):
        current.clear()
        out = refill(k)
        calls.append(dict(current, out=out))
        return out

    return recorded, calls


def _pair_by_hand(inst, r, e, j, a):
    """The pair (a, a (r . b)) for coordinate j in Python ints, r . b = s_j + r . e."""
    q, h = inst.q, inst.q // 2
    noise = sum(int(x) * int(y) for x, y in zip(r, e))
    return ReducedPair(a, a * (int(inst.s[j]) + noise) % q, (a * noise + h) % q - h, 0, q)


def test_elimination_mode_with_noise_stays_classified(monkeypatch):
    # Every row's verdict, judged s-free in the refill, is the verdict its
    # candidate s_j + c0 gets on its own pairs (t, t (r' . b')) formed by
    # hand for each coordinate j; and a whole solve completes with a legal
    # classification.
    q, n, m = 101, 3, 2
    inst = _instance(n, q, 1, 101)
    refill, calls = _recorded_eliminations(monkeypatch, inst, 2, m, derive_rng(102, 0), 40)
    c0, tests, accepted = refill(7)
    [call] = calls
    r, e, t = call["r"], call["e"], call["t"]
    assert len(c0) == len(tests) == len(accepted) == 7 and t.shape == (7, m)
    assert r.shape == e.shape == (7 * (1 + m), n)
    for i in np.flatnonzero(tests):  # the non-null rows
        for j in range(n):
            d = range(7 + i * m, 7 + (i + 1) * m)  # row i's test pairs
            pairs = iter([_pair_by_hand(inst, r[x], e[x], j, int(t_x)) for t_x, x in zip(t[i], d)])
            verdict = m_trial_test((int(inst.s[j]) + c0[i]) % q, m, 2, pairs.__next__)
            assert (tests[i], accepted[i]) == (verdict.trials_used, verdict.accepted)
    # A null reads c0 = r . e and is never accepted.
    assert all((c0[i] - int(r[i] @ e[i])) % q == 0 and not accepted[i] for i in range(7) if not tests[i])
    assert ((1 <= t) & (t < q)).all() and np.unique(t).size > 1
    params = choose_parameters(n, q, 1, 2.0, 0.2)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(102, 1), v_size=40)
    assert out.outcome in (OUTCOME_SUCCESS, OUTCOME_FAILURE, OUTCOME_WRONG_ACCEPT)
    assert out.quantum_samples == sum(st.shots for st in out.per_coordinate) <= n * params.L


def test_elimination_refill_is_s_free():
    # Two secrets, one stream: the same offsets, tests and verdicts.
    for v_size in (None, 40):
        inst = make_instance(3, 101, ErrorDistribution(GAUSSIAN, 1), derive_rng(133, 0))
        other = dataclasses.replace(inst, s=(inst.s + np.array([1, 50, 77])) % 101)
        a, b = (elimination_refills(i, 2, 2, derive_rng(133, 1), v_size)(64) for i in (inst, other))
        assert a == b


@pytest.mark.parametrize("kind, v_size", [(GAUSSIAN, 40), (UNIFORM, 5)])
def test_partial_elimination_rows_draw_the_law_of_their_batch(monkeypatch, kind, v_size):
    # Each non-null row's offset c0 - r . e is -k_d0 / k*, for k_d0 the
    # s-free row's k_d that its batch b' = a' sigma is measured at, moved by
    # sigma = s_j + r . e. Against the law of a noiseless batch of v_size
    # inputs drawn uniformly: the atom k_d0 = 0 holds v_size / q and the
    # rest is uniform on [1, q) (qsim's exact enumeration tests), by
    # chi-square. A null is a row that uses no test.
    q, k = 101, 4000
    inst = make_instance(3, q, ErrorDistribution(kind, 1), derive_rng(131, 0))
    refill, calls = _recorded_eliminations(monkeypatch, inst, 2, 1, derive_rng(131, 1), v_size)
    c0, tests, _ = refill(k)
    [call] = calls
    rho = (call["r"][:k] * call["e"][:k]).sum(axis=1)
    live = np.flatnonzero(tests)
    offset = (np.array(c0) - rho)[live] % q
    law = np.full(q, (1 - v_size / q) / (q - 1))
    law[0] = v_size / q
    assert chi_square_ok(np.bincount(offset, minlength=q), law, live.size)
    assert 0 < (offset == 0).sum() < live.size  # rows on the atom and rows off it


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


def _scalar_elimination(inst, calls, budget, m, xi_prime):
    """solve_coordinate and m_trial_test on the recorded draws: the rows go
    to the coordinates in order, and coordinate j measures each row's batch
    at its moved secret sigma = s_j + r . e combined by hand, reads its
    candidate as sigma + U, for the offset U = c0 - r . e the refill drew
    (0 on the atom), and tests it on pairs it forms by hand from the row's
    own m test draws. A row that used no test is a null."""
    q = inst.q
    rows = iter((call, i) for call in calls for i in range(len(call["out"][0])))
    per_coordinate = []
    for j in range(inst.n):
        block = []  # the current candidate's test pairs, next one last

        def shot():
            call, i = next(rows)
            k, r, e = len(call["out"][0]), call["r"], call["e"]
            sigma = _pair_by_hand(inst, r[i], e[i], j, 1).b_prime
            tests = [k + i * m + d for d in range(m)]
            block[:] = [_pair_by_hand(inst, r[d], e[d], j, int(t_d)) for t_d, d in zip(call["t"][i], tests)][::-1]
            if not call["out"][1][i]:
                return None
            return (sigma + call["out"][0][i] - int(r[i] @ e[i])) % q

        _, stats = solve_coordinate(j, shot, block.pop, budget, m, xi_prime, s_true=int(inst.s[j]) % q)
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
        rng = derive_rng(1301, n, q, seed)
        refill, calls = _recorded_eliminations(monkeypatch, inst, xi_prime, m, rng, v_size)
        per_coordinate = controlled_pass(inst.s, q, refill, budget)
        assert per_coordinate == _scalar_elimination(inst, calls, budget, m, xi_prime)
        for st in per_coordinate:
            totals["accepted"] += st.accepted_value is not None
            totals["rejected"] += st.candidates_tried - (st.accepted_value is not None)
            totals["true_rejections"] += st.true_rejections
    # Noiseless rows accept only true values; noisy ones reject candidates.
    assert totals["accepted"] > 0 if xi == 0 <= xi_prime else totals["rejected"] > 0
    # A noiseless true candidate always passes; a bound no residual meets rejects it.
    assert (totals["true_rejections"] > 0) == (xi > 0 or xi_prime < 0)
