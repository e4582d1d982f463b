import dataclasses
import math
import tracemalloc
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
from dclwe.instance import sample_errors
from dclwe.reduce import inverse_row_draws
from dclwe.solver import (
    FIRST_CHUNK,
    MODE_BASELINE,
    REFILL_ROWS,
    amplified_bound,
    amplified_law,
    controlled_pass,
    row_law,
)
from dclwe.verify import single_trial_pass_rate

from _laws import atom_share, check_solves_follow_the_law, elimination_law, mode_law
from _stats import binom_3sigma, chi_square_ok


def _instance(n, q, xi, seed):
    rng = derive_rng(seed, 300)
    return make_instance(n, q, ErrorDistribution(UNIFORM, xi), rng)


def _mode_refills(mode, instance, xi_prime, m, rng, v_size=None):
    """The refills a `mode` solve of `instance` draws: _refills at the
    row_law of its batches of v_size inputs (the full field when None)."""
    q = instance.q
    law = row_law(mode, instance.n, q, instance.chi, xi_prime, q if v_size is None else v_size)
    return solver_module._refills(m, q, rng, *law)


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
        refill = _mode_refills(MODE_CONTROLLED, inst, params.xi_prime, params.M, rng)
        [stats] = controlled_pass(inst.s, q, refill, params.L)
        assert stats.accepted_value == int(inst.s[0]) % q
        assert stats.null_count == stats.shots - 1
        shots.append(stats.shots)
    mean = float(np.mean(shots))
    var = (1 / q) / (1 - 1 / q) ** 2
    assert abs(mean - q / (q - 1)) < 3 * math.sqrt(var / 2000)


def test_zero_budget_consumes_nothing():
    opened = []
    [stats] = controlled_pass(np.zeros(1), 31, _stub_refill(_settles(bool), opened), 0)
    assert stats.accepted_value is None
    assert stats.shots == 0 and stats.tests_used == 0
    assert opened == []


_CHUNK_CASES = (  # n, q, budget, xi, xi' (None: every candidate rejected)
    (1, 401, 119, 1, None),
    (1, 4093, 30, 1, None),
    (1, 101, 3, 1, None),
    (3, 4093, 30, 1, None),  # the rest of the budget stops the second refill at 66 rows
    (8, 401, 119, 1, None),  # the second refill stops at REFILL_ROWS = 256 rows
    (3, 101, 87, 1, 2),
    # A wrong candidate passes one trial with probability (2 xi' + 1)/q, about
    # 0.02 here, so coordinates settle at different refills by construction.
    (8, 401, 40, 1, 4),
)


def test_chunks_stay_within_the_budget_and_the_row_cap():
    # One rule sizes every refill by the rows the solve has used, its rate
    # term capped at REFILL_ROWS rows. With every candidate rejected
    # (_rejecting), every coordinate spends its whole budget; at xi' >= 2
    # with one trial, coordinates settle at different refills.
    for n, q, budget, xi, xi_prime in _CHUNK_CASES:
        _check_chunks(n, q, budget, xi, xi_prime)


def _check_chunks(n, q, budget, xi, xi_prime):
    inst = _instance(n, q, xi, 103)
    refill = _mode_refills(MODE_ELIMINATION, inst, xi_prime or 0, 1, derive_rng(104, n, q))
    if xi_prime is None:
        refill = _rejecting(refill)
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
        rate = min(4 * left * opened // (j + 1), REFILL_ROWS)
        assert k == min(max(FIRST_CHUNK * left, shots, rate), left * budget - shots)
        assert k <= max(FIRST_CHUNK * n, budget - 1, REFILL_ROWS)
        opened += k
    # Only the last refill leaves rows unused, and growth keeps refills few.
    assert first[-1] <= opened < first[-1] + sizes[-1]
    assert len(sizes) <= n + math.log2(n * budget)
    if xi_prime is None:
        assert all(st.shots == budget and st.accepted_value is None for st in per_coordinate)
    elif n > 1:
        assert any(st.accepted_value is not None for st in per_coordinate)
        assert len({st.shots for st in per_coordinate}) > 1


def _stub_refill(row, opened):
    """A Refill whose row i of the solve is row(i) = (c0, tests, accepted);
    the solve's row at which each refill opens, and its size, are appended
    to `opened`."""

    def refill(k):
        first = sum(size for _, size in opened)
        opened.append((first, k))
        c0, tests, accepted = zip(*map(row, range(first, first + k)))
        return list(c0), list(tests), list(accepted)

    return refill


def _settles(accepts):
    """Rows of one test each, c0 = 0, row i accepted when accepts(i)."""
    return lambda i: (0, 1, accepts(i))


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

        per_coordinate = controlled_pass(np.zeros(n), q, _stub_refill(_settles(accepts), opened), budget)
        assert [st.accepted_value is None for st in per_coordinate] == [i == j for i in range(n)]
        inside = [r for r, _ in opened if start <= r < start + budget]
        assert len(inside) <= math.ceil(math.log2(budget)) + 1


def test_a_solve_of_three_stuck_coordinates_opens_two_refills():
    # Elimination-q101's point, n=3 and L=87, with no row ever accepted: the
    # first refill holds FIRST_CHUNK rows per coordinate, and the rate term,
    # 4 * 3 * 24 rows capped at REFILL_ROWS, sizes the second one past the
    # rest of the budget, so that rest is the second and last refill.
    opened = []
    controlled_pass(np.zeros(3), 101, _stub_refill(_settles(lambda i: False), opened), 87)
    assert opened == [(0, 24), (24, 3 * 87 - 24)]


def test_refill_sizes_do_not_depend_on_q():
    # Rows cost the same at every q, so one row cap serves them all.
    sizes = []
    for q in (101, 401, 4093):
        opened = []
        controlled_pass(np.zeros(8), q, _stub_refill(_settles(lambda i: False), opened), 119)
        sizes.append(opened)
    assert sizes[0] == sizes[1] == sizes[2]
    assert max(k for _, k in sizes[0]) == REFILL_ROWS


def test_a_solve_that_settles_every_fifth_row_opens_one_refill():
    # Eight coordinates use 40 rows, fewer than the FIRST_CHUNK rows per
    # coordinate the first refill holds.
    n, opened = 8, []
    refill = _stub_refill(_settles(lambda i: i % 5 == 4), opened)
    per_coordinate = controlled_pass(np.zeros(n), 401, refill, 119)
    assert [st.shots for st in per_coordinate] == [5] * n
    assert opened == [(0, FIRST_CHUNK * n)]


@pytest.mark.parametrize(
    "n, budget, m, accept",
    [(1, 6, 2, 1.0), (3, 5, 3, 0.5), (8, 2, 2, 1.0), (8, 119, 2, 0.05), (5, 40, 1, 0.0)],
)
def test_controlled_pass_keeps_the_row_accounting(n, budget, m, accept):
    # Scripted rows (c0, tests, accepted): a null uses no test, a rejected
    # candidate 1 to m, an accepted one all m; c0 = 0 reads the true value.
    # Coordinate j takes the rows left by the coordinates before it, in
    # order and across refills, up to its first accepted one or `budget`
    # rows, and counts every row it took.
    q, size = 101, n * budget
    rng = derive_rng(1200, n, budget)
    tests = rng.integers(0, m + 1, size=size)
    c0 = np.where(rng.random(size) < 0.3, 0, rng.integers(1, q, size=size))
    accepted = (tests == m) & (rng.random(size) < accept)
    rows = list(zip(c0.tolist(), tests.tolist(), accepted.tolist()))
    s, opened = rng.integers(q, size=n), []
    per_coordinate = controlled_pass(s, q, _stub_refill(rows.__getitem__, opened), budget)
    first = 0  # coordinate j's first row
    for s_j, st in zip(s, per_coordinate):
        taken = rows[first : first + st.shots]
        first += st.shots
        settled = [ok for _, _, ok in taken]
        assert 1 <= st.shots <= budget and not any(settled[:-1])
        assert st.accepted_value == ((s_j + taken[-1][0]) % q if settled[-1] else None)
        assert settled[-1] or st.shots == budget
        assert st.null_count == sum(used == 0 for _, used, _ in taken)
        assert st.candidates_tried == st.shots - st.null_count
        assert st.tests_used == sum(used for _, used, _ in taken)
        assert st.true_rejections == sum(c == 0 and used > 0 and not ok for c, used, ok in taken)
    assert accept == 0 or any(st.accepted_value is not None for st in per_coordinate)
    # Only the last refill leaves rows unused.
    last, k = opened[-1]
    assert last < first <= last + k


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


def test_controlled_pool_refills_are_s_free_and_stop_at_the_budget():
    inst = _instance(4, 4093, 1, 107)
    refill, refills = _spy_on_refills(
        _rejecting(_mode_refills(MODE_CONTROLLED, inst, 2, 1, derive_rng(108, 0)))
    )
    controlled_pass(inst.s, 4093, refill, 20)
    # FIRST_CHUNK rows per coordinate open the solve; coordinate 1 runs out
    # of them after 12 shots, and the rate term, 4 * 3 * 32 // 2 rows, asks
    # for more than the 3 * 20 - 12 rows the solve may still take.
    sizes = [len(marks) for marks in refills]
    assert sizes == [FIRST_CHUNK * 4, 3 * 20 - 12]
    # Two secrets, one stream: the same offsets, tests and verdicts.
    other = dataclasses.replace(inst, s=(inst.s + np.array([1, 50, 77, 4092])) % 4093)
    a, b = (_mode_refills(MODE_CONTROLLED, i, 2, 2, derive_rng(108, 1))(64) for i in (inst, other))
    assert a == b


def test_controlled_refill_at_q4093_is_sized_by_its_coordinates():
    # Forty coordinates ask for FIRST_CHUNK rows each, more than
    # REFILL_ROWS in all: the cap bounds the rate term only, so the
    # refill judges all of them.
    inst = _instance(40, 4093, 1, 111)
    refill, refills = _spy_on_refills(
        _rejecting(_mode_refills(MODE_CONTROLLED, inst, 2, 1, derive_rng(112, 0)))
    )
    controlled_pass(inst.s, 4093, refill, 30)
    assert len(refills[0]) == FIRST_CHUNK * 40 > REFILL_ROWS


def test_two_sigmas_give_two_amplified_laws(monkeypatch):
    # chi' keeps the instance's sigma, scaled by kappa, in the controlled
    # refill's atom mass and in the classical baseline's chi'(0) alike.
    from dclwe import classical_baseline_solve

    seen = []

    def spy(real, at):  # `at`: the position of the law's chi among its arguments
        def law(*args):
            seen.append(args[at])
            return real(*args)

        return law

    row_law.cache_clear()  # a cached law would read neither
    monkeypatch.setattr(solver_module, "atom_mass", spy(solver_module.atom_mass, 1))
    monkeypatch.setattr(solver_module, "offset_law", spy(solver_module.offset_law, 2))
    q, xi, kappa = 401, 3, 2.0
    params = choose_parameters(3, q, xi, kappa, 0.2)
    for sigma in (0.3, 5.0):
        rng = derive_rng(125, 0)
        inst = make_instance(3, q, ErrorDistribution(GAUSSIAN, xi, sigma=sigma), rng)
        seen.clear()
        solve(inst, params, MODE_CONTROLLED, rng)
        classical_baseline_solve(inst, kappa, 2, 1, rng)
        assert len(seen) == 2
        assert {(chi.kind, chi.xi) for chi in seen} == {(GAUSSIAN, 6)}
        assert [chi.sigma for chi in seen] == pytest.approx([kappa * sigma] * len(seen))
    # The default sigma xi/3 maps to xi'/3 exactly, so default streams stay put.
    assert amplified_law(ErrorDistribution(GAUSSIAN, xi), 6) == ErrorDistribution(GAUSSIAN, 6)
    assert amplified_law(ErrorDistribution(UNIFORM, xi), 6) == ErrorDistribution(UNIFORM, 6)


def test_a_controlled_solve_holds_no_q_sized_array():
    # The atom is one number, so a solve at q = 1,048,573 holds one refill's
    # arrays and its (2, M + 1) power table; the 8 MiB of one float64 per
    # k* would break the bound many times over.
    q = 1_048_573
    params = choose_parameters(8, q, 1, 2.0, 0.2)
    rng = derive_rng(136, 0)
    inst = make_instance(8, q, ErrorDistribution(UNIFORM, 1), rng)
    row_law.cache_clear()
    tracemalloc.start()
    try:
        out = solve(inst, params, MODE_CONTROLLED, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.outcome == OUTCOME_SUCCESS
    assert peak < 64 << 10


def _every_row_refills(mode, instance, xi_prime, m, rng, v_size=None):
    """Reference: the full-field controlled refill that draws every row's
    i.i.d. errors, transforms every row with sample_bv_stack and judges
    each row at its own candidate c0 = -k_d / k*, trial by trial up to the
    first residual eta' - t c0 outside the bound."""
    assert mode == MODE_CONTROLLED and v_size is None
    q = instance.q
    chi_prime = amplified_law(instance.chi, xi_prime)
    inverse = PrimeField(q).inverse_table()

    def refill(k):
        eta_values = sample_errors(chi_prime, rng, (k, q))
        assert np.abs(eta_values).max() <= xi_prime
        k_d, k_star = sample_bv_stack(q, np.arange(q)[None], eta_values, rng)
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


@pytest.mark.parametrize(
    "refills, kind, v_size, m, solves",
    [
        (_mode_refills, UNIFORM, None, 1, 5000),
        (_mode_refills, GAUSSIAN, 40, 1, 2000),
        # Batches of five span all 2 xi' + 1 = 5 values of the window, and
        # most coordinates accept a wrong value.
        (_mode_refills, UNIFORM, 5, 1, 800),
        (_every_row_refills, UNIFORM, None, 1, 3000),
        # Two trials read pi^2 as well: a wrong candidate passes its first
        # trial with 2 xi' / (q - 1) and then both with its square.
        (_mode_refills, UNIFORM, 5, 2, 800),
    ],
    ids=["full", "gaussian-40", "uniform-5", "every-row-full", "uniform-5-m2"],
)
def test_controlled_solves_follow_their_law(refills, kind, v_size, m, solves):
    # n=3, q=101, xi' = 2, L = 87 as choose_parameters(3, 101, 1, 2.0, 0.2)
    # gives it, and M = 1, where a sizable share of coordinates accept a
    # wrong value, or M = 2. The every-row refill transforms every row with
    # sample_bv_stack: the one run of the kernel against a solve.
    n, q, budget = 3, 101, 87
    chi = ErrorDistribution(kind, 1)
    law = mode_law(MODE_CONTROLLED, n, q, chi, 2, v_size)
    assert law[3] == pytest.approx(single_trial_pass_rate(0, 1, amplified_law(chi, 2), 2, q), abs=1e-15)

    def run(inst, rng):
        return controlled_pass(inst.s, q, refills(MODE_CONTROLLED, inst, 2, m, rng, v_size), budget)

    check_solves_follow_the_law(run, law, n, q, chi, budget, m, solves, derive_rng(122, solves))


def _centered(x, q):
    return (x + q // 2) % q - q // 2


@pytest.mark.parametrize("kind", [UNIFORM, GAUSSIAN])
def test_pass_rates_match_every_test_input_and_error_at_q7(kind):
    # A trial against s_j + c0 judges the residual of a controlled or
    # baseline pair (t, t s_j + eta'), eta' - t c0, or of an elimination
    # pair (t, t (s_j + rho')), t (rho' - c0). Over every t in [1, q), the
    # share that passes is 1 at c0 = 0 and 2 xi' / (q - 1) at every c0 != 0
    # for each eta' in the window, and for elimination, weighted over every
    # rho' by offset_law, pi_c at c0 = 0 and pi_w elsewhere: the pass rates
    # row_law gives each mode.
    q, n = 7, 2
    chi = ErrorDistribution(kind, 1)
    t, c = np.arange(1, q)[:, None], np.arange(q)
    p0, px = solver_module.offset_law(n, q, chi)
    rho = np.array([p0] + [px] * (q - 1))
    assert abs(rho.sum() - 1) < 1e-12
    for xi_prime in range(q // 2 + 1):
        direct, baseline, eliminated = (
            row_law(mode, n, q, chi, xi_prime, q)[2:]
            for mode in (MODE_CONTROLLED, MODE_BASELINE, MODE_ELIMINATION)
        )
        assert direct == baseline
        for eta in range(-xi_prime, xi_prime + 1):
            passing = (np.abs(_centered(eta - t * c, q)) <= xi_prime).mean(axis=0)
            assert abs(passing[0] - direct[0]) < 1e-12
            assert np.abs(passing[1:] - direct[1]).max() < 1e-12
        # passing[x, c]: the share of t whose residual t (x - c) passes.
        passing = (np.abs(_centered(t[:, :, None] * (c[:, None] - c), q)) <= xi_prime).mean(axis=0)
        rates = rho @ passing
        assert abs(rates[0] - eliminated[0]) < 1e-12
        assert np.abs(rates[1:] - eliminated[1]).max() < 1e-12


@pytest.mark.parametrize("v_size", [None, 40], ids=["full", "40"])
@pytest.mark.parametrize("kind", [UNIFORM, GAUSSIAN])
@pytest.mark.parametrize("mode", [MODE_CONTROLLED, MODE_ELIMINATION, MODE_BASELINE])
def test_row_law_is_each_modes_law(mode, kind, v_size):
    # The four numbers a mode's refills draw by, against mode_law's
    # independent route: the phi-summed atom, chi'(0) read off
    # chi'.weights() and elimination_law.
    q, n, chi = 101, 3, ErrorDistribution(kind, 1)
    law = row_law(mode, n, q, chi, 2, q if v_size is None else v_size)
    assert np.abs(np.subtract(law, mode_law(mode, n, q, chi, 2, v_size))).max() <= 1e-12


def test_row_law_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="got 'hybrid'$"):
        row_law("hybrid", 3, 101, ErrorDistribution(UNIFORM, 1), 2, 101)


def _residual_verdicts(q, xi_prime, candidate, t, b):
    """Reference: each row's tests and verdict from its own pairs (t, b'),
    trial by trial up to the first residual b' - t s~ outside the window."""
    fail = np.abs(_centered(b - t * candidate[:, None], q)) > xi_prime
    rejected = fail.any(axis=1)
    return np.where(rejected, fail.argmax(axis=1) + 1, t.shape[1]), ~rejected


def _verdict_counts(c0, tests, accepted, m):
    """Rows counted by (c0 = 0, tests, accepted): 2 (M + 1) cells."""
    cell = (np.asarray(c0) == 0) * (m + 1) + np.asarray(tests) - 1 + np.asarray(accepted)
    return np.bincount(cell, minlength=2 * (m + 1))


@pytest.mark.parametrize(
    "mode, kind, q, xi_prime, m",
    [
        (MODE_CONTROLLED, UNIFORM, 7, 0, 2),
        (MODE_CONTROLLED, UNIFORM, 11, 1, 3),
        (MODE_CONTROLLED, GAUSSIAN, 101, 2, 4),
        (MODE_CONTROLLED, UNIFORM, 31, 3, 1),
        (MODE_ELIMINATION, UNIFORM, 7, 0, 2),
        (MODE_ELIMINATION, GAUSSIAN, 7, 1, 3),
        (MODE_ELIMINATION, UNIFORM, 11, 2, 3),
    ],
)
def test_law_drawn_verdicts_match_real_test_pairs(monkeypatch, mode, kind, q, xi_prime, m):
    # Scripted rows, a third of them on the atom (c0 = 0) and the rest off it
    # with c0 uniform on [1, q), judged twice: by the refill's rule, one
    # uniform per row against the pass rates row_law gives its mode,
    # and on M real test pairs per row, (t, t s_j + eta') with eta' from chi'
    # or (t, t (s_j + rho')) with rho' = r . e of real elimination rows, by
    # the residual reference. The rows' counts by (c0 = 0, tests, accepted)
    # agree (two-sample chi-square, 4 sigma).
    k, n = 20000, 2
    chi = ErrorDistribution(kind, 1)
    inst = make_instance(n, q, chi, derive_rng(137, q))
    rng = derive_rng(137, q, xi_prime, m)
    _, _, pi_c, pi_w = row_law(mode, n, q, chi, xi_prime, q)
    off = rng.random(k) >= 1 / 3
    c0 = np.where(off, rng.integers(1, q, size=k), 0)
    scripted = lambda rng, nu, p_c, k: (np.zeros(k, bool), off, rng.random(k))  # noqa: E731
    monkeypatch.setattr(solver_module, "_shots", scripted)
    drawn = solver_module._refills(m, q, rng, 0.0, 0.0, pi_c, pi_w)(k)
    s_j = rng.integers(q, size=(k, 1))
    t = rng.integers(1, q, size=(k, m))
    if mode == MODE_CONTROLLED:
        b = t * s_j + sample_errors(amplified_law(chi, xi_prime), rng, (k, m))
    else:
        r, e = inverse_row_draws(inst, k * m, rng)
        b = t * (s_j + (r * e).sum(axis=1).reshape(k, m))
    real = _residual_verdicts(q, xi_prime, s_j[:, 0] + c0, t, b)
    a, b = _verdict_counts(*drawn, m), _verdict_counts(c0, *real, m)
    assert a.sum() == b.sum() == k
    cells = (a + b) > 0
    stat = float(((a - b)[cells] ** 2 / (a + b)[cells]).sum())
    dof = int(cells.sum()) - 2  # the c0 = 0 and c0 != 0 margins are shared
    assert stat <= dof + 4 * math.sqrt(2 * max(dof, 0))


class _CountingRng:
    """A generator that counts the calls of each of its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, Counter()

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return method(*args, **kwargs)

        return counted


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


@pytest.mark.parametrize(
    "mode, kind",
    [
        (MODE_CONTROLLED, UNIFORM),
        (MODE_CONTROLLED, GAUSSIAN),
        (MODE_ELIMINATION, UNIFORM),
        (MODE_ELIMINATION, GAUSSIAN),
        (MODE_BASELINE, UNIFORM),
        (MODE_BASELINE, GAUSSIAN),
    ],
    ids=["controlled-uniform", "controlled-gaussian", "elimination-uniform",
         "elimination-gaussian", "baseline-uniform", "baseline-gaussian"],
)
def test_a_refill_draws_each_value_range_once(mode, kind):
    # Whatever k, a refill makes one random call, a (2, k) block of
    # uniforms: each row's place (null, atom or off it) and its verdict.
    # It calls integers once, for the U of its accepted off-atom rows, and
    # only when it accepts such a row. No refill draws an error or an
    # elimination row, whatever chi.
    inst = make_instance(3, 101, ErrorDistribution(kind, 1), derive_rng(135, 0))
    rng = _CountingRng(derive_rng(135, 1))
    refill = _mode_refills(mode, inst, 2, 2, rng)
    for k in (1, 40, 300):
        rng.calls.clear()
        c0, _, accepted = refill(k)
        hits = any(ok and c != 0 for c, ok in zip(c0, accepted))
        assert rng.calls == ({"integers": 1, "random": 1} if hits else {"random": 1})


def test_shots_place_nulls_by_nu():
    # nu = 0 (the baseline) draws no null; nu = 1/q draws nulls at 1/q, and
    # a row that is not a null sits off the atom with 1 - share.
    q, share, k = 31, 0.3, 40000
    rng = derive_rng(141, 0)
    null, off, _ = solver_module._shots(rng, 0.0, share, k)
    assert not null.any()
    assert abs(off.mean() - (1 - share)) <= binom_3sigma(1 - share, k)
    null, off, _ = solver_module._shots(rng, 1 / q, share, k)
    assert abs(null.mean() - 1 / q) <= binom_3sigma(1 / q, k)
    assert not (null & off).any()
    live = off[~null]
    assert abs(live.mean() - (1 - share)) <= binom_3sigma(1 - share, live.size)


def test_accepted_rows_off_the_atom_read_a_uniform_offset_drawn_once():
    # With p_c = 0 and pi_w = 1 every row that is not a null is off the atom
    # and accepted: its c0 is uniform on [1, q) (chi-square), from one
    # integers call. With pi_w = 0 no off-atom row is accepted, and the
    # refill calls random alone.
    q, m, k = 31, 2, 20000
    rng = _CountingRng(derive_rng(142, 0))
    c0, tests, accepted = map(np.array, solver_module._refills(m, q, rng, 1 / q, 0.0, 1.0, 1.0)(k))
    assert rng.calls == {"integers": 1, "random": 1}
    assert (accepted == (tests > 0)).all() and (c0[tests == 0] == 0).all()
    u = c0[accepted]
    assert u.min() >= 1 and u.max() < q
    assert chi_square_ok(np.bincount(u - 1, minlength=q - 1), np.full(q - 1, 1 / (q - 1)), u.size)
    rng.calls.clear()
    c0, tests, accepted = solver_module._refills(m, q, rng, 1 / q, 0.0, 1.0, 0.0)(k)
    assert rng.calls == {"random": 1}
    assert not any(accepted) and all(c == 1 for c, used in zip(c0, tests) if used)


@pytest.mark.parametrize(
    "mode, v_size",
    [
        (MODE_CONTROLLED, None),
        (MODE_CONTROLLED, 25),
        (MODE_ELIMINATION, 5),
        # An atom of 1 / q: almost every elimination row is off it.
        (MODE_ELIMINATION, 1),
    ],
    ids=["controlled-full", "controlled-25", "elimination-5", "elimination-1"],
)
def test_rows_off_the_atom_add_a_uniform_offset(mode, v_size):
    # A 1 / q share of the rows are nulls. A non-null row reads c0 = 0 with
    # its mode's p_c and sits off the atom otherwise, where an accepted row
    # reads c0 = U uniform on [1, q) (chi-square): p_c is the atom's mean
    # mass over k* != 0 for a controlled row, whose errors follow
    # chi' = U[-45, 45], and elimination_law's p_c for an elimination row,
    # whose offset rho = r . e sits on the noiseless row's atom. At
    # xi' = 45 a wrong candidate passes a trial with 0.9, so most rows off
    # the atom are accepted. A null's c0 is never read
    # (test_no_pass_reads_a_null_c0).
    q, k, xi_prime = 101, 4000, 45
    m = q if v_size is None else v_size
    inst = make_instance(3, q, ErrorDistribution(UNIFORM, 1), derive_rng(134, 0))
    rows = _mode_refills(mode, inst, xi_prime, 2, derive_rng(134, 1), v_size)(k)
    c0, tests, accepted = map(np.array, rows)
    null = tests == 0
    assert abs(null.mean() - 1 / q) <= binom_3sigma(1 / q, k)
    if mode == MODE_CONTROLLED:
        p_c = atom_share(q, ErrorDistribution(UNIFORM, xi_prime), m)
    else:
        p_c = elimination_law(3, q, inst.chi, xi_prime, m)[1]
    live = c0[~null]
    assert abs((live == 0).mean() - p_c) <= binom_3sigma(p_c, live.size)
    u = c0[accepted & (c0 != 0)]
    assert u.size > 2000
    assert chi_square_ok(np.bincount(u - 1, minlength=q - 1), np.full(q - 1, 1 / (q - 1)), u.size)


@pytest.mark.parametrize("mode", [MODE_CONTROLLED, MODE_ELIMINATION])
def test_no_pass_reads_a_null_c0(mode):
    # A null uses no test, so a pass never reads its c0: the same refills
    # with every null's c0 replaced, 0 by an arbitrary value on [1, q) and
    # any other value by 0, give every coordinate the same CoordinateStats.
    q, n, budget = 11, 6, 30
    scramble = derive_rng(138, 1)
    replaced = 0

    def scrambled(refill):
        def draw(k):
            nonlocal replaced
            c0, tests, accepted = refill(k)
            arbitrary = scramble.integers(1, q, size=k).tolist()
            c0 = [x if t else (0 if x % q else y) for x, t, y in zip(c0, tests, arbitrary)]
            replaced += tests.count(0)
            return c0, tests, accepted

        return draw

    for seed in range(10):
        inst = _instance(n, q, 1, 138 + seed)
        runs = [
            controlled_pass(
                inst.s, q, wrap(_mode_refills(mode, inst, 2, 2, derive_rng(138, 0, seed))), budget
            )
            for wrap in (lambda refill: refill, scrambled)
        ]
        assert runs[0] == runs[1]
    assert replaced > 10


@pytest.mark.parametrize("kind", [UNIFORM, GAUSSIAN])
@pytest.mark.parametrize("v_size", [1, 5, 40, 101])
def test_elimination_rows_match_real_inverse_rows_and_errors(kind, v_size):
    # Reference: real elimination rows, rho = r . e of inverse_row_draws,
    # composed with a null (k* = 0, 1 / q), the atom (v_size / q) and U
    # uniform on [1, q): c0 = rho on the atom and rho + U off it. An
    # elimination refill draws its rows from (1 / q, p_c) alone; the two
    # agree on the share of nulls and of non-null rows with c0 = 0 (3 sigma)
    # and on the histogram of c0 != 0, the refill's read on its accepted
    # rows (two-sample chi-square, 4 sigma): at xi' = 45 a wrong candidate
    # passes its trial with 0.9. The nu and p_c row_law gives the refill
    # are elimination_law's.
    q, n, k = 101, 3, 20000
    chi = ErrorDistribution(kind, 1)
    inst = make_instance(n, q, chi, derive_rng(139, 0))
    law = row_law(MODE_ELIMINATION, n, q, chi, 45, v_size)
    rows = solver_module._refills(1, q, derive_rng(139, 1), *law)(k)
    c0, tests, accepted = map(np.array, rows)
    assert np.abs(np.subtract(law[:2], elimination_law(n, q, chi, 45, v_size)[:2])).max() <= 1e-15
    rng = derive_rng(139, 2)
    r, e = inverse_row_draws(inst, k, rng)
    rho = (r * e).sum(axis=1) % q
    ref_null = rng.integers(q, size=k) == 0
    ref_c0 = np.where(rng.random(k) < v_size / q, rho, (rho + rng.integers(1, q, size=k)) % q)
    null = tests == 0
    assert abs(null.mean() - ref_null.mean()) <= 3 * math.sqrt(2 / q * (1 - 1 / q) / k)
    drawn, ref = c0[~null], ref_c0[~ref_null]
    pooled = np.concatenate([drawn, ref])
    p = (pooled == 0).mean()
    spread = math.sqrt(p * (1 - p) * (1 / drawn.size + 1 / ref.size))
    assert abs((drawn == 0).mean() - (ref == 0).mean()) <= 3 * spread
    a, b = (np.bincount(x[x != 0], minlength=q)[1:] for x in (c0[accepted], ref))
    ratio = math.sqrt(b.sum() / a.sum())
    stat = float(((a * ratio - b / ratio) ** 2 / (a + b)).sum())
    dof = q - 2
    assert stat <= dof + 4 * math.sqrt(2 * dof)


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, v_size, seed, per_coordinate, next_draw",
    [
        (
            8, 401, UNIFORM, 1, 2.0, None, 0,
            [(7, 8), (1, 2), (1, 2), (1, 2), (3, 4), (4, 5), (4, 5), (1, 2)],
            656567005,
        ),
        # 45 rows over five coordinates: the first refill holds 40, and the
        # last coordinate opens a second of 32.
        (
            5, 4093, UNIFORM, 1, 2.0, None, 1,
            [(2, 3), (14, 15), (6, 7), (9, 10), (14, 15)], 284287694,
        ),
        (3, 101, GAUSSIAN, 2, 1.0, 40, 2, [(3, 5), (3, 5), (1, 3)], 1000521134),
    ],
    ids=["8-401-uniform", "5-4093-uniform", "3-101-gaussian-v40"],
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
        (3, 101, UNIFORM, 1, 2.0, None, 0, OUTCOME_FAILURE, [(87, 91), (87, 94), (87, 94)], 720622753),
        (3, 101, GAUSSIAN, 1, 2.0, 40, 1, OUTCOME_SUCCESS, [(1, 3), (1, 3), (7, 11)], 424688707),
        # Partial rows at q=4093, most of them off the atom.
        (
            3, 4093, GAUSSIAN, 1, 2.0, 1000, 140, OUTCOME_SUCCESS,
            [(11, 12), (3, 4), (1, 2)], 832271420,
        ),
    ],
    ids=["3-101-uniform", "3-101-gaussian-v40", "3-4093-gaussian-v1000"],
)
def test_elimination_stream_is_pinned(
    n, q, kind, xi, kappa, v_size, seed, outcome, per_coordinate, next_draw
):
    # As for the controlled stream: one changed draw of a row's place, an
    # offset or a verdict moves a count or the next draw.
    rng = derive_rng(702, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = solve(inst, choose_parameters(n, q, xi, kappa, 0.2), MODE_ELIMINATION, rng, v_size=v_size)
    assert out.outcome == outcome
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert int(rng.integers(1 << 30)) == next_draw


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


def test_elimination_mode_recovers_noiseless_secret():
    inst = _instance(3, 31, 0, 99)
    params = SolveParameters(gamma=0.125, L=10, M=2, xi_prime=0, C=1 / 16)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(100, 0))
    assert out.outcome == OUTCOME_SUCCESS
    assert np.array_equal(out.returned_s, inst.s % 31)


def test_elimination_mode_with_noise_stays_classified():
    # A null is never accepted, a rejected row uses 1 to M tests and an
    # accepted one all M; and a whole solve completes with a legal
    # classification. test_law_drawn_verdicts_match_real_test_pairs checks
    # the verdicts against real test pairs. A row is accepted with about
    # 0.0025 here (elimination_law), so 4000 rows hold about 10.
    q, n, m, k = 101, 3, 2, 4000
    inst = _instance(n, q, 1, 101)
    rng = derive_rng(102, 0)
    c0, tests, accepted = map(np.array, _mode_refills(MODE_ELIMINATION, inst, 2, m, rng, 40)(k))
    assert c0.shape == tests.shape == accepted.shape == (k,)
    null = tests == 0
    assert null.any() and not accepted[null].any() and (tests <= m).all()
    assert accepted.any() and (tests[accepted] == m).all() and (~accepted & ~null).any()
    params = choose_parameters(n, q, 1, 2.0, 0.2)
    out = solve(inst, params, MODE_ELIMINATION, derive_rng(102, 1), v_size=40)
    assert out.outcome in (OUTCOME_SUCCESS, OUTCOME_FAILURE, OUTCOME_WRONG_ACCEPT)
    assert out.quantum_samples == sum(st.shots for st in out.per_coordinate) <= n * params.L


def test_elimination_refill_is_s_free():
    # Two secrets, one stream: the same offsets, tests and verdicts.
    for v_size in (None, 40):
        inst = make_instance(3, 101, ErrorDistribution(GAUSSIAN, 1), derive_rng(133, 0))
        other = dataclasses.replace(inst, s=(inst.s + np.array([1, 50, 77])) % 101)
        a, b = (
            _mode_refills(MODE_ELIMINATION, i, 2, 2, derive_rng(133, 1), v_size)(64)
            for i in (inst, other)
        )
        assert a == b


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
