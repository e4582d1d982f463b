import copy
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
from dclwe.reduce import ReducedPair, inverse_row_draws
from dclwe.solver import (
    FIRST_CHUNK,
    REFILL_ENTRIES,
    amplified_bound,
    amplified_law,
    baseline_refills,
    controlled_pass,
    controlled_refills,
    elimination_refills,
)
from dclwe.verify import m_trial_test, single_trial_pass_rate

from _laws import atom_share, check_solves_follow_the_law, mode_law
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
    opened = []
    [stats] = controlled_pass(np.zeros(1), 31, _stub_refill(_settles(bool), opened), 0)
    assert stats.accepted_value is None
    assert stats.shots == 0 and stats.tests_used == 0
    assert opened == []


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
    """Reference: the full-field controlled refill that draws every row's
    i.i.d. errors, transforms every row with sample_bv_stack and judges
    each row at its own candidate c0 = -k_d / k*, trial by trial up to the
    first residual eta' - t c0 outside the bound."""
    assert v_size is None
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
    "refills, kind, v_size, solves",
    [
        (controlled_refills, UNIFORM, None, 5000),
        (controlled_refills, GAUSSIAN, 40, 2000),
        # Batches of five span all 2 xi' + 1 = 5 values of the window, and
        # most coordinates accept a wrong value.
        (controlled_refills, UNIFORM, 5, 800),
        (_every_row_refills, UNIFORM, None, 3000),
    ],
    ids=["full", "gaussian-40", "uniform-5", "every-row-full"],
)
def test_controlled_solves_follow_their_law(refills, kind, v_size, solves):
    # n=3, q=101, xi' = 2, L = 87 as choose_parameters(3, 101, 1, 2.0, 0.2)
    # gives it, and M = 1, where a sizable share of coordinates accept a
    # wrong value. The every-row refill transforms every row with
    # sample_bv_stack: the one run of the kernel against a solve.
    n, q, budget = 3, 101, 87
    chi = ErrorDistribution(kind, 1)
    law = mode_law(MODE_CONTROLLED, n, q, chi, 2, v_size)
    assert law[3] == pytest.approx(single_trial_pass_rate(0, 1, amplified_law(chi, 2), 2, q), abs=1e-15)

    def run(inst, rng):
        return controlled_pass(inst.s, q, refills(inst, 2, 1, rng, v_size), budget)

    check_solves_follow_the_law(run, law, n, q, chi, budget, 1, solves, derive_rng(122, solves))


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
    "refills, kind, calls",
    [
        (controlled_refills, UNIFORM, {"integers": 3, "random": 1}),
        (controlled_refills, GAUSSIAN, {"integers": 2, "random": 2}),
        (elimination_refills, UNIFORM, {"integers": 4, "random": 1}),
        (elimination_refills, GAUSSIAN, {"integers": 3, "random": 2}),
        (baseline_refills, UNIFORM, {"integers": 2}),
        (baseline_refills, GAUSSIAN, {"integers": 1, "random": 1}),
    ],
    ids=["controlled-uniform", "controlled-gaussian", "elimination-uniform",
         "elimination-gaussian", "baseline-uniform", "baseline-gaussian"],
)
def test_a_refill_draws_each_value_range_once(refills, kind, calls):
    # Whatever k, a refill makes one draw call per value range: k*, the
    # (k, M + 1) block of test inputs with each row's U (or a'), the
    # elimination rows' r, the errors (integers when uniform, doubles when
    # gaussian), and one uniform per row for the atom decision.
    inst = make_instance(3, 101, ErrorDistribution(kind, 1), derive_rng(135, 0))
    rng = _CountingRng(derive_rng(135, 1))
    refill = refills(inst, 2, 2, rng)
    for k in (1, 40, 300):
        rng.calls.clear()
        refill(k)
        assert rng.calls == calls


def _offsets(refills, inst, xi_prime, m, rng, v_size, k):
    """One k-row refill's c0, the tests each row used, and its offsets rho:
    r . e of its first k elimination rows, or 0 for a controlled refill."""
    rho = np.zeros(k, dtype=np.int64)
    if refills is elimination_refills:
        _, r, e = _elimination_draws(inst, m, rng, k)
        rho = (r[:k] * e[:k]).sum(axis=1) % inst.q
    c0, tests, _ = refills(inst, xi_prime, m, rng, v_size)(k)
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
def test_rows_off_the_atom_add_a_uniform_offset(refills, v_size):
    # A null, a row that uses no test, reads c0 = rho, and so does a row on
    # its atom; a row off it reads c0 = rho + U with U uniform on [1, q),
    # never 0 (chi-square). So the non-null rows read c0 = rho at the atom's
    # mean mass over k* != 0, with the row's errors from chi' = U[-2, 2] for
    # a controlled row and the one error 0 for elimination.
    q, k = 101, 4000
    inst = make_instance(3, q, ErrorDistribution(UNIFORM, 1), derive_rng(134, 0))
    c0, tests, rho = _offsets(refills, inst, 2, 2, derive_rng(134, 1), v_size, k)
    null, on = tests == 0, c0 == rho
    assert on[null].all() and abs(null.mean() - 1 / q) <= binom_3sigma(1 / q, k)
    xi_prime = 2 if refills is controlled_refills else 0
    p_atom = atom_share(q, ErrorDistribution(UNIFORM, xi_prime), q if v_size is None else v_size)
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
            932938058,
        ),
        # 34 rows over five coordinates, all from the first refill of 40.
        (5, 4093, UNIFORM, 1, 2.0, None, 1, [(2, 3), (4, 5), (8, 9), (3, 4), (17, 18)], 572262404),
        (3, 101, GAUSSIAN, 2, 1.0, 40, 2, [(10, 12), (3, 5), (2, 4)], 182710519),
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
        (3, 101, UNIFORM, 1, 2.0, None, 0, OUTCOME_FAILURE, [(87, 90), (87, 93), (87, 91)], 332935637),
        (3, 101, GAUSSIAN, 1, 2.0, 40, 1, OUTCOME_SUCCESS, [(1, 3), (1, 3), (1, 3)], 411067553),
        # Partial rows at q=4093, most of them off the atom.
        (
            3, 4093, GAUSSIAN, 1, 2.0, 1000, 140, OUTCOME_SUCCESS,
            [(6, 7), (10, 12), (11, 12)], 341510307,
        ),
    ],
    ids=["3-101-uniform", "3-101-gaussian-v40", "3-4093-gaussian-v1000"],
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


def _elimination_draws(inst, m, rng, k):
    """The test inputs t and the elimination rows (r, e) that an elimination
    refill of k rows draws first from rng, replayed on a copy of it: t is
    the first m columns of the (k, m + 1) block whose last column is U."""
    twin = copy.deepcopy(rng)
    t = twin.integers(1, inst.q, size=(k, m + 1))[:, :m]
    return (t, *inverse_row_draws(inst, k * (1 + m), twin))


def _pair_by_hand(inst, r, e, j, a):
    """The pair (a, a (r . b)) for coordinate j in Python ints, r . b = s_j + r . e."""
    q, h = inst.q, inst.q // 2
    noise = sum(int(x) * int(y) for x, y in zip(r, e))
    return ReducedPair(a, a * (int(inst.s[j]) + noise) % q, (a * noise + h) % q - h, 0, q)


def test_elimination_mode_with_noise_stays_classified():
    # Every row's verdict, judged s-free in the refill, is the verdict its
    # candidate s_j + c0 gets on its own pairs (t, t (r' . b')) formed by
    # hand for each coordinate j; and a whole solve completes with a legal
    # classification.
    q, n, m = 101, 3, 2
    inst = _instance(n, q, 1, 101)
    rng = derive_rng(102, 0)
    t, r, e = _elimination_draws(inst, m, rng, 7)
    c0, tests, accepted = elimination_refills(inst, 2, m, rng, 40)(7)
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
