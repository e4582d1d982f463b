import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dclwe import (
    FORM_DIVIDED,
    FORM_FULL,
    OUTCOME_FAILURE,
    OUTCOME_SUCCESS,
    OUTCOME_WRONG_ACCEPT,
    SCHEME_BUCKET,
    SCHEME_PRIMITIVE,
    BoundTooLarge,
    CoordinateStats,
    MODE_ELIMINATION,
    ErrorDistribution,
    InvalidLength,
    ReducedBatch,
    bound_report,
    choose_parameters,
    classical_baseline_solve,
    derive_rng,
    exact_success_probability,
    kernel_distribution,
    lower_bound_p,
    make_instance,
    prob_iii_bound,
    qram_cost,
    solve,
    synth_reduced_batch,
)
from dclwe import solver as solver_module
from dclwe.oracle import coordinate_law
from dclwe.instance import GAUSSIAN, UNIFORM
from dclwe.solver import amplified_law, row_law

from _laws import MODE_BASELINE, baseline_coordinate_rate, check_solves_follow_the_law, mode_law
from _stats import binom_3sigma, chi_square_ok


def brute_ridge_mass(batch):
    """Oracle: sum the output grid over the ridge k_d = -s_j k*.

    Works off the kernel distribution and the ground-truth secret
    coordinate recovered from any batch pair, an entirely different
    route than the error-phase formula.
    """
    q = batch.q
    s_j = None
    for a, b, e in zip(batch.a_values, batch.b_values, batch.eta_values):
        if int(a) % q:
            s_j = (int(b) - int(e)) * pow(int(a), -1, q) % q
            break
    assert s_j is not None
    grid = kernel_distribution(batch)
    return float(sum(grid[(-s_j * k) % q, k] for k in range(q)))


def _batch(s_j, q, v, xi_prime, seed, kind=UNIFORM):
    rng = derive_rng(seed, 400)
    return synth_reduced_batch(s_j, q, v, xi_prime, ErrorDistribution(kind, xi_prime), rng)


def _literal(q, s_j, etas, xi_prime):
    etas = np.asarray(etas, dtype=np.int64)
    a = np.arange(etas.size, dtype=np.int64)
    return ReducedBatch(
        j=0,
        q=q,
        a_values=a,
        b_values=(a * s_j + etas) % q,
        eta_values=etas,
        coeff_l1_values=np.ones(etas.size, dtype=np.int64),
        xi_prime=xi_prime,
        kappa=1.0,
    )


def test_exact_probability_noiseless_full_field_is_one():
    batch = _literal(11, 4, [0] * 11, 0)
    assert exact_success_probability(batch) == pytest.approx(1.0, abs=1e-14)


def test_exact_probability_single_pair_is_one_over_q():
    batch = _literal(13, 4, [0], 0)
    assert exact_success_probability(batch) == pytest.approx(1 / 13, abs=1e-14)


def test_exact_probability_constant_error_is_one():
    batch = _literal(11, 4, [1] * 11, 1)
    assert exact_success_probability(batch) == pytest.approx(1.0, abs=1e-14)


def test_exact_probability_partial_noiseless_batch():
    # m pairs, no noise: ridge mass is m/q exactly.
    batch = _literal(13, 5, [0] * 6, 0)
    assert exact_success_probability(batch) == pytest.approx(6 / 13, abs=1e-14)


def test_exact_probability_builds_no_table_at_a_huge_modulus():
    # Three pairs at q = 2^31 - 1: the ridge mass counts the pairs per error
    # value, so it allocates nothing q-wide however large q is.
    q = 2**31 - 1
    batch = synth_reduced_batch(3, q, range(3), 1, ErrorDistribution(UNIFORM, 1), derive_rng(61, 0))
    tracemalloc.start()
    try:
        p = exact_success_probability(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    counts = np.bincount(batch.eta_values + 1)
    assert p == pytest.approx(counts @ counts / (3 * q), rel=1e-15)


def test_exact_probability_matches_the_grid_ridge():
    for q, s_j, xi_p, seed in [(11, 3, 1, 1), (13, 7, 2, 2), (31, 20, 4, 3)]:
        batch = _batch(s_j, q, range(q), xi_p, seed)
        assert exact_success_probability(batch) == pytest.approx(
            brute_ridge_mass(batch), abs=1e-12
        )


def test_exact_probability_matches_scalar_summation():
    batch = _batch(5, 11, range(0, 11, 2), 2, 4)
    q, m = 11, batch.size
    total = 0.0
    for k in range(q):
        inner = sum(cmath.exp(2j * cmath.pi * int(e) * k / q) for e in batch.eta_values)
        total += abs(inner) ** 2
    assert exact_success_probability(batch) == pytest.approx(total / (q * q * m), abs=1e-12)


def test_lower_bound_value_and_validation():
    # gamma = 1/8, full field: cos^2(pi/4) = 1/2, so the bound is
    # gamma / (2 xi') regardless of q.
    assert lower_bound_p(0.125, 101, 2, 101) == pytest.approx(1 / 32)
    assert lower_bound_p(0.125, 401, 1, 401) == pytest.approx(1 / 16)
    assert lower_bound_p(0.0, 101, 1, 101) == 0.0  # empty k* window
    with pytest.raises(ValueError):
        lower_bound_p(0.25, 101, 1, 101)
    with pytest.raises(ValueError):
        lower_bound_p(-0.01, 101, 1, 101)
    with pytest.raises(ValueError):
        lower_bound_p(0.125, 101, 0, 101)
    with pytest.raises(InvalidLength):
        lower_bound_p(0.125, 102, 1, 101)


def restricted_ridge_sum(batch, gamma):
    """The middle step of the lower-bound chain: the ridge mass over
    k* = 0 .. floor(gamma q / xi') only, keeping the squared real part of
    each term."""
    q = batch.q
    ks = np.arange(math.floor(gamma * q / batch.xi_prime) + 1)
    re = np.cos(2 * np.pi * np.outer(batch.eta_values, ks) / q).sum(axis=0)
    return float((re**2).sum() / (q * q * batch.size))


def test_bound_chain_exact_restricted_lower():
    # exact >= restricted >= analytic bound, term by term of the
    # derivation, on random noisy batches.
    rng_seed = 5
    for q in (31, 101):
        for xi_p in (1, 2, 4):
            for frac in (4, 2, 1):
                rng = derive_rng(rng_seed, q, xi_p, frac)
                v = rng.choice(q, size=q // frac, replace=False)
                batch = synth_reduced_batch(
                    int(rng.integers(q)), q, v, xi_p,
                    ErrorDistribution(UNIFORM, xi_p), rng,
                )
                for gamma in (0.05, 0.125, 0.2):
                    exact = exact_success_probability(batch)
                    restricted = restricted_ridge_sum(batch, gamma)
                    bound = lower_bound_p(gamma, batch.size, xi_p, q)
                    assert exact >= restricted - 1e-12
                    assert restricted >= bound - 1e-12
                    report = bound_report(batch, gamma)
                    assert not report.violated
                    assert report.exact_p == pytest.approx(exact)
                    assert report.lower_bound == pytest.approx(bound)


def test_wrong_accept_bound_values():
    # L = 100, kappa alpha = 0.05, M = 3, q = 101 with xi' = 5: the
    # approximation is 100 * 0.1^3 = 0.1.
    wa = prob_iii_bound(100, 5.0, 1 / 101, 3, 101)
    assert wa.approx == pytest.approx(100 * (10 / 101) ** 3)
    assert wa.exact == pytest.approx(100 * (11 / 101) ** 3)
    assert wa.exact > wa.approx
    with pytest.raises(ValueError):
        prob_iii_bound(0, 1.0, 1 / 101, 1, 101)
    with pytest.raises(ValueError):
        prob_iii_bound(10, 1.0, 0.013, 2, 101)  # non-integer bound


def test_wrong_accept_bound_monotonicity():
    base = prob_iii_bound(50, 2.0, 1 / 101, 2, 101)
    assert prob_iii_bound(50, 2.0, 1 / 101, 3, 101).exact < base.exact
    assert prob_iii_bound(100, 2.0, 1 / 101, 2, 101).exact > base.exact


def test_baseline_rate_uniform_and_gaussian():
    assert baseline_coordinate_rate(ErrorDistribution(UNIFORM, 1)) == pytest.approx(1 / 3)
    assert baseline_coordinate_rate(ErrorDistribution(UNIFORM, 4)) == pytest.approx(1 / 9)
    g = ErrorDistribution(GAUSSIAN, 2, sigma=1.0)
    w = [math.exp(-(e * e) / 2) for e in (-2, -1, 0, 1, 2)]
    assert baseline_coordinate_rate(g) == pytest.approx(w[2] / sum(w))


def test_baseline_noiseless_always_succeeds():
    rng = derive_rng(7, 500)
    inst = make_instance(4, 31, ErrorDistribution(UNIFORM, 0), rng)
    for seed in range(20):
        out = classical_baseline_solve(inst, 1.0, 2, 1, derive_rng(8, seed))
        assert out.outcome == OUTCOME_SUCCESS
        assert out.quantum_samples == 0
        assert np.array_equal(out.returned_s, inst.s % 31)


def _check_baseline_law(budget, trials, seed):
    # n = 1, q = 101, uniform xi' = 1, M = 2, against the baseline's law.
    q, chi = 101, ErrorDistribution(UNIFORM, 1)
    law = mode_law(MODE_BASELINE, 1, q, chi, 1)

    def run(inst, rng):
        return classical_baseline_solve(inst, 1.0, 2, budget, rng).per_coordinate

    check_solves_follow_the_law(run, law, 1, q, chi, budget, 2, trials, derive_rng(seed, 0))
    return coordinate_law(*law, budget, 2)[0]


def test_baseline_single_coordinate_rate():
    # Budget 1: success iff the one error draw is zero, probability exactly 1/3.
    assert _check_baseline_law(1, 4000, 9) == pytest.approx(1 / 3, abs=1e-15)


def test_baseline_budget_raises_the_rate():
    # Three attempts: 1 - (2/3)^3 = 19/27 per coordinate, less the wrong
    # values accepted first, about 0.0002.
    assert _check_baseline_law(3, 3000, 11) == pytest.approx(0.7035, abs=5e-5)


@pytest.mark.parametrize(
    "n, q, kind, xi, kappa, m, budget, seed, outcome, per_coordinate, next_draw",
    [
        (3, 101, UNIFORM, 1, 1.0, 2, 1, 0, OUTCOME_FAILURE, [(1, 2), (1, 1), (1, 2)], 423713891),
        (
            5, 101, UNIFORM, 1, 1.0, 2, 3, 1, OUTCOME_FAILURE,
            [(1, 2), (3, 3), (2, 3), (3, 3), (3, 3)],
            260192890,
        ),
        # One trial at q = 31: a wrong candidate passes it with 2 xi' / (q - 1).
        (4, 31, UNIFORM, 1, 2.0, 1, 4, 2, OUTCOME_WRONG_ACCEPT, [(1, 1), (1, 1), (1, 1), (2, 2)], 200994740),
        (
            8, 401, GAUSSIAN, 2, 1.0, 2, 5, 3, OUTCOME_SUCCESS,
            [(1, 2), (1, 2), (3, 4), (1, 2), (1, 2), (2, 3), (4, 5), (4, 5)],
            832985915,
        ),
    ],
    ids=["3-101-uniform", "5-101-uniform", "4-31-uniform", "8-401-gaussian"],
)
def test_baseline_stream_is_pinned(
    n, q, kind, xi, kappa, m, budget, seed, outcome, per_coordinate, next_draw
):
    # Frozen outcomes, per-coordinate (shots, tests) and the next draw of
    # the stream: each refill draws one (2, k) block of uniforms for every
    # row the solve may still take, since no trial budget here exceeds
    # FIRST_CHUNK (solver.controlled_pass), then one U per accepted row off
    # the atom; rows a settled coordinate leaves go to the next one.
    rng = derive_rng(700, seed)
    inst = make_instance(n, q, ErrorDistribution(kind, xi), rng)
    out = classical_baseline_solve(inst, kappa, m, budget, rng)
    assert out.outcome == outcome
    assert [(st.shots, st.tests_used) for st in out.per_coordinate] == per_coordinate
    assert all(st.candidates_tried == st.shots for st in out.per_coordinate)
    assert int(rng.integers(1 << 30)) == next_draw


def test_baseline_validation():
    rng = derive_rng(13, 0)
    inst = make_instance(2, 31, ErrorDistribution(UNIFORM, 1), rng)
    small = make_instance(2, 11, ErrorDistribution(UNIFORM, 1), rng)
    state = rng.bit_generator.state
    for instance, kappa, m, budget, error in (
        (inst, 1.0, 2, 0, ValueError),  # no trial budget
        (inst, 1.0, 0, 1, ValueError),  # no test trials
        (inst, 1.5, 2, 1, ValueError),  # kappa * xi = 1.5
        (inst, -2.0, 2, 1, ValueError),  # kappa <= 0
        (inst, 0.0, 2, 1, ValueError),
        (small, 6.0, 2, 1, BoundTooLarge),  # a window of 13 covers F_11
    ):
        with pytest.raises(error):
            classical_baseline_solve(instance, kappa, m, budget, rng)
        assert rng.bit_generator.state == state  # refused before any draw


def test_baseline_rows_encode_the_direct_candidate(monkeypatch):
    # The direct candidate b' a'^-1 = s_j + eta' a'^-1 reads c0 = eta' a'^-1:
    # 0 when eta' = 0, with chi'(0), and otherwise uniform on [1, q), as a'
    # is (chi-square on the accepted rows off the atom, which are most of
    # them: at xi' = 45 a wrong candidate passes a trial with 0.9). No row
    # is a null: each uses 1 to M tests.
    q, xi_prime, m, k = 101, 45, 2, 20000
    rng = derive_rng(14, 0)
    inst = make_instance(3, q, ErrorDistribution(GAUSSIAN, 1), rng)
    seen = {}

    def pass_spy(s, q, refill, budget):
        seen["verdicts"] = refill(k)
        return [CoordinateStats(j=j) for j in range(len(s))]

    monkeypatch.setattr(solver_module, "controlled_pass", pass_spy)
    classical_baseline_solve(inst, float(xi_prime), m, 1, rng)
    c, tests, accepted = map(np.array, seen["verdicts"])
    assert len(c) == k and ((1 <= tests) & (tests <= m)).all()
    zero = baseline_coordinate_rate(amplified_law(inst.chi, xi_prime))
    assert abs((c == 0).mean() - zero) <= binom_3sigma(zero, k)
    u = c[accepted & (c != 0)]
    assert u.size > k / 2
    assert chi_square_ok(np.bincount(u - 1, minlength=q - 1), np.full(q - 1, 1 / (q - 1)), u.size)


def _every_shot_sequence(nu, p_c, pi_c, pi_w, budget, m):
    """(P(success), E[shots], E[tests]) of one coordinate, summed over every
    sequence of at most `budget` shots, each a null, a candidate rejected
    at trial i + 1 <= M, or one that passes all M trials and settles it."""
    outcomes = [(nu, 0, None)]  # (probability, tests, accepted value is correct)
    for p, pi, correct in ((p_c, pi_c, True), (1 - p_c, pi_w, False)):
        outcomes.append(((1 - nu) * p * pi**m, m, correct))
        outcomes += [((1 - nu) * p * pi**i * (1 - pi), i + 1, None) for i in range(m)]
    total = np.zeros(4)  # probability mass, success, shots, tests

    def walk(shots, weight, tests):
        if shots == budget:
            total[:] += weight * np.array([1, 0, shots, tests])
            return
        for p, used, correct in outcomes:
            if correct is None:
                walk(shots + 1, weight * p, tests + used)
            else:
                total[:] += weight * p * np.array([1, correct, shots + 1, tests + used])

    walk(0, 1.0, 0)
    assert abs(total[0] - 1) < 1e-12
    return tuple(total[1:])


def test_coordinate_law_matches_every_shot_sequence():
    rng = derive_rng(30, 0)
    laws = [rng.random(4) for _ in range(6)]
    laws += [np.array(law) for law in ([0, 1, 1, 0], [0.5, 0.2, 1, 1], [0, 0, 0.3, 0.7], [0.3, 1, 0, 0])]
    for law in laws:
        for budget, m in itertools.product((1, 2, 3), (1, 2)):
            got = coordinate_law(*law, budget, m)
            want = _every_shot_sequence(*law, budget, m)
            assert np.allclose(got, want, rtol=0, atol=1e-12), (law, budget, m)
    with pytest.raises(ValueError):
        coordinate_law(0.1, 0.5, 1, 0.1, 0, 1)


@pytest.mark.parametrize(
    "q, n, chi",
    [(5, 2, ErrorDistribution(UNIFORM, 1)), (5, 2, ErrorDistribution(GAUSSIAN, 2)),
     (3, 3, ErrorDistribution(UNIFORM, 1))],
    ids=["q5-n2-uniform", "q5-n2-gaussian", "q3-n3-uniform"],
)
def test_elimination_law_matches_every_inverse_row_and_error(q, n, chi):
    # solver.row_law's elimination row, the law the CLI refuses points by,
    # against rho = r . e over every r != 0 and every e in the window, with
    # its chi weight.
    weights = chi.weights() / chi.weights().sum()
    window = range(-chi.xi, chi.xi + 1)
    rows = [r for r in itertools.product(range(q), repeat=n) if any(r)]
    rho = np.zeros(q)
    for e in itertools.product(window, repeat=n):
        weight = math.prod(weights[x + chi.xi] for x in e) / len(rows)
        for r in rows:
            rho[sum(a * b for a, b in zip(r, e)) % q] += weight
    # At xi' = 0 a trial passes only on rho' = c0, so pi_c = P(rho = 0) and
    # pi_w = P(rho = x); over the full field every row is on its atom.
    nu, p_c, pi_c, pi_w = row_law(MODE_ELIMINATION, n, q, chi, 0, q)
    assert nu == 1 / q and abs(p_c - rho[0]) < 1e-12 and abs(pi_c - rho[0]) < 1e-12
    assert np.abs(rho[1:] - pi_w).max() < 1e-12
    # Off the atom c0 = rho + U, U uniform on [1, q); a trial against c0 has
    # residual t (rho' - c0), t uniform on [1, q), within xi' = 1.
    passing = np.zeros(q)  # P(trial passes) against each c0
    for c, x, t in itertools.product(range(q), range(q), range(1, q)):
        passing[c] += rho[x] * (abs((t * (x - c) + q // 2) % q - q // 2) <= 1) / (q - 1)
    for m in range(1, q + 1):
        _, p_c, pi_c, pi_w = row_law(MODE_ELIMINATION, n, q, chi, 1, m)
        assert abs(p_c - (m / q * rho[0] + (1 - m / q) * rho[1:].sum() / (q - 1))) < 1e-12
        assert abs(pi_c - passing[0]) < 1e-12 and np.abs(passing[1:] - pi_w).max() < 1e-12


@pytest.mark.parametrize(
    "kind, sigma, v_size, solves",
    [(UNIFORM, None, None, 1000), (GAUSSIAN, None, 40, 2000), (GAUSSIAN, 0.6, None, 2000),
     (GAUSSIAN, 0.8, 40, 1000)],
    ids=["uniform-full", "gaussian-40", "gaussian-0.6-full", "gaussian-0.8-40"],
)
def test_elimination_solves_follow_their_law(kind, sigma, v_size, solves):
    # n=3, q=101, kappa=2: L=87, M=3.
    n, q = 3, 101
    chi = ErrorDistribution(kind, 1, sigma=sigma)
    params = choose_parameters(n, q, 1, 2.0, 0.2)
    assert (params.L, params.M, params.xi_prime) == (87, 3, 2)

    def run(inst, rng):
        return solve(inst, params, MODE_ELIMINATION, rng, v_size=v_size).per_coordinate

    law = mode_law(MODE_ELIMINATION, n, q, chi, 2, v_size)
    check_solves_follow_the_law(run, law, n, q, chi, params.L, params.M, solves, derive_rng(31, solves))


def test_qram_cost_examples():
    assert qram_cost(2, 4, 2, SCHEME_PRIMITIVE, FORM_FULL) == 4.0
    assert qram_cost(1024, 8, 2, SCHEME_BUCKET, FORM_DIVIDED) == 10.0
    assert qram_cost(101, 8, 4, SCHEME_PRIMITIVE, FORM_FULL) == pytest.approx(101.0**2)
    assert qram_cost(101, 8, 4, SCHEME_PRIMITIVE, FORM_DIVIDED) == pytest.approx(101.0**0.25)
    assert qram_cost(101, 8, 4, SCHEME_BUCKET, FORM_FULL) == pytest.approx(8 * math.log2(101))
    assert qram_cost(101, 8, 4, SCHEME_BUCKET, FORM_DIVIDED) == pytest.approx(math.log2(101))


def test_qram_cost_divided_beats_full():
    for scheme in (SCHEME_PRIMITIVE, SCHEME_BUCKET):
        full = qram_cost(101, 8, 2, scheme, FORM_FULL)
        divided = qram_cost(101, 8, 2, scheme, FORM_DIVIDED)
        assert divided < full


def test_qram_cost_validation():
    with pytest.raises(ValueError):
        qram_cost(101, 8, 2, "ternary", FORM_FULL)
    with pytest.raises(ValueError):
        qram_cost(101, 8, 2, SCHEME_PRIMITIVE, "sliced")
    with pytest.raises(InvalidLength):
        qram_cost(1, 8, 2, SCHEME_PRIMITIVE, FORM_FULL)
    with pytest.raises(InvalidLength):
        qram_cost(101, 0, 2, SCHEME_PRIMITIVE, FORM_FULL)
