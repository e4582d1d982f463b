import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dclwe import (
    DegenerateTest,
    ErrorDistribution,
    PrimeField,
    derive_rng,
    false_accept_probability,
    single_trial_pass_rate,
)
from dclwe.instance import GAUSSIAN, UNIFORM, sample_error
from dclwe.reduce import ReducedPair
from dclwe.verify import delta, m_trial_test

from _stats import binom_3sigma


def _pair(t, b, q, coeff=1):
    return ReducedPair(a_prime=t, b_prime=b, eta_prime=0, coeff_l1=coeff, q=q)


def brute_pass_rate(gap, chi, xi_prime, q):
    """Oracle: average the acceptance indicator over all t and eta."""
    weights = chi.weights()
    field = PrimeField(q)
    total = 0.0
    for ti in range(1, q):
        for k, eta in enumerate(range(-chi.xi, chi.xi + 1)):
            if abs(field.centered((ti * gap + eta) % q)) <= xi_prime:
                total += weights[k]
    return total / ((q - 1) * weights.sum())


def test_delta_examples():
    # q = 17, t = 4, b' = 14: candidate 3 gives |14 - 12| = 2,
    # candidate 5 gives |centered(14 - 20)| = 6.
    assert delta(_pair(4, 14, 17), 3) == 2
    assert delta(_pair(4, 14, 17), 5) == 6
    assert delta(_pair(3, 5, 7), 4) == 0


def test_delta_zero_target_raises():
    with pytest.raises(DegenerateTest):
        delta(_pair(0, 5, 7), 1)
    with pytest.raises(DegenerateTest):
        delta(_pair(14, 5, 7), 1)  # 14 = 0 mod 7


@given(
    q=st.sampled_from([7, 17, 101]),
    t=st.integers(min_value=1, max_value=100),
    b=st.integers(min_value=0, max_value=10**6),
    s=st.integers(min_value=-(10**6), max_value=10**6),
    shift=st.integers(min_value=-3, max_value=3),
)
def test_delta_is_residue_class_invariant(q, t, b, s, shift):
    if t % q == 0:
        return
    base = delta(_pair(t, b % q, q), s)
    assert delta(_pair(t + shift * q, b % q, q), s + shift * q) == base
    assert base <= q // 2


def test_m_trial_test_accepts_true_candidate():
    # Residual of the true value equals |eta'|, within xi' always.
    q, s_j, xi_p = 31, 12, 2
    rng = derive_rng(70, 0)
    chi = ErrorDistribution(UNIFORM, xi_p)

    def source():
        t = int(rng.integers(1, q))
        eta = sample_error(chi, rng)
        return ReducedPair(t, (t * s_j + eta) % q, eta, 1, q)

    for _ in range(200):
        verdict = m_trial_test(s_j, 3, xi_p, source)
        assert verdict.accepted
        assert verdict.trials_used == 3
        assert len(verdict.deltas) == 3
        assert max(verdict.deltas) <= xi_p


def test_m_trial_test_stops_at_first_violation():
    q = 17
    feed = [_pair(1, 1, q), _pair(1, 9, q), _pair(1, 2, q)]
    it = iter(feed)
    verdict = m_trial_test(0, 3, 1, lambda: next(it))
    assert not verdict.accepted
    assert verdict.trials_used == 2
    assert verdict.deltas == (1, 8)
    assert next(it) is feed[2]  # third pair never consumed


def test_m_trial_test_rejects_zero_trials():
    with pytest.raises(ValueError):
        m_trial_test(0, 0, 1, lambda: _pair(1, 0, 7))


def test_m_trial_test_propagates_exhausted_source():
    class SourceExhausted(Exception):
        pass

    def source():
        raise SourceExhausted("dry")

    with pytest.raises(SourceExhausted):
        m_trial_test(0, 2, 1, source)


def test_false_accept_probability_examples():
    # kappa * alpha * q = 1 at q = 7: window 3 residues of 7.
    fa = false_accept_probability(1.0, 1 / 7, 7, 1)
    assert fa.exact == pytest.approx(3 / 7)
    assert fa.approx == pytest.approx(2 / 7)
    fa3 = false_accept_probability(1.0, 1 / 7, 7, 3)
    assert fa3.exact == pytest.approx((3 / 7) ** 3)
    assert fa3.approx == pytest.approx((2 / 7) ** 3)


def test_false_accept_probability_zero_bound():
    fa = false_accept_probability(0.0, 0.25, 101, 2)
    assert fa.exact == pytest.approx((1 / 101) ** 2)
    assert fa.approx == 0.0


def test_false_accept_probability_validation():
    with pytest.raises(ValueError):
        false_accept_probability(1.0, 0.3, 7, 0)
    with pytest.raises(ValueError):
        false_accept_probability(1.3, 1 / 7, 7, 1)  # non-integer bound
    with pytest.raises(ValueError):
        false_accept_probability(4.0, 1 / 7, 7, 1)  # window wider than field


def test_single_trial_pass_rate_matches_brute_force():
    q = 17
    for kind, xi in ((UNIFORM, 1), (UNIFORM, 3), (GAUSSIAN, 3)):
        chi = ErrorDistribution(kind, xi)
        for gap in (1, 2, 8):
            got = single_trial_pass_rate(0, gap, chi, xi, q)
            assert got == pytest.approx(brute_pass_rate((-gap) % q, chi, xi, q))


def test_single_trial_pass_rate_true_candidate_is_one():
    chi = ErrorDistribution(UNIFORM, 2)
    assert single_trial_pass_rate(5, 5, chi, 2, 31) == 1.0
    # Declared bound below the error bound: even the true value fails
    # sometimes.
    assert single_trial_pass_rate(5, 5, chi, 1, 31) < 1.0


def test_wrong_candidate_rate_is_exactly_window_over_field():
    # For any error law bounded by xi', each fixed eta leaves exactly
    # 2 xi' + 1 passing residues, one of which is t = 0; the rate over
    # nonzero t is 2 xi' / (q - 1), independent of the law and the gap.
    q = 17
    for kind in (UNIFORM, GAUSSIAN):
        chi = ErrorDistribution(kind, 1)
        for s_tilde in range(1, q):
            rate = single_trial_pass_rate(0, s_tilde, chi, 1, q)
            assert rate == pytest.approx(2 * 1 / (q - 1))


def test_monte_carlo_agrees_with_exhaustive_rate():
    q, xi_p = 17, 1
    chi = ErrorDistribution(UNIFORM, xi_p)
    s_true, s_tilde = 3, 11
    exact = single_trial_pass_rate(s_true, s_tilde, chi, xi_p, q)
    rng = derive_rng(71, 0)
    trials = 40000
    ts = rng.integers(1, q, size=trials)
    etas = rng.integers(-xi_p, xi_p + 1, size=trials)
    b = (ts * s_true + etas) % q
    resid = np.abs((b - ts * s_tilde + q // 2) % q - q // 2)
    hit = float((resid <= xi_p).mean())
    assert abs(hit - exact) < binom_3sigma(exact, trials)
