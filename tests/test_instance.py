import math

import numpy as np
import pytest

from dclwe import (
    GAUSSIAN,
    UNIFORM,
    BoundTooLarge,
    ErrorDistribution,
    InvalidLength,
    InvalidModulus,
    PrimeField,
    derive_rng,
    make_instance,
)
from dclwe.fq import mat_vec
from dclwe.instance import (
    draw_samples,
    gen_samples,
    gen_secret,
    sample_error,
    sample_errors,
    samples_to_arrays,
)

from _stats import chi_square_ok


def test_error_distribution_validation():
    with pytest.raises(ValueError):
        ErrorDistribution("poisson", 1)
    with pytest.raises(ValueError):
        ErrorDistribution(UNIFORM, -1)
    with pytest.raises(ValueError):
        ErrorDistribution(GAUSSIAN, 3, sigma=0.0)
    with pytest.raises(ValueError):
        ErrorDistribution(GAUSSIAN, 3, sigma=-1.0)


def test_error_distribution_takes_only_an_integer_bound():
    # A non-integer bound would give weights() points that sample_errors never draws.
    for kind, xi in ((UNIFORM, 1.5), (UNIFORM, 2.0), (UNIFORM, "2"), (GAUSSIAN, 1.5)):
        with pytest.raises(ValueError, match="xi: must be an integer"):
            ErrorDistribution(kind, xi)
    for xi in (2, np.int64(2), np.int32(2)):
        assert ErrorDistribution(UNIFORM, xi).weights().size == 5


def test_gaussian_sigma_must_be_finite():
    # An infinite width would flatten the gaussian into uniform noise.
    for sigma in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="sigma: must be positive and finite"):
            ErrorDistribution(GAUSSIAN, 3, sigma=sigma)


def test_uniform_noise_takes_no_sigma():
    with pytest.raises(ValueError, match="no effect with uniform noise"):
        ErrorDistribution(UNIFORM, 2, sigma=1.0)


def test_gaussian_sigma_defaults_to_third_of_bound():
    assert ErrorDistribution(GAUSSIAN, 6).sigma == 2.0
    assert ErrorDistribution(GAUSSIAN, 6, sigma=1.5).sigma == 1.5
    # Uniform kind never fills sigma in.
    assert ErrorDistribution(UNIFORM, 6).sigma is None


def test_weights_match_the_stated_laws():
    u = ErrorDistribution(UNIFORM, 2).weights()
    assert u.tolist() == [1.0] * 5
    g = ErrorDistribution(GAUSSIAN, 2, sigma=1.0).weights()
    assert g[2] == 1.0
    assert g[1] == pytest.approx(math.exp(-0.5))
    assert g[0] == pytest.approx(math.exp(-2.0))
    assert np.allclose(g, g[::-1])


def test_zero_bound_draws_are_always_zero():
    rng = derive_rng(5, 0)
    for chi in (ErrorDistribution(UNIFORM, 0), ErrorDistribution(GAUSSIAN, 0)):
        assert all(sample_error(chi, rng) == 0 for _ in range(50))
        assert not sample_errors(chi, rng, 200).any()


def test_uniform_errors_cover_the_window_evenly():
    chi = ErrorDistribution(UNIFORM, 3)
    rng = derive_rng(6, 0)
    draws = np.array([sample_error(chi, rng) for _ in range(14000)])
    assert draws.min() == -3 and draws.max() == 3
    counts = np.bincount(draws + 3, minlength=7)
    assert chi_square_ok(counts, np.full(7, 1 / 7), 14000)


def test_vector_and_scalar_draws_share_a_law():
    # One stream: n scalar draws equal one vector draw of n from the same seed.
    for chi in (
        ErrorDistribution(UNIFORM, 2),
        ErrorDistribution(GAUSSIAN, 4, sigma=1.5),
    ):
        rng = derive_rng(7, 0)
        vec = sample_errors(chi, rng, 20000)
        assert abs(vec.max()) <= chi.xi and abs(vec.min()) <= chi.xi
        w = chi.weights()
        probs = w / w.sum()
        counts = np.bincount(vec + chi.xi, minlength=2 * chi.xi + 1)
        assert chi_square_ok(counts, probs, 20000)
        rng = derive_rng(7, 0)
        scalars = np.array([sample_error(chi, rng) for _ in range(20000)])
        assert np.array_equal(scalars, vec)


def test_gaussian_zero_to_one_ratio():
    # With sigma = 1 the law gives P(0)/P(1) = e^{1/2}.
    chi = ErrorDistribution(GAUSSIAN, 4, sigma=1.0)
    rng = derive_rng(8, 0)
    draws = sample_errors(chi, rng, 60000)
    p0 = (draws == 0).mean()
    p1 = (draws == 1).mean()
    assert p0 / p1 == pytest.approx(math.exp(0.5), rel=0.08)


def test_gen_secret_shape_range_and_determinism():
    s1 = gen_secret(6, 101, derive_rng(9, 0))
    s2 = gen_secret(6, 101, derive_rng(9, 0))
    assert np.array_equal(s1, s2)
    assert s1.shape == (6,)
    assert s1.min() >= 0 and s1.max() < 101
    assert not np.array_equal(s1, gen_secret(6, 101, derive_rng(10, 0)))


def test_gen_secret_is_uniform():
    rng = derive_rng(11, 0)
    draws = gen_secret(40000, 101, rng)
    counts = np.bincount(draws, minlength=101)
    assert chi_square_ok(counts, np.full(101, 1 / 101), 40000)


def test_gen_secret_rejects_bad_arguments():
    rng = derive_rng(12, 0)
    with pytest.raises(InvalidLength):
        gen_secret(0, 7, rng)
    with pytest.raises(InvalidModulus):
        gen_secret(3, 8, rng)


def test_make_instance_rejects_oversized_error_bound():
    rng = derive_rng(13, 0)
    with pytest.raises(BoundTooLarge):
        make_instance(2, 7, ErrorDistribution(UNIFORM, 4), rng)
    inst = make_instance(2, 7, ErrorDistribution(UNIFORM, 3), rng)
    assert inst.xi == 3


def test_generated_samples_satisfy_the_lwe_identity():
    rng = derive_rng(14, 0)
    inst = make_instance(5, 101, ErrorDistribution(UNIFORM, 3), rng)
    for s in gen_samples(inst, rng, 500):
        assert abs(s.eta) <= 3
        assert 0 <= s.b < 101
        lhs = PrimeField(101).centered(s.b - int(mat_vec(s.a, inst.s, 101)))
        assert lhs == s.eta


def test_sample_block_draw_and_its_list_view_agree():
    inst = make_instance(3, 31, ErrorDistribution(UNIFORM, 2), derive_rng(17, 0))
    a, b, eta = draw_samples(inst, derive_rng(17, 1), (4, 5))
    assert a.shape == (4, 5, 3) and b.shape == eta.shape == (4, 5)
    assert not ((mat_vec(a, inst.s, 31) + eta - b) % 31).any()
    listed = gen_samples(inst, derive_rng(17, 1), 20)
    assert np.array_equal(np.stack([smp.a for smp in listed]), a.reshape(20, 3))
    assert [smp.b for smp in listed] == b.ravel().tolist()
    assert [smp.eta for smp in listed] == eta.ravel().tolist()


def test_samples_to_arrays_stacks_public_parts():
    rng = derive_rng(16, 0)
    inst = make_instance(4, 31, ErrorDistribution(UNIFORM, 1), rng)
    samples = gen_samples(inst, rng, 6)
    a, b = samples_to_arrays(samples, 31)
    assert a.shape == (6, 4) and b.shape == (6,)
    assert np.array_equal(a[2], samples[2].a)
    assert b[2] == samples[2].b


def test_derive_rng_streams_are_stable_and_distinct():
    x = derive_rng(42, 1, 3).integers(0, 1000, size=8)
    y = derive_rng(42, 1, 3).integers(0, 1000, size=8)
    z = derive_rng(42, 3, 1).integers(0, 1000, size=8)
    w = derive_rng(43, 1, 3).integers(0, 1000, size=8)
    assert np.array_equal(x, y)
    assert not np.array_equal(x, z)
    assert not np.array_equal(x, w)
