import cmath
import itertools
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dclwe import (
    DuplicateInput,
    ErrorDistribution,
    InvalidLength,
    InvariantViolation,
    ReducedBatch,
    TwoQuditState,
    bv_kernel,
    derive_rng,
    kernel_distribution,
    make_instance,
    prepare_sample_state,
    sample_bv_outcomes,
    sample_bv_stack,
    synth_reduced_batch,
)
from dclwe import qsim, solver
from dclwe.instance import GAUSSIAN, UNIFORM, sample_errors
from dclwe.qsim import (
    NORM_TOL,
    MeasurementOutcome,
    check_block_size,
    extract_candidate,
    qft_matrix,
    root_table,
    sample_bv_outcome,
)

from _stats import binom_3sigma, chi_square_ok


def brute_kernel_grid(batch):
    """Oracle: post-kernel probabilities from the raw double sum.

    amp[k_d, k*] = (1/(q sqrt(m))) sum_{a'} w^{a' k_d + b'(a') k*},
    computed term by term with scalar complex exponentials.
    """
    q, m = batch.q, batch.size
    grid = np.zeros((q, q))
    for k_d in range(q):
        for k_star in range(q):
            amp = 0j
            for a, b in zip(batch.a_values, batch.b_values):
                phase = (int(a) * k_d + int(b) * k_star) % q
                amp += cmath.exp(2j * cmath.pi * phase / q)
            grid[k_d, k_star] = abs(amp / (q * math.sqrt(m))) ** 2
    return grid


def _batch(s_j, q, v, xi_prime, seed, kind=UNIFORM):
    rng = derive_rng(seed, 200)
    chi = ErrorDistribution(kind, xi_prime)
    return synth_reduced_batch(s_j, q, v, xi_prime, chi, rng)


def _literal_batch(q, a_values, b_values, xi_prime=0, eta=None):
    a = np.asarray(a_values, dtype=np.int64)
    if eta is None:
        eta = np.zeros(a.size, dtype=np.int64)
    return ReducedBatch(
        j=0,
        q=q,
        a_values=a,
        b_values=np.asarray(b_values, dtype=np.int64),
        eta_values=np.asarray(eta, dtype=np.int64),
        coeff_l1_values=np.ones(a.size, dtype=np.int64),
        xi_prime=xi_prime,
        kappa=1.0,
    )


def test_qft_on_basis_state_is_uniform():
    q = 7
    f = qft_matrix(q)
    col = f @ np.eye(q)[:, 0]
    assert np.allclose(col, np.full(q, 1 / math.sqrt(q)))


def test_qft_matrix_q2_is_hadamard():
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert np.allclose(qft_matrix(2), h)


def test_qft_matrix_is_unitary_and_symmetric():
    for q in (3, 5, 7, 11, 31):
        f = qft_matrix(q)
        assert np.allclose(f @ f.conj().T, np.eye(q), atol=1e-12)
        assert np.allclose(f, f.T)
        assert not f.flags.writeable  # cached and shared


def test_qft_roundtrip_restores_state():
    rng = derive_rng(30, 0)
    q = 11
    for _ in range(20):
        raw = rng.normal(size=(q, q)) + 1j * rng.normal(size=(q, q))
        raw /= np.linalg.norm(raw)
        state = TwoQuditState(q, raw)
        both = bv_kernel(state)
        assert abs(both.norm_squared() - 1.0) < 1e-12
        # F^2 maps |j> to |-j>: two kernels reflect both registers, four restore them.
        neg = -np.arange(q) % q
        twice = bv_kernel(both)
        assert np.allclose(twice.amps, raw[np.ix_(neg, neg)], atol=1e-12)
        assert np.allclose(bv_kernel(bv_kernel(twice)).amps, raw, atol=1e-12)


def test_state_rejects_norm_drift_and_bad_shape():
    with pytest.raises(InvariantViolation):
        TwoQuditState(3, np.ones((3, 3)))
    with pytest.raises(InvalidLength):
        TwoQuditState(3, np.zeros((3, 4)))


def test_prepare_places_uniform_mass_on_batch_pairs():
    batch = _batch(3, 11, range(5), 1, 32)
    state = prepare_sample_state(batch)
    expect = np.zeros((11, 11), dtype=np.complex128)
    expect[batch.a_values, batch.b_values] = 1 / math.sqrt(5)
    assert np.array_equal(state.amps, expect)


def test_prepare_rejects_colliding_inputs():
    batch = _batch(3, 11, range(4), 1, 33)
    batch.a_values[1] = batch.a_values[0]  # corrupt in place
    with pytest.raises(DuplicateInput):
        prepare_sample_state(batch)


def test_dense_kernel_matches_brute_force_oracle():
    for q, s_j, xi_p, seed in [(5, 2, 1, 40), (7, 3, 2, 41), (7, 0, 1, 42)]:
        batch = _batch(s_j, q, range(q), xi_p, seed)
        oracle = brute_kernel_grid(batch)
        dense = bv_kernel(prepare_sample_state(batch)).probabilities()
        closed = kernel_distribution(batch)
        assert np.allclose(dense, oracle, atol=1e-12)
        assert np.allclose(closed, oracle, atol=1e-12)


def test_partial_batches_match_brute_force_oracle():
    for q, v, seed in [(7, [0, 2, 5], 43), (11, [1, 4, 6, 9, 10], 44)]:
        batch = _batch(4 % q, q, v, 1, seed)
        oracle = brute_kernel_grid(batch)
        assert np.allclose(kernel_distribution(batch), oracle, atol=1e-12)
        assert np.allclose(
            bv_kernel(prepare_sample_state(batch)).probabilities(), oracle, atol=1e-12
        )


def test_noiseless_full_field_concentrates_on_the_ridge():
    # eta' = 0 and v = F_q puts all mass on k_d = -s_j k*, 1/q each.
    q, s_j = 7, 3
    batch = _literal_batch(q, range(q), [a * s_j % q for a in range(q)])
    grid = kernel_distribution(batch)
    expect = np.zeros((q, q))
    for k_star in range(q):
        expect[(-s_j * k_star) % q, k_star] = 1 / q
    assert np.allclose(grid, expect, atol=1e-12)


def test_constant_error_shifts_nothing():
    # A constant eta' = c is invisible: b' = a' s_j + c gives the same
    # output law as the noiseless batch (a global phase per k*).
    q, s_j = 5, 3
    clean = _literal_batch(q, range(q), [a * s_j % q for a in range(q)])
    shifted = _literal_batch(
        q,
        range(q),
        [(a * s_j + 1) % q for a in range(q)],
        xi_prime=1,
        eta=[1] * q,
    )
    assert np.allclose(kernel_distribution(shifted), kernel_distribution(clean), atol=1e-12)
    assert np.allclose(kernel_distribution(shifted), brute_kernel_grid(shifted), atol=1e-12)


def test_single_pair_batch_is_flat():
    q = 5
    batch = _literal_batch(q, [2], [4], xi_prime=2, eta=[0])
    assert np.allclose(kernel_distribution(batch), np.full((q, q), 1 / q**2), atol=1e-12)


def test_extract_candidate_examples():
    # k_d = 1, k* = 2, q = 7: s = (-1) * inv(2) = 6 * 4 = 24 = 3 (mod 7).
    assert extract_candidate(MeasurementOutcome(1, 2), 7) == 3
    assert extract_candidate(MeasurementOutcome(4, 0), 7) is None
    assert extract_candidate(MeasurementOutcome(0, 3), 7) == 0


def test_extract_candidate_solves_the_ridge_relation():
    q = 11
    for k_d in range(q):
        for k_star in range(1, q):
            cand = extract_candidate(MeasurementOutcome(k_d, k_star), q)
            assert (k_d + cand * k_star) % q == 0


def test_factored_sampler_matches_dense_distribution():
    q = 11
    batch = _batch(7, q, range(q), 2, 48)
    probs = kernel_distribution(batch).ravel()
    rng = derive_rng(49, 0)
    shots = 40000
    counts = np.zeros(q * q)
    for _ in range(shots):
        out = sample_bv_outcome(batch, rng)
        counts[out.k_d * q + out.k_star] += 1
    assert chi_square_ok(counts, probs, shots)


def test_factored_sampler_marginal_is_uniform_even_for_partial_batches():
    q = 13
    batch = _batch(5, q, [0, 3, 4, 8, 11], 1, 50)
    # The exact grid already carries the property; check it directly,
    # then check the sampler agrees on the joint law.
    grid = kernel_distribution(batch)
    assert np.allclose(grid.sum(axis=0), np.full(q, 1 / q), atol=1e-12)
    rng = derive_rng(51, 0)
    shots = 30000
    counts = np.zeros(q)
    for _ in range(shots):
        counts[sample_bv_outcome(batch, rng).k_star] += 1
    assert chi_square_ok(counts, np.full(q, 1 / q), shots)


def test_stacked_sampler_matches_the_grid_on_a_shared_full_field_row():
    # Every row measures the same batch through one shared input row.
    q = 11
    batch = _batch(4, q, range(q), 2, 56)
    probs = kernel_distribution(batch).ravel()
    shots = 40000
    b_rows = np.broadcast_to(batch.b_values, (shots, q))
    k_d, k_star = sample_bv_stack(q, batch.a_values[None], b_rows, derive_rng(57, 0))
    counts = np.bincount(k_d * q + k_star, minlength=q * q)
    assert chi_square_ok(counts, probs, shots)


def test_stacked_sampler_matches_the_grid_on_v_size_rows():
    # Each row holds the same partial batch with its pairs in another order,
    # so every row reads its own inputs.
    q = 13
    batch = _batch(5, q, [0, 3, 4, 8, 11], 1, 58)
    probs = kernel_distribution(batch).ravel()
    rng = derive_rng(59, 0)
    shots = 30000
    order = np.argsort(rng.random((shots, batch.size)), axis=1)
    k_d, k_star = sample_bv_stack(q, batch.a_values[order], batch.b_values[order], rng)
    counts = np.bincount(k_d * q + k_star, minlength=q * q)
    assert chi_square_ok(counts, probs, shots)


def _s_free_and_secret_batches(q, inputs, s, xi_prime, seed):
    """An s-free batch (a', eta') and the batch (a', a' s + eta') with the same errors."""
    free = _batch(0, q, inputs, xi_prime, seed)
    b_values = (free.a_values * s + free.eta_values) % q
    return free, _literal_batch(q, free.a_values, b_values, xi_prime, free.eta_values)


def _shifted(grid, shift):
    """grid[(k_d + shift * k*) mod q, k*] at every (k_d, k*)."""
    q = grid.shape[0]
    ks = np.arange(q)
    return grid[(ks[:, None] + shift * ks[None, :]) % q, ks[None, :]]


@pytest.mark.parametrize(
    "q, inputs",
    [(7, range(7)), (7, [0, 2, 3, 5]), (101, range(101)), (101, range(3, 101, 5))],
)
def test_secret_batch_law_is_the_s_free_law_shifted_along_k_d(q, inputs):
    for s in (1, 3, q - 2):
        free, batch = _s_free_and_secret_batches(q, inputs, s, 2, 61 + s)
        p_free, p_s = kernel_distribution(free), kernel_distribution(batch)
        assert np.abs(p_s - _shifted(p_free, s)).max() < 1e-12
        assert np.abs(p_s - _shifted(p_free, -s)).max() > 1e-3


@pytest.mark.parametrize("q, inputs", [(11, range(11)), (13, [0, 3, 4, 8, 11])])
def test_translated_s_free_draws_follow_the_secret_batch_law(q, inputs):
    s = 4
    free, batch = _s_free_and_secret_batches(q, inputs, s, 2, 62)
    probs = kernel_distribution(batch).ravel()
    shots = 40000
    b_rows = np.broadcast_to(free.b_values, (shots, free.size))
    k_d, k_star = sample_bv_stack(q, free.a_values[None], b_rows, derive_rng(63, q))
    counts = np.bincount((k_d - s * k_star) % q * q + k_star, minlength=q * q)
    assert chi_square_ok(counts, probs, shots)
    wrong = np.bincount((k_d + s * k_star) % q * q + k_star, minlength=q * q)
    assert not chi_square_ok(wrong, probs, shots)
    # The candidate of a translated outcome is s + c0, and a null stays a null.
    outcomes = list(zip(k_d[:200].tolist(), k_star[:200].tolist()))
    c0 = [extract_candidate(MeasurementOutcome(k, ks), q) for k, ks in outcomes]
    translated = [extract_candidate(MeasurementOutcome((k - s * ks) % q, ks), q) for k, ks in outcomes]
    assert translated == [None if c is None else (c + s) % q for c in c0]


def test_full_field_gather_matches_the_scatter_of_a_permuted_row():
    # Inputs 0..q-1 in order and the same pairs in another order scatter
    # into the same table, so input order does not matter: the same stream
    # gives the same outcomes.
    q = 101
    batch = _batch(7, q, range(q), 3, 64)
    order = derive_rng(65, 0).permutation(q)
    b_rows = np.broadcast_to(batch.b_values, (6, q))
    gathered = sample_bv_stack(q, batch.a_values[None], b_rows, derive_rng(66, 0))
    scattered = sample_bv_stack(
        q, batch.a_values[order][None], b_rows[:, order], derive_rng(66, 0)
    )
    assert all(np.array_equal(x, y) for x, y in zip(gathered, scattered))


def _phase_cases():
    """(q, a_values, eta' rows) of stacks whose rows differ in spread.
    transform_rows reads every row by one lookup, so the labels, once the
    routes an earlier sampler took, stand for the spread: in a "span
    tables" stack every row spans fewer than m values, and a "direct
    lookup" stack holds a row spanning at least m."""
    rng = derive_rng(67, 0)

    def inputs(q, m, k):
        return np.stack([rng.choice(q, size=m, replace=False) for _ in range(k)])

    def errors(m, bounds):
        rows = np.stack([rng.integers(-xi, xi + 1, size=m) for xi in bounds])
        rows[:, 0], rows[:, 1] = -np.array(bounds), bounds  # row i spans 2 xi_i + 1 values
        return rows

    return {
        "full field, span tables": (101, np.arange(101)[None], errors(101, (1, 2, 5, 3))),
        "partial rows, span tables": (101, inputs(101, 30, 4), errors(30, (1, 4, 2, 3))),
        "full field, direct lookup": (31, np.arange(31)[None], errors(31, (1, 2, 15))),
        "partial rows, direct lookup": (31, inputs(31, 10, 3), errors(10, (1, 7, 3))),
    }


@pytest.mark.parametrize("case", sorted(_phase_cases()))
def test_sampler_reads_any_representative_of_b_mod_q(case):
    # eta' itself, eta' mod q and eta' + q are the same b' mod q, so one
    # stream must give bit-identical draws whatever the rows' spread, which
    # the case's label names.
    q, a_values, eta = _phase_cases()[case]
    assert (np.ptp(eta) + 1 < eta.shape[1]) == case.endswith("span tables")
    k_stars = set()
    for seed in range(6):
        draws = [
            sample_bv_stack(q, a_values, b, derive_rng(68, seed)) for b in (eta, eta % q, eta + q)
        ]
        for k_d, k_star in draws[1:]:
            assert np.array_equal(k_d, draws[0][0]) and np.array_equal(k_star, draws[0][1])
        k_stars.update(draws[0][1].tolist())
    assert len(k_stars) > 1


def test_stacked_sampler_checks_every_row_norm():
    # A repeated input overwrites a phase, so that row's mass falls short of 1.
    q = 7
    a_values = np.array([[0, 1, 2], [0, 1, 1]])
    b_values = np.array([[1, 2, 3], [1, 2, 3]])
    with pytest.raises(InvariantViolation):
        sample_bv_stack(q, a_values, b_values, derive_rng(60, 0))
    # With a constant b' the scatter keeps 5 of the second row's 6 phases,
    # so |dc| = 5 and that row's cdf puts it on the k_d = 0 atom when its
    # uniform (the second double after the k* draws) is below 5^2 / (6 q).
    # It must raise whether or not it lands there.
    a_values = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 4]])
    b_values = np.full(a_values.shape, 2)
    atom_below = 25 / (6 * q)
    on_atom = 0
    for seed in range(20):
        rng = derive_rng(60, seed)
        rng.integers(q, size=2)
        on_atom += rng.random(2)[1] < atom_below
        with pytest.raises(InvariantViolation):
            sample_bv_stack(q, a_values, b_values, derive_rng(60, seed))
    assert 0 < on_atom < 20


def _every_row_sampler(q, a_values, b_values, rng):
    """Reference: sample_bv_stack with its phases read from a span table
    where the values span fewer than m integers, and its own cdf."""
    k, m = b_values.shape
    k_star = rng.integers(q, size=k)
    lo, hi = int(b_values.min()), int(b_values.max())
    span = hi - lo + 1
    if span < m:
        table = root_table(q)[np.outer(k_star, np.arange(lo, hi + 1)) % q]
        x = table.ravel().take(b_values + (np.arange(k) * span - lo)[:, None])
    else:
        x = root_table(q)[b_values * k_star[:, None] % q]
    if m != q or not (a_values == np.arange(q)).all():
        phases, x = x, np.zeros((k, q), dtype=np.complex128)
        x[np.arange(k)[:, None], a_values] = phases
    g = np.fft.ifft(x, axis=1)
    cdf = g.real**2
    cdf += g.imag**2
    np.cumsum(cdf, axis=1, out=cdf)
    total = cdf[:, -1]
    drift = float(np.abs(total * (q / m) - 1.0).max())
    if drift > NORM_TOL:
        raise InvariantViolation(f"conditional mass drifted from 1 by {drift:.3e}")
    k_d = (cdf <= (rng.random(k) * total)[:, None]).sum(axis=1)
    return np.minimum(k_d, q - 1), k_star


def _s_free_cases():
    """(q, a_values, eta' rows) of s-free stacks: the batches a controlled shot measures."""
    rng = derive_rng(69, 0)
    cases = {}
    for q, k in [(101, 24), (401, 16), (4093, 6)]:
        for kind in (UNIFORM, GAUSSIAN):
            eta = sample_errors(ErrorDistribution(kind, 2), rng, (k, q))
            cases[f"full field q={q} {kind}"] = (q, np.arange(q)[None], eta)
    for q, m, kind in [(101, 40, GAUSSIAN), (401, 120, UNIFORM)]:
        inputs = np.stack([rng.choice(q, size=m, replace=False) for _ in range(12)])
        eta = sample_errors(ErrorDistribution(kind, 3), rng, (12, m))
        cases[f"partial rows q={q} {kind}"] = (q, inputs, eta)
    return cases


def _reference_cases():
    return {**_phase_cases(), **_s_free_cases()}


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_stacked_sampler_matches_the_every_row_reference(case):
    q, a_values, eta = _reference_cases()[case]
    atoms = 0
    for seed in range(8):
        ref_rng, rng = derive_rng(70, seed), derive_rng(70, seed)
        k_d, k_star = sample_bv_stack(q, a_values, eta, rng)
        ref_k_d, ref_k_star = _every_row_sampler(q, a_values, eta, ref_rng)
        assert np.array_equal(k_d, ref_k_d) and np.array_equal(k_star, ref_k_star)
        assert rng.random() == ref_rng.random()
        atoms += int((k_d == 0).sum())
    assert atoms > 0


def _sixteen_row_cases():
    """16-row s-free stacks at q=4093, one full block of transform_rows."""
    rng = derive_rng(73, 0)
    q = 4093
    cases = {}
    for kind in (UNIFORM, GAUSSIAN):
        eta = sample_errors(ErrorDistribution(kind, 2), rng, (16, q))
        cases[f"full field {kind}"] = (q, np.arange(q)[None], eta)
    inputs = np.stack([rng.choice(q, size=1000, replace=False) for _ in range(16)])
    eta = sample_errors(ErrorDistribution(UNIFORM, 2), rng, (16, 1000))
    cases["partial rows"] = (q, inputs, eta)
    return cases


@pytest.mark.parametrize("case", sorted(_sixteen_row_cases()))
def test_sixteen_row_stacks_at_q4093_match_the_every_row_reference(case):
    q, a_values, eta = _sixteen_row_cases()[case]
    for seed in range(6):
        ref_rng, rng = derive_rng(74, seed), derive_rng(74, seed)
        k_d, k_star = sample_bv_stack(q, a_values, eta, rng)
        ref_k_d, ref_k_star = _every_row_sampler(q, a_values, eta, ref_rng)
        assert np.array_equal(k_d, ref_k_d) and np.array_equal(k_star, ref_k_star)
        assert rng.random() == ref_rng.random()


def _long_stack_cases():
    """Stacks at q=1031 longer than one block of CHUNK_ENTRIES // q = 63 rows."""
    rng = derive_rng(85, 0)
    q = 1031
    eta = sample_errors(ErrorDistribution(GAUSSIAN, 2), rng, (200, q))
    inputs = np.stack([rng.choice(q, size=300, replace=False) for _ in range(250)])
    return {
        "full field": (q, np.arange(q)[None], eta),
        "partial rows": (q, inputs, sample_errors(ErrorDistribution(UNIFORM, 2), rng, (250, 300))),
    }


@pytest.mark.parametrize("case", sorted(_long_stack_cases()))
def test_long_stack_draws_the_every_row_reference_in_bounded_tables(case):
    # One call on more rows than a block: the same draws as one transform
    # of every row, in tables sized by the block, not by the stack. The
    # last block's cdf (half a complex table of CHUNK_ENTRIES entries)
    # stays alive while the next block builds its own (2 to 2.5 tables,
    # as below), so the peak is 2.5 to 3 tables at any length.
    q, a_values, eta = _long_stack_cases()[case]
    assert len(eta) > qsim.CHUNK_ENTRIES // q
    for seed in range(2):
        ref_rng, rng = derive_rng(86, seed), derive_rng(86, seed)
        k_d, k_star = sample_bv_stack(q, a_values, eta, rng)
        ref_k_d, ref_k_star = _every_row_sampler(q, a_values, eta, ref_rng)
        assert np.array_equal(k_d, ref_k_d) and np.array_equal(k_star, ref_k_star)
        assert rng.random() == ref_rng.random()
    for peak in _traced_peaks(q, a_values, eta):
        assert peak < 3.5 * 16 * qsim.CHUNK_ENTRIES


@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_sampler_leaves_its_inputs_alone(case):
    # Read-only inputs, like the broadcast rows sample_bv_outcomes passes:
    # a write into either raises, and the values are the same after the call.
    q, a_values, eta = _reference_cases()[case]
    a_in, b_in = a_values.copy(), eta.copy()
    a_in.flags.writeable = b_in.flags.writeable = False
    for b_rows in (b_in, np.broadcast_to(b_in[0], b_in.shape)):
        sample_bv_stack(q, a_in, b_rows, derive_rng(75, 0))
    assert np.array_equal(a_in, a_values) and np.array_equal(b_in, eta)


@pytest.mark.parametrize("case", sorted(_sixteen_row_cases()))
def test_sixteen_row_call_at_q4093_holds_one_table(case):
    # One block's tables, in units of one complex table of 16 * 16 * q
    # bytes: the phases (and at full field their int64 indices) beside
    # the zero table they scatter into, then the transform's output beside
    # its squares. That peaks at 2 to 2.5 tables, and the call keeps
    # nothing once it returns.
    for peak in _traced_peaks(*_sixteen_row_cases()[case]):
        assert peak < 3 * 16 * 16 * 4093


def _traced_peaks(q, a_values, eta):
    """Traced peak bytes of four sampler calls, after one that fills
    root_table(q)'s cache."""
    sample_bv_stack(q, a_values, eta, derive_rng(77, 0))
    peaks = []
    for seed in range(4):
        tracemalloc.start()
        try:
            sample_bv_stack(q, a_values, eta, derive_rng(77, seed))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def _interleaved_calls():
    """(q, a_values, b' rows) of calls that each change the modulus, the
    block or the rows' spread from the call before: 16 rows at q=4093,
    5 rows at q=101 that span fewer than m values (full field, then
    scattered), 5 copies of a batch spanning 100 of its 101 values, then
    3 at q=4093."""
    eta = sample_errors(ErrorDistribution(GAUSSIAN, 2), derive_rng(79, 0), (16, 4093))
    calls = [(4093, np.arange(4093)[None], eta)]
    for name in ("full field, span tables", "partial rows, span tables"):
        q, a_values, b_values = _phase_cases()[name]
        a_values, b_values = (np.resize(v, (5, v.shape[1])) for v in (a_values, b_values))
        calls.append((q, a_values, b_values))
    wide = _batch(37, 101, range(101), 1, 50)
    calls.append((101, wide.a_values[None], np.broadcast_to(wide.b_values, (5, 101))))
    calls.append((4093, np.arange(4093)[None], eta[:3]))
    return calls


def test_interleaved_calls_match_the_every_row_reference():
    for seed in range(3):
        for i, (q, a_values, eta) in enumerate(_interleaved_calls()):
            ref_rng, rng = derive_rng(80, seed, i), derive_rng(80, seed, i)
            k_d, k_star = sample_bv_stack(q, a_values, eta, rng)
            ref_k_d, ref_k_star = _every_row_sampler(q, a_values, eta, ref_rng)
            assert np.array_equal(k_d, ref_k_d) and np.array_equal(k_star, ref_k_star)
            assert rng.random() == ref_rng.random()


def test_two_threads_draw_what_their_streams_draw_alone():
    # The sampler keeps no state between calls, so two threads calling it
    # at once each draw what their own stream draws in sequence.
    q, a_values, eta = _sixteen_row_cases()["full field gaussian"]

    def draws(stream):
        rng = derive_rng(81, stream)
        return [sample_bv_stack(q, a_values, eta, rng) for _ in range(20)]

    alone = [draws(stream) for stream in range(2)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(draws, stream) for stream in range(2)]
        together = [f.result(timeout=60) for f in futures]
    for seq, par in zip(alone, together):
        for (k_d, k_star), (par_k_d, par_k_star) in zip(seq, par):
            assert np.array_equal(k_d, par_k_d) and np.array_equal(k_star, par_k_star)


@pytest.fixture
def transformed_rows(monkeypatch):
    """The rows handed to np.fft.ifft, one array per call."""
    calls = []
    ifft = np.fft.ifft

    def spy(x, *args, **kwargs):
        calls.append(np.array(x))
        return ifft(x, *args, **kwargs)

    monkeypatch.setattr(np.fft, "ifft", spy)
    return calls


def _phase_rows(q, a_values, b_values, k_star):
    """Row i holds w^{b' k*_i} at each input a' and 0 elsewhere."""
    k = b_values.shape[0]
    x = np.zeros((k, q), dtype=np.complex128)
    x[np.arange(k)[:, None], a_values] = root_table(q)[b_values * k_star[:, None] % q]
    return x


def test_noiseless_s_free_rows_draw_only_the_atom(transformed_rows):
    # Every row is transformed, and each one's conditional sits on k_d = 0.
    q = 401
    b_values = np.zeros((16, q), dtype=np.int64)
    k_d, k_star = sample_bv_stack(q, np.arange(q)[None], b_values, derive_rng(71, 0))
    [handed] = transformed_rows
    assert np.array_equal(handed, _phase_rows(q, np.arange(q)[None], b_values, k_star))
    assert (k_d == 0).all() and len(set(k_star.tolist())) > 1


def _transform_cases():
    """The reference stacks, and a full-field s_j = 37 batch whose b'
    spans 100 of its 101 values."""
    wide = _batch(37, 101, range(101), 1, 50)
    b_rows = np.broadcast_to(wide.b_values, (16, 101))
    return {**_reference_cases(), "wide span s_j = 37": (101, wide.a_values[None], b_rows)}


@pytest.mark.parametrize("case", sorted(_transform_cases()))
def test_every_row_is_transformed(case, transformed_rows):
    # One batched transform per call, of every row's phases, the rows that
    # draw the k_d = 0 atom included.
    q, a_values, eta = _transform_cases()[case]
    atoms = 0
    for seed in range(8):
        transformed_rows.clear()
        k_d, k_star = sample_bv_stack(q, a_values, eta, derive_rng(72, seed))
        [handed] = transformed_rows
        assert np.array_equal(handed, _phase_rows(q, a_values, eta, k_star))
        atoms += int((k_d == 0).sum())
    assert atoms > 0


@pytest.mark.parametrize("case", sorted(_s_free_cases()))
def test_any_rows_off_the_atom_draw_what_the_whole_stack_draws(case):
    # A row's k_d depends only on its own pairs, k* and uniform: handed
    # just the rows off the atom, transform_rows draws for each the k_d
    # that sample_bv_stack drew for it in the whole stack, whose stream
    # replays as k* then the uniforms.
    q, a_values, eta = _s_free_cases()[case]
    k = len(eta)
    atoms = 0
    for seed in range(4):
        k_d, k_star = sample_bv_stack(q, a_values, eta, derive_rng(84, seed))
        replay = derive_rng(84, seed)
        assert np.array_equal(replay.integers(q, size=k), k_star)
        u = replay.random(k)
        off = np.flatnonzero(k_d != 0)
        rows_a = a_values if len(a_values) == 1 else a_values[off]
        assert np.array_equal(qsim.transform_rows(q, rows_a, eta[off], k_star[off], u[off]), k_d[off])
        atoms += k - len(off)
    assert atoms > 0


def test_rows_decided_off_the_atom_never_draw_it():
    # Noiseless partial rows hold m / q on their atom, and a row draws it
    # when u < m / q. At u = m / q, the least u that atom_mass sends off the
    # atom, cdf[0] and u * total are equal up to rounding, and the
    # transform alone draws k_d = 0 for some rows.
    q, m, k = 101, 40, 64
    rng = derive_rng(82, 0)
    a_values = np.stack([rng.choice(q, size=m, replace=False) for _ in range(k)])
    b_values = np.zeros((k, m), dtype=np.int64)
    k_star = np.arange(1, k + 1)
    u = np.full(k, m / q)
    assert not (u < qsim.atom_mass(q, ErrorDistribution(UNIFORM, 0), m)).any()
    assert (qsim.transform_rows(q, a_values, b_values, k_star, u) == 0).any()
    # The controlled refill reads no transform: atom_mass alone decides the
    # atom, and a non-null row it puts off the atom never reads c0 = 0. A
    # batch of one pair has |dc| = 1 whatever its error, so its atom holds
    # 1 / q, and c0 = 0 on 1 / q of the rows that use a test; an off-atom
    # row that could read 0 would double that share.
    inst = make_instance(8, q, ErrorDistribution(UNIFORM, 1), derive_rng(82, 1))
    law = solver.row_law(solver.MODE_CONTROLLED, inst.n, q, inst.chi, 2, 1)
    refill = solver._refills(1, q, derive_rng(82, 2), *law)
    c0, tests = map(np.array, zip(*(refill(200)[:2] for _ in range(20))))
    live = tests.ravel() > 0
    on_atom = int((c0.ravel()[live] == 0).sum())
    assert live.sum() > 3900
    assert abs(on_atom / live.sum() - 1 / q) <= binom_3sigma(1 / q, int(live.sum()))


def _averaged_grid(q, m, values, counts):
    """kernel_distribution of s-free batches (a', eta'), averaged with equal
    weights over every input set V of m inputs and every arrangement over
    V of the errors whose histogram over `values` is `counts`."""
    errors = np.repeat(values, counts)
    arrangements = sorted(set(itertools.permutations(errors.tolist())))
    xi_prime, zeros = int(np.abs(values).max()), np.zeros(m, dtype=np.int64)
    total = np.zeros((q, q))
    batches = 0
    for inputs in itertools.combinations(range(q), m):
        a_values = np.array(inputs, dtype=np.int64)
        for eta in arrangements:
            eta = np.array(eta, dtype=np.int64)
            batch = ReducedBatch(0, q, a_values, eta % q, eta, zeros, xi_prime, 1.0)
            total += kernel_distribution(batch)
            batches += 1
    return total / batches


@pytest.mark.parametrize(
    "q, m, values, counts",
    [
        # Elimination rows: noiseless s-free rows, one bin at error 0.
        (7, 3, [0], [3]),
        (11, 4, [0], [4]),
        (13, 6, [0], [6]),
        # Controlled rows at xi' = 1: the full field, and partial batches.
        (7, 7, [-1, 0, 1], [2, 3, 2]),
        (7, 7, [-1, 0, 1], [1, 5, 1]),
        (7, 3, [-1, 0, 1], [1, 1, 1]),
        (11, 4, [-1, 0, 1], [2, 1, 1]),
    ],
)
def test_off_the_atom_k_d_is_uniform_over_inputs_and_arrangements(q, m, values, counts):
    # Given a histogram and k* != 0, the k_d = 0 atom holds |dc|^2 / (q m),
    # whose mean over histograms and k* is atom_mass, and the rest, averaged over V
    # and the arrangement, is exactly uniform on [1, q). So a refill that
    # draws an off-atom offset uniformly keeps the kernel's law, with no
    # transform.
    values = np.array(values, dtype=np.int64)
    counts = np.array([counts], dtype=np.int64)
    grid = _averaged_grid(q, m, values, counts[0])
    for k_star in range(1, q):
        law = grid[:, k_star] * q  # k* is uniform, so this is the law given k*
        assert abs(law.sum() - 1) < 1e-12
        off = law[1:] / (1 - law[0])
        assert np.abs(off - 1 / (q - 1)).max() < 1e-12
        dc = (counts[0] * root_table(q)[values * k_star % q]).sum()
        assert abs(law[0] - abs(dc) ** 2 / (q * m)) < 1e-12


@pytest.mark.parametrize(
    "q, chi, inputs",
    [
        (7, ErrorDistribution(UNIFORM, 1), range(7)),
        (7, ErrorDistribution(UNIFORM, 1), (0, 2, 5)),
        (5, ErrorDistribution(GAUSSIAN, 2), range(5)),
    ],
    ids=["q7-uniform-full", "q7-uniform-V025", "q5-gaussian-full"],
)
def test_atom_mass_is_the_mean_noise_averaged_kernel_atom(q, chi, inputs):
    # kernel_distribution[0, k*] q is a batch's atom given k*. Averaged over
    # every noise vector of the batch, each weighted by chi, it is
    # (1 + (m - 1) |phi(k*)|^2) / q, and its mean over k* != 0 is atom_mass,
    # the one number every refill's atom reads.
    a_values = np.array(inputs, dtype=np.int64)
    m = a_values.size
    values = np.arange(-chi.xi, chi.xi + 1, dtype=np.int64)
    p = chi.weights() / chi.weights().sum()
    zeros = np.zeros(m, dtype=np.int64)
    averaged = np.zeros(q)
    for index in itertools.product(range(values.size), repeat=m):
        eta = values[list(index)]
        batch = ReducedBatch(0, q, a_values, eta % q, eta, zeros, chi.xi, 1.0)
        averaged += p[list(index)].prod() * kernel_distribution(batch)[0] * q
    phi = p @ root_table(q)[np.outer(values, np.arange(q)) % q]
    assert np.abs(averaged - (1 + (m - 1) * np.abs(phi) ** 2) / q).max() < 1e-12
    assert abs(averaged[1:].mean() - qsim.atom_mass(q, chi, m)) < 1e-12


@pytest.mark.parametrize("q", [7, 101, 4093])
def test_full_field_rows_at_a_moved_secret_draw_only_their_point(q):
    # b' = a' sigma is the noiseless s-free row moved by sigma, whose law on
    # the full field is the one point k_d = -sigma k*: the elimination
    # refill reads it without a transform, and the transform draws it too.
    # At u = 0 the transform's rounding below the point gives k_d = 0.
    rng = derive_rng(86, q)
    k = 48
    sigma, k_star, u = rng.integers(q, size=k), rng.integers(q, size=k), rng.random(k)
    u[:2] = 1e-12, np.nextafter(1.0, 0.0)
    assert (u > 0).all()
    a_values = np.arange(q)[None]
    k_d = qsim.transform_rows(q, a_values, a_values * sigma[:, None] % q, k_star, u)
    assert np.array_equal(k_d, -sigma * k_star % q)


@pytest.mark.parametrize("q", [7, 101, 4093])
def test_a_one_bin_histogram_at_error_0_draws_the_atom_exactly_below_m_over_q(q):
    # All m pairs at error 0 give |phi| = 1 for every k*, k* = 0 included,
    # so the atom holds m / q to the bit, and a row draws it when u < m / q.
    for m in sorted({1, 2, 5, q // 2, q - 1, q}):
        assert qsim.atom_mass(q, ErrorDistribution(UNIFORM, 0), m) == m / q


def test_root_table_is_bit_identical_to_elementwise_phases():
    for q in (7, 401, 4093):
        residues = np.outer(np.arange(q), np.arange(0, q, 97)) % q
        assert np.array_equal(root_table(q)[residues], np.exp(2j * np.pi * residues / q))


def test_root_table_keeps_the_table_of_one_modulus_only():
    # A bounds grid over moduli near 2^22 builds one 64 MiB table a
    # modulus, so the cache keeps only the last one.
    root_table.cache_clear()
    tracemalloc.start()
    try:
        for q in (65521, 65537):
            root_table(q)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 16 * 65537 + (64 << 10)


def test_qft_matrix_refuses_dense_tables_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InvalidLength):
            qft_matrix(65537)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampler_refuses_an_over_limit_block_before_allocating():
    # One row at q = 33,554,393 would peak near 5.5 GiB. Both public forms
    # refuse it before their first q-wide table; 6,100,805 is the largest q
    # whose one-row block of two pairs stays under the 1 GiB peak.
    q = 33554393
    batch = synth_reduced_batch(3, q, range(3), 1, ErrorDistribution(UNIFORM, 1), derive_rng(62, 0))
    rng = derive_rng(62, 1)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidLength, match="dense limit"):
            sample_bv_stack(q, batch.a_values[None], np.stack([batch.eta_values] * 2), rng)
        with pytest.raises(InvalidLength, match="dense limit"):
            sample_bv_outcomes(batch, rng, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    check_block_size(6100805, 2)
    with pytest.raises(InvalidLength):
        check_block_size(6100806, 2)


def test_qft_matrix_keeps_one_table_alive():
    # Each table is q*q complex values (256 MiB at q = 4093), so the cache holds one.
    for q in (101, 103, 107):
        qft_matrix(q)
    assert qft_matrix.cache_info().currsize <= 1


def test_vectorized_sampler_agrees_with_the_grid():
    q = 7
    batch = _batch(1, q, range(q), 1, 52)
    probs = kernel_distribution(batch).ravel()
    outs = sample_bv_outcomes(batch, derive_rng(53, 0), 30000)
    assert outs.shape == (30000, 2)
    counts = np.bincount(outs[:, 0] * q + outs[:, 1], minlength=q * q)
    assert chi_square_ok(counts, probs, 30000)


def test_repeated_batch_draws_stay_in_small_tables():
    # The draws go through one sample_bv_stack call, transformed a block of
    # rows at a time, never through a q x q grid (17 MiB of complex values
    # at q = 1031).
    batch = _batch(5, 1031, range(1031), 2, 55)
    tracemalloc.start()
    try:
        outs = sample_bv_outcomes(batch, derive_rng(55, 1), 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outs.shape == (1000, 2)
    assert peak < 8 << 20


def test_noiseless_extraction_success_rate():
    # Nulls happen exactly when k* = 0, so the hit rate is 1 - 1/q.
    q = 31
    s_j = 12
    batch = _literal_batch(q, range(q), [a * s_j % q for a in range(q)])
    outs = sample_bv_outcomes(batch, derive_rng(54, 0), 20000)
    hits = sum(
        extract_candidate(MeasurementOutcome(*o), q) == s_j
        for o in outs
        if o[1] != 0
    )
    nulls = int((outs[:, 1] == 0).sum())
    assert hits == 20000 - nulls  # every informative shot is correct
    p_null = nulls / 20000
    assert abs(p_null - 1 / q) < 3 * math.sqrt((1 / q) * (1 - 1 / q) / 20000)
