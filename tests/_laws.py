"""A coordinate of any solve is a stopped i.i.d. process of rows, fixed by
(nu, p_c, pi_c, pi_w): each mode's four numbers, and solves checked against
the success, shots and tests oracle.coordinate_law gives them."""

from __future__ import annotations

import math

import numpy as np

from dclwe import MODE_CONTROLLED, MODE_ELIMINATION, make_instance
from dclwe.oracle import baseline_coordinate_rate, coordinate_law, elimination_law
from dclwe.solver import amplified_law

from _stats import binom_3sigma, chi_square_ok

MODE_BASELINE = "baseline"


def atom_share(q, chi_prime, m):
    """The k_d = 0 atom's mass over k* uniform on [1, q), for a batch of m
    inputs with i.i.d. errors from chi': the mean of (1 + (m - 1) |phi(k*)|^2) / q,
    phi(k*) = sum_e chi'(e) w^(e k*), summed here from chi'.weights()."""
    weights = chi_prime.weights() / chi_prime.weights().sum()
    errors = np.arange(-chi_prime.xi, chi_prime.xi + 1)
    phi = weights @ np.exp(2j * np.pi * np.outer(errors, np.arange(1, q)) / q)
    return float((1 + (m - 1) * np.abs(phi) ** 2).sum() / (q * (q - 1)))


def mode_law(mode, n, q, chi, xi_prime, v_size=None):
    """(nu, p_c, pi_c, pi_w) of one row of `mode` on instances whose errors
    follow chi, over batches of v_size inputs (the full field when None).
    A controlled or baseline candidate is correct when its offset is 0, and
    its trials then always pass; a wrong one passes a trial with
    2 xi' / (q - 1), since t (s_j - s~) is uniform on [1, q)."""
    m = q if v_size is None else v_size
    if mode == MODE_ELIMINATION:
        return elimination_law(n, q, chi, xi_prime, m)
    chi_prime = amplified_law(chi, xi_prime)
    slip = 2 * xi_prime / (q - 1)
    if mode == MODE_CONTROLLED:
        return 1 / q, atom_share(q, chi_prime, m), 1.0, slip
    return 0.0, baseline_coordinate_rate(chi_prime), 1.0, slip  # MODE_BASELINE


def check_solves_follow_the_law(run, law, n, q, chi, budget, m, solves, rng):
    """`solves` solves, each run(instance, rng) -> its CoordinateStats on a
    fresh instance, against coordinate_law(*law, budget, m) per coordinate:
    the success and wrong-accept shares within binomial 3 sigma, shots and
    tests within 3 sigma of their sample spread, and the wrong values'
    offsets from s_j uniform on [1, q) by chi-square. When a true candidate
    always passes (pi_c = 1), no coordinate rejects one."""
    shots, tests, offsets = [], [], []
    for _ in range(solves):
        inst = make_instance(n, q, chi, rng)
        for st, s_j in zip(run(inst, rng), inst.s % q):
            assert st.shots <= budget
            assert law[2] < 1 or st.true_rejections == 0
            shots.append(st.shots)
            tests.append(st.tests_used)
            if st.accepted_value is not None:
                offsets.append((st.accepted_value - s_j) % q)
    success, mean_shots, mean_tests = coordinate_law(*law, budget, m)
    nu, p_c, pi_c, pi_w = law
    # A shot settles the coordinate with A, so P(settled) = A E[shots].
    wrong = (1 - nu) * (p_c * pi_c**m + (1 - p_c) * pi_w**m) * mean_shots - success
    coordinates, counts = n * solves, np.bincount(offsets, minlength=q)
    for share, p in ((counts[0], success), (counts[1:].sum(), wrong)):
        assert abs(share / coordinates - p) <= binom_3sigma(p, coordinates), (share, p)
    for measured, mean in ((shots, mean_shots), (tests, mean_tests)):
        measured = np.array(measured)
        assert abs(measured.mean() - mean) <= 3 * measured.std() / math.sqrt(coordinates)
    assert chi_square_ok(counts[1:], np.full(q - 1, 1 / (q - 1)), int(counts[1:].sum()))
