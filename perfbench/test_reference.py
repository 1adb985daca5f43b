"""The benchmark's closed-form reference against the paper's headline and
properties any correct reference has.  Run: python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np

import reference as ref


def test_headline_optimum():
    # A = 100, kappa = 0.8: best at-threshold squeezing 0.0681 at beta = 0.0677
    beta, variance = ref.threshold_optimum(100.0, 0.8)
    assert round(variance, 4) == 0.0681
    assert round(beta, 4) == 0.0677


def test_threshold_drive_zeroes_lambda_minus():
    for beta in (0.0, 0.1, 0.7, 1.3):
        p = ref.at_drive(ref.Point(25.0, 0.8, beta), 1.0)
        assert abs(ref.coeffs(p).lambda_minus) < 1e-12
        # the at-threshold variance is the steady squeezed variance in that limit
        below = ref.at_drive(ref.Point(25.0, 0.8, beta), 1.0 - 1e-9)
        assert math.isclose(ref.variances(below)[1], ref.threshold_minus_variance(25.0, 0.8, beta),
                            rel_tol=1e-7)


def test_transient_relaxes_to_steady_state():
    p = ref.at_drive(ref.Point(25.0, 0.8, 0.1), 0.5)
    assert ref.moments(p, 0.0) == (0.0, 0.0)
    np.testing.assert_allclose(ref.moments(p, 60.0), ref.moments(p), rtol=1e-12)


def test_photon_distribution_is_the_state_it_describes():
    p = ref.Point(100.0, 0.8, 0.067, 0.3)
    probs = ref.photon_distribution(p, 600)
    _, n_cl = ref.moments(p)
    assert probs.min() >= 0.0
    assert math.isclose(probs.sum(), 1.0, rel_tol=1e-12)
    assert math.isclose(np.arange(probs.size) @ probs, n_cl, rel_tol=1e-9)


def test_photon_distribution_squeezed_vacuum():
    # N = sinh^2 r, M = sinh r cosh r: P(2m) = (2m)! tanh^2m(r) / (2^m m!)^2 / cosh r, P(odd) = 0
    r = 0.8
    probs = ref.gaussian_photon_distribution(math.sinh(r) * math.cosh(r), math.sinh(r) ** 2, 41)
    m = np.arange(21)
    even = np.array([math.factorial(2 * j) / (2**j * math.factorial(j)) ** 2 for j in range(21)])
    np.testing.assert_allclose(probs[::2], even * math.tanh(r) ** (2 * m) / math.cosh(r), rtol=1e-12)
    np.testing.assert_allclose(probs[1::2], 0.0, atol=1e-15)
