"""Parameter algebra: coefficient values, threshold, stability classification.

High-precision expectations are evaluated with exact rational arithmetic
(fractions.Fraction) independently of the floating-point implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from casq.errors import InvalidParameterError
from casq.params import (
    MicroscopicParams,
    Stability,
    SystemParams,
    coefficient_grid,
    coefficients,
    from_microscopic,
    stability,
    threshold_epsilon,
)

from conftest import stable_params


def frac_coefficients(a, kappa, beta):
    """Exact rational evaluation of the coefficient formulas."""
    a, kappa, beta = Fraction(a), Fraction(kappa), Fraction(beta)
    b = (1 + beta**2) * (1 + beta**2 / 4)
    pref = a / (4 * b)
    r = pref * (1 - Fraction(3, 2) * beta + beta**2)
    s = kappa / 2 + pref * (1 + Fraction(3, 2) * beta + beta**2)
    u = pref * (-1 + beta / 2 + beta**2 / 2 + beta**3 / 2)
    v = pref * (-1 - beta / 2 + beta**2 / 2 - beta**3 / 2)
    return r, s, u, v, b


class TestFromMicroscopic:
    def test_gain_direct_substitution(self):
        m = MicroscopicParams(g=1, g_prime=0, mu=0, lambda_c=0, r_a=50, gamma=1, kappa=0.8)
        assert from_microscopic(m).a == 100.0

    def test_gain_scaled(self):
        m = MicroscopicParams(g=2, g_prime=0, mu=0, lambda_c=0, r_a=25, gamma=2, kappa=0.8)
        assert from_microscopic(m).a == 50.0

    def test_zero_pump_coupling(self):
        m = MicroscopicParams(g=1, g_prime=0, mu=0.5, lambda_c=0.6, r_a=10, gamma=1, kappa=0.8)
        p = from_microscopic(m)
        assert p.beta == 0.0
        assert p.epsilon == pytest.approx(0.3, rel=1e-15)
        assert p.kappa == 0.8

    def test_beta_from_pump(self):
        m = MicroscopicParams(g=1, g_prime=2, mu=0.25, lambda_c=0, r_a=10, gamma=4, kappa=1.0)
        assert from_microscopic(m).beta == pytest.approx(0.25, rel=1e-15)

    def test_invalid_gamma(self):
        with pytest.raises(InvalidParameterError):
            MicroscopicParams(g=1, g_prime=0, mu=0, lambda_c=0, r_a=10, gamma=0, kappa=0.8)


class TestCoefficients:
    def test_beta_zero_reference_values(self):
        c = coefficients(SystemParams(a=100, kappa=0.8, beta=0, epsilon=0))
        assert c.r == 25.0
        assert c.u == -25.0
        assert c.v == -25.0
        assert c.b == 1.0
        assert c.s == pytest.approx(25.4, rel=1e-15)
        assert c.lambda_minus == pytest.approx(0.4, rel=1e-12)
        assert c.lambda_plus == pytest.approx(0.4, rel=1e-12)

    def test_beta_zero_structure(self):
        # R = -U = -V = A/4 and S = kappa/2 + A/4 at beta = 0
        for a in (0.5, 7.0, 250.0):
            c = coefficients(SystemParams(a=a, kappa=1.3, beta=0, epsilon=0))
            assert c.r == a / 4
            assert c.u == -a / 4
            assert c.v == -a / 4
            assert c.s == pytest.approx(1.3 / 2 + a / 4, rel=1e-15)

    def test_no_atoms_leaves_cavity_decay(self):
        # A = 0: the atomic parts vanish but cavity loss survives in S,
        # giving the pure parametric-oscillator rates kappa/2 -/+ epsilon
        c = coefficients(SystemParams(a=0, kappa=0.8, beta=0.3, epsilon=0.2))
        assert c.r == 0.0 and c.u == 0.0 and c.v == 0.0
        assert c.s == 0.4
        assert c.lambda_minus == pytest.approx(0.2, rel=1e-12)
        assert c.lambda_plus == pytest.approx(0.6, rel=1e-12)

    def test_against_exact_rational_oracle(self):
        cases = [
            (100, Fraction(4, 5), Fraction(1, 2)),
            (25, Fraction(4, 5), Fraction(67, 1000)),
            (3, Fraction(11, 10), Fraction(7, 4)),
        ]
        for a, kappa, beta in cases:
            r, s, u, v, b = frac_coefficients(a, kappa, beta)
            c = coefficients(SystemParams(a=float(a), kappa=float(kappa), beta=float(beta)))
            assert c.r == pytest.approx(float(r), rel=1e-13)
            assert c.s == pytest.approx(float(s), rel=1e-13)
            assert c.u == pytest.approx(float(u), rel=1e-13)
            assert c.v == pytest.approx(float(v), rel=1e-13)
            assert c.b == pytest.approx(float(b), rel=1e-13)

    def test_beta_half_frozen_values(self):
        # hand-reduced fractions at A=100, kappa=4/5, beta=1/2
        c = coefficients(SystemParams(a=100, kappa=0.8, beta=0.5))
        assert c.r == pytest.approx(float(Fraction(160, 17)), rel=1e-13)
        assert c.s == pytest.approx(float(Fraction(3234, 85)), rel=1e-13)
        assert c.u == pytest.approx(float(Fraction(-180, 17)), rel=1e-13)
        assert c.v == pytest.approx(float(Fraction(-380, 17)), rel=1e-13)

    def test_decay_pair_identities(self, rng):
        for p in stable_params(rng, 50):
            c = coefficients(p)
            assert c.lambda_plus + c.lambda_minus == pytest.approx(
                2.0 * (c.s - c.r), rel=1e-14, abs=1e-14
            )
            assert c.lambda_plus - c.lambda_minus == pytest.approx(
                2.0 * (c.u - c.v + p.epsilon), rel=1e-14, abs=1e-14
            )
            assert c.b > 0
            assert c.lambda_plus >= c.lambda_minus

    def test_lambda_minus_slope_in_epsilon(self, rng):
        for p in stable_params(rng, 10):
            eps2 = p.epsilon + 0.37
            lam1 = coefficients(p).lambda_minus
            lam2 = coefficients(p.with_epsilon(eps2)).lambda_minus
            assert lam2 < lam1
            assert lam2 - lam1 == pytest.approx(-(eps2 - p.epsilon), rel=1e-12, abs=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(a=-1, kappa=0.8, beta=0)
        with pytest.raises(InvalidParameterError):
            SystemParams(a=1, kappa=0, beta=0)
        with pytest.raises(InvalidParameterError):
            SystemParams(a=1, kappa=0.8, beta=-0.1)
        with pytest.raises(InvalidParameterError):
            SystemParams(a=1, kappa=0.8, beta=0, epsilon=-0.1)
        with pytest.raises(InvalidParameterError):
            SystemParams(a=float("nan"), kappa=0.8, beta=0)


class TestThreshold:
    def test_beta_zero_is_half_kappa(self):
        for a in (0, 1, 100, 1e4):
            assert threshold_epsilon(SystemParams(a=a, kappa=0.8, beta=0)) == 0.4

    def test_no_atoms_any_beta(self):
        for beta in (0, 0.3, 1.7):
            assert threshold_epsilon(SystemParams(a=0, kappa=0.8, beta=beta)) == 0.4

    def test_frozen_rational_value(self):
        # A=100, kappa=4/5, beta=67/1000 by exact rational arithmetic
        a, kappa, beta = Fraction(100), Fraction(4, 5), Fraction(67, 1000)
        b = (1 + beta**2) * (1 + beta**2 / 4)
        expected = kappa / 2 + a * (2 * beta - beta**3) / (4 * b)
        got = threshold_epsilon(SystemParams(a=100, kappa=0.8, beta=0.067))
        assert got == pytest.approx(float(expected), rel=1e-14)

    def test_negative_for_strong_pump(self):
        assert threshold_epsilon(SystemParams(a=100, kappa=0.8, beta=2.0)) < 0

    def test_feedback_zeroes_lambda_minus(self, rng):
        for p in stable_params(rng, 30):
            eps_th = threshold_epsilon(p)
            lam = coefficients(p.with_epsilon(eps_th)).lambda_minus
            assert abs(lam) < 1e-12 * p.kappa

    def test_unique_root(self, rng):
        # lambda_minus(eps) has slope -1, so the threshold root is unique
        for p in stable_params(rng, 10):
            eps_th = threshold_epsilon(p)
            assert coefficients(p.with_epsilon(0.5 * eps_th)).lambda_minus > 0
            assert coefficients(p.with_epsilon(1.5 * eps_th)).lambda_minus < 0


class TestStability:
    def test_no_drive_is_stable(self):
        assert stability(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0)) is Stability.STABLE

    def test_at_threshold_by_construction(self, rng):
        for p in stable_params(rng, 10):
            p_th = p.with_relative_drive(1.0)
            assert stability(p_th) is Stability.AT_THRESHOLD

    def test_above_threshold_unstable(self, rng):
        for p in stable_params(rng, 10):
            assert stability(p.with_relative_drive(1.1)) is Stability.UNSTABLE

    def test_with_relative_drive_rejects_negative_threshold(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(a=100, kappa=0.8, beta=2.0).with_relative_drive(0.5)


class TestCoefficientGrid:
    def test_matches_each_point(self, rng):
        for p in stable_params(rng, 5):
            betas = np.array([0.0, p.beta, 1.3])
            c, eps_th = coefficient_grid(p.a, p.kappa, betas, p.epsilon)
            for i, beta in enumerate(betas):
                q = SystemParams(a=p.a, kappa=p.kappa, beta=float(beta), epsilon=p.epsilon)
                one = coefficients(q)
                for name in ("r", "s", "u", "v", "b", "lambda_minus", "lambda_plus"):
                    assert getattr(c, name)[i] == pytest.approx(getattr(one, name), rel=1e-14)
                assert c.kappa == p.kappa
                assert eps_th[i] == pytest.approx(threshold_epsilon(q), rel=1e-14, abs=1e-15)

    def test_relative_drive_per_point(self):
        betas = np.array([0.0, 0.1, 0.5])
        c, eps_th = coefficient_grid(25.0, 0.8, betas, epsilon_rel=0.5)
        np.testing.assert_array_equal(c.epsilon, 0.5 * eps_th)
        c1, _ = coefficient_grid(25.0, 0.8, betas, epsilon_rel=1.0)
        assert np.all(np.abs(c1.lambda_minus) < 1e-12)

    def test_one_drive_per_beta(self):
        c, _ = coefficient_grid(25.0, 0.8, [0.1, 0.2], np.array([0.0, 0.3]))
        assert c.lambda_minus[1] == pytest.approx(
            coefficients(SystemParams(a=25.0, kappa=0.8, beta=0.2, epsilon=0.3)).lambda_minus,
            rel=1e-14)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(a=-5.0), "a must be >= 0, got -5.0"),
        (dict(kappa=0.0), "kappa must be > 0, got 0.0"),
        (dict(a=math.nan), "a must be finite"),
        (dict(betas=[0.1, -0.5, math.inf]), "beta must be >= 0, got -0.5"),
        (dict(betas=[0.1, math.nan]), "beta must be finite, got nan"),
        (dict(epsilon=-3.0), "epsilon must be >= 0, got -3.0"),
        (dict(epsilon=[0.1, math.inf]), "epsilon must be finite, got inf"),
        (dict(betas=[0.1, 1.9], epsilon_rel=0.5), "threshold drive is .* at beta=1.9"),
        (dict(epsilon_rel=-0.5), "epsilon must be >= 0"),
        (dict(epsilon_rel=math.nan), "epsilon must be finite"),
        (dict(epsilon=0.1, epsilon_rel=0.5), "not both"),
    ], ids=["a-negative", "kappa-zero", "a-nan", "beta-negative", "beta-nan", "epsilon-negative",
            "epsilon-inf", "threshold-negative", "rel-negative", "rel-nan", "both-drives"])
    def test_rejects_as_system_params_does(self, kwargs, message):
        args = dict(a=25.0, kappa=0.8, betas=[0.1, 0.2]) | kwargs
        with pytest.raises(InvalidParameterError, match=message):
            coefficient_grid(**args)
