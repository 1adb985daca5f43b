"""Closed-form results against independent oracles.

Oracles used here: the published rational forms of the steady-state
variances and the mean photon number (evaluated inline, independently of
the library's moment-kernel route), exact small-n summation of the
photon-distribution formula with integer factorials, adaptive quadrature
for the spectrum sum rule and Q-function normalization, and the moment-ODE
integrator for transients.
"""

import math
import time
import tracemalloc
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from casq import analytic, moments
from casq.errors import InvalidParameterError, NotStableError, QFunctionUndefinedError
from casq.params import (
    SystemParams,
    coefficient_grid,
    coefficients,
    threshold_epsilon,
    threshold_tolerance,
)

from conftest import stable_params


def rational_variances(p):
    """Eqs. for the steady variances as published rational expressions."""
    a, kappa, beta, eps = p.a, p.kappa, p.beta, p.epsilon
    b = (1 + beta**2) * (1 + beta**2 / 4)
    plus = (2 * kappa * b + a * (4 + beta**2)) / (
        (2 * kappa - 4 * eps) * b + a * (2 * beta - beta**3)
    )
    minus = (2 * kappa * b + 3 * a * beta**2) / (
        (2 * kappa + 4 * eps) * b + a * (4 * beta + beta**3)
    )
    return plus, minus


def rational_mean_photon(p, t):
    """Published two-relaxation-rate closed form of the transient mean photon number."""
    a, kappa, beta, eps = p.a, p.kappa, p.beta, p.epsilon
    b = (1 + beta**2) * (1 + beta**2 / 4)
    c = coefficients(p)
    first = (2 * eps * b + a * (2 - beta + beta**2 / 2 + beta**3 / 2)) / (
        4 * b * (kappa - 2 * eps) + 2 * a * (2 * beta - beta**3)
    )
    second = (2 * eps * b + a * (2 * beta - 1.5 * beta**2 + beta**3 / 2)) / (
        4 * b * (kappa + 2 * eps) + 2 * a * (4 * beta + beta**3)
    )
    return first * -math.expm1(-2 * c.lambda_minus * t) - second * -math.expm1(
        -2 * c.lambda_plus * t
    )


def pnd_direct(c, d, n):
    """Direct small-n evaluation of the photon distribution sum."""
    total = 0.0
    for ell in range(n // 2 + 1):
        total += (
            math.factorial(n)
            * (1.0 - c) ** (n - 2 * ell)
            * d ** (2 * ell)
            / (4**ell * math.factorial(ell) ** 2 * math.factorial(n - 2 * ell))
        )
    return math.sqrt(c * c - d * d) * total


def pnd_rowwise(record, n_max):
    """P(0..n_max) summed one row n at a time: the loop photon_distribution's
    (n, l) table replaced, kept as its bitwise reference."""
    c, d = record.c, record.d
    one_m_c = 1.0 - c
    log_omc = math.log(abs(one_m_c)) if one_m_c != 0.0 else -math.inf
    log_d = math.log(abs(d)) if d != 0.0 else -math.inf
    neg_omc = one_m_c < 0.0
    pref = math.sqrt(c * c - d * d)
    log2 = math.log(2.0)

    lg = gammaln(np.arange(n_max + 1) + 1)
    probs = np.empty(n_max + 1)
    for n in range(n_max + 1):
        ell = np.arange(n // 2 + 1)
        k = n - 2 * ell
        logt = lg[n] - 2.0 * ell * log2 - 2.0 * lg[ell] - lg[k]
        with np.errstate(invalid="ignore"):
            logt = logt + np.where(k > 0, k * log_omc, 0.0)
            logt = logt + np.where(ell > 0, 2.0 * ell * log_d, 0.0)
        top = logt.max()
        if top == -math.inf:
            probs[n] = 0.0
            continue
        signs = np.where(neg_omc & (k % 2 == 1), -1.0, 1.0)
        probs[n] = pref * math.exp(top) * float(np.sum(signs * np.exp(logt - top)))
    return probs


def hand_record(c, d):
    return analytic.GaussianRecord(t=0, alpha_sq=0, n_cl=0, a=1, b=0, c=c, d=d)


FIG6_POINT = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
PND_N_MAX = [0, 1, 13, 14, 15, 16, 64, 300]  # 14: first row of 8 terms, pairwise-sum grouping


@st.composite
def pnd_records(draw):
    """Valid hand-built records: c in (0, 1], c = 1 (1 - c = 0), and c just
    above 1 (negative 1 - c, whose odd rows come out within -1e-12 of 0);
    d = 0, d < 0 and d > 0."""
    c = draw(st.floats(1e-3, 1.0) | st.just(1.0)
             | st.floats(1.0, 1.0 + 1e-14, exclude_min=True))
    d_frac = draw(st.just(0.0) | st.floats(-0.999, 0.999))
    return hand_record(c, d_frac * min(c, 0.9))


class TestSteadyAlphaSq:
    def test_vacuum(self):
        c = coefficients(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0))
        assert analytic.steady_alpha_sq(c) == (0.0, 0.0)

    def test_pure_dpa(self):
        c = coefficients(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2))
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        assert s_plus == pytest.approx(1.0, rel=1e-12)
        assert s_minus == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_unstable_raises(self):
        c = coefficients(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.5))
        with pytest.raises(NotStableError):
            analytic.steady_alpha_sq(c)

    def test_within_threshold_tolerance_raises(self):
        # 5e-10 below threshold counts as at threshold, as in variance_steady and steady_record
        p0 = SystemParams(a=25, kappa=0.8, beta=0.1)
        p = p0.with_epsilon(threshold_epsilon(p0) - 5e-10)
        c = coefficients(p)
        assert 0 < c.lambda_minus <= threshold_tolerance(p)
        with pytest.raises(NotStableError):
            analytic.steady_alpha_sq(c)
        with pytest.raises(NotStableError):
            analytic.steady_record(p)
        assert math.isinf(analytic.variance_steady(p).plus)

    def test_arrays(self):
        betas = [0.05, 0.1, 0.4]
        s_plus, s_minus = analytic.steady_alpha_sq(coefficient_grid(25, 0.8, betas, 0.3)[0])
        for i, beta in enumerate(betas):
            one = analytic.steady_alpha_sq(coefficients(SystemParams(25, 0.8, beta, 0.3)))
            assert (s_plus[i], s_minus[i]) == pytest.approx(one, rel=1e-14)


class TestVarianceSteady:
    @pytest.mark.parametrize("a,kappa", [(100, 0.8), (25, 0.4), (3, 1.6)])
    def test_laser_alone_not_squeezed(self, a, kappa):
        v = analytic.variance_steady(SystemParams(a=a, kappa=kappa, beta=0, epsilon=0))
        assert v.plus == pytest.approx((kappa + 2 * a) / kappa, rel=1e-12)
        assert v.minus == 1.0

    @pytest.mark.parametrize("frac", [0.1, 0.25, 0.45])
    def test_pure_dpa_ladder(self, frac):
        kappa = 0.8
        eps = frac * kappa
        v = analytic.variance_steady(SystemParams(a=0, kappa=kappa, beta=0, epsilon=eps))
        assert v.plus == pytest.approx(kappa / (kappa - 2 * eps), rel=1e-12)
        assert v.minus == pytest.approx(kappa / (kappa + 2 * eps), rel=1e-12)

    def test_dpa_threshold_half(self):
        v = analytic.variance_steady(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.4))
        assert math.isinf(v.plus)
        assert v.minus == pytest.approx(0.5, rel=1e-12)

    def test_paper_optimum_point(self):
        p = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.0)
        v = analytic.variance_steady(p.with_relative_drive(1.0))
        assert math.isinf(v.plus)
        assert v.minus == pytest.approx(0.068, abs=2e-3)

    def test_rational_forms_agree(self, rng):
        for p in stable_params(rng, 200):
            v = analytic.variance_steady(p)
            plus, minus = rational_variances(p)
            assert v.plus == pytest.approx(plus, rel=1e-12)
            assert v.minus == pytest.approx(minus, rel=1e-12)

    def test_eq38_consistency_bitwise(self, rng):
        for p in stable_params(rng, 100):
            v = analytic.variance_steady(p)
            s_plus, s_minus = analytic.steady_alpha_sq(coefficients(p))
            assert v.plus == 1.0 + s_plus
            assert v.minus == 1.0 - s_minus

    def test_uncertainty_product(self, rng):
        for p in stable_params(rng, 100):
            v = analytic.variance_steady(p)
            assert v.minus > 0
            assert v.plus >= 1.0
            assert v.plus * v.minus >= 1.0 - 1e-12

    def test_above_threshold_raises(self):
        with pytest.raises(NotStableError):
            analytic.variance_steady(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.6))


class TestVarianceThreshold:
    def test_beta_zero_is_half(self):
        for a in (0, 1, 100, 1e4):
            v = analytic.variance_threshold(SystemParams(a=a, kappa=0.8, beta=0))
            assert math.isinf(v.plus)
            assert v.minus == 0.5

    def test_no_atoms_any_beta(self):
        for beta in (0, 0.4, 1.9):
            v = analytic.variance_threshold(SystemParams(a=0, kappa=0.8, beta=beta))
            assert v.minus == 0.5

    def test_paper_value(self):
        v = analytic.variance_threshold(SystemParams(a=100, kappa=0.8, beta=0.067))
        assert v.minus == pytest.approx(0.068, abs=1e-3)

    def test_matches_general_form_at_threshold(self, rng):
        # the minus branch of the general steady formula at eps_th must
        # reduce to the dedicated threshold expression
        for p in stable_params(rng, 300):
            p_th = p.with_relative_drive(1.0)
            a, kappa, beta, eps = p_th.a, p_th.kappa, p_th.beta, p_th.epsilon
            b = (1 + beta**2) * (1 + beta**2 / 4)
            minus = (2 * kappa * b + 3 * a * beta**2) / (
                (2 * kappa + 4 * eps) * b + a * (4 * beta + beta**3)
            )
            assert analytic.variance_threshold(p).minus == pytest.approx(minus, rel=1e-12)


class TestVarianceNoCrystal:
    def test_beta_zero_reduces_to_laser(self):
        v = analytic.variance_no_crystal(SystemParams(a=100, kappa=0.8, beta=0))
        assert v.plus == pytest.approx((0.8 + 200) / 0.8, rel=1e-12)
        assert v.minus == 1.0

    def test_strong_pump_asymptotics(self):
        # stable strong-pump points (beta > 2A/kappa) follow the parametric-
        # oscillator-like forms kappa / (kappa -+ 2A/beta)
        kappa = 0.8
        v100 = analytic.variance_no_crystal(SystemParams(a=10, kappa=kappa, beta=100))
        assert v100.plus == pytest.approx(kappa / (kappa - 2 * 10 / 100), rel=0.05)
        assert v100.minus == pytest.approx(kappa / (kappa + 2 * 10 / 100), rel=0.05)
        v1000 = analytic.variance_no_crystal(SystemParams(a=100, kappa=kappa, beta=1000))
        assert v1000.plus == pytest.approx(0.8 / 0.6, rel=0.01)
        assert v1000.minus == pytest.approx(0.8 / 1.0, rel=0.01)

    def test_instability_raises(self):
        with pytest.raises(NotStableError):
            analytic.variance_no_crystal(SystemParams(a=100, kappa=0.8, beta=2.0))

    def test_interior_minimum_shape(self):
        betas = np.linspace(0, 1.2, 601)
        curve = analytic.no_crystal_minus_curve(100, 0.8, betas)
        i = int(np.argmin(curve))
        assert 0 < i < 600
        assert curve[i] < curve[0] and curve[i] < curve[-1]


class TestMinimizeMinusVariance:
    def test_headline_optimum(self):
        start = time.perf_counter()
        beta_star, v_star = analytic.minimize_minus_variance(100, 0.8, "threshold")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert beta_star == pytest.approx(0.067, abs=5e-3)
        assert v_star == pytest.approx(0.068, abs=2e-3)

    def test_against_dense_scan(self):
        beta_star, v_star = analytic.minimize_minus_variance(100, 0.8, "threshold")
        grid = np.arange(0.05, 0.09, 1e-5)
        curve = analytic.threshold_minus_curve(100, 0.8, grid)
        i = int(np.argmin(curve))
        assert beta_star == pytest.approx(grid[i], abs=2e-5)
        assert v_star <= curve[i] + 1e-12

    def test_flat_gain_zero(self):
        beta_star, v_star = analytic.minimize_minus_variance(0, 0.8, "threshold")
        assert beta_star == 0.0
        assert v_star == 0.5

    def test_deeper_with_more_gain(self):
        _, v100 = analytic.minimize_minus_variance(100, 0.8, "threshold")
        _, v1000 = analytic.minimize_minus_variance(1000, 0.8, "threshold")
        assert v1000 < v100

    def test_no_crystal_mode(self):
        beta_star, v_star = analytic.minimize_minus_variance(100, 0.8, "no_crystal")
        grid = np.arange(0.0, 2.0001, 1e-4)
        assert v_star <= analytic.no_crystal_minus_curve(100, 0.8, grid).min() + 1e-12
        assert 0 < beta_star < 2

    def test_bad_mode(self):
        with pytest.raises(InvalidParameterError):
            analytic.minimize_minus_variance(100, 0.8, "bogus")


class TestSpectrum:
    @pytest.mark.parametrize("a", [1, 25, 100])
    @pytest.mark.parametrize("kappa", [0.4, 0.8, 1.6])
    def test_perfect_squeezing_at_threshold(self, a, kappa):
        p = SystemParams(a=a, kappa=kappa, beta=0).with_relative_drive(1.0)
        curve = analytic.spectrum(p, [0.0])
        assert abs(curve.s_minus[0]) <= 1e-12

    def test_threshold_half_at_omega_kappa(self):
        kappa = 0.8
        p = SystemParams(a=0, kappa=kappa, beta=0, epsilon=kappa / 2)
        curve = analytic.spectrum(p, [kappa])
        assert curve.s_minus[0] == pytest.approx(0.5, rel=1e-12)
        assert math.isinf(analytic.spectrum(p, [0.0]).s_plus[0])

    def test_vacuum_far_from_resonance(self, rng):
        for p in stable_params(rng, 20):
            curve = analytic.spectrum(p, [1e7])
            assert curve.s_plus[0] == pytest.approx(1.0, abs=1e-10)
            assert curve.s_minus[0] == pytest.approx(1.0, abs=1e-10)

    def test_output_spectrum_never_negative(self, rng):
        omegas = np.linspace(0.0, 10.0, 101)
        for p in stable_params(rng, 60):
            curve = analytic.spectrum(p, omegas)
            assert curve.s_minus.min() >= -1e-12
        for beta in (0.0, 0.067, 0.4, 1.0):
            p = SystemParams(a=100, kappa=0.8, beta=beta).with_relative_drive(1.0)
            assert analytic.spectrum(p, omegas).s_minus.min() >= -1e-12

    def test_threshold_form_equals_general_form(self, rng):
        # the dedicated threshold expressions must equal the Lorentzian
        # forms evaluated with lambda_minus = 0
        omegas = np.array([0.1, 0.5, 1.0, 3.0])
        for p in stable_params(rng, 50):
            p_th = p.with_relative_drive(1.0)
            c = coefficients(p_th)
            curve = analytic.spectrum(p_th, omegas)
            s_plus = 1 + 2 * p.kappa * c.diffusion_plus / omegas**2
            s_minus = 1 - 2 * p.kappa * c.diffusion_minus / (c.lambda_plus**2 + omegas**2)
            np.testing.assert_allclose(curve.s_plus, s_plus, rtol=1e-9)
            np.testing.assert_allclose(curve.s_minus, s_minus, rtol=1e-9)

    def test_sum_rule_by_quadrature(self, rng):
        # (1/2 pi kappa) integral of (S - 1) equals +-<alpha_+-^2>
        for p in stable_params(rng, 8):
            c = coefficients(p)
            s_plus, s_minus = analytic.steady_alpha_sq(c)

            def integrand_plus(w):
                return float(analytic.spectrum(p, [w]).s_plus[0]) - 1.0

            def integrand_minus(w):
                return float(analytic.spectrum(p, [w]).s_minus[0]) - 1.0

            val_p = 2 * quad(integrand_plus, 0, np.inf, epsabs=1e-12, epsrel=1e-11)[0]
            val_m = 2 * quad(integrand_minus, 0, np.inf, epsabs=1e-12, epsrel=1e-11)[0]
            assert val_p / (2 * math.pi * p.kappa) == pytest.approx(s_plus, rel=1e-6)
            assert val_m / (2 * math.pi * p.kappa) == pytest.approx(-s_minus, rel=1e-6)

    def test_above_threshold_raises(self):
        with pytest.raises(NotStableError):
            analytic.spectrum(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.6), [0.0])


class TestTransients:
    def test_initial_vacuum_record(self):
        rec = analytic.transient_moments(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), 0.0)
        assert (rec.alpha_sq, rec.n_cl) == (0.0, 0.0)
        assert (rec.a, rec.b, rec.c, rec.d) == (1.0, 0.0, 1.0, 0.0)

    def test_pure_dpa_steady_sixth(self):
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2)
        assert analytic.steady_record(p).n_cl == pytest.approx(1.0 / 6.0, rel=1e-12)
        got = analytic.mean_photon_curve(p.a, p.kappa, [p.beta], p.epsilon, 200.0)
        assert got[0] == pytest.approx(1.0 / 6.0, rel=1e-10)

    def test_matches_moment_integration(self, rng):
        for p in stable_params(rng, 4, lambda_ratio_max=8.0):
            c = coefficients(p)
            t = 5.0 / c.lambda_minus
            rec = analytic.transient_moments(p, t)
            state = moments.propagate(p, t)[-1]
            assert rec.alpha_sq == pytest.approx(state.alpha_sq.real, rel=1e-8, abs=1e-10)
            assert rec.n_cl == pytest.approx(state.n_cl, rel=1e-8, abs=1e-10)

    def test_at_threshold_linear_growth(self):
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(1.0)
        c = coefficients(p)
        assert abs(c.lambda_minus) < 1e-12
        rec1 = analytic.transient_moments(p, 10.0)
        rec2 = analytic.transient_moments(p, 20.0)
        # the lambda_minus channel contributes diffusion_plus * t / 2 per quadrature sum
        growth = (rec2.alpha_sq + rec2.n_cl) - (rec1.alpha_sq + rec1.n_cl)
        assert growth == pytest.approx(c.diffusion_plus * 10.0, rel=1e-9)
        state = moments.propagate(p, 12.5)[-1]
        rec = analytic.transient_moments(p, 12.5)
        assert rec.n_cl == pytest.approx(state.n_cl, rel=1e-8)

    def test_mean_photon_curve_matches_record(self, rng):
        # the grid path and the point path share one formula; vectorized
        # expm1 may round differently from the scalar one
        for p in stable_params(rng, 20):
            for t in (0.0, 0.7, 13.0, None):
                got = analytic.mean_photon_curve(p.a, p.kappa, [p.beta], p.epsilon, t)[0]
                rec = analytic.steady_record(p) if t is None else analytic.transient_moments(p, t)
                assert got == pytest.approx(rec.n_cl, rel=1e-13, abs=0.0)

    def test_mean_photon_rational_oracle(self, rng):
        for p in stable_params(rng, 50):
            for t in (0.3, 2.0, 40.0):
                got = analytic.mean_photon_curve(p.a, p.kappa, [p.beta], p.epsilon, t)[0]
                assert got == pytest.approx(rational_mean_photon(p, t), rel=1e-11, abs=1e-13)

    def test_fig5_amplifier_raises_photon_number(self):
        for beta in (0.01, 0.05, 0.1, 0.2):
            on = analytic.steady_record(SystemParams(a=25, kappa=0.8, beta=beta, epsilon=0.3))
            off = analytic.steady_record(SystemParams(a=25, kappa=0.8, beta=beta, epsilon=0.0))
            assert on.n_cl > off.n_cl

    def test_negative_time_rejected(self):
        p = SystemParams(a=0, kappa=0.8, beta=0)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                analytic.transient_moments(p, t)
            with pytest.raises(InvalidParameterError, match="finite and >= 0"):
                analytic.mean_photon_curve(p.a, p.kappa, [p.beta], p.epsilon, t)

    def test_steady_record_requires_stability(self):
        p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(1.0)
        with pytest.raises(NotStableError):
            analytic.steady_record(p)


class TestGaussianRecordInvariants:
    def test_identities(self, rng):
        for p in stable_params(rng, 100):
            rec = analytic.steady_record(p)
            assert rec.a == 1.0 + rec.n_cl
            assert rec.b == rec.alpha_sq
            assert rec.c**2 - rec.d**2 == pytest.approx(
                1.0 / (rec.a**2 - rec.b**2), rel=1e-9
            )
            assert rec.a > abs(rec.b)
            assert rec.c > abs(rec.d)


class TestQFunction:
    def test_vacuum_peak(self):
        rec = analytic.transient_moments(SystemParams(a=0, kappa=0.8, beta=0), 0.0)
        assert analytic.q_function(rec, 0.0, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_normalization_by_quadrature(self, rng):
        for p in stable_params(rng, 5):
            rec = analytic.steady_record(p)
            half_width = 8.0 / math.sqrt(rec.c - abs(rec.d))
            axis = np.linspace(-half_width, half_width, 1601)
            x, y = np.meshgrid(axis, axis)
            q = analytic.q_function(rec, x, y)
            total = np.trapezoid(np.trapezoid(q, axis, axis=1), axis)
            assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("alpha_re, alpha_im", [(math.nan, 0.0), (0.0, math.inf),
                                                    ([0.0, math.nan], [0.0, 0.0])],
                             ids=["re-nan", "im-inf", "array-nan"])
    def test_non_finite_alpha_rejected(self, alpha_re, alpha_im):
        # as fock.husimi refuses it
        rec = analytic.transient_moments(SystemParams(a=0, kappa=0.8, beta=0), 0.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            analytic.q_function(rec, alpha_re, alpha_im)

    def test_undefined_for_bogus_record(self):
        rec = analytic.GaussianRecord(t=0, alpha_sq=0, n_cl=0, a=1, b=0, c=0.5, d=0.9)
        with pytest.raises(QFunctionUndefinedError):
            analytic.q_function(rec, 0.0, 0.0)


class TestPhotonDistribution:
    def test_vacuum_delta(self):
        rec = analytic.transient_moments(SystemParams(a=0, kappa=0.8, beta=0), 0.0)
        pnd = analytic.photon_distribution(rec, 12)
        assert pnd.probs[0] == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(pnd.probs[1:], 0.0, atol=1e-300)

    def test_direct_summation_oracle(self, rng):
        for rec in (analytic.steady_record(p) for p in stable_params(rng, 6)):
            pnd = analytic.photon_distribution(rec, 40)
            for n in (0, 1, 2, 3, 5, 10, 17, 28, 40):
                expect = pnd_direct(rec.c, rec.d, n)
                assert pnd.probs[n] == pytest.approx(expect, rel=1e-10, abs=1e-13)

    def test_alternating_sum_matches_generating_function(self, rng):
        # parity contrast: sum (-1)^n P(n) has its own closed form,
        # sqrt(c^2-d^2)/sqrt((2-c)^2-d^2), independent of the finite sums
        for p in stable_params(rng, 6, eps_fraction_max=0.6):
            rec = analytic.steady_record(p)
            n_max = int(60 + 60 * rec.n_cl)
            probs = analytic.photon_distribution(rec, n_max).probs
            alternating = float((probs[0::2].sum() - probs[1::2].sum()))
            closed = math.sqrt(rec.c**2 - rec.d**2) / math.sqrt((2 - rec.c) ** 2 - rec.d**2)
            assert alternating == pytest.approx(closed, rel=1e-6, abs=1e-7)

    def test_sign_tracking_rejects_nonstate_record(self):
        # c > 1 forces P(1) = sqrt(c^2-d^2)(1-c) < 0: the log-form
        # evaluation must track the sign and report the invalid record
        # rather than produce NaNs
        rec = analytic.GaussianRecord(t=0, alpha_sq=0, n_cl=0, a=1, b=0, c=1.2, d=0.3)
        with pytest.raises(InvalidParameterError, match="negative"):
            analytic.photon_distribution(rec, 8)

    def test_normalization_and_mean(self, rng):
        for p in stable_params(rng, 6, eps_fraction_max=0.6):
            rec = analytic.steady_record(p)
            n_max = int(40 + 40 * rec.n_cl)
            pnd = analytic.photon_distribution(rec, n_max)
            assert pnd.total() == pytest.approx(1.0, abs=1e-6)
            assert pnd.mean() == pytest.approx(rec.n_cl, rel=1e-5, abs=1e-6)

    def test_fig6_even_odd_structure(self):
        # pair emission favors even photon numbers: every even P(n) beats
        # its odd neighbors, with or without the crystal.  The drive fattens
        # the tail, so its even-n probabilities win only from n = 6 up
        # (at n in {0, 2, 4} and in total even mass the epsilon = 0 state
        # is actually ahead; both engines agree on this).
        base = SystemParams(a=100, kappa=0.8, beta=0.067, epsilon=0.3)
        rec_on = analytic.steady_record(base)
        rec_off = analytic.steady_record(base.with_epsilon(0.0))
        pnd_on = analytic.photon_distribution(rec_on, 16).probs
        pnd_off = analytic.photon_distribution(rec_off, 16).probs
        for even in range(0, 11, 2):
            for probs in (pnd_on, pnd_off):
                if even - 1 >= 0:
                    assert probs[even] >= probs[even - 1]
                assert probs[even] >= probs[even + 1]
        for even in range(6, 13, 2):
            assert pnd_on[even] > pnd_off[even]
        for even in range(0, 5, 2):
            assert pnd_on[even] < pnd_off[even]

    def test_undefined_record_raises(self):
        rec = analytic.GaussianRecord(t=0, alpha_sq=0, n_cl=0, a=1, b=0, c=0.5, d=0.9)
        with pytest.raises(QFunctionUndefinedError):
            analytic.photon_distribution(rec, 8)

    def test_negative_nmax_rejected(self):
        rec = analytic.transient_moments(SystemParams(a=0, kappa=0.8, beta=0), 0.0)
        with pytest.raises(InvalidParameterError, match=r"^n_max must be >= 0, got -1$"):
            analytic.photon_distribution(rec, -1)

    @pytest.mark.parametrize("n_max", [True, 3.5, math.nan, 8.0])
    def test_non_integer_nmax_rejected(self, n_max):
        rec = analytic.transient_moments(SystemParams(a=0, kappa=0.8, beta=0), 0.0)
        with pytest.raises(InvalidParameterError, match="n_max must be an integer"):
            analytic.photon_distribution(rec, n_max)

    def test_numpy_integer_nmax_accepted(self):
        rec = analytic.steady_record(FIG6_POINT)
        pnd = analytic.photon_distribution(rec, np.int64(16))
        assert np.array_equal(pnd.probs, analytic.photon_distribution(rec, 16).probs)


class TestLogFactorial:
    """_log_factorial is bitwise SciPy's gammaln(k + 1), which pnd_rowwise keeps."""

    def test_bitwise_gammaln_over_a_range(self):
        k = np.arange(200_001)
        ours = np.fromiter(map(analytic._log_factorial, range(k.size)), float, k.size)
        assert np.array_equal(ours, gammaln(k + 1))

    # x = k + 1 on both sides of each branch edge: 13 (exact product below),
    # 1000 (three-term series from) and 1e8 (leading term above)
    @pytest.mark.parametrize("k", [11, 12, 998, 999, 10**8 - 2, 10**8 - 1, 10**8, 10**9])
    def test_bitwise_gammaln_at_branch_edges(self, k):
        assert analytic._log_factorial(k) == gammaln(k + 1.0)

    @pytest.mark.parametrize("k, bits", [
        (0, "0x0.0p+0"), (11, "0x1.180973f3a8d74p+4"), (12, "0x1.3fcba16d50143p+4"),
        (998, "0x1.70a504c9302eep+12"), (999, "0x1.711386da7cab6p+12"),
        (10**8, "0x1.9f5765d2191a9p+30"), (10**9, "0x1.25e649ce0e86ep+34"),
    ])
    def test_pinned_bits(self, k, bits):
        assert analytic._log_factorial(k).hex() == bits


class TestPhotonDistributionTable:
    """The (n, l) table evaluation is bitwise the one-row-at-a-time sum."""

    @settings(max_examples=200, deadline=None)
    @given(rec=pnd_records(), n_max=st.sampled_from(PND_N_MAX))
    def test_bitwise_rowwise_on_hand_records(self, rec, n_max):
        probs = analytic.photon_distribution(rec, n_max).probs
        expect = pnd_rowwise(rec, n_max)
        assert expect.min() >= -1e-12  # a valid state: nothing is rejected
        assert np.array_equal(probs, np.clip(expect, 0.0, None))

    def test_sign_tracked_rows_stay_valid_just_above_c_1(self):
        # 1 - c < 0 gives every odd row a negative sum; within -1e-12 it is
        # clipped, so the record is accepted and its odd entries read 0
        rec = hand_record(1.0 + 4e-15, 0.6)
        raw = pnd_rowwise(rec, 64)
        assert (raw[1::2] < 0).all() and raw.min() > -1e-12
        probs = analytic.photon_distribution(rec, 64).probs
        assert np.array_equal(probs, np.clip(raw, 0.0, None))
        assert not probs[1::2].any()

    @pytest.mark.parametrize("p", [FIG6_POINT, SystemParams(a=400, kappa=0.8, beta=0.0)],
                             ids=["fig6", "a400-beta0"])
    @pytest.mark.parametrize("n_max", PND_N_MAX)
    def test_bitwise_rowwise_on_steady_records(self, p, n_max):
        rec = analytic.steady_record(p)
        probs = analytic.photon_distribution(rec, n_max).probs
        assert np.array_equal(probs, np.clip(pnd_rowwise(rec, n_max), 0.0, None))

    @pytest.mark.parametrize("entries", [1, 7, 33, 500])
    def test_row_blocks_do_not_change_digits(self, monkeypatch, entries):
        # small blocks: one row per block (a row longer than the block),
        # several rows, and blocks whose last row is odd or even
        rec = analytic.steady_record(FIG6_POINT)
        monkeypatch.setattr(analytic, "_PND_BLOCK_ENTRIES", entries)
        probs = analytic.photon_distribution(rec, 300).probs
        assert np.array_equal(probs, np.clip(pnd_rowwise(rec, 300), 0.0, None))

    @pytest.mark.parametrize("c, d", [(1.2, 0.3), (1.0 + 1e-9, -0.5)])
    def test_nonstate_records_rejected_alike(self, c, d):
        rec = hand_record(c, d)
        low = pnd_rowwise(rec, 64).min()
        with pytest.raises(InvalidParameterError, match=f"min {low:.3e}"):
            analytic.photon_distribution(rec, 64)

    def test_memory_stays_bounded_at_large_n_max(self):
        # the table is built in row blocks: a whole (n, l) table at
        # n_max = 4000 would peak near 400 MB, the blocks near 3 MB
        rec = analytic.steady_record(FIG6_POINT)
        analytic.photon_distribution(rec, 4)  # first-call allocations stay outside the trace
        tracemalloc.start()
        try:
            analytic.photon_distribution(rec, 4000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


@pytest.mark.parametrize("call", [
    lambda: analytic.threshold_minus_curve(-5, 0.8, [0.1]),
    lambda: analytic.no_crystal_minus_curve(25, 0.8, [-0.5, math.inf]),
    lambda: analytic.mean_photon_curve(25, 0.8, [0.1], -3.0),
    lambda: analytic.mean_photon_curve(25, 0.8, [0.1], 0.3, -1.0),
    lambda: analytic.spectrum_minus_curve(25, 0.8, [1.9], 0, 1.0),
    lambda: analytic.spectrum_minus_curve(25, 0.8, [0.1], math.inf, 0.5),
    lambda: analytic.spectrum(SystemParams(a=25, kappa=0.8, beta=0.1), [math.nan, math.inf]),
    lambda: analytic.minimize_minus_variance(math.nan, 0.8),
], ids=["threshold-gain", "no-crystal-beta", "mean-photon-epsilon", "mean-photon-t",
        "spectrum-curve-threshold", "spectrum-curve-omega", "spectrum-omega", "minimize-gain"])
def test_grid_functions_reject_bad_input(call):
    with pytest.raises(InvalidParameterError):
        call()
