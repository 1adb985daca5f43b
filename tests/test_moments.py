"""Moment-ODE propagation against closed-form limits and the linear solve."""

import dataclasses
import math

import numpy as np
import pytest

from casq import analytic, moments
from casq.errors import InvalidParameterError, NotStableError, StepSizeError
from casq.params import SystemParams, coefficients

from conftest import stable_params


def flow_points(rng):
    """The stable_params draws, then A = 25, beta = 0.1 at 0.99 of threshold and at threshold."""
    base = SystemParams(a=25, kappa=0.8, beta=0.1)
    return stable_params(rng, 4, lambda_ratio_max=8.0) + [
        base.with_relative_drive(0.99), base.with_relative_drive(1.0)]


def flow_time(p):
    """Five relaxation times of the slower quadrature (of lambda_+ / 5 at threshold)."""
    c = coefficients(p)
    return 5.0 / max(c.lambda_minus, 0.2 * c.lambda_plus)


def augmented_generator(p):
    """The 11 x 11 generator of (Re y, Im y, 1), read column by column off the moment ODE.

    y = (<alpha>, <alpha^2>, <alpha* alpha>, <alpha_+^2>, <alpha_-^2>).
    """
    c = coefficients(p)

    def rhs(y):
        mean, asq, ncl, vp, vm = y
        return np.array([
            -c.decay * mean + c.coupling * np.conj(mean),
            -2.0 * c.decay * asq + 2.0 * c.coupling * ncl + (c.epsilon - 2.0 * c.v),
            -2.0 * c.decay * ncl + c.coupling * (np.conj(asq) + asq) + 2.0 * c.r,
            -2.0 * c.lambda_minus * vp + 2.0 * c.diffusion_plus,
            -2.0 * c.lambda_plus * vm + 2.0 * c.diffusion_minus,
        ], dtype=complex)

    drive = rhs(np.zeros(5, dtype=complex))
    gen = np.zeros((11, 11))
    for j in range(10):
        z = np.zeros(10)
        z[j] = 1.0
        dy = rhs(z[:5] + 1j * z[5:]) - drive
        gen[:10, j] = np.concatenate([dy.real, dy.imag])
    gen[:10, 10] = np.concatenate([drive.real, drive.imag])
    return gen


def test_vacuum_with_no_drive_stays_zero():
    states = moments.propagate(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0), 5.0)
    for s in states:
        assert s.mean_alpha == 0 and s.alpha_sq == 0 and s.n_cl == 0
        assert s.var_flow_plus == 0 and s.var_flow_minus == 0


def test_mean_alpha_identically_zero_from_vacuum(rng):
    for p in stable_params(rng, 5, lambda_ratio_max=8.0):
        states = moments.propagate(p, 3.0)
        assert all(s.mean_alpha == 0 for s in states)


def test_flow_matches_closed_form(rng):
    for p in flow_points(rng):
        t_end = flow_time(p)
        got = moments.propagate(p, t_end)
        assert [s.t for s in got] == np.linspace(0.0, t_end, 201).tolist()
        for s in got[1:]:
            rec = analytic.transient_moments(p, s.t)
            q_plus, q_minus = analytic._alpha_sq(coefficients(p), s.t)
            np.testing.assert_allclose(
                [s.n_cl, s.alpha_sq.real, s.var_flow_plus, s.var_flow_minus],
                [rec.n_cl, rec.alpha_sq, q_plus, q_minus], rtol=1e-11, atol=0)


def test_flow_matches_scipy_expm(rng):
    # each record from vacuum in one SciPy (Pade) exponential of the whole interval
    expm = pytest.importorskip("scipy.linalg").expm
    for p in flow_points(rng):
        t_end = flow_time(p)
        got = moments.propagate(p, t_end, n_records=20)
        gen = augmented_generator(p)
        for s in got:
            z = expm(s.t * gen)[:10, 10]
            want = z[:5] + 1j * z[5:]
            fields = [s.mean_alpha, s.alpha_sq, s.n_cl, s.var_flow_plus, s.var_flow_minus]
            np.testing.assert_allclose(fields, want, rtol=1e-11, atol=1e-13 * abs(want).max())


@pytest.mark.parametrize("n_records", [0, -3, 2.5, True])
def test_bad_record_count_rejected(n_records):
    with pytest.raises(InvalidParameterError, match="n_records"):
        moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), 1.0,
                          n_records=n_records)


@pytest.mark.parametrize("n_records", [1, 7, np.int64(3)])
def test_one_state_per_record_and_the_start(n_records):
    states = moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), 2.0,
                               n_records=n_records)
    assert [s.t for s in states] == np.linspace(0.0, 2.0, n_records + 1).tolist()


@pytest.mark.parametrize("t_end", [math.nan, math.inf], ids=["t-end-nan", "t-end-inf"])
def test_non_finite_time_rejected(t_end):
    with pytest.raises(InvalidParameterError, match="finite"):
        moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), t_end)


def test_long_time_matches_steady_closed_forms(rng):
    for p in stable_params(rng, 4, lambda_ratio_max=6.0):
        c = coefficients(p)
        final = moments.propagate(p, 12.0 / c.lambda_minus)[-1]
        rec = analytic.steady_record(p)
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        assert final.n_cl == pytest.approx(rec.n_cl, rel=1e-8)
        assert final.alpha_sq.real == pytest.approx(rec.alpha_sq, rel=1e-8)
        assert final.var_flow_plus == pytest.approx(s_plus, rel=1e-8)
        assert final.var_flow_minus == pytest.approx(s_minus, rel=1e-8)


def test_pure_dpa_sixth():
    lin = moments.steady_from_linear_solve(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2))
    assert lin.n_cl == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert lin.mean_alpha == 0


def test_linear_solve_zero_without_atoms_or_drive():
    lin = moments.steady_from_linear_solve(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0))
    assert lin.n_cl == 0 and lin.alpha_sq == 0


def test_linear_solve_matches_propagation(rng):
    for p in stable_params(rng, 4, lambda_ratio_max=6.0):
        c = coefficients(p)
        lin = moments.steady_from_linear_solve(p)
        final = moments.propagate(p, 14.0 / c.lambda_minus)[-1]
        assert final.n_cl == pytest.approx(lin.n_cl, rel=1e-10, abs=1e-12)
        assert final.alpha_sq.real == pytest.approx(lin.alpha_sq.real, rel=1e-10, abs=1e-12)
        assert final.var_flow_minus == pytest.approx(lin.var_flow_minus, rel=1e-10, abs=1e-12)


def test_linear_solve_variance_combination(rng):
    for p in stable_params(rng, 20):
        lin = moments.steady_from_linear_solve(p)
        assert lin.var_flow_plus == pytest.approx(
            2 * lin.alpha_sq.real + 2 * lin.n_cl, rel=1e-13, abs=1e-13
        )
        assert lin.var_flow_minus == pytest.approx(
            2 * lin.alpha_sq.real - 2 * lin.n_cl, rel=1e-13, abs=1e-13
        )


def test_linear_solve_singular_at_threshold():
    p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(1.0)
    with pytest.raises(NotStableError):
        moments.steady_from_linear_solve(p)


def test_redundant_channel_detects_inconsistent_initial_state():
    p = SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3)
    vacuum = moments.MomentState(t=0.0, mean_alpha=0j, alpha_sq=0j, n_cl=0.0,
                                 var_flow_plus=0.0, var_flow_minus=0.0)
    for bad in ({"var_flow_plus": 1.0}, {"var_flow_plus": math.nan},
                {"mean_alpha": complex(math.nan, 0.0)}):
        with pytest.raises(InvalidParameterError, match="initial"):
            moments.propagate(p, 1.0, initial=dataclasses.replace(vacuum, **bad))


def test_initial_state_continues_the_flow():
    p = SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3)
    middle = moments.propagate(p, 1.0)[-1]
    got = moments.propagate(p, 1.0, initial=middle)[-1]
    want = moments.propagate(p, 2.0)[-1]
    for name in ("alpha_sq", "n_cl", "var_flow_plus", "var_flow_minus"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)


def test_overflow_above_threshold_detected():
    # above threshold <alpha_+^2> grows as exp(2 |lambda_-| t), past the float range here
    p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(2.0)
    assert coefficients(p).lambda_minus < 0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StepSizeError, match="not finite") as info:
            moments.propagate(p, 1e4)
    assert "dt" not in str(info.value)


def test_zero_time_returns_initial():
    states = moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), 0.0)
    assert len(states) == 1 and states[0].t == 0.0
