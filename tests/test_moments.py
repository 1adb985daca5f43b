"""Moment-ODE propagation against closed-form limits and the linear solve."""

import math

import numpy as np
import pytest

from casq import analytic, moments
from casq.errors import InvalidParameterError, NotStableError, StepSizeError
from casq.params import SystemParams, coefficients

from conftest import stable_params


def rk4_reference(p, t_end, n_records=200):
    """The moment RK4 with its four right-hand sides built at every stage.

    Returns the (t, y) records of propagate at its default step, from
    vacuum, y = (<alpha>, <alpha^2>, <alpha* alpha>, <alpha_+^2>, <alpha_-^2>).
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

    dt = 0.01 / max(c.lambda_plus, abs(c.lambda_minus), 1.0)
    n_steps = max(int(round(t_end / dt)), 1)
    record_every = max(n_steps // n_records, 1)
    dt = t_end / n_steps
    y = np.zeros(5, dtype=complex)
    records = [(0.0, y)]
    for step in range(1, n_steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % record_every == 0 or step == n_steps:
            records.append((step * dt, y))
    return records


def test_vacuum_with_no_drive_stays_zero():
    states = moments.propagate(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0), 5.0)
    for s in states:
        assert s.mean_alpha == 0 and s.alpha_sq == 0 and s.n_cl == 0
        assert s.var_flow_plus == 0 and s.var_flow_minus == 0


def test_mean_alpha_identically_zero_from_vacuum(rng):
    for p in stable_params(rng, 5, lambda_ratio_max=8.0):
        states = moments.propagate(p, 3.0)
        assert all(s.mean_alpha == 0 for s in states)


def test_step_map_matches_rk4_reference(rng):
    for p in stable_params(rng, 4, lambda_ratio_max=8.0):
        t_end = 3.0 / coefficients(p).lambda_minus
        got = moments.propagate(p, t_end)
        want = rk4_reference(p, t_end)
        assert [s.t for s in got] == [t for t, _ in want]
        for s, (_, y) in zip(got, want):
            fields = [s.mean_alpha, s.alpha_sq, s.n_cl, s.var_flow_plus, s.var_flow_minus]
            np.testing.assert_allclose(fields, y, rtol=1e-12, atol=0)


@pytest.mark.parametrize("t_end, dt", [(math.nan, None), (math.inf, None),
                                       (1.0, math.nan), (1.0, math.inf)],
                         ids=["t-end-nan", "t-end-inf", "dt-nan", "dt-inf"])
def test_non_finite_time_rejected(t_end, dt):
    with pytest.raises(InvalidParameterError, match="finite"):
        moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), t_end, dt=dt)


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
    bogus = moments.MomentState(
        t=0.0, mean_alpha=0j, alpha_sq=0j, n_cl=0.0, var_flow_plus=1.0, var_flow_minus=0.0
    )
    with pytest.raises(StepSizeError):
        moments.propagate(p, 1.0, initial=bogus)


def test_oversized_step_detected():
    p = SystemParams(a=100, kappa=0.8, beta=0.1, epsilon=0.3)
    with pytest.raises(StepSizeError):
        moments.propagate(p, 10.0, dt=0.5)


def test_zero_time_returns_initial():
    states = moments.propagate(SystemParams(a=25, kappa=0.8, beta=0.1, epsilon=0.3), 0.0)
    assert len(states) == 1 and states[0].t == 0.0
