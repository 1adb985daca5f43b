"""Cross-engine agreement at one parameter point: the table `casq verify` prints.

Each row, (check, reference, value, bound, status), compares one quantity of
the moments, Fock or Monte Carlo engine with its closed form.
"""

from __future__ import annotations

import math

import numpy as np

from . import analytic, fock, moments, montecarlo
from .errors import InvalidParameterError
from .params import SystemParams, _check_count, coefficients

__all__ = ["MOMENTS_RTOL", "PND_N_MAX", "verify_point"]

MOMENTS_RTOL = 1e-8
PND_N_MAX = 64  # the P(n) row compares n = 0..PND_N_MAX


def _check_row(name, reference, value, bound, digits=None):
    """One row; its status is PASS when |value - reference| <= bound.

    With `digits` the value is then kept to that many significant digits,
    so digits below its round-off are neither printed nor written.
    """
    status = "PASS" if abs(value - reference) <= bound else "FAIL"
    if digits is not None:
        value = float(f"{value:.{digits}g}")
    return name, reference, value, bound, status


def verify_point(p: SystemParams, *, dim=None, n_traj, dt, t_end, seed, sigma, oracle_rtol,
                 pnd_atol):
    """Run all four engines at p and tabulate their agreement; returns (rows, ok).

    The Fock rows solve the steady state in the squeezed frame
    (fock.steady_state(frame="auto")), in dim levels or, with dim
    None, in as many as the frame's own thermal occupation asks for, and
    compare the lab P(n) for n = 0..PND_N_MAX, which the frame gives
    beyond its own levels.  The bounds, each finite and > 0: sigma Monte
    Carlo standard errors, oracle_rtol relative to the closed forms and
    pnd_atol on P(n).
    """
    if dim is not None:  # fock reads dim 0 as "size the frame"
        _check_count("dim", dim, 2)
    for name, bound in (("sigma", sigma), ("oracle_rtol", oracle_rtol), ("pnd_atol", pnd_atol)):
        if not (math.isfinite(bound) and bound > 0):
            raise InvalidParameterError(f"{name} must be finite and > 0, got {bound}")
    var = analytic.variance_steady(p)
    record = analytic.steady_record(p)
    s_plus, s_minus = analytic.steady_alpha_sq(coefficients(p))
    lin = moments.steady_from_linear_solve(p)
    obs = fock.observables(fock.steady_state(p, dim or 0, frame="auto"), n_max=PND_N_MAX)
    pnd = analytic.photon_distribution(record, PND_N_MAX).probs
    series = montecarlo.run(p, n_traj, t_end, dt, seed, sample_times=[t_end])
    rows = [
        _check_row("moments n_cl vs analytic", record.n_cl, lin.n_cl,
                   MOMENTS_RTOL * max(abs(record.n_cl), 1e-30)),
        _check_row("moments <a+^2> vs analytic", s_plus, lin.var_flow_plus,
                   MOMENTS_RTOL * abs(s_plus)),
        _check_row("moments <a-^2> vs analytic", s_minus, lin.var_flow_minus,
                   MOMENTS_RTOL * max(abs(s_minus), 1e-30)),
        _check_row("oracle mean_n vs analytic", record.n_cl, obs.mean_n,
                   oracle_rtol * max(abs(record.n_cl), 1e-12)),
        _check_row("oracle var_plus vs analytic", var.plus, obs.var_plus, oracle_rtol * var.plus),
        _check_row("oracle var_minus vs analytic", var.minus, obs.var_minus,
                   oracle_rtol * var.minus),
        # a difference of two distributions whose entries carry ~1e-15 of
        # round-off: 3 digits, as its bound is printed
        _check_row("oracle P(n) vs closed form (max |delta|)", 0.0,
                   float(np.abs(obs.pnd - pnd).max()), pnd_atol, digits=3),
        _check_row("mc <a+^2> vs analytic", s_plus, float(np.real(series.plus_sq[-1])),
                   sigma * float(series.plus_sq_se[-1])),
        _check_row("mc <a-^2> vs analytic", s_minus, float(np.real(series.minus_sq[-1])),
                   sigma * float(series.minus_sq_se[-1])),
        _check_row("mc n_cl vs analytic", record.n_cl, float(np.real(series.n_cl[-1])),
                   sigma * float(series.n_cl_se[-1])),
    ]
    return rows, all(row[4] == "PASS" for row in rows)
