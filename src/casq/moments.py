"""Deterministic propagation of the closed linear moment system.

The first and second moments of the cavity mode form a closed linear ODE
system (X = U - V + epsilon):

    d<alpha>/dt        = -(S-R) <alpha> + X <alpha>*
    d<alpha^2>/dt      = -2(S-R) <alpha^2> + 2 X <alpha* alpha> + (epsilon - 2V)
    d<alpha* alpha>/dt = -2(S-R) <alpha* alpha> + X (<alpha*^2> + <alpha^2>) + 2R

The quadrature combinations <alpha_+-^2> = 2 Re<alpha^2> +- 2 <alpha* alpha>
obey their own decoupled equations

    d<alpha_+-^2>/dt = -2 lambda_-+ <alpha_+-^2> + 2 (epsilon - 2V +- 2R)

which are carried redundantly here and checked against the combination
of the primary channels at every record point.  The coefficients are
constant, so the system is propagated by its exact flow, one matrix
exponential per call: a cheap, independent transient oracle for the
closed-form module and the Monte Carlo engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotStableError, StepSizeError
from .params import SystemParams, _check_count, coefficients, threshold_tolerance

__all__ = ["MomentState", "propagate", "steady_from_linear_solve"]

# relative tolerance of the redundant quadrature channel (see _deviation)
_CHANNEL_TOL = 1e-7


@dataclass(frozen=True)
class MomentState:
    """Moments at one instant; var_flow_plus/minus are the redundant channel."""

    t: float
    mean_alpha: complex
    alpha_sq: complex
    n_cl: float
    var_flow_plus: float
    var_flow_minus: float


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring (C. Moler and C. Van Loan, SIAM Rev. 45, 3 (2003)).

    a / 2^s has 1-norm at most 1/2, where the Taylor series cut after its
    degree-16 term is exact to about 2e-20 relative; its sum is then
    squared s times.
    """
    s = max(math.frexp(np.abs(a).sum(axis=0).max())[1] + 1, 0)
    a = a / 2.0**s
    eye = np.eye(len(a))
    out = eye
    for k in range(16, 0, -1):
        out = eye + (a / k) @ out
    for _ in range(s):
        out = out @ out
    return out


def _step_map(c, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The exact step z(t + h) = P z(t) + q of the moment system on z = (Re y, Im y).

    y = (<alpha>, <alpha^2>, <alpha* alpha>, <alpha_+^2>, <alpha_-^2>)
    obeys dy/dt = A y + B y* + d with A, B and d real, so z obeys
    dz/dt = M z + (d, 0) with M = diag(A + B, A - B).  P and q are the
    top blocks of exp([[hM, h (d, 0)], [0, 0]]) (C. F. Van Loan, IEEE
    Trans. Autom. Control 23, 395 (1978)).
    """
    decay, x = c.decay, c.coupling
    a = np.diag([-decay, -2.0 * decay, -2.0 * decay, -2.0 * c.lambda_minus, -2.0 * c.lambda_plus])
    a[1, 2] = 2.0 * x
    a[2, 1] = x
    b = np.zeros((5, 5))
    b[0, 0] = x
    b[2, 1] = x
    gen = np.zeros((11, 11))
    gen[:5, :5], gen[5:10, 5:10] = a + b, a - b
    gen[1:5, 10] = [c.epsilon - 2.0 * c.v, 2.0 * c.r,
                    2.0 * c.diffusion_plus, 2.0 * c.diffusion_minus]
    flow = _expm(h * gen)
    return flow[:10, :10], flow[:10, 10]


def _deviation(y: np.ndarray) -> np.ndarray:
    """Per row of y, the redundant channel's distance from 2 Re<alpha^2> +- 2 <alpha* alpha>.

    Relative to 1 + |<alpha_+^2>| + |<alpha_-^2>|.
    """
    _, asq, ncl, vp, vm = y.T
    return np.maximum(abs(vp - (2.0 * asq.real + 2.0 * ncl)),
                      abs(vm - (2.0 * asq.real - 2.0 * ncl))) / (1.0 + abs(vp) + abs(vm))


def propagate(
    p: SystemParams,
    t_end: float,
    initial: MomentState | None = None,
    n_records: int = 200,
) -> list[MomentState]:
    """The moment system's exact flow from vacuum (or `initial`) over [0, t_end].

    Returns the states at t_k = k t_end / n_records, k = 0..n_records (the
    initial state alone when t_end is 0), each reached by one exact step
    (_step_map) from the one before.  An `initial` whose redundant
    quadrature channel differs from 2 Re<alpha^2> +- 2 <alpha* alpha> by
    more than 1e-7 relative is refused; a record where the flow is not
    finite, or where the channel deviates by as much, raises StepSizeError.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise InvalidParameterError(f"t_end must be finite and >= 0, got {t_end}")
    _check_count("n_records", n_records, 1)
    y0 = np.zeros((1, 5), dtype=complex)
    if initial is not None:
        y0[0] = [initial.mean_alpha, initial.alpha_sq, initial.n_cl,
                 initial.var_flow_plus, initial.var_flow_minus]
        if not (np.isfinite(y0).all() and _deviation(y0)[0] <= _CHANNEL_TOL):
            raise InvalidParameterError(
                f"initial state must be finite with var_flow_plus/minus = "
                f"2 Re alpha_sq +- 2 n_cl, got {initial}"
            )
    if t_end == 0:
        times, y = [0.0], y0
    else:
        step, shift = _step_map(coefficients(p), t_end / n_records)
        z = np.empty((n_records + 1, 10))
        z[0] = np.concatenate([y0[0].real, y0[0].imag])
        for k in range(n_records):
            z[k + 1] = step @ z[k] + shift
        times, y = np.linspace(0.0, t_end, n_records + 1).tolist(), z[:, :5] + 1j * z[:, 5:]

    bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
    if bad.size:
        raise StepSizeError(f"moment flow not finite by t = {times[bad[0]]:.6g}")
    bad = np.flatnonzero(_deviation(y) > _CHANNEL_TOL)
    if bad.size:
        raise StepSizeError(f"redundant quadrature channel deviates at t = {times[bad[0]]:.6g}")
    return [
        MomentState(t=t, mean_alpha=complex(mean), alpha_sq=complex(asq), n_cl=float(ncl.real),
                    var_flow_plus=float(vp.real), var_flow_minus=float(vm.real))
        for t, (mean, asq, ncl, vp, vm) in zip(times, y)
    ]


def steady_from_linear_solve(p: SystemParams) -> MomentState:
    """Stationary moments from the zeroed-derivative 3x3 linear system.

    Unknowns (Re<alpha^2>, Im<alpha^2>, <alpha* alpha>); the system is
    singular exactly at threshold, where no steady state exists.
    """
    # var_flow fields hold <alpha_+-^2> = 2 Re<alpha^2> +- 2 <alpha* alpha>
    c = coefficients(p)
    if c.lambda_minus <= threshold_tolerance(p):
        raise NotStableError(
            f"stationary system singular: lambda_minus = {c.lambda_minus:.6g}",
            lambda_minus=c.lambda_minus,
        )
    decay, x = c.decay, c.coupling
    mat = np.array(
        [
            [-2.0 * decay, 0.0, 2.0 * x],
            [0.0, -2.0 * decay, 0.0],
            [2.0 * x, 0.0, -2.0 * decay],
        ]
    )
    rhs = -np.array([c.epsilon - 2.0 * c.v, 0.0, 2.0 * c.r])
    re_asq, im_asq, ncl = np.linalg.solve(mat, rhs)
    return MomentState(
        t=np.inf,
        mean_alpha=0.0 + 0.0j,
        alpha_sq=complex(re_asq, im_asq),
        n_cl=float(ncl),
        var_flow_plus=float(2.0 * re_asq + 2.0 * ncl),
        var_flow_minus=float(2.0 * re_asq - 2.0 * ncl),
    )
