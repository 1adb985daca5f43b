"""Deterministic propagation of the closed linear moment system.

The first and second moments of the cavity mode form a closed linear ODE
system (X = U - V + epsilon):

    d<alpha>/dt        = -(S-R) <alpha> + X <alpha>*
    d<alpha^2>/dt      = -2(S-R) <alpha^2> + 2 X <alpha* alpha> + (epsilon - 2V)
    d<alpha* alpha>/dt = -2(S-R) <alpha* alpha> + X (<alpha*^2> + <alpha^2>) + 2R

The quadrature combinations <alpha_+-^2> = 2 Re<alpha^2> +- 2 <alpha* alpha>
obey their own decoupled equations

    d<alpha_+-^2>/dt = -2 lambda_-+ <alpha_+-^2> + 2 (epsilon - 2V +- 2R)

which are integrated redundantly here and checked against the combination
of the primary channels at every record point: a cheap, independent
transient oracle for the closed-form module and the Monte Carlo engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotStableError, StepSizeError
from .params import SystemParams, coefficients, threshold_tolerance

__all__ = ["MomentState", "propagate", "steady_from_linear_solve"]


@dataclass(frozen=True)
class MomentState:
    """Moments at one instant; var_flow_plus/minus are the redundant channel."""

    t: float
    mean_alpha: complex
    alpha_sq: complex
    n_cl: float
    var_flow_plus: float
    var_flow_minus: float


def _step_map(c, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """The RK4 step z <- P z + q of the moment system on z = (Re y, Im y).

    y = (<alpha>, <alpha^2>, <alpha* alpha>, <alpha_+^2>, <alpha_-^2>)
    obeys dy/dt = A y + B y* + d with A, B and d real, so z obeys
    dz/dt = M z + (d, 0) with M = diag(A + B, A - B).  For an affine
    system one classical RK4 step of size h = dt is exactly
    P = I + hM S and q = h S (d, 0), S = I + hM/2 + (hM)^2/6 + (hM)^3/24.
    """
    decay, x = c.decay, c.coupling
    a = np.diag([-decay, -2.0 * decay, -2.0 * decay, -2.0 * c.lambda_minus, -2.0 * c.lambda_plus])
    a[1, 2] = 2.0 * x
    a[2, 1] = x
    b = np.zeros((5, 5))
    b[0, 0] = x
    b[2, 1] = x
    hm = dt * np.block([[a + b, np.zeros((5, 5))], [np.zeros((5, 5)), a - b]])
    eye = np.eye(10)
    s = eye + hm @ (eye / 2.0 + hm @ (eye / 6.0 + hm / 24.0))
    drive = np.zeros(10)
    drive[1:5] = [c.epsilon - 2.0 * c.v, 2.0 * c.r, 2.0 * c.diffusion_plus, 2.0 * c.diffusion_minus]
    return eye + hm @ s, dt * (s @ drive)


def _integrate(y0: np.ndarray, c, t_end: float, dt: float, record_every: int):
    states = []
    n_steps = max(int(round(t_end / dt)), 1)
    dt = t_end / n_steps
    step_map, shift = _step_map(c, dt)
    z = np.concatenate([y0.real, y0.imag])
    t = 0.0
    for step in range(n_steps + 1):
        if step % record_every == 0 or step == n_steps:
            states.append((t, z[:5] + 1j * z[5:]))
        if step == n_steps:
            break
        z = step_map @ z + shift
        t = (step + 1) * dt
    return states


def propagate(
    p: SystemParams,
    t_end: float,
    dt: float | None = None,
    initial: MomentState | None = None,
    n_records: int = 200,
    check_accuracy: bool = True,
) -> list[MomentState]:
    """RK4 integration of the moment system from vacuum (or `initial`).

    The redundant quadrature channel is cross-checked against
    2 n_cl +- 2 Re<alpha^2> at every record point; `check_accuracy`
    additionally re-integrates the final point at dt/2 and raises
    StepSizeError if the two disagree beyond the RK4 error budget.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise InvalidParameterError(f"t_end must be finite and >= 0, got {t_end}")
    c = coefficients(p)
    if dt is None:
        dt = 0.01 / max(c.lambda_plus, abs(c.lambda_minus), 1.0)
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")

    if initial is None:
        y0 = np.zeros(5, dtype=complex)
    else:
        y0 = np.array(
            [
                initial.mean_alpha,
                initial.alpha_sq,
                initial.n_cl,
                initial.var_flow_plus,
                initial.var_flow_minus,
            ],
            dtype=complex,
        )

    if t_end == 0:
        raw = [(0.0, y0)]
    else:
        record_every = max(int(round(t_end / dt)) // max(n_records, 1), 1)
        raw = _integrate(y0, c, t_end, dt, record_every)

    states = []
    for t, y in raw:
        mean, asq, ncl, vp, vm = y
        if not np.all(np.isfinite([mean, asq, ncl, vp, vm])):
            raise StepSizeError(f"integration diverged by t = {t:.6g}; reduce dt")
        scale = 1.0 + abs(vp) + abs(vm)
        # redundant channel must reconstruct from the primary moments
        if abs(vp - (2.0 * asq.real + 2.0 * ncl)) > 1e-7 * scale or abs(
            vm - (2.0 * asq.real - 2.0 * ncl)
        ) > 1e-7 * scale:
            raise StepSizeError(
                f"redundant quadrature channel deviates at t = {t:.6g}; reduce dt"
            )
        states.append(
            MomentState(
                t=t,
                mean_alpha=complex(mean),
                alpha_sq=complex(asq),
                n_cl=float(ncl.real),
                var_flow_plus=float(vp.real),
                var_flow_minus=float(vm.real),
            )
        )

    if check_accuracy and t_end > 0:
        fine = _integrate(y0, c, t_end, dt / 2.0, 10**9)[-1][1]
        coarse = np.array(
            [
                states[-1].mean_alpha,
                states[-1].alpha_sq,
                states[-1].n_cl,
                states[-1].var_flow_plus,
                states[-1].var_flow_minus,
            ],
            dtype=complex,
        )
        err = np.abs(fine - coarse).max()
        if err > 1e-6 * (1.0 + np.abs(fine).max()):
            raise StepSizeError(
                f"step-halving estimates integration error {err:.3e}; reduce dt"
            )
    return states


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
