"""First-principles oracle: the full master equation on a truncated Fock space.

The generator contains the parametric two-photon terms, the gain/loss
relaxation sandwiches (strengths R and S) and the anomalous U/V terms:

    drho/dt = eps/2 (rho a^2 - a^2 rho + a+^2 rho - rho a+^2)
            + R (2 a+ rho a - a a+ rho - rho a a+)
            + S (2 a rho a+ - a+ a rho - rho a+ a)
            + U (a+ rho a+ + a rho a - rho a+^2 - a^2 rho)
            + V (a+ rho a+ + a rho a - rho a^2 - a+^2 rho)

with truncated ladder operators a|n> = sqrt(n)|n-1>; products such as
a a+ are taken between the truncated matrices, so the truncated model
conserves trace exactly.  The U/V part is not of Lindblad form, so
positivity is monitored (minimum eigenvalue on demand), never enforced.

One sparse operator on vec(rho) holds the generator for both solvers.
Time evolution uses classical RK4, one sparse matvec per stage, with
hermitization each step.  The steady state is found by integrating an
unconditionally stable implicit Euler scheme built on one sparse LU
factorization of the same operator until the residual
|L rho|_1 drops below 1e-10 |rho|_1; explicit stepping is hopeless here
because the generator's fast scales grow linearly with the truncation.

Truncation is guarded: population on the boundary level above 1e-6 aborts
with a suggestion to enlarge the basis.  Runs at (or within 0.1% of) the
threshold drive are refused, since the antisqueezed quadrature then grows
without bound and no truncation is adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    StepSizeError,
    TruncationError,
)
from .params import Coefficients, SystemParams, coefficients, threshold_epsilon

__all__ = [
    "DensityMatrix",
    "OracleObservables",
    "vacuum",
    "evolve",
    "steady_state",
    "observables",
    "husimi",
]

BOUNDARY_TOL = 1e-6
TRACE_TOL = 1e-4
THRESHOLD_MARGIN = 1e-3


@dataclass
class DensityMatrix:
    """Truncated-Fock density matrix with trace bookkeeping.

    data is dim x dim complex, Hermitian up to round-off; trace_err and
    boundary_pop record the integration diagnostics of whichever routine
    produced the state.
    """

    dim: int
    data: np.ndarray
    trace_err: float = 0.0
    boundary_pop: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.dim < 2:
            raise InvalidParameterError(f"dim must be >= 2, got {self.dim}")
        if self.data.shape != (self.dim, self.dim):
            raise InvalidParameterError(
                f"data shape {self.data.shape} does not match dim {self.dim}"
            )


@dataclass(frozen=True)
class OracleObservables:
    """Moments, variances and photon statistics read off one density matrix."""

    mean_a: complex
    mean_a_sq: complex
    mean_n: float
    var_plus: float
    var_minus: float
    pnd: np.ndarray
    trace_err: float
    min_eig: float | None = None


def vacuum(dim: int) -> DensityMatrix:
    data = np.zeros((dim, dim), dtype=complex)
    data[0, 0] = 1.0
    return DensityMatrix(dim=dim, data=data)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def _sparse_generator(dim: int, coeffs: Coefficients) -> sp.csc_matrix:
    """The master-equation generator as a sparse real operator on row-major vec(rho).

    a a+ is the product of truncated ladder matrices ((a a+)[dim-1, dim-1] =
    dim - 1, not dim), which makes tr(L rho) = 0 for every rho.
    """
    sq = np.sqrt(np.arange(1.0, dim))
    a = sp.diags(sq, 1, format="csr")
    adag = a.T.tocsr()
    eye = sp.identity(dim, format="csr")

    def left(x):
        return sp.kron(x, eye, format="csr")

    def right(x):
        return sp.kron(eye, x.T, format="csr")

    a2 = (a @ a).tocsr()
    adag2 = (adag @ adag).tocsr()
    gen = (0.5 * coeffs.epsilon) * (right(a2) - left(a2) + left(adag2) - right(adag2))
    gen += coeffs.r * (2.0 * left(adag) @ right(a) - left(a @ adag) - right(a @ adag))
    gen += coeffs.s * (2.0 * left(a) @ right(adag) - left(adag @ a) - right(adag @ a))
    gen += (coeffs.u + coeffs.v) * (left(adag) @ right(adag) + left(a) @ right(a))
    gen -= coeffs.u * (right(adag2) + left(a2))
    gen -= coeffs.v * (right(a2) + left(adag2))
    return gen.tocsc()


# ---------------------------------------------------------------------------
# time evolution and steady state
# ---------------------------------------------------------------------------

def _default_dt(p: SystemParams, coeffs: Coefficients, dim: int) -> float:
    # contract bound plus the RK4 stability limit; the crude scale
    # 2 dim (R+S+|U|+|V|+eps) underestimates the spectral radius by up to
    # ~2x (sandwich cross terms), hence the conservative numerator
    contract = 0.01 / max(coeffs.lambda_plus, p.kappa, p.a, 1.0)
    radius = 2.0 * dim * (
        coeffs.r + coeffs.s + abs(coeffs.u) + abs(coeffs.v) + coeffs.epsilon
    )
    return min(contract, 1.2 / radius)


def _checked_state(data: np.ndarray, boundary_tol: float | None) -> DensityMatrix:
    """Wrap a computed state; TruncationError if its boundary population exceeds boundary_tol."""
    dim = data.shape[0]
    boundary = float(abs(data[-1, -1]))
    if boundary_tol is not None and boundary > boundary_tol:
        raise TruncationError(
            f"boundary population {boundary:.3e} exceeds {boundary_tol:.1e}; "
            f"retry with dim >= {2 * dim}",
            boundary_pop=boundary,
            suggested_dim=2 * dim,
        )
    return DensityMatrix(
        dim=dim,
        data=data,
        trace_err=float(abs(np.trace(data.real) - 1.0)),
        boundary_pop=boundary,
    )


def evolve(
    rho0: DensityMatrix,
    p: SystemParams,
    t_end: float,
    dt: float | None = None,
    boundary_tol: float | None = BOUNDARY_TOL,
) -> DensityMatrix:
    """RK4 propagation of the master equation for a time t_end.

    Each RK4 stage is one sparse matvec with the generator on vec(rho);
    the state is hermitized after every step.  The truncated generator
    conserves trace exactly, so a trace drift above TRACE_TOL or any
    |rho_mn| > 1 can only come from an unstable step: StepSizeError.
    Population on the boundary level above boundary_tol raises
    TruncationError at the end; pass boundary_tol=None to disable that
    guard (diagnostics are still recorded).
    """
    if t_end < 0:
        raise InvalidParameterError(f"t_end must be >= 0, got {t_end}")
    c = coefficients(p)
    if dt is None:
        dt = _default_dt(p, c, rho0.dim)
    if dt <= 0:
        raise InvalidParameterError(f"dt must be > 0, got {dt}")

    gen = _sparse_generator(rho0.dim, c).tocsr().astype(complex)
    rho = rho0.data.astype(complex)
    n_steps = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    for step in range(n_steps):
        x = rho.reshape(-1)
        k1 = gen @ x
        k2 = gen @ (x + 0.5 * dt * k1)
        k3 = gen @ (x + 0.5 * dt * k2)
        k4 = gen @ (x + dt * k3)
        rho = (x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)).reshape(rho0.dim, rho0.dim)
        rho = 0.5 * (rho + rho.conj().T)

        trace_err = abs(rho.trace().real - 1.0)
        peak = np.abs(rho).max()
        if not (trace_err <= TRACE_TOL and peak <= 1.0):  # also trips on NaN
            raise StepSizeError(
                f"unstable step: trace drift {trace_err:.3e}, max |rho_mn| {peak:.3e} "
                f"at step {step + 1}; reduce dt ({dt:.3e})"
            )
    return _checked_state(rho, boundary_tol)


def steady_state(
    p: SystemParams,
    dim: int,
    tol: float = 1e-10,
    max_steps: int = 400,
    dt_factor: float = 10.0,
    boundary_tol: float | None = BOUNDARY_TOL,
) -> DensityMatrix:
    """Stationary density matrix by implicit integration to convergence.

    Backward-Euler steps of size dt_factor / lambda_minus (one sparse LU,
    reused) are applied to the vacuum until |L rho|_1 < tol |rho|_1.
    Every generator term shifts m - n by 0 or +-2 and the start is
    diagonal, so the whole computation lives in the even m - n sector;
    the solve is restricted to it (exact, and it halves the LU).
    Drives within 0.1% of threshold are refused: the state would be
    unbounded.  The truncation guard can be disabled with
    boundary_tol=None (for convergence studies); diagnostics remain in
    the returned DensityMatrix.
    """
    c = coefficients(p)
    eps_th = threshold_epsilon(p)
    if c.lambda_minus <= 0 or eps_th <= 0 or p.epsilon > (1.0 - THRESHOLD_MARGIN) * eps_th:
        raise NotStableError(
            f"steady state requires epsilon <= {1.0 - THRESHOLD_MARGIN:.4g} * threshold "
            f"(epsilon = {p.epsilon:.6g}, threshold = {eps_th:.6g}, "
            f"lambda_minus = {c.lambda_minus:.6g})",
            lambda_minus=c.lambda_minus,
        )

    gen = _sparse_generator(dim, c)
    levels = np.arange(dim)
    even = np.flatnonzero(((levels[:, None] - levels[None, :]) % 2 == 0).ravel())
    gen = gen[even][:, even].tocsc()
    diag_pos = np.searchsorted(even, levels * dim + levels)
    dt = dt_factor / c.lambda_minus
    system = (sp.identity(even.size, format="csc") - dt * gen).tocsc()
    lu = spla.splu(system)

    x = np.zeros(even.size)
    x[diag_pos[0]] = 1.0
    residual = math.inf
    stall = 0
    for _ in range(max_steps):
        x = lu.solve(x)
        x /= x[diag_pos].sum()
        new_residual = float(np.abs(gen @ x).sum())
        target = tol * float(np.abs(x).sum())
        if new_residual < target:
            residual = new_residual
            break
        stall = stall + 1 if new_residual > 0.99 * residual else 0
        residual = min(residual, new_residual)
        if stall >= 5:
            raise ConvergenceError(
                f"residual stalled at {residual:.3e} (target {target:.3e}) at dim {dim}",
                residual=residual,
            )
    else:
        raise ConvergenceError(
            f"no convergence in {max_steps} implicit steps (residual {residual:.3e})",
            residual=residual,
        )

    rho = np.zeros(dim * dim)
    rho[even] = x
    rho = rho.reshape(dim, dim)
    rho = 0.5 * (rho + rho.T)
    return _checked_state(rho.astype(complex), boundary_tol)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def observables(rho: DensityMatrix, compute_min_eig: bool = False) -> OracleObservables:
    """Moments and quadrature variances via traces against truncated operators."""
    data = rho.data
    n = rho.dim
    lev = np.arange(n)
    diag = np.real(np.diag(data))
    sq1 = np.sqrt(lev[1:].astype(float))
    mean_a = complex(np.sum(sq1 * np.diag(data, k=-1)))
    sq2 = np.sqrt((lev[:-2] + 1.0) * (lev[:-2] + 2.0))
    mean_a_sq = complex(np.sum(sq2 * np.diag(data, k=-2)))
    mean_n = float(lev @ diag)

    re_a, im_a = mean_a.real, mean_a.imag
    re_a2 = mean_a_sq.real
    var_plus = 1.0 + 2.0 * mean_n + 2.0 * re_a2 - (2.0 * re_a) ** 2
    var_minus = 1.0 + 2.0 * mean_n - 2.0 * re_a2 - (2.0 * im_a) ** 2

    min_eig = None
    if compute_min_eig:
        min_eig = float(np.linalg.eigvalsh(data).min())
    return OracleObservables(
        mean_a=mean_a,
        mean_a_sq=mean_a_sq,
        mean_n=mean_n,
        var_plus=var_plus,
        var_minus=var_minus,
        pnd=diag.copy(),
        trace_err=float(abs(data.trace().real - 1.0)),
        min_eig=min_eig,
    )


def husimi(rho: DensityMatrix, alpha: complex) -> float:
    """Husimi density <alpha|rho|alpha>/pi with truncated coherent coefficients.

    Requires |alpha|^2 well below the truncation for the coherent state to
    be representable.
    """
    n = rho.dim
    coeff = np.empty(n, dtype=complex)
    coeff[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, n):
        coeff[k] = coeff[k - 1] * alpha / math.sqrt(k)
    return float(np.real(coeff.conj() @ rho.data @ coeff) / math.pi)
