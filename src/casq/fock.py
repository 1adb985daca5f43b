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

The generator is held once, as a quadratic form in (a, a+) whose terms
c X rho Y each have single-band factors X and Y.  It is real, it commutes
with transposition rho -> rho^T, and every term shifts m - n by 0 or +-2,
so the even and odd m - n sectors never mix.  Both solvers therefore work
on real folded blocks: the real part of a Hermitian rho is symmetric and
its imaginary part antisymmetric, each evolves on its own, and each is
held by its entries m <= n (m < n for the imaginary part) of one parity.
One builder assembles the generator on such a block directly, term by
term on its unknowns; no operator on the whole of vec(rho) is formed.
Time evolution uses classical RK4, one sparse matvec per stage, on the
blocks the initial state occupies (the real even block alone for a
vacuum start), so the state stays Hermitian by construction.  The steady
state is found by backward-Euler steps on one sparse LU factorization of
the real even block, repeated until the residual |L rho|_1 drops below
1e-10 |rho|_1; explicit stepping is hopeless here because the generator's
fast scales grow linearly with the truncation.  The step is far beyond
every relaxation time, so each step is one shifted inverse iteration
towards the null vector of L and two solves typically suffice.  That
block is about a quarter of vec(rho).  On the grid ((m + n)/2, (n - m)/2)
it is a 9-point stencil, so its unknowns are numbered in a
nested-dissection order, which keeps the LU fill low; the order depends
on dim alone and is computed once per dim.

Truncation is guarded: population on the boundary level above 1e-6 aborts
with a suggestion to enlarge the basis.  Runs at (or within 0.1% of) the
threshold drive are refused, since the antisqueezed quadrature then grows
without bound and no truncation is adequate.
"""

from __future__ import annotations

import functools
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
DISSECTION_LEAF = 32  # nested dissection stops at this many grid points


def _check_count(name: str, value, low: int) -> None:
    # bool is an int subclass, but True is not a count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidParameterError(f"{name} must be >= {low}, got {value}")


def _check_boundary_tol(boundary_tol: float | None) -> None:
    # None switches the guard off; NaN would do so silently
    if boundary_tol is not None and not (math.isfinite(boundary_tol) and boundary_tol >= 0):
        raise InvalidParameterError(
            f"boundary_tol must be None or finite and >= 0, got {boundary_tol}"
        )


@dataclass
class DensityMatrix:
    """Truncated-Fock density matrix with trace bookkeeping.

    data is dim x dim complex, Hermitian up to round-off; trace_err and
    boundary_pop record the integration diagnostics of whichever routine
    produced the state.  steady_state also records its solver counts:
    the implicit steps taken, the final residual |L rho|_1 and the
    non-zeros SuperLU stores for its L and U factors (the fill, which
    sets the solve's memory); other producers leave them at 0, None and 0.
    """

    dim: int
    data: np.ndarray
    trace_err: float = 0.0
    boundary_pop: float = 0.0
    iterations: int = 0
    residual: float | None = None
    lu_nnz: int = 0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        _check_count("dim", self.dim, 2)
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
    _check_count("dim", dim, 2)
    data = np.zeros((dim, dim), dtype=complex)
    data[0, 0] = 1.0
    return DensityMatrix(dim=dim, data=data)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def _terms(coeffs: Coefficients):
    """The generator as a quadratic form in X = (a, a+).

    L rho = sum over i, j of K_ij X_i rho X_j + M_ij X_i X_j rho
    + N_ij rho X_i X_j; returns K, M and N.  tr(L rho) = 0 is
    K^T + M + N = 0.
    """
    half = 0.5 * coeffs.epsilon
    r, s, u, v = coeffs.r, coeffs.s, coeffs.u, coeffs.v
    k = np.array([[u + v, 2.0 * s], [2.0 * r, u + v]])
    m = np.array([[-half - u, -r], [-s, half - v]])
    n = np.array([[half - v, -r], [-s, -half - u]])
    return k, m, n


def _ladder(dim: int, shift: int, rows: np.ndarray) -> np.ndarray:
    """Entries X[row, row + shift] of the truncated a (shift +1) or a+ (shift -1).

    A row or column outside the basis gives 0, so a product of these
    entries is an entry of the product of the truncated matrices: in
    particular (a a+)[dim-1, dim-1] = 0, which keeps tr(L rho) = 0 exact.
    """
    cols = rows + shift
    inside = (rows >= 0) & (rows < dim) & (cols >= 0) & (cols < dim)
    return np.sqrt(np.maximum(rows, cols) * inside)


def _block(dim: int, coeffs: Coefficients, m: np.ndarray, n: np.ndarray,
           sign: int) -> sp.csc_matrix:
    """The generator on one real folded block of rho.

    The unknowns are the entries (m, n), in the order given, of the real
    part of a Hermitian rho (sign +1: symmetric, m <= n) or of its
    imaginary part (sign -1: antisymmetric, m < n).  They must fill whole
    parity sectors of m - n, which the generator maps onto themselves.
    Each term c X rho Y reads (X rho Y)_mn = X[m, m+dx] rho[m+dx, n-dy]
    Y[n-dy, n] and is evaluated on the unknowns alone; rho[k, l] is the
    unknown of (min(k, l), max(k, l)), times sign when k > l.
    """
    index = np.full((dim, dim), -1, dtype=np.int32)
    index[m, n] = np.arange(m.size)
    k_mat, m_mat, n_mat = _terms(coeffs)
    rows, cols, vals = [], [], []
    for i, si in enumerate((1, -1)):
        for j, sj in enumerate((1, -1)):
            for dk, dl, value in (
                (si, -sj, k_mat[i, j] * _ladder(dim, si, m) * _ladder(dim, sj, n - sj)),
                (si + sj, 0, m_mat[i, j] * _ladder(dim, si, m) * _ladder(dim, sj, m + si)),
                (0, -si - sj,
                 n_mat[i, j] * _ladder(dim, si, n - si - sj) * _ladder(dim, sj, n - sj)),
            ):
                k, l = m + dk, n + dl
                if sign < 0:
                    value = np.where(k > l, -value, value) * (k != l)
                live = np.flatnonzero(value)
                k, l = k[live], l[live]
                rows.append(live)
                cols.append(index[np.minimum(k, l), np.maximum(k, l)])
                vals.append(value[live])
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m.size, m.size),
    )


def _unknowns(dim: int, parities, sign: int):
    """(m, n) of one real block's unknowns, in row-major order.

    The block is the real part (sign +1, m <= n) or the imaginary part
    (sign -1, m < n) of rho on the given parities of m - n.
    """
    m, n = np.divmod(np.arange(dim * dim), dim)
    keep = (m <= n if sign > 0 else m < n) & np.isin((n - m) % 2, parities)
    return m[keep], n[keep]


@functools.lru_cache(maxsize=8)
def _dissected_even_block(dim: int):
    """(m, n) of the real even block's unknowns in nested-dissection order.

    On the grid (i, j) = ((m + n)/2, (n - m)/2) every generator term moves
    i and j by at most 1, so one grid line separates the points on either
    side of it.  The point set is cut at the median of its longer axis;
    the two halves are numbered first (recursively), then the cut line,
    down to DISSECTION_LEAF points.  Each separator is then eliminated
    after everything it separates, as in A. George, SIAM J. Numer. Anal.
    10, 345 (1973).  The order depends on dim alone, so it is cached per
    dim and returned as read-only arrays; callers check dim first, since
    64.0 would find the entry of 64.
    """
    m, n = _unknowns(dim, [0], 1)
    order = []

    def dissect(points, i, j):
        if points.size <= DISSECTION_LEAF:
            order.append(points)
            return
        axis = i if i.max() - i.min() >= j.max() - j.min() else j
        cut = np.partition(axis, axis.size // 2)[axis.size // 2]
        for side in (axis < cut, axis > cut):
            dissect(points[side], i[side], j[side])
        order.append(points[axis == cut])

    dissect(np.arange(m.size), (m + n) // 2, (n - m) // 2)
    order = np.concatenate(order)
    m, n = m[order], n[order]
    m.flags.writeable = n.flags.writeable = False
    return m, n


def _unfold(dim: int, m: np.ndarray, n: np.ndarray, x: np.ndarray, sign: int) -> np.ndarray:
    """The dim x dim real matrix holding x at (m, n) and sign * x at (n, m)."""
    out = np.zeros((dim, dim))
    out[n, m] = sign * x
    out[m, n] = x
    return out


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


def _checked_state(data: np.ndarray, boundary_tol: float | None, **stats) -> DensityMatrix:
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
        **stats,
    )


def evolve(
    rho0: DensityMatrix,
    p: SystemParams,
    t_end: float,
    dt: float | None = None,
    boundary_tol: float | None = BOUNDARY_TOL,
) -> DensityMatrix:
    """RK4 propagation of the master equation for a time t_end.

    The state is held as real folded blocks: the real parts of rho_mn
    with m <= n and the imaginary parts with m < n, each split by the
    parity of m - n.  The generator maps each block onto itself, so
    only the blocks the Hermitian part of rho0 occupies are stepped (the
    real even block alone for a vacuum start), each RK4 stage is one
    sparse matvec on them, and the state is Hermitian by construction.
    A non-Hermitian rho0 evolves as its Hermitian part.  The truncated
    generator conserves trace exactly, so a trace drift above TRACE_TOL
    or any |rho_mn| > 1 can only come from an unstable step:
    StepSizeError.  Population on the boundary level above boundary_tol
    raises TruncationError at the end; pass boundary_tol=None to disable
    that guard (diagnostics are still recorded).
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise InvalidParameterError(f"t_end must be finite and >= 0, got {t_end}")
    _check_boundary_tol(boundary_tol)
    c = coefficients(p)
    dim = rho0.dim
    if dt is None:
        dt = _default_dt(p, c, dim)
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")

    herm = 0.5 * (rho0.data + rho0.data.conj().T)
    levels = np.arange(dim)
    parity = (levels[:, None] - levels[None, :]) % 2
    m_re, n_re = _unknowns(dim, np.unique(parity[herm.real != 0]), 1)
    m_im, n_im = _unknowns(dim, np.unique(parity[herm.imag != 0]), -1)
    gen = sp.block_diag(
        [_block(dim, c, m_re, n_re, 1), _block(dim, c, m_im, n_im, -1)], format="csr"
    )
    x = np.concatenate([herm.real[m_re, n_re], herm.imag[m_im, n_im]])
    diag = np.flatnonzero(m_re == n_re)
    # |rho_mn|^2 sums the squares of the unknowns that share (m, n)
    _, entry = np.unique(np.concatenate([m_re * dim + n_re, m_im * dim + n_im]),
                         return_inverse=True)
    n_steps = max(int(round(t_end / dt)), 1) if t_end > 0 else 0
    if n_steps:
        dt = t_end / n_steps
    for step in range(n_steps):
        k1 = gen @ x
        k2 = gen @ (x + 0.5 * dt * k1)
        k3 = gen @ (x + 0.5 * dt * k2)
        k4 = gen @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)

        trace_err = abs(x[diag].sum() - 1.0)
        peak = math.sqrt(np.bincount(entry, weights=x * x, minlength=1).max())
        if not (trace_err <= TRACE_TOL and peak <= 1.0):  # also trips on NaN
            raise StepSizeError(
                f"unstable step: trace drift {trace_err:.3e}, max |rho_mn| {peak:.3e} "
                f"at step {step + 1}; reduce dt ({dt:.3e})"
            )
    rho = np.empty((dim, dim), dtype=complex)
    rho.real = _unfold(dim, m_re, n_re, x[:m_re.size], 1)
    rho.imag = _unfold(dim, m_im, n_im, x[m_re.size:], -1)
    return _checked_state(rho, boundary_tol)


def steady_state(
    p: SystemParams,
    dim: int,
    tol: float = 1e-10,
    max_steps: int = 400,
    dt_factor: float = 1e6,
    boundary_tol: float | None = BOUNDARY_TOL,
) -> DensityMatrix:
    """Stationary density matrix by implicit integration to convergence.

    Backward-Euler steps of size dt_factor / lambda_minus (one sparse LU,
    reused) are applied to the vacuum until |L rho|_1 < tol |rho|_1.
    Each step damps a mode of decay rate mu by 1 / (1 + dt mu); the
    default step lies far beyond every relaxation time, so the loop is
    shifted inverse iteration towards the null vector of L (I. Ipsen,
    SIAM Rev. 39, 254 (1997)), which typically stops after two solves.
    The generator is real, commutes with transposition and never mixes
    even and odd m - n, and the vacuum is real, symmetric and diagonal,
    so every iterate is a real symmetric matrix on the even sector.  The
    solve runs on those unknowns alone, rho_mn with m <= n and m - n
    even (rho_mn and rho_nm share one unknown).  They are numbered in a
    nested-dissection order of their grid, computed once per dim, and
    the generator is assembled directly in that order, which the LU
    keeps (permc_spec NATURAL, with a diagonal-favouring pivot
    threshold); that keeps its fill low.  The residual keeps its
    whole-matrix meaning: off-diagonal unknowns count twice in both
    1-norms.  The returned state is exactly symmetric and records the
    step count, the final residual and the LU non-zeros.
    Drives within 0.1% of threshold are refused: the state would be
    unbounded.  So is a dt_factor whose step overflows the system.  The
    truncation guard can be disabled with boundary_tol=None (for
    convergence studies); diagnostics remain in the returned
    DensityMatrix.
    """
    _check_count("dim", dim, 2)
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
    _check_count("max_steps", max_steps, 1)
    if not (math.isfinite(dt_factor) and dt_factor > 0):
        raise InvalidParameterError(f"dt_factor must be finite and > 0, got {dt_factor}")
    _check_boundary_tol(boundary_tol)
    c = coefficients(p)
    eps_th = threshold_epsilon(p)
    if c.lambda_minus <= 0 or eps_th <= 0 or p.epsilon > (1.0 - THRESHOLD_MARGIN) * eps_th:
        raise NotStableError(
            f"steady state requires epsilon <= {1.0 - THRESHOLD_MARGIN:.4g} * threshold "
            f"(epsilon = {p.epsilon:.6g}, threshold = {eps_th:.6g}, "
            f"lambda_minus = {c.lambda_minus:.6g})",
            lambda_minus=c.lambda_minus,
        )

    m, n = _dissected_even_block(dim)
    gen = _block(dim, c, m, n, 1)
    weight = np.where(m == n, 1.0, 2.0)
    diag_pos = np.flatnonzero(m == n)
    dt = dt_factor / c.lambda_minus
    with np.errstate(over="ignore", invalid="ignore"):
        system = (sp.identity(m.size, format="csc") - dt * gen).tocsc()
    if not np.isfinite(system.data).all():
        raise InvalidParameterError(
            f"dt_factor {dt_factor:g} overflows the implicit step at dim {dim}")
    lu = spla.splu(system, permc_spec="NATURAL", diag_pivot_thresh=0.1)

    x = np.where((m == 0) & (n == 0), 1.0, 0.0)
    residual = math.inf
    stall = 0
    for iterations in range(1, max_steps + 1):
        x = lu.solve(x)
        x /= x[diag_pos].sum()
        new_residual = float(weight @ np.abs(gen @ x))
        target = tol * float(weight @ np.abs(x))
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

    rho = _unfold(dim, m, n, x, 1).astype(complex)
    return _checked_state(
        rho, boundary_tol,
        iterations=iterations, residual=residual, lu_nnz=lu.nnz,
    )


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
