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
The generator on such a block is assembled directly, term by term on its
unknowns, in two steps; no operator on the whole of vec(rho) is formed.
The pattern depends on dim and the unknowns alone: the sparsity of the
summed block, and for each of the 12 terms' entries its slot in that
block and its ladder weight.  The values are one weighted bincount of
the term table's 12 coefficients over those slots, per call.
Time evolution uses classical RK4, one sparse matvec per stage, on the
blocks the initial state occupies (the real even block alone for a
vacuum start), so the state stays Hermitian by construction.  The steady
state is the null vector of L on the real even block, found by one sparse
LU solve with one row of L rho = 0 replaced by rho_00 = 1 (trace
conservation makes that row redundant) and accepted if the residual
|L rho|_1 is below 1e-10 |rho|_1; explicit stepping to it is hopeless
because the generator's fast scales grow linearly with the truncation.
That block is about a quarter of vec(rho).  On the grid ((m + n)/2, (n - m)/2)
it is a 9-point stencil, so its unknowns are numbered in a
nested-dissection order, which keeps the LU fill low.  The order and the
block's pattern depend on dim alone and are computed once per dim, so a
repeated solve pays only for its values and its LU.

Squeezed frame.  Near threshold the steady state is a squeezed thermal
state, which the number basis holds only with many levels.  In the frame
rho' = S(r)+ rho S(r), S(r) = exp(r (a+^2 - a^2) / 2), it is thermal and a
few dozen levels hold it.  The frame is the substitution a = mu b + nu b+
(mu = cosh r, nu = sinh r) in the term table, K -> T^T K T and the same
for M and N with T = [[mu, nu], [nu, mu]]; trace conservation, realness,
transposition symmetry and m - n parity all survive it, so the block
builder and both solvers run unchanged on the frame's number basis.
steady_state(frame="auto") takes r from the moments at which the term
table is stationary: for O = a^2, a+^2 and a+a the adjoint generator
gives d<O>/dt as a constant plus a combination of <a^2>, <a+^2> and
<a+a>, so three linear equations fix those moments, and with them
r = artanh(2 <a^2> / (2 <a+a> + 1)) / 2 and the frame's thermal
occupation n_th.  The generator is quadratic, so these are the moments
of its steady state: the solve's own moments give the same r back, up to
the truncation.  Unless given, the dim is sized from n_th: the tail
(n_th / (n_th + 1))^dim of a thermal state falls below FRAME_TAIL.
Either way it is at most FRAME_DIM_MAX, checked before anything is
built.  One solve follows, and its boundary population is guarded as a
lab solve's is.  The returned DensityMatrix holds rho' in the frame's
number basis and records r as frame_r; observables maps its moments back
to the lab frame, and its lab P(n) = <psi_n|rho'|psi_n>, for any n, with
psi_n = S+|n>, the squeezed number states of M. S. Kim,
F. A. M. de Oliveira and P. L. Knight, Phys. Rev. A 40, 2494 (1989) (see
also P. Marian and T. A. Marian, Phys. Rev. A 47, 4474 (1993)).  Their
amplitudes come from the ladder relation (mu b + nu b+) psi_n =
sqrt(n) psi_{n-1}, run upward in the frame level k < dim from the
squeezed-vacuum amplitudes psi_n[0] = <n|S|0>; that direction damps by
nu / mu per step, where the same relation run upward in n overflows.  The
oracle reads only its own term table and moments to pick and size the
frame, so it stays independent of the closed forms.

Truncation is guarded: population on the boundary level above 1e-6 aborts
with a suggestion to enlarge the basis.  Runs at (or within 0.1% of) the
threshold drive are refused, since the antisqueezed quadrature then grows
without bound and no truncation is adequate.

SciPy is imported inside the functions that build or solve a generator,
so `import casq` and the commands that never touch the oracle do not pay
the import time of `scipy.sparse`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    StepSizeError,
    TruncationError,
)
from .params import Coefficients, SystemParams, _check_count, coefficients, threshold_epsilon

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
# A sized dim holds a thermal tail below FRAME_TAIL in at least FRAME_FLOOR
# levels; a frame of more than FRAME_DIM_MAX levels, sized or given, is
# refused before it is built.
FRAME_TAIL = 1e-13
FRAME_FLOOR = 16
FRAME_DIM_MAX = 1024


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
    the residual |L rho|_1 and the non-zeros SuperLU stores for its L and
    U factors (the fill, which sets the solve's memory); other producers
    leave them at None and 0.
    A state in the squeezed frame r (see the module docstring) holds
    rho' = S(r)+ rho S(r) in data, in the frame's number basis, with r in
    frame_r; a lab-frame state has frame_r 0.
    """

    dim: int
    data: np.ndarray
    trace_err: float = 0.0
    boundary_pop: float = 0.0
    residual: float | None = None
    lu_nnz: int = 0
    frame_r: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        _check_count("dim", self.dim, 2)
        if not math.isfinite(self.frame_r):
            raise InvalidParameterError(f"frame_r must be finite, got {self.frame_r}")
        if self.data.shape != (self.dim, self.dim):
            raise InvalidParameterError(
                f"data shape {self.data.shape} does not match dim {self.dim}"
            )
        if not np.isfinite(self.data).all():
            raise InvalidParameterError("data must be finite, got NaN or infinite entries")


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

def _terms(coeffs: Coefficients, frame_r: float = 0.0):
    """The generator as a quadratic form in X = (a, a+).

    L rho = sum over i, j of K_ij X_i rho X_j + M_ij X_i X_j rho
    + N_ij rho X_i X_j; returns K, M and N.  tr(L rho) = 0 is
    K^T + M + N = 0.  With frame_r = r the form is in Y = (b, b+) of the
    squeezed frame, X = T Y: T^T K T, T^T M T and T^T N T with
    T = [[cosh r, sinh r], [sinh r, cosh r]].
    """
    half = 0.5 * coeffs.epsilon
    r, s, u, v = coeffs.r, coeffs.s, coeffs.u, coeffs.v
    k = np.array([[u + v, 2.0 * s], [2.0 * r, u + v]])
    m = np.array([[-half - u, -r], [-s, half - v]])
    n = np.array([[half - v, -r], [-s, -half - u]])
    if frame_r:
        mu, nu = math.cosh(frame_r), math.sinh(frame_r)
        t = np.array([[mu, nu], [nu, mu]])
        k, m, n = (t.T @ x @ t for x in (k, m, n))
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


class _Pattern(NamedTuple):
    """Where the generator's terms land in one real folded block, whatever the coefficients.

    indices and indptr are the CSC structure of the summed block (int32,
    rows sorted in each column).  Every live term entry, one whose ladder
    weight is non-zero, has its position in the CSC data (slot) and that
    weight; the entries come term by term, in the order of _block_values'
    coefficients, sizes[t] of them for term t.
    """

    indices: np.ndarray
    indptr: np.ndarray
    slot: np.ndarray
    weight: np.ndarray
    sizes: np.ndarray


def _block_pattern(dim: int, m: np.ndarray, n: np.ndarray, sign: int) -> _Pattern:
    """The pattern of the generator on one real folded block of rho.

    The unknowns are the entries (m, n), in the order given, of the real
    part of a Hermitian rho (sign +1: symmetric, m <= n) or of its
    imaginary part (sign -1: antisymmetric, m < n).  They must fill whole
    parity sectors of m - n, which the generator maps onto themselves.
    Each term c X rho Y reads (X rho Y)_mn = X[m, m+dx] rho[m+dx, n-dy]
    Y[n-dy, n] and is evaluated on the unknowns alone; rho[k, l] is the
    unknown of (min(k, l), max(k, l)), times sign when k > l.  Each of the
    12 terms gives a row at most one entry, and terms that land on one
    column are summed into one slot.
    """
    import scipy.sparse as sp

    size = m.size
    # the levels a term reads run from -2 to dim + 1: tables padded by 2
    index = np.full((dim + 4, dim + 4), -1, dtype=np.int32)
    index[m + 2, n + 2] = np.arange(size)
    ladder = {s: _ladder(dim, s, np.arange(-2, dim + 2)) for s in (1, -1)}
    m, n = m + 2, n + 2
    cols = np.empty((12, size), dtype=np.int32)
    weights = np.empty((12, size))
    term = 0
    for si in (1, -1):
        for sj in (1, -1):
            for dk, dl, weight in (
                (si, -sj, ladder[si][m] * ladder[sj][n - sj]),
                (si + sj, 0, ladder[si][m] * ladder[sj][m + si]),
                (0, -si - sj, ladder[si][n - si - sj] * ladder[sj][n - sj]),
            ):
                k, l = m + dk, n + dl
                if sign < 0:
                    weight = np.where(k > l, -weight, weight) * (k != l)
                cols[term] = index[np.minimum(k, l), np.maximum(k, l)]
                weights[term] = weight
                term += 1
    live = weights != 0
    # each live entry's place in the term-by-term list, carried through
    # SciPy's CSR -> CSC transposition of the entries taken row by row: it
    # buckets them by column, rows ascending, so the entries of one row
    # that land on one column come out adjacent and share a slot
    rank = np.empty((12, size), dtype=np.int32)
    rank[live] = np.arange(np.count_nonzero(live), dtype=np.int32)
    raw_cols = cols.T[live.T]
    if raw_cols.size and raw_cols.min() < 0:
        raise ValueError("the unknowns must fill whole parity sectors of m - n")
    raw_ptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(live, axis=0), out=raw_ptr[1:])
    raw = sp.csr_matrix((rank.T[live.T], raw_cols, raw_ptr), shape=(size, size)).tocsc()
    rows, starts = raw.indices, raw.indptr
    # a new row or a new column opens a slot; the spare last flag takes starts[-1]
    first = np.ones(rows.size + 1, dtype=bool)
    first[1:-1] = rows[1:] != rows[:-1]
    first[starts] = True
    count = np.zeros(rows.size + 1, dtype=np.int32)
    np.cumsum(first[:-1], out=count[1:])
    slot = np.empty(rows.size, dtype=np.int32)
    slot[raw.data] = count[1:] - 1
    return _Pattern(
        indices=rows[first[:-1]].astype(np.int32, copy=False),
        indptr=count[starts],
        slot=slot,
        weight=weights[live],
        sizes=np.count_nonzero(live, axis=1),
    )


def _block_values(pattern: _Pattern, coeffs: Coefficients, frame_r: float = 0.0) -> np.ndarray:
    """The CSC data of the generator on a block of the given pattern (rho' in the frame frame_r).

    Entries whose terms cancel, or whose coefficient is 0, stay in the
    pattern as explicit zeros.
    """
    coef = np.stack(_terms(coeffs, frame_r), axis=-1).ravel()  # K, M, N for each (i, j)
    return np.bincount(pattern.slot, weights=np.repeat(coef, pattern.sizes) * pattern.weight,
                       minlength=pattern.indices.size)


def _block(dim: int, coeffs: Coefficients, m: np.ndarray, n: np.ndarray, sign: int,
           frame_r: float = 0.0):
    """The generator on one real folded block of rho (of rho' in the frame frame_r).

    The block's pattern (_block_pattern) with its values (_block_values),
    built afresh; see _block_pattern for the unknowns m, n and sign.
    """
    import scipy.sparse as sp

    pattern = _block_pattern(dim, m, n, sign)
    return sp.csc_matrix((_block_values(pattern, coeffs, frame_r), pattern.indices,
                          pattern.indptr), shape=(m.size, m.size))


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


@functools.lru_cache(maxsize=8)
def _even_pattern(dim: int):
    """The pattern of the real even block in nested-dissection order, and its rho_00 row.

    Returns (pattern, row, diag): row holds the positions in the CSC data
    of the entries in the row of the rho_00 unknown, diag the position of
    its diagonal entry.  Cached per dim beside the order itself, as
    read-only arrays, so a steady state at a dim already solved at pays
    only for its values and its LU.
    """
    m, n = _dissected_even_block(dim)
    # copied once the build's temporaries are freed, so that the cached arrays
    # fill low holes of the (glibc) heap instead of splitting the free space
    # that the LU's allocations reuse; uncopied, they raised the peak RSS of
    # the oracle benchmark's first round (dims 256 and 512) by 12-20 MB
    pattern = _Pattern(*(arr.copy() for arr in _block_pattern(dim, m, n, 1)))
    pin = int(np.flatnonzero((m == 0) & (n == 0))[0])
    row = np.flatnonzero(pattern.indices == pin)
    diag = int(row[np.searchsorted(row, pattern.indptr[pin])])
    for arr in (*pattern, row):
        arr.flags.writeable = False
    return pattern, row, diag


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


def _check_lab(rho: DensityMatrix, caller: str) -> None:
    """InvalidParameterError unless rho's data is the lab-frame matrix."""
    if rho.frame_r:
        raise InvalidParameterError(
            f"{caller} reads a lab-frame density matrix; this state is held in the "
            f"squeezed frame r = {rho.frame_r:.6g}"
        )


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
    import scipy.sparse as sp

    if not (math.isfinite(t_end) and t_end >= 0):
        raise InvalidParameterError(f"t_end must be finite and >= 0, got {t_end}")
    _check_boundary_tol(boundary_tol)
    _check_lab(rho0, "evolve")
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


def _even_steady_state(dim, c, frame_r, tol):
    """The steady rho (rho' in the frame frame_r) on the real even block, and its solver counts."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    m, n = _dissected_even_block(dim)
    pattern, row, diag = _even_pattern(dim)
    data = _block_values(pattern, c, frame_r)
    shape = (m.size, m.size)
    # the row of rho_00 becomes rho_00 = 1, scaled to the largest entry of L
    # so that its pivot stays on the diagonal, which keeps the dissection's fill;
    # it is written into data itself and undone after the factorization, so
    # no second copy of the block sits beside the factors
    kept = data[row]
    scale = np.abs(data).max()
    data[row] = 0.0
    data[diag] = scale
    lu = spla.splu(sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=shape),
                   permc_spec="NATURAL", diag_pivot_thresh=0.1)
    data[row] = kept
    x = lu.solve(((m == 0) & (n == 0)).astype(float))
    x /= x[m == n].sum()
    gen = sp.csc_matrix((data, pattern.indices, pattern.indptr), shape=shape)
    weight = np.where(m == n, 1.0, 2.0)
    residual = float(weight @ np.abs(gen @ x))
    target = tol * float(weight @ np.abs(x))
    if not residual < target:  # also trips on NaN
        raise ConvergenceError(
            f"residual {residual:.3e} misses the target {target:.3e} at dim {dim}",
            residual=residual,
        )
    rho = _unfold(dim, m, n, x, 1).astype(complex)
    return rho, {"residual": residual, "lu_nnz": lu.nnz}


def _stationary_moments(coeffs: Coefficients):
    """<a^2> and <a+a> at which the lab-frame term table is stationary.

    d<O>/dt = <L+ O> with L+ O = sum over i, j of K_ij X_j O X_i
    + M_ij O X_i X_j + N_ij X_i X_j O.  The generator is quadratic and
    conserves trace, so for O = a^2, a+^2 and a+a, L+ O = c0 + c1 a^2
    + c2 a+^2 + c3 a+a exactly.  The c are read off L+ O built on 8
    truncated levels, at entries whose products never reach the cut:
    c0 = <0|L+ O|0>, c1 = <0|L+ O|2>/sqrt 2, c2 = <2|L+ O|0>/sqrt 2 and
    c3 = <1|L+ O|1> - c0.  Stationarity is then three linear equations in
    <a^2>, <a+^2> and <a+a>.
    """
    k_mat, m_mat, n_mat = _terms(coeffs)
    a = np.diag(np.sqrt(np.arange(1.0, 8.0)), 1)
    x = (a, a.T)
    rows = []
    for op in (a @ a, a.T @ a.T, a.T @ a):
        adj = sum(k_mat[i, j] * x[j] @ op @ x[i] + m_mat[i, j] * op @ x[i] @ x[j]
                  + n_mat[i, j] * x[i] @ x[j] @ op for i in range(2) for j in range(2))
        rows.append([adj[0, 0], adj[0, 2] / math.sqrt(2.0), adj[2, 0] / math.sqrt(2.0),
                     adj[1, 1] - adj[0, 0]])
    rows = np.array(rows)
    mean_a_sq, _, mean_n = np.linalg.solve(rows[:, 1:], -rows[:, 0])
    return float(mean_a_sq), float(mean_n)


def _frame_r(mean_a_sq: float, mean_n: float) -> float:
    """r = artanh(2 <a^2> / (2 <a+a> + 1)) / 2; ConvergenceError if no real r fits."""
    ratio = 2.0 * mean_a_sq / (2.0 * mean_n + 1.0)
    if not abs(ratio) < 1.0:  # also trips on NaN
        raise ConvergenceError(
            f"the term table's stationary moments give 2<a^2>/(2<a+a>+1) = {ratio:.6g}, "
            f"outside (-1, 1); no squeezed frame fits them",
        )
    return 0.5 * math.atanh(ratio)


def _frame_dim(n_th: float) -> int:
    """Levels that hold a thermal state of occupation n_th to a tail below FRAME_TAIL.

    The population above level d of a thermal state is (n_th / (n_th + 1))^d;
    at least FRAME_FLOOR levels, and TruncationError above FRAME_DIM_MAX.
    """
    if not n_th > 0:
        return FRAME_FLOOR
    levels = max(FRAME_FLOOR, math.ceil(-math.log(FRAME_TAIL) / math.log1p(1.0 / n_th)))
    if levels > FRAME_DIM_MAX:
        raise TruncationError(
            f"the squeezed frame holds {n_th:.4g} thermal quanta and needs {levels} levels, "
            f"more than {FRAME_DIM_MAX}; pass dim to solve in fewer",
            suggested_dim=levels,
        )
    return levels


def steady_state(
    p: SystemParams,
    dim: int = 0,
    tol: float = 1e-10,
    boundary_tol: float | None = BOUNDARY_TOL,
    frame: str = "lab",
) -> DensityMatrix:
    """Stationary density matrix: the null vector of L by one sparse LU solve.

    L rho = 0 fixes rho up to a factor, and trace conservation makes one
    of its diagonal rows redundant, so that row (of rho_00) is replaced by
    rho_00 = 1; the system is factored and solved once, the trace is
    normalised, and the state is accepted if |L rho|_1 < tol |rho|_1,
    else ConvergenceError.  The generator is real, commutes with
    transposition and never mixes even and odd m - n, and the right-hand
    side is real, symmetric and diagonal, so the solution is a real
    symmetric matrix on the even sector.  The solve runs on those
    unknowns alone, rho_mn with m <= n and m - n even (rho_mn and rho_nm
    share one unknown).  They are numbered in a nested-dissection order
    of their grid, and the generator is assembled directly in that order,
    which the LU keeps (permc_spec NATURAL, with a diagonal-favouring
    pivot threshold); that keeps its fill low.  The order and the
    generator's sparsity pattern are computed once per dim and cached;
    each call computes only the values on that pattern, pins the row of
    rho_00 in them for the factorization and factors over the cached
    structure.  The residual keeps its whole-matrix meaning: off-diagonal
    unknowns count twice in both 1-norms.  The returned state is exactly
    symmetric and records the residual and the LU non-zeros.

    frame selects the basis: "lab" (the default) solves in dim levels of
    the number basis of a; "auto" solves in the squeezed frame of the
    module docstring, at the r of the term table's stationary moments
    (_stationary_moments), in dim levels or, with dim=0 (the default),
    in as many as the frame's occupation asks for (_frame_dim).  A frame
    of more than FRAME_DIM_MAX levels is refused before it is built (a
    given dim with InvalidParameterError, a sized one with
    TruncationError), and moments that fix no real r raise
    ConvergenceError.  The returned state holds rho' and records
    frame_r.  Any other frame, or dim=0 in the lab frame, is an
    InvalidParameterError.

    Drives within 0.1% of threshold are refused: the state would be
    unbounded.  The truncation guard, the same for both bases, can be
    disabled with boundary_tol=None (for convergence studies); diagnostics
    remain in the returned DensityMatrix.
    """
    if frame not in ("lab", "auto"):
        raise InvalidParameterError(f"frame must be 'lab' or 'auto', got {frame!r}")
    _check_count("dim", dim, 2 if dim or frame == "lab" else 0)  # 0: the frame sizes it
    if frame == "auto" and dim > FRAME_DIM_MAX:
        raise InvalidParameterError(
            f"dim must be <= FRAME_DIM_MAX = {FRAME_DIM_MAX} in the squeezed frame, got {dim}")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be finite and > 0, got {tol}")
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

    frame_r = 0.0
    if frame == "auto":
        mean_a_sq, mean_n = _stationary_moments(c)
        frame_r = _frame_r(mean_a_sq, mean_n)
        # the frame's occupation: the symplectic invariant of those moments
        dim = dim or _frame_dim(math.sqrt((mean_n + 0.5) ** 2 - mean_a_sq ** 2) - 0.5)
    rho, stats = _even_steady_state(dim, c, frame_r, tol)
    return _checked_state(rho, boundary_tol, frame_r=frame_r, **stats)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def _frame_moments(data: np.ndarray):
    """<b>, <b^2> and <b+b> of data in its own number basis, via truncated operators."""
    lev = np.arange(data.shape[0])
    sq1 = np.sqrt(lev[1:].astype(float))
    mean_b = complex(np.sum(sq1 * np.diag(data, k=-1)))
    sq2 = np.sqrt((lev[:-2] + 1.0) * (lev[:-2] + 2.0))
    mean_b_sq = complex(np.sum(sq2 * np.diag(data, k=-2)))
    mean_nb = float(lev @ np.real(np.diag(data)))
    return mean_b, mean_b_sq, mean_nb


def _lab_moments(frame_r: float, mean_b: complex, mean_b_sq: complex, mean_nb: float):
    """<a>, <a^2> and <a+a> from the moments of b in the frame frame_r (a = mu b + nu b+)."""
    mu, nu = math.cosh(frame_r), math.sinh(frame_r)
    mean_a = mu * mean_b + nu * mean_b.conjugate()
    mean_a_sq = (mu * mu * mean_b_sq + nu * nu * mean_b_sq.conjugate()
                 + mu * nu * (2.0 * mean_nb + 1.0))
    mean_n = mu * mu * mean_nb + nu * nu * (mean_nb + 1.0) + 2.0 * mu * nu * mean_b_sq.real
    return mean_a, mean_a_sq, mean_n


def _lab_pnd(data: np.ndarray, frame_r: float, n_max: int) -> np.ndarray:
    """Lab P(n) = <psi_n|rho'|psi_n>, n = 0..n_max, of the frame state rho' = data.

    psi_n = S(r)+|n> has amplitudes psi[n, k] = <n|S(r)|k>, needed for the
    frame levels k < dim only, whatever n.  Column 0 is the squeezed
    vacuum, psi[n, 0] = d_n with d_0 = 1/sqrt(mu) and d_{n+1} = (nu/mu)
    sqrt(n/(n+1)) d_{n-1}; (mu b + nu b+) psi_n = sqrt(n) psi_{n-1} then
    gives column k + 1 from columns k and k - 1 for every n at once.  psi
    is real, so P(n) = psi Re(rho') psi^T: the antisymmetric Im(rho')
    drops out of every diagonal entry.
    """
    dim = data.shape[0]
    mu, nu = math.cosh(frame_r), math.sinh(frame_r)
    root = np.sqrt(np.arange(max(n_max + 1, dim), dtype=float))
    psi = np.zeros((n_max + 1, dim))
    odd = np.arange(1, n_max, 2)
    psi[0::2, 0] = np.cumprod(np.concatenate(([1.0 / math.sqrt(mu)],
                                              (nu / mu) * np.sqrt(odd / (odd + 1.0)))))
    for k in range(dim - 1):
        psi[1:, k + 1] = root[1:n_max + 1] * psi[:-1, k]
        if k:
            psi[:, k + 1] -= nu * root[k] * psi[:, k - 1]
        psi[:, k + 1] /= mu * root[k + 1]
    return np.sum((psi @ data.real) * psi, axis=1)


def observables(rho: DensityMatrix, compute_min_eig: bool = False,
                n_max: int | None = None) -> OracleObservables:
    """Moments and quadrature variances via traces against truncated operators.

    pnd holds the lab P(n) of the truncated state for n = 0..n_max
    (default dim - 1).  For a state in a squeezed frame (frame_r != 0) the
    moments are mapped back to the lab frame, and P(n) is nonzero beyond
    the frame's dim levels; a number-basis state has P(n) = 0 for n >= dim.
    """
    data = rho.data
    if n_max is None:
        n_max = rho.dim - 1
    _check_count("n_max", n_max, 0)
    mean_a, mean_a_sq, mean_n = _frame_moments(data)
    if rho.frame_r:
        mean_a, mean_a_sq, mean_n = _lab_moments(rho.frame_r, mean_a, mean_a_sq, mean_n)
        pnd = _lab_pnd(data, rho.frame_r, n_max)
    else:
        pnd = np.zeros(n_max + 1)
        head = min(n_max + 1, rho.dim)
        pnd[:head] = np.real(np.diag(data))[:head]

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
        pnd=pnd,
        trace_err=float(abs(data.trace().real - 1.0)),
        min_eig=min_eig,
    )


def husimi(rho: DensityMatrix, alpha: complex) -> float:
    """Husimi density <alpha|rho|alpha>/pi with truncated coherent coefficients.

    Requires |alpha|^2 well below the truncation for the coherent state to
    be representable, and a lab-frame state.
    """
    _check_lab(rho, "husimi")
    if not np.isfinite(alpha):
        raise InvalidParameterError(f"alpha must be finite, got {alpha}")
    n = rho.dim
    coeff = np.empty(n, dtype=complex)
    coeff[0] = math.exp(-0.5 * abs(alpha) ** 2)
    for k in range(1, n):
        coeff[k] = coeff[k - 1] * alpha / math.sqrt(k)
    return float(np.real(coeff.conj() @ rho.data @ coeff) / math.pi)
