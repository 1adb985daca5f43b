"""Closed-form results: quadrature variances, squeezing spectra, transients,
Gaussian Q-function coefficients and the photon-number distribution.

Everything here follows from the linear quadrature dynamics

    d<alpha_+-^2>/dt = -2 lambda_-+ <alpha_+-^2> + 2 (epsilon - 2V +- 2R)

started from vacuum, so the cavity state is a zero-mean Gaussian at all
times.  The second moments <alpha^2> and <alpha* alpha> determine the
characteristic-function coefficients a = 1 + <alpha* alpha>, b = <alpha^2>
and hence the Q function

    Q(alpha) = sqrt(c^2 - d^2)/pi * exp(-c |alpha|^2 + d Re alpha^2),
    c = a / (a^2 - b^2),   d = b / (a^2 - b^2),

from which the photon-number distribution has an exact finite-sum form.
<alpha^2> is real throughout (real couplings, vacuum start), so b and d
are treated as real numbers everywhere.

Vacuum convention: quadrature variances equal 1 in vacuum,
Delta a_+-^2 = 1 +- <alpha_+-^2>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NotStableError, QFunctionUndefinedError
from .params import Coefficients, SystemParams, _check_count, coefficient_grid, coefficients, threshold_tolerance

__all__ = [
    "QuadratureVariances",
    "GaussianRecord",
    "SpectrumCurve",
    "PhotonDistribution",
    "threshold_minus_curve",
    "no_crystal_minus_curve",
    "spectrum_minus_curve",
    "mean_photon_curve",
    "steady_alpha_sq",
    "variance_steady",
    "variance_threshold",
    "variance_no_crystal",
    "minimize_minus_variance",
    "spectrum",
    "transient_moments",
    "steady_record",
    "q_function",
    "photon_distribution",
]


@dataclass(frozen=True)
class QuadratureVariances:
    """Variances of a_+ = a^dag + a and a_- = i(a^dag - a); vacuum = 1.

    `plus` is math.inf exactly at threshold (the antisqueezed quadrature
    stops relaxing); `minus` is strictly positive everywhere.
    """

    plus: float
    minus: float


@dataclass(frozen=True)
class GaussianRecord:
    """Second moments and Q-function coefficients of the cavity Gaussian at time t.

    alpha_sq = <alpha^2> (real), n_cl = <alpha* alpha>,
    a = 1 + n_cl and b = alpha_sq are the characteristic-function
    coefficients, c and d the Q-function coefficients.
    """

    t: float
    alpha_sq: float
    n_cl: float
    a: float
    b: float
    c: float
    d: float


@dataclass(frozen=True)
class SpectrumCurve:
    """Output squeezing spectra on a frequency grid; vacuum level = 1."""

    omega: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray


@dataclass(frozen=True)
class PhotonDistribution:
    """P(0..n_max); tiny negative round-off (> -1e-12) clipped to zero."""

    probs: np.ndarray
    n_max: int

    def total(self) -> float:
        return float(self.probs.sum())

    def mean(self) -> float:
        return float(np.arange(self.n_max + 1) @ self.probs)


# ---------------------------------------------------------------------------
# steady-state quadrature moments and variances
# ---------------------------------------------------------------------------

def _alpha_sq(c: Coefficients, t=None):
    """<alpha_+^2> and <alpha_-^2> after evolving vacuum for time t; c may hold arrays.

    q_+- = (epsilon - 2V +- 2R) (1 - exp(-2 lambda_-+ t)) / lambda_-+, with
    the series 2 t (1 - lambda t) of the bracket where |lambda t| < 1e-6.
    t = None is the steady state, which needs lambda_minus above the
    threshold tolerance at every point.  A given t must be finite and >= 0.
    """
    if t is None:
        low = np.min(c.lambda_minus, initial=math.inf)
        if low <= threshold_tolerance(c):
            raise NotStableError(f"no steady state: lambda_minus = {low:.6g}", lambda_minus=low)
        return c.diffusion_plus / c.lambda_minus, c.diffusion_minus / c.lambda_plus
    if not (math.isfinite(t) and t >= 0):
        raise InvalidParameterError(f"t must be finite and >= 0, got {t}")
    lam = np.array((c.lambda_minus, c.lambda_plus))
    x = lam * t
    with np.errstate(divide="ignore", invalid="ignore"):
        growth = np.where(np.abs(x) < 1e-6, 2.0 * t * (1.0 - x), -np.expm1(-2.0 * x) / lam)
    return c.diffusion_plus * growth[0], c.diffusion_minus * growth[1]


def _moments(c: Coefficients, t=None):
    """(<alpha^2>, <alpha* alpha>) = (q_+ + q_-) / 4 and (q_+ - q_-) / 4 of _alpha_sq."""
    q_plus, q_minus = _alpha_sq(c, t)
    return 0.25 * q_plus + 0.25 * q_minus, 0.25 * q_plus - 0.25 * q_minus


def steady_alpha_sq(coeffs: Coefficients):
    """Steady-state <alpha_+^2> and <alpha_-^2>: (epsilon - 2V +- 2R) / lambda_-+.

    coeffs may hold arrays.  Requires lambda_minus above the threshold
    tolerance (lambda_plus is then positive as well).
    """
    return _alpha_sq(coeffs)


def variance_steady(p: SystemParams) -> QuadratureVariances:
    """Steady-state quadrature variances, 1 +- <alpha_+-^2>.

    Exactly at threshold the plus variance is reported as math.inf and the
    minus variance by its finite threshold form.  Above threshold there is
    no steady state and NotStableError is raised.
    """
    c = coefficients(p)
    if abs(c.lambda_minus) <= threshold_tolerance(c):
        return QuadratureVariances(plus=math.inf, minus=variance_threshold(p).minus)
    s_plus, s_minus = steady_alpha_sq(c)  # raises above threshold
    return QuadratureVariances(plus=1.0 + s_plus, minus=1.0 - s_minus)


def variance_threshold(p: SystemParams) -> QuadratureVariances:
    """Variances with the drive pinned at threshold (epsilon field ignored).

    plus diverges; minus = (2 kappa B + 3 A beta^2) / (4 kappa B + 6 A beta).
    """
    return QuadratureVariances(
        plus=math.inf, minus=float(threshold_minus_curve(p.a, p.kappa, p.beta))
    )


def variance_no_crystal(p: SystemParams) -> QuadratureVariances:
    """Variances of the coherently driven laser alone (epsilon = 0).

    For beta >~ sqrt(2) and large gain the plus-quadrature denominator
    2 kappa B + A (2 beta - beta^3) can reach zero: the undriven system is
    itself unstable there and NotStableError is raised.
    """
    beta = p.beta
    b = coefficients(p).b
    two_kb = 2.0 * p.kappa * b
    den_plus = two_kb + p.a * (2.0 * beta - beta**3)
    if den_plus <= 0:
        raise NotStableError(
            f"unstable without the crystal: 2 kappa B + A(2 beta - beta^3) = {den_plus:.6g} <= 0",
            lambda_minus=den_plus / (4.0 * b),
        )
    plus = (two_kb + p.a * (4.0 + beta**2)) / den_plus
    minus = float(no_crystal_minus_curve(p.a, p.kappa, beta))
    return QuadratureVariances(plus=plus, minus=minus)


def threshold_minus_curve(a: float, kappa: float, betas) -> np.ndarray:
    """Vectorized at-threshold squeezed variance over a beta grid."""
    beta = np.asarray(betas, dtype=float)
    b = coefficient_grid(a, kappa, beta)[0].b
    return (2.0 * kappa * b + 3.0 * a * beta**2) / (4.0 * kappa * b + 6.0 * a * beta)


def no_crystal_minus_curve(a: float, kappa: float, betas) -> np.ndarray:
    """Vectorized epsilon = 0 squeezed variance over a beta grid."""
    beta = np.asarray(betas, dtype=float)
    two_kb = 2.0 * kappa * coefficient_grid(a, kappa, beta)[0].b
    return (two_kb + 3.0 * a * beta**2) / (two_kb + a * (4.0 * beta + beta**3))


def spectrum_minus_curve(a: float, kappa: float, betas, omega, drive_rel) -> np.ndarray:
    """Vectorized S_minus(omega) over a beta grid, at drive_rel of each threshold drive (> 0)."""
    beta = np.asarray(betas, dtype=float)
    c = coefficient_grid(a, kappa, beta, epsilon_rel=drive_rel)[0]
    return _spectra(c, a, beta, omega)[1]


def mean_photon_curve(a: float, kappa: float, betas, epsilon, t=None) -> np.ndarray:
    """Vectorized <alpha* alpha> over a beta grid at time t from vacuum.

    epsilon is one drive or one per beta.  t = None is the steady state,
    which raises NotStableError if any point is at or above threshold.
    """
    return _moments(coefficient_grid(a, kappa, betas, epsilon)[0], t)[1]


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_minus_variance(
    a: float, kappa: float, mode: str = "threshold"
) -> tuple[float, float]:
    """Minimize the squeezed-quadrature variance over beta in [0, 2].

    mode "threshold" minimizes the at-threshold form, "no_crystal" the
    epsilon = 0 form.  Grid scan at step 1e-4 followed by golden-section
    refinement to |d beta| <= 1e-6; on plateaus the smallest beta wins.
    The curves reject bad knobs.
    """
    curves = {"threshold": threshold_minus_curve, "no_crystal": no_crystal_minus_curve}
    if mode not in curves:
        raise InvalidParameterError(f"mode must be 'threshold' or 'no_crystal', got {mode!r}")

    def f(beta):
        return curves[mode](a, kappa, beta)

    grid = np.arange(0.0, 2.0 + 5e-5, 1e-4)
    vals = f(grid)
    i = int(np.argmin(vals))  # first hit -> smallest beta on plateaus

    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    if f(lo) == vals[i] == f(hi):
        return float(grid[i]), float(vals[i])

    # golden-section refinement of the bracketing interval
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = f(x2)
    beta_star = lo if f(lo) <= f(hi) else hi
    return float(beta_star), float(f(beta_star))


# ---------------------------------------------------------------------------
# squeezing spectrum
# ---------------------------------------------------------------------------

def spectrum(p: SystemParams, omega_grid) -> SpectrumCurve:
    """Output squeezing spectra S_+-(omega); input-output scaling sqrt(kappa).

    Below threshold both are Lorentzian corrections to the vacuum level:
    S_+- = 1 +- 2 kappa (epsilon - 2V +- 2R) / (lambda_-+^2 + omega^2).
    Exactly at threshold lambda_minus = 0 and the dedicated threshold forms
    are used (S_plus diverges as 1/omega^2).  Above threshold the plus
    spectrum does not exist and NotStableError is raised.
    """
    omega = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    s_plus, s_minus = _spectra(coefficients(p), p.a, p.beta, omega)
    return SpectrumCurve(omega=omega, s_plus=s_plus, s_minus=s_minus)


def _spectra(c: Coefficients, a, beta, omega):
    """(S_plus, S_minus) at coefficients c of (a, c.kappa, beta); any argument may be an array.

    Points with lambda_minus within the threshold tolerance of zero take the
    threshold forms.
    """
    bad = np.asarray(omega)[~np.isfinite(omega)]
    if bad.size:
        raise InvalidParameterError(f"omega must be finite, got {float(bad[0])!r}")
    lam, kappa, tol = c.lambda_minus, c.kappa, threshold_tolerance(c)
    if np.any(lam < -tol):
        low = np.min(lam)
        raise NotStableError(f"above threshold: lambda_minus = {low:.6g} < 0", lambda_minus=low)
    two_b = 2.0 * c.b
    with np.errstate(divide="ignore", invalid="ignore"):
        below_plus = 1.0 + 2.0 * kappa * c.diffusion_plus / (lam**2 + omega**2)
        at_plus = 1.0 + kappa * (kappa + a * (4.0 + beta**2) / two_b) / omega**2
    below_minus = 1.0 - 2.0 * kappa * c.diffusion_minus / (c.lambda_plus**2 + omega**2)
    at_minus = 1.0 - kappa * (kappa + a * beta * (3.0 - 1.5 * beta) / c.b) / (
        (kappa + 3.0 * a * beta / two_b) ** 2 + omega**2
    )
    at = lam <= tol
    return np.where(at, at_plus, below_plus), np.where(at, at_minus, below_minus)


# ---------------------------------------------------------------------------
# transient Gaussian moments, Q function, photon statistics
# ---------------------------------------------------------------------------

def _record_from_moments(t: float, alpha_sq: float, n_cl: float) -> GaussianRecord:
    a = 1.0 + n_cl
    b = alpha_sq
    disc = a * a - b * b
    if disc <= 0 or a <= abs(b):
        raise QFunctionUndefinedError(
            f"Q function undefined: a = {a:.6g}, b = {b:.6g} violate a > |b|"
        )
    return GaussianRecord(
        t=t, alpha_sq=alpha_sq, n_cl=n_cl, a=a, b=b, c=a / disc, d=b / disc
    )


def transient_moments(p: SystemParams, t: float) -> GaussianRecord:
    """Gaussian moment record after evolving vacuum for time t >= 0.

    Valid on both sides of threshold (for finite t); at threshold the
    lambda_minus relaxation integral smoothly becomes t/2.
    """
    alpha_sq, n_cl = _moments(coefficients(p), t)
    return _record_from_moments(t, float(alpha_sq), float(n_cl))


def steady_record(p: SystemParams) -> GaussianRecord:
    """The t -> infinity moment record; requires the stable regime."""
    return _record_from_moments(math.inf, *_moments(coefficients(p)))


def q_function(record: GaussianRecord, alpha_re, alpha_im):
    """Husimi Q density at alpha = alpha_re + i alpha_im (scalar or array).

    Q = sqrt(c^2 - d^2)/pi * exp(-c |alpha|^2 + d Re alpha^2): for d > 0 the
    distribution is broad along the real axis, which carries the
    antisqueezed quadrature.  (Tracking the quadratic term of the
    antinormally ordered characteristic function through the Fourier
    transform gives +d; the truncated-Fock Husimi <alpha|rho|alpha>/pi
    confirms the orientation.  Only even powers of d enter the photon
    distribution, which is insensitive to this sign.)
    """
    c, d = record.c, record.d
    if c <= abs(d):
        raise QFunctionUndefinedError(
            f"Q function undefined: c = {c:.6g} does not exceed |d| = {abs(d):.6g}"
        )
    x = np.asarray(alpha_re, dtype=float)
    y = np.asarray(alpha_im, dtype=float)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise InvalidParameterError("alpha_re and alpha_im must be finite")
    val = math.sqrt(c * c - d * d) / math.pi * np.exp(
        -(c - d) * x**2 - (c + d) * y**2
    )
    return val if val.ndim else float(val)


# cells in one row block of photon_distribution's (n, l) log-term table; the
# block's temporaries then peak near 3 MB (3.2 MB at n_max = 4000, tracemalloc)
_PND_BLOCK_ENTRIES = 1 << 16


def _log_factorial(k: int) -> float:
    """log k! for an integer k >= 0, bitwise Cephes lgam(k + 1) (scipy.special.gammaln).

    A port of lgam's branches at integer x = k + 1 (S. L. Moshier, Methods
    and Programs for Mathematical Functions, 1989), with its constants and
    order of operations: below 13 the log of the exact product; below 1000
    the Stirling series with the degree-4 polynomial in 1/x^2 (polevl's
    Horner steps); up to 1e8 its three-term series; past 1e8 the leading
    term alone.
    """
    x = float(k) + 1.0
    if x < 13.0:
        return math.log(float(math.factorial(k)))
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # + log(sqrt(2 pi))
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                  + 0.0833333333333333333333)
    else:
        series = ((((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                    + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p
                  + 8.33333333333331927722e-2)
    return q + series / x


def photon_distribution(record: GaussianRecord, n_max: int) -> PhotonDistribution:
    """Photon-number distribution of the Gaussian state, exact finite sum.

    P(n) = sqrt(c^2 - d^2) * sum_{l=0}^{floor(n/2)}
           n! (1-c)^{n-2l} d^{2l} / (2^{2l} (l!)^2 (n-2l)!)

    evaluated in log-factorial form with explicit sign bookkeeping for
    (1-c)^{n-2l} (c may exceed 1 for hand-built records), so n in the
    hundreds does not overflow.

    The log-terms of a block of rows n are one 2-D (n, l) table, l running
    to the block's largest n // 2; cells past a row's own n // 2 (k = n - 2l
    < 0) are set to -inf before the row maxima are taken.  A block holds at
    most _PND_BLOCK_ENTRIES cells (one row when a row is longer), so memory
    grows as O(n_max) at any n_max.  The result is bitwise the one-row-at-a-
    time sum: every cell comes from the same elementwise expressions in the
    same order, np.exp runs on a contiguous array, each row is summed by its
    own np.add.reduce (np.sum's kernel) over its n // 2 + 1 terms (a sum over
    the padded row axis regroups NumPy's pairwise sum in rows of 8 or more
    cells), and exp(row max) is math.exp per row.

    The log k! table comes from _log_factorial, a port of Cephes lgam's
    branches at x = k + 1 (the exact product below 13, then the Stirling
    series, shortened from x = 1000 and again past 1e8).  It is bitwise
    scipy.special.gammaln(k + 1), so P(n) keeps gammaln's digits without
    loading SciPy (math.lgamma moves their 12th digit).  Its logarithms are
    math.log, the C library's log that Cephes calls; np.log may take a SIMD
    kernel whose last bit differs.
    """
    c, d = record.c, record.d
    if c <= abs(d):
        raise QFunctionUndefinedError(
            f"photon distribution undefined: c = {c:.6g} does not exceed |d| = {abs(d):.6g}"
        )
    _check_count("n_max", n_max, 0)

    one_m_c = 1.0 - c
    log_omc = math.log(abs(one_m_c)) if one_m_c != 0.0 else -math.inf
    log_d = math.log(abs(d)) if d != 0.0 else -math.inf
    neg_omc = one_m_c < 0.0
    pref = math.sqrt(c * c - d * d)
    log2 = math.log(2.0)

    lg = np.fromiter(map(_log_factorial, range(n_max + 1)), float, n_max + 1)
    probs = np.empty(n_max + 1)
    block_rows = max(_PND_BLOCK_ENTRIES // (n_max // 2 + 1), 1)
    for lo in range(0, n_max + 1, block_rows):
        n = np.arange(lo, min(lo + block_rows, n_max + 1))
        ell = np.arange(n[-1] // 2 + 1)
        k = n[:, None] - 2 * ell
        # lg[k] wraps around at the padding cells (k >= -n_max); they are reset below
        logt = lg[n, None] - 2.0 * ell * log2 - 2.0 * lg[ell] - lg[k]
        with np.errstate(invalid="ignore"):
            # 0 * (-inf) from the k = 0 / ell = 0 entries is masked to 0
            logt = logt + np.where(k > 0, k * log_omc, 0.0)
            logt = logt + np.where(ell > 0, 2.0 * ell * log_d, 0.0)
        logt[k < 0] = -math.inf
        top = logt.max(axis=1)
        with np.errstate(invalid="ignore"):
            # rows whose terms all vanish (top = -inf) give NaN here; they are set to 0
            terms = np.where(neg_omc & (k % 2 == 1), -1.0, 1.0) * np.exp(logt - top[:, None])
        for row, n_row, top_row in zip(terms, n.tolist(), top.tolist()):
            if top_row == -math.inf:
                probs[n_row] = 0.0
            else:
                probs[n_row] = pref * math.exp(top_row) * float(np.add.reduce(row[: n_row // 2 + 1]))

    low = probs.min()
    if low < -1e-12:
        raise InvalidParameterError(
            f"photon distribution came out negative (min {low:.3e}); record is not a valid state"
        )
    np.clip(probs, 0.0, None, out=probs)
    return PhotonDistribution(probs=probs, n_max=n_max)
