"""Closed-form reference for the benchmark checks, written from the model's
formulas without importing casq.

The cavity mode obeys a quadratic master equation whose relaxation
coefficients are rational in the gain A and the pump-coupling ratio beta:

    B = (1 + beta^2)(1 + beta^2/4)
    R = A (1 - 3 beta/2 + beta^2) / (4B)
    S = kappa/2 + A (1 + 3 beta/2 + beta^2) / (4B)
    U = A (-1 + beta/2 + beta^2/2 + beta^3/2) / (4B)
    V = A (-1 - beta/2 + beta^2/2 - beta^3/2) / (4B)

The quadrature amplitudes alpha_+- = alpha* +- alpha obey

    d<alpha_+-^2>/dt = -2 lambda_-+ <alpha_+-^2> + 2 (epsilon - 2V +- 2R),
    lambda_-+ = (S - R) -+ (U - V + epsilon),

so every second moment from a vacuum start, every spectrum and every
threshold quantity follows from these few lines.  The photon distribution
uses the generating function of a zero-mean Gaussian state instead of the
finite sum casq.analytic evaluates, so the two share no code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point:
    a: float
    kappa: float
    beta: float
    epsilon: float = 0.0


@dataclass(frozen=True)
class Coeffs:
    r: float
    s: float
    u: float
    v: float
    b: float
    lambda_minus: float
    lambda_plus: float
    diffusion_plus: float  # epsilon - 2V + 2R, feeds alpha_+
    diffusion_minus: float  # epsilon - 2V - 2R, feeds alpha_-


def coeffs(p: Point) -> Coeffs:
    """Coefficients at one point; beta may be a numpy array for a sweep."""
    beta = p.beta
    b = (1.0 + beta**2) * (1.0 + beta**2 / 4.0)
    g = p.a / (4.0 * b)
    r = g * (1.0 - 1.5 * beta + beta**2)
    s = 0.5 * p.kappa + g * (1.0 + 1.5 * beta + beta**2)
    u = g * (-1.0 + 0.5 * beta + 0.5 * beta**2 + 0.5 * beta**3)
    v = g * (-1.0 - 0.5 * beta + 0.5 * beta**2 - 0.5 * beta**3)
    x = u - v + p.epsilon
    return Coeffs(
        r=r, s=s, u=u, v=v, b=b,
        lambda_minus=(s - r) - x,
        lambda_plus=(s - r) + x,
        diffusion_plus=p.epsilon - 2.0 * v + 2.0 * r,
        diffusion_minus=p.epsilon - 2.0 * v - 2.0 * r,
    )


def threshold_epsilon(p: Point) -> float:
    """Drive at which lambda_minus vanishes: S - R - (U - V)."""
    c = coeffs(Point(p.a, p.kappa, p.beta, 0.0))
    return (c.s - c.r) - (c.u - c.v)


def at_drive(p: Point, fraction: float) -> Point:
    return Point(p.a, p.kappa, p.beta, fraction * threshold_epsilon(p))


def _relax(lam: float, t: float) -> float:
    """(1 - exp(-2 lam t)) / lam, with its limit 2t at lam = 0."""
    if lam == 0.0:
        return 2.0 * t
    return -math.expm1(-2.0 * lam * t) / lam


def quadrature_moments(p: Point, t: float = math.inf) -> tuple[float, float]:
    """(<alpha_+^2>, <alpha_-^2>) at time t after a vacuum start (t = inf: steady)."""
    c = coeffs(p)
    if math.isinf(t):
        return c.diffusion_plus / c.lambda_minus, c.diffusion_minus / c.lambda_plus
    return c.diffusion_plus * _relax(c.lambda_minus, t), c.diffusion_minus * _relax(c.lambda_plus, t)


def moments(p: Point, t: float = math.inf) -> tuple[float, float]:
    """(<alpha^2>, <alpha* alpha>) at time t; <alpha_+-^2> = 2<alpha^2> +- 2<alpha* alpha>."""
    plus, minus = quadrature_moments(p, t)
    return (plus + minus) / 4.0, (plus - minus) / 4.0


def variances(p: Point, t: float = math.inf) -> tuple[float, float]:
    """Quadrature variances (plus, minus) with vacuum = 1: 1 + <alpha_+^2>, 1 - <alpha_-^2>."""
    plus, minus = quadrature_moments(p, t)
    return 1.0 + plus, 1.0 - minus


def spectra(p: Point, omega) -> tuple[np.ndarray, np.ndarray]:
    """Output spectra S_+-(omega) = 1 +- 2 kappa (epsilon - 2V +- 2R) / (lambda_-+^2 + omega^2)."""
    c = coeffs(p)
    w2 = np.asarray(omega, dtype=float) ** 2
    with np.errstate(divide="ignore"):
        s_plus = 1.0 + 2.0 * p.kappa * c.diffusion_plus / (c.lambda_minus**2 + w2)
    s_minus = 1.0 - 2.0 * p.kappa * c.diffusion_minus / (c.lambda_plus**2 + w2)
    return s_plus, s_minus


def threshold_minus_variance(a: float, kappa: float, beta) -> np.ndarray:
    """Squeezed variance with the drive at threshold, where lambda_plus = 2(S - R)."""
    c = coeffs(Point(a, kappa, np.asarray(beta, dtype=float)))
    eps_th = (c.s - c.r) - (c.u - c.v)
    return 1.0 - (eps_th - 2.0 * c.v - 2.0 * c.r) / (2.0 * (c.s - c.r))


def no_crystal_minus_variance(a: float, kappa: float, beta) -> np.ndarray:
    """Squeezed variance of the laser alone (epsilon = 0)."""
    c = coeffs(Point(a, kappa, np.asarray(beta, dtype=float)))
    return 1.0 - c.diffusion_minus / c.lambda_plus


def threshold_optimum(a: float, kappa: float, step: float = 1e-5) -> tuple[float, float]:
    """(beta, variance) minimising the at-threshold squeezed variance on a dense beta grid in [0, 2]."""
    grid = np.arange(0.0, 2.0 + step / 2.0, step)
    vals = threshold_minus_variance(a, kappa, grid)
    i = int(np.argmin(vals))
    return float(grid[i]), float(vals[i])


def photon_distribution(p: Point, n_max: int, t: float = math.inf) -> np.ndarray:
    """P(0..n_max) of the cavity state at time t after a vacuum start (t = inf: steady)."""
    return gaussian_photon_distribution(*moments(p, t), n_max)


def gaussian_photon_distribution(alpha_sq: float, n_cl: float, n_max: int) -> np.ndarray:
    """P(0..n_max) of the zero-mean Gaussian state with these second moments.

    With N = <alpha* alpha> and M = <alpha^2> (real), the generating function
    sum_n P(n) z^n = [(1 + (1-z)N)^2 - (1-z)^2 M^2]^(-1/2) factors into
    [(1+N-M)(1 - q1 z)]^(-1/2) [(1+N+M)(1 - q2 z)]^(-1/2) with
    q1 = (N-M)/(1+N-M), q2 = (N+M)/(1+N+M), and each factor expands as
    sum_k C(2k, k) (q z / 4)^k.
    """
    k = np.arange(n_max + 1)
    # C(2k, k) / 4^k by its ratio recurrence (2k - 1) / (2k)
    central = np.cumprod(np.concatenate(([1.0], (2.0 * k[1:] - 1.0) / (2.0 * k[1:]))))
    d_minus, d_plus = n_cl - alpha_sq, n_cl + alpha_sq
    series = [central * (d / (1.0 + d)) ** k for d in (d_minus, d_plus)]
    pref = 1.0 / math.sqrt((1.0 + d_minus) * (1.0 + d_plus))
    return pref * np.convolve(series[0], series[1])[: n_max + 1]
