"""System parameters and master-equation coefficient algebra.

The cavity mode of a degenerate three-level cascade laser containing a
degenerate parametric amplifier obeys, after adiabatic elimination of the
atoms, a quadratic master equation whose four relaxation coefficients
R, S, U, V are rational functions of the linear gain coefficient A, the
pump-coupling ratio beta and the cavity damping constant kappa.  Together
with the parametric drive epsilon they fix the two quadrature decay rates

    lambda_minus = (S - R) - (U - V + epsilon)
    lambda_plus  = (S - R) + (U - V + epsilon)

lambda_plus is nonnegative for all admissible parameters, while
lambda_minus changes sign at the oscillation threshold: the drive strength
epsilon_threshold at which lambda_minus = 0 is where the antisqueezed
quadrature ceases to relax and no bounded steady state exists.

All rates are expressed in one arbitrary common unit; no unit conversion
layer exists (figure presets use kappa = 0.8 with A dimensionless).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError

# |lambda_minus| below this (scaled by max(kappa, 1)) counts as "at threshold";
# robust to round-off when epsilon_threshold is fed back through coefficients().
AT_THRESHOLD_RTOL = 1e-9


def _require_finite(name, value):
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def _check_count(name: str, value, low: int) -> None:
    """Require an integer count >= low: a Python or numpy integer, not a float or bool."""
    # bool is an int subclass, but True is not a count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidParameterError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class MicroscopicParams:
    """Microscopic origin of the working parameters.

    g          atom-cavity coupling (rate)
    g_prime    pump-atom coupling (rate)
    mu         pump amplitude (dimensionless)
    lambda_c   crystal-pump coupling (rate)
    r_a        atomic injection rate (1/time)
    gamma      atomic decay rate, common to all three levels (1/time)
    kappa      cavity damping constant (rate)
    tau        atomic transit time; recorded only, never used downstream
    """

    g: float
    g_prime: float
    mu: float
    lambda_c: float
    r_a: float
    gamma: float
    kappa: float
    tau: float = 0.0

    def __post_init__(self):
        for name in ("g", "g_prime", "mu", "lambda_c", "r_a", "gamma", "kappa", "tau"):
            _require_finite(name, getattr(self, name))
        if self.gamma <= 0:
            raise InvalidParameterError(f"gamma must be > 0, got {self.gamma}")
        if self.r_a < 0:
            raise InvalidParameterError(f"r_a must be >= 0, got {self.r_a}")
        if self.kappa <= 0:
            raise InvalidParameterError(f"kappa must be > 0, got {self.kappa}")


@dataclass(frozen=True)
class SystemParams:
    """The four working knobs of the model.

    a        linear gain coefficient A = 2 g^2 r_a / gamma^2 (dimensionless)
    kappa    cavity damping constant (rate)
    beta     pump-coupling ratio Omega / gamma (dimensionless)
    epsilon  parametric drive (rate)
    """

    a: float
    kappa: float
    beta: float
    epsilon: float = 0.0

    def __post_init__(self):
        for name in ("a", "kappa", "beta", "epsilon"):
            _require_finite(name, getattr(self, name))
        if self.a < 0:
            raise InvalidParameterError(f"a must be >= 0, got {self.a}")
        if self.kappa <= 0:
            raise InvalidParameterError(f"kappa must be > 0, got {self.kappa}")
        if self.beta < 0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.beta}")
        if self.epsilon < 0:
            raise InvalidParameterError(f"epsilon must be >= 0, got {self.epsilon}")

    def with_epsilon(self, epsilon: float) -> "SystemParams":
        return replace(self, epsilon=epsilon)

    def with_relative_drive(self, fraction: float) -> "SystemParams":
        """Set epsilon to `fraction` times the threshold drive."""
        eps_th = threshold_epsilon(self)
        if eps_th <= 0:
            raise InvalidParameterError(
                f"threshold drive is {eps_th:.6g} <= 0 at beta={self.beta}; "
                "no nonnegative epsilon reaches it"
            )
        return replace(self, epsilon=fraction * eps_th)


@dataclass(frozen=True)
class Coefficients:
    """Master-equation coefficients and the derived quadrature decay rates.

    r, s are the gain/loss relaxation strengths, u, v the anomalous
    (two-photon coherence) strengths, b the normalization factor
    (1 + beta^2)(1 + beta^2/4).  epsilon is carried along because lambda_-+
    include it, kappa because it sets the threshold tolerance.  Fields are
    numpy arrays when the coefficients are evaluated over a parameter grid.
    """

    r: float
    s: float
    u: float
    v: float
    b: float
    kappa: float
    epsilon: float
    lambda_minus: float
    lambda_plus: float

    @property
    def diffusion_plus(self) -> float:
        """Noise strength feeding the antisqueezed quadrature: epsilon - 2V + 2R."""
        return self.epsilon - 2.0 * self.v + 2.0 * self.r

    @property
    def diffusion_minus(self) -> float:
        """Noise strength feeding the squeezed quadrature: epsilon - 2V - 2R."""
        return self.epsilon - 2.0 * self.v - 2.0 * self.r

    @property
    def decay(self) -> float:
        """Mean-field amplitude decay rate S - R."""
        return self.s - self.r

    @property
    def coupling(self) -> float:
        """Coupling of alpha to its conjugate partner: U - V + epsilon."""
        return self.u - self.v + self.epsilon


class Stability(enum.Enum):
    STABLE = "stable"
    AT_THRESHOLD = "at_threshold"
    UNSTABLE = "unstable"


def from_microscopic(m: MicroscopicParams) -> SystemParams:
    """Reduce microscopic couplings to the four working knobs.

    A = 2 g^2 r_a / gamma^2, beta = 2 g' mu / gamma, epsilon = lambda_c mu;
    kappa passes through unchanged.
    """
    a = 2.0 * m.g**2 * m.r_a / m.gamma**2
    beta = 2.0 * m.g_prime * m.mu / m.gamma
    epsilon = m.lambda_c * m.mu
    return SystemParams(a=a, kappa=m.kappa, beta=beta, epsilon=epsilon)


def _coefficients(a, kappa, beta, epsilon):
    """Coefficients and the threshold drive at (a, kappa, beta, epsilon).

    Each argument is a float or a numpy array; arrays broadcast and give
    array-valued Coefficients fields and threshold drives.
    """
    b = (1.0 + beta**2) * (1.0 + beta**2 / 4.0)
    pref = a / (4.0 * b)
    r = pref * (1.0 - 1.5 * beta + beta**2)
    s = 0.5 * kappa + pref * (1.0 + 1.5 * beta + beta**2)
    u = pref * (-1.0 + 0.5 * beta + 0.5 * beta**2 + 0.5 * beta**3)
    v = pref * (-1.0 - 0.5 * beta + 0.5 * beta**2 - 0.5 * beta**3)
    coupling = u - v + epsilon
    coeffs = Coefficients(
        r=r,
        s=s,
        u=u,
        v=v,
        b=b,
        kappa=kappa,
        epsilon=epsilon,
        lambda_minus=(s - r) - coupling,
        lambda_plus=(s - r) + coupling,
    )
    return coeffs, 0.5 * kappa + a * (2.0 * beta - beta**3) / (4.0 * b)


def coefficients(p: SystemParams) -> Coefficients:
    """Evaluate R, S, U, V, B and the decay pair lambda_minus/lambda_plus.

    The cavity-loss part of S is written as an explicit kappa/2 so the
    A -> 0 limit (empty cavity, pure parametric oscillator) is exact:
    S = kappa/2, lambda_-/+ = kappa/2 -/+ epsilon.
    """
    return _coefficients(p.a, p.kappa, p.beta, p.epsilon)[0]


def threshold_epsilon(p: SystemParams) -> float:
    """Drive strength at which lambda_minus vanishes (the `epsilon` field is ignored).

    epsilon_th = kappa/2 + A (2 beta - beta^3) / [4 (1+beta^2)(1+beta^2/4)].
    For beta > sqrt(2) the atomic term is negative and the result may be
    negative, in which case no nonnegative drive is stable.
    """
    return _coefficients(p.a, p.kappa, p.beta, 0.0)[1]


def coefficient_grid(a, kappa, betas, epsilon=0.0, epsilon_rel=None):
    """(Coefficients, threshold drives) over an array of beta.

    epsilon is one drive or one per beta; epsilon_rel instead sets each drive
    to that fraction of its threshold drive, which must then be > 0.  The
    first point SystemParams would reject raises its InvalidParameterError.
    """
    beta = np.asarray(betas, dtype=float)
    SystemParams(a=a, kappa=kappa, beta=0.0)
    if epsilon_rel is not None:
        if np.any(epsilon):
            raise InvalidParameterError("give epsilon or epsilon_rel, not both")
        with np.errstate(invalid="ignore"):  # a non-finite beta is reported either way
            eps_th = _coefficients(a, kappa, beta, 0.0)[1]
        low = beta[~(eps_th > 0)]
        if low.size:
            SystemParams(a=a, kappa=kappa, beta=float(low[0])).with_relative_drive(epsilon_rel)
        epsilon = epsilon_rel * eps_th
    beta_at, eps_at = np.broadcast_arrays(beta, epsilon)
    bad = ~(np.isfinite(beta_at) & (beta_at >= 0) & np.isfinite(eps_at) & (eps_at >= 0))
    if bad.any():
        SystemParams(a=a, kappa=kappa, beta=float(beta_at[bad][0]), epsilon=float(eps_at[bad][0]))
    return _coefficients(a, kappa, beta, epsilon)


def threshold_tolerance(p) -> float:
    """|lambda_minus| at or below this is at threshold; p is SystemParams or Coefficients."""
    return AT_THRESHOLD_RTOL * max(p.kappa, 1.0)


def stability(p: SystemParams) -> Stability:
    """Classify the operating point by the sign of lambda_minus."""
    lam = coefficients(p).lambda_minus
    tol = threshold_tolerance(p)
    if lam > tol:
        return Stability.STABLE
    if lam < -tol:
        return Stability.UNSTABLE
    return Stability.AT_THRESHOLD
