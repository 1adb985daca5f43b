"""Degenerate cascade laser with an intracavity parametric amplifier.

Four independently implemented engines over one parameter algebra:

- `analytic`: every closed-form result (variances, spectra, transients,
  Q function, photon statistics),
- `fock`: truncated-Fock master-equation oracle,
- `montecarlo`: doubled-phase-space stochastic trajectories,
- `moments`: exact linear moment propagation,

plus `crosscheck`, which runs all four at one point and tabulates their
agreement, and a `cli` front end for sweeps, figure presets and that table.
"""

from . import analytic, cli, crosscheck, fock, moments, montecarlo, params
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    QFunctionUndefinedError,
    StepSizeError,
    TrajectoryBlowupError,
    TruncationError,
)
from .params import (
    Coefficients,
    MicroscopicParams,
    Stability,
    SystemParams,
    coefficients,
    from_microscopic,
    stability,
    threshold_epsilon,
)

__version__ = "0.1.0"

__all__ = [
    "analytic",
    "cli",
    "crosscheck",
    "fock",
    "moments",
    "montecarlo",
    "params",
    "Coefficients",
    "MicroscopicParams",
    "Stability",
    "SystemParams",
    "coefficients",
    "from_microscopic",
    "stability",
    "threshold_epsilon",
    "ConvergenceError",
    "InvalidParameterError",
    "NotStableError",
    "QFunctionUndefinedError",
    "StepSizeError",
    "TrajectoryBlowupError",
    "TruncationError",
]
