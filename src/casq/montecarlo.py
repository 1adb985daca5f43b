"""Stochastic verification engine in a doubled phase space.

The c-number Langevin equation for the cavity amplitude has noise
correlations <f f> = (epsilon - 2V) delta and <f f*> = 2R delta.  In the
squeezed regime the implied distribution of Im f has negative variance, so
no classical complex noise realizes it.  The standard resolution is to
promote alpha* to an independent variable alpha_dag and simulate the pair

    d alpha     = [-(S-R) alpha     + X alpha_dag] dt + (A+ xi1 + A- xi2) sqrt(dt)
    d alpha_dag = [-(S-R) alpha_dag + X alpha    ] dt + (A+ xi1 - A- xi2) sqrt(dt)

with X = U - V + epsilon, xi1/xi2 independent standard real Gaussians per
trajectory per step, and amplitudes A+- = sqrt((epsilon - 2V +- 2R)/2)
(imaginary when a radicand is negative).  Ensemble averages of analytic
functions of (alpha, alpha_dag) then reproduce every normally ordered
moment: the sample covariance of the increments is (epsilon - 2V) dt on
each variable and 2R dt across them.

Drift and diffusion are both diagonal in the quadratures x+- = alpha_dag
+- alpha (alpha = (x+ - x-)/2, alpha_dag = (x+ + x-)/2), so the
Euler-Maruyama step is two decoupled scalar chains x <- k x + g xi:
k+ = 1 - lambda_minus dt, g+ = 2 A+ sqrt(dt) and k- = 1 - lambda_plus dt,
g- = -2 A- sqrt(dt).  Such a chain is Gaussian over any D steps (the
discrete-time form of the exact Ornstein-Uhlenbeck update; Gillespie,
PRE 54, 2084 (1996)): x <- k**D x + g sqrt((1 - k**(2D)) / (1 - k**2)) zeta
with one standard normal zeta.  So the chain is drawn only at the steps
it records, one zeta per quadrature and interval: the recorded states
keep the joint law of the step-by-step chain, dt bias included, and the
cost follows the records, not the steps.

Layout: the trajectories are split into work units of _UNIT trajectories.
_unit computes one unit, one interval update per record, into a
(2, width, records) array of x+- and returns only the partial sums of the
caller's reduction, with no trajectory axis: for run the sums and |.|**2
sums of six moments per record (_moment_sums); for two_time_correlation
the lag products, all lags contracted in one einsum pass over a sliding
window of the records, averaged over the time origins and summed per
error group (_lag_sums).  The blow-up guard tests max(|alpha|,
|alpha_dag|) at every recorded step, the only states computed.  The units
run on a fork-context process pool created for the call, one worker per
usable core unless `jobs` says otherwise, and shut down before the call
returns or raises.  With one worker or one unit, or with less work than
_POOL_MIN_WORK trajectory-intervals, whose draws cost less than starting
the pool, they run in the calling process.  The workers call no BLAS.

Reproducibility: every unit owns a counter-based Philox stream,
SeedSequence(seed, spawn_key=(unit index,)), drawn trajectory-major as
(width, intervals, 2), so a trajectory's draws do not depend on how many
trajectories follow it in its unit.  The calling process adds the units'
partial sums in unit order, so identical (seed, n_traj, dt, t_end) give
bitwise-identical moment series and correlation estimates for any
`jobs`.  A blow-up is reported at the earliest recorded step at which any
trajectory exceeded the limit, with the largest magnitude at that step.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameterError, NotStableError, TrajectoryBlowupError
from .params import Coefficients, SystemParams, _check_count, coefficients, threshold_tolerance

__all__ = [
    "NoiseFactorization",
    "MomentSeries",
    "CorrelationEstimate",
    "DecayFit",
    "SpectrumEstimate",
    "factor_noise",
    "run",
    "two_time_correlation",
    "fit_decay_rates",
    "spectrum_from_correlation",
]

BLOWUP_LIMIT = 1e6
_UNIT = 2048  # trajectories per work unit
# Trajectories x recorded intervals below which the units run in the calling
# process.  Starting the fork pool costs about 18 ms, at 2 cores (Python
# 3.11, NumPy 2.4).  `casq verify`'s run, 20000 x 1, took 2-3 ms in process
# against 20-26 ms on the pool, and 20000 x 12 took 20 ms against 25 ms; from
# 20000 x 16 on, the two were within the run-to-run noise of each other.
_POOL_MIN_WORK = 250_000


@dataclass(frozen=True)
class NoiseFactorization:
    """Eigen-amplitudes of the 2x2 symmetric diffusion matrix on (alpha, alpha_dag).

    The matrix [[eps-2V, 2R], [2R, eps-2V]] has eigenvectors (1, +-1)/sqrt(2);
    amp_plus drives the symmetric combination, amp_minus the antisymmetric one.
    amp_plus^2 + amp_minus^2 = eps - 2V and amp_plus^2 - amp_minus^2 = 2R.
    """

    amp_plus: complex
    amp_minus: complex

    @property
    def is_real(self) -> bool:
        return self.amp_plus.imag == 0.0 and self.amp_minus.imag == 0.0


def factor_noise(coeffs: Coefficients) -> NoiseFactorization:
    return NoiseFactorization(
        amp_plus=cmath.sqrt(0.5 * coeffs.diffusion_plus),
        amp_minus=cmath.sqrt(0.5 * coeffs.diffusion_minus),
    )


@dataclass(frozen=True)
class MomentSeries:
    """Ensemble moments (with standard errors) at the sampled times."""

    times: np.ndarray
    mean_alpha: np.ndarray
    mean_alpha_se: np.ndarray
    mean_alpha_dag: np.ndarray
    mean_alpha_dag_se: np.ndarray
    alpha_sq: np.ndarray
    alpha_sq_se: np.ndarray
    n_cl: np.ndarray
    n_cl_se: np.ndarray
    plus_sq: np.ndarray
    plus_sq_se: np.ndarray
    minus_sq: np.ndarray
    minus_sq_se: np.ndarray
    n_traj: int
    dt: float
    seed: int


def usable_cores() -> int:
    """CPU cores this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_context():
    """The fork context for worker processes; None without fork or in a daemonic process."""
    import multiprocessing

    if ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon):
        return multiprocessing.get_context("fork")
    return None


def _workers(jobs) -> int:
    """The jobs argument of run and two_time_correlation: None means usable_cores()."""
    if jobs is None:
        return usable_cores()
    _check_count("jobs", jobs, 1)
    return jobs


@dataclass(frozen=True)
class _Kernel:
    """What a work unit needs to draw its trajectories and reduce their records."""

    p: SystemParams  # named in the blow-up message
    seed: int
    dtype: type
    record_steps: tuple  # ascending steps whose x+- are recorded; 0 is the vacuum start
    # per interval between the nonzero record steps: drift factor and gain of x+ and x-
    keep_p: np.ndarray
    keep_m: np.ndarray
    gain_p: np.ndarray
    gain_m: np.ndarray
    reduce: object  # (records, lo) -> sums; module-level or a partial of one, so it pickles
    limit: float  # BLOWUP_LIMIT when the call began


def _span(keep: float, gain, gaps):
    """(keep**gap, g_gap) for each gap of the chain x <- keep x + gain xi.

    gap steps of the chain are x <- keep**gap x + g_gap zeta, one standard
    normal zeta, with g_gap**2 = gain**2 sum_{j<gap} keep**(2j)
    = gain**2 (1 - keep**(2 gap)) / (1 - keep**2).
    """
    gaps = np.asarray(gaps)
    if keep == 1.0:
        return np.ones(gaps.shape), gain * np.sqrt(gaps)
    log_k = math.log1p(keep - 1.0)
    one = math.expm1(2.0 * log_k)
    # the same scalar expm1 for every gap, so that a gap of 1 gives gain exactly
    spread = [math.sqrt(math.expm1(2.0 * g * log_k) / one) for g in gaps.tolist()]
    return keep ** gaps, gain * np.array(spread)


def _kernel(p: SystemParams, dt: float, seed: int, record_steps, reduce) -> _Kernel:
    """The _Kernel of one call; rejects a step too coarse for the rates."""
    c = coefficients(p)
    if dt * max(c.lambda_plus, abs(c.lambda_minus)) >= 0.05:
        raise InvalidParameterError(
            f"dt = {dt:.3e} too large: need dt * max(lambda) < 0.05"
        )
    noise = factor_noise(c)
    dtype = float if noise.is_real else complex
    amp_p, amp_m = (a.real if noise.is_real else a for a in (noise.amp_plus, noise.amp_minus))
    sdt = math.sqrt(dt)
    record_steps = tuple(record_steps)
    gaps = np.diff([s for s in record_steps if s > 0], prepend=0)
    keep_p, gain_p = _span(1.0 - c.lambda_minus * dt, 2.0 * amp_p * sdt, gaps)
    keep_m, gain_m = _span(1.0 - c.lambda_plus * dt, -2.0 * amp_m * sdt, gaps)
    return _Kernel(p=p, seed=seed, dtype=dtype, record_steps=record_steps,
                   keep_p=keep_p, keep_m=keep_m, gain_p=gain_p, gain_m=gain_m,
                   reduce=reduce, limit=BLOWUP_LIMIT)


def _unit(k: _Kernel, lo: int, hi: int):
    """The vacuum-start trajectories lo..hi-1, reduced: (sums, blowup).

    The records rec[q, i, r] hold quadrature q (x+, x-) of trajectory
    lo + i at k.record_steps[r]; sums is k.reduce(rec, lo), which has no
    trajectory axis.  Each interval to a record is one draw, from the
    unit's Philox stream SeedSequence(k.seed, spawn_key=(lo // _UNIT,)).  A
    magnitude max(|alpha|, |alpha_dag|) above k.limit at a record stops the
    unit and returns (None, (step, peak)), the first such step and the
    largest magnitude there; otherwise blowup is None.
    Nothing here calls BLAS, so the unit is safe in a forked worker.
    """
    width, records, intervals = hi - lo, len(k.record_steps), k.keep_p.size
    rec = np.empty((2, width, records), dtype=k.dtype)
    start = records - intervals  # 1 when step 0, the vacuum, is recorded
    rec[:, :, :start] = 0.0
    stream = np.random.SeedSequence(k.seed, spawn_key=(lo // _UNIT,))
    # zeta[i, r, q]: normal of quadrature q for trajectory lo + i over interval r
    zeta = np.random.Generator(np.random.Philox(stream)).standard_normal((width, intervals, 2))
    xp = np.zeros(width, dtype=k.dtype)
    xm = np.zeros(width, dtype=k.dtype)
    for r in range(intervals):
        xp = k.keep_p[r] * xp + k.gain_p[r] * zeta[:, r, 0]
        xm = k.keep_m[r] * xm + k.gain_m[r] * zeta[:, r, 1]
        rec[0, :, start + r] = xp
        rec[1, :, start + r] = xm
        peak = 0.5 * max(float(np.abs(xp - xm).max(initial=0.0)),
                         float(np.abs(xp + xm).max(initial=0.0)))
        if peak > k.limit:
            return None, (k.record_steps[start + r], peak)
    return k.reduce(rec, lo), None


def _moment_sums(rec: np.ndarray, lo: int):
    """Per record, the sums and |.|**2 sums over the trajectories of the
    six moments alpha, alpha_dag, alpha**2, alpha_dag alpha, x_+**2, x_-**2:
    two (records, 6) arrays."""
    sums, sums_abs2 = [], []
    # one record at a time: its temporaries stay in cache, whole-unit ones took 3x longer
    for xp, xm in rec.transpose(2, 0, 1):
        alpha, alpha_dag = 0.5 * (xp - xm), 0.5 * (xp + xm)
        rows = np.stack((alpha, alpha_dag, alpha * alpha, alpha_dag * alpha, xp * xp, xm * xm))
        mags = np.abs(rows)
        sums.append(rows.sum(axis=-1))
        sums_abs2.append(np.einsum("mn,mn->m", mags, mags))
    return np.array(sums), np.array(sums_abs2)


def _lag_sums(rec: np.ndarray, lo: int, n_origins: int, groups: int):
    """Each trajectory's lag products, averaged over n_origins time origins
    and summed per error group (trajectory index mod groups): the sums as
    (2, groups, lags) and the group sizes."""
    width, records = rec.shape[1:]
    # corr[q, i, l]: lag-l product of quadrature q (x+, x-) of trajectory lo + i
    corr = np.empty((2, width, records - n_origins + 1), dtype=rec.dtype)
    for x, lags in zip(rec, corr):
        np.einsum("no,nko->nk", x[:, :n_origins], sliding_window_view(x, n_origins, axis=1),
                  out=lags)
    corr /= n_origins
    gid = np.arange(lo, lo + width) % groups
    sums = np.stack([corr[:, gid == g].sum(axis=1) for g in range(groups)], axis=1)
    return sums, np.bincount(gid, minlength=groups)


def _ensemble(k: _Kernel, n_traj: int, jobs: int):
    """The partial sums of trajectories 0..n_traj-1, each a pair from
    k.reduce, added in unit order.

    The units (_UNIT trajectories each) run on min(jobs, units) worker
    processes, or in this process through builtin map when that is one,
    when worker_context() is None or when n_traj times the recorded
    intervals is below _POOL_MIN_WORK; the pool is shut down before this
    returns or raises.  If any unit blew up, raises TrajectoryBlowupError
    at the earliest failing step among the units, with the largest
    magnitude any of them reached there: the step and peak of a
    whole-ensemble check.
    """
    los = range(0, n_traj, _UNIT)
    his = [min(lo + _UNIT, n_traj) for lo in los]
    workers, pool = min(jobs, len(los)), None
    # decided before worker_context, which imports multiprocessing
    if workers > 1 and n_traj * k.keep_p.size >= _POOL_MIN_WORK:
        context = worker_context()
        if context is not None:
            from concurrent.futures import ProcessPoolExecutor

            pool = ProcessPoolExecutor(workers, mp_context=context)
    sums, failed = (0.0, 0.0), []
    try:
        for part, blowup in (pool.map if pool else map)(functools.partial(_unit, k), los, his):
            if blowup is None:
                sums = tuple(map(np.add, sums, part))
            else:
                failed.append(blowup)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if failed:
        step = min(s for s, _ in failed)
        peak = max(v for s, v in failed if s == step)
        raise TrajectoryBlowupError(
            f"trajectory magnitude {peak:.3e} exceeded {k.limit:.1e} "
            f"at step {step} (params {k.p})"
        )
    return sums


def _check_stable(p: SystemParams, what: str) -> Coefficients:
    """p's coefficients; NotStableError unless lambda_minus > threshold_tolerance."""
    c = coefficients(p)
    if c.lambda_minus <= threshold_tolerance(c):
        raise NotStableError(f"{what} requires lambda_minus > {threshold_tolerance(c):.1e}, "
                             f"got {c.lambda_minus:.6g}", lambda_minus=c.lambda_minus)
    return c


def run(
    p: SystemParams,
    n_traj: int,
    t_end: float,
    dt: float,
    seed: int,
    sample_times=None,
    jobs: int | None = None,
) -> MomentSeries:
    """Integrate n_traj vacuum-start trajectories and record ensemble moments.

    Moments are recorded at `sample_times` (default: 25 evenly spaced
    points plus t = 0), each snapped to the step grid.  The Euler-Maruyama
    chain of step dt is drawn only at those steps, one Gaussian per
    interval, so the cost follows the number of samples, not t_end / dt.
    A trajectory magnitude above 1e6 at a sampled step aborts with
    TrajectoryBlowupError, reported at the earliest such step with the
    largest magnitude there.  The trajectories run on `jobs` worker
    processes (default: the usable cores; 1 runs in this process, and so
    does a run of less than _POOL_MIN_WORK trajectory-intervals); the
    result does not depend on jobs.
    """
    _check_count("n_traj", n_traj, 2)
    _check_count("seed", seed, 0)
    jobs = _workers(jobs)
    _check_stable(p, "stochastic run")
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_end) and t_end > 0):
        raise InvalidParameterError(
            f"need finite dt > 0 and finite t_end > 0; got dt={dt}, t_end={t_end}")

    n_steps = max(int(round(t_end / dt)), 1)
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 26)
    sample_times = np.atleast_1d(sample_times)
    # half a step of round-off is allowed at either end
    if not (sample_times.size
            and np.all((sample_times >= -0.5 * dt) & (sample_times <= t_end + 0.5 * dt))):
        raise InvalidParameterError(
            f"sample_times must be one or more times in [0, t_end = {t_end:g}]")
    sample_steps = sorted({min(int(round(t / dt)), n_steps) for t in sample_times})
    sums, sums_abs2 = _ensemble(_kernel(p, dt, seed, sample_steps, _moment_sums), n_traj, jobs)

    means = sums.astype(complex) / n_traj
    var = np.maximum(sums_abs2 / n_traj - np.abs(means) ** 2, 0.0)
    se = np.sqrt(var / (n_traj - 1))
    times = np.array([s * dt for s in sample_steps])
    return MomentSeries(
        times=times,
        mean_alpha=means[:, 0], mean_alpha_se=se[:, 0],
        mean_alpha_dag=means[:, 1], mean_alpha_dag_se=se[:, 1],
        alpha_sq=means[:, 2], alpha_sq_se=se[:, 2],
        n_cl=means[:, 3], n_cl_se=se[:, 3],
        plus_sq=means[:, 4], plus_sq_se=se[:, 4],
        minus_sq=means[:, 5], minus_sq_se=se[:, 5],
        n_traj=n_traj, dt=dt, seed=seed,
    )


# ---------------------------------------------------------------------------
# stationary two-time correlations and the spectrum quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationEstimate:
    """Stationary <alpha_+-(t) alpha_+-(t+tau)> estimates with standard errors.

    group_plus/group_minus hold the per-group means (groups x lags) used
    for error propagation into derived fits and quadratures.
    """

    tau: np.ndarray
    corr_plus: np.ndarray
    corr_plus_se: np.ndarray
    corr_minus: np.ndarray
    corr_minus_se: np.ndarray
    n_traj: int
    group_plus: np.ndarray
    group_minus: np.ndarray


@dataclass(frozen=True)
class DecayFit:
    rate_plus: float
    rate_plus_se: float
    rate_minus: float
    rate_minus_se: float


@dataclass(frozen=True)
class SpectrumEstimate:
    omega: np.ndarray
    s_plus: np.ndarray
    s_plus_se: np.ndarray
    s_minus: np.ndarray
    s_minus_se: np.ndarray


def two_time_correlation(
    p: SystemParams,
    tau_grid,
    n_traj: int,
    dt: float,
    seed: int,
    t_burn: float | None = None,
    t_avg: float | None = None,
    groups: int = 10,
    jobs: int | None = None,
) -> CorrelationEstimate:
    """Estimate the stationary lag products of alpha_+- = alpha_dag +- alpha.

    Trajectories are burnt in for t_burn (default 10 / lambda_minus), then
    sampled on the uniform tau grid; products are averaged over time
    origins spanning t_avg (default 5 * tau_max) and over trajectories.
    The Euler-Maruyama chain of step dt is drawn once over the burn-in and
    once per tau spacing, so dt sets the chain's law, not the cost.
    Standard errors come from `groups` independent trajectory groups.
    `jobs` is as in `run`: worker processes, default the usable cores; the
    result does not depend on it.
    """
    _check_count("groups", groups, 2)
    _check_count("n_traj", n_traj, 2 * groups)
    _check_count("seed", seed, 0)
    jobs = _workers(jobs)
    c = _check_stable(p, "stationary correlation")
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")
    tau = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if tau.size < 2 or tau[0] != 0.0:
        raise InvalidParameterError("tau_grid must start at 0 and hold >= 2 points")
    spacing = np.diff(tau)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise InvalidParameterError("tau_grid must be uniform")
    stride = max(int(round(spacing[0] / dt)), 1)
    if abs(spacing[0] / dt - stride) > 1e-9 * stride:
        raise InvalidParameterError(
            f"tau spacing {spacing[0]:g} is not a whole number of steps dt={dt:g}")
    d_tau = stride * dt
    n_lags = tau.size
    tau = np.arange(n_lags) * d_tau

    if t_burn is None:
        t_burn = 10.0 / c.lambda_minus
    if t_avg is None:
        t_avg = 5.0 * tau[-1]
    for name, value in (("t_burn", t_burn), ("t_avg", t_avg)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParameterError(f"{name} must be finite and > 0, got {value}")
    burn_steps = max(int(round(t_burn / dt)), 1)
    n_origins = max(int(round(t_avg / d_tau)), 1)
    n_records = n_lags + n_origins - 1
    record_steps = (n_records - 1) * stride

    total = burn_steps + record_steps
    reduce = functools.partial(_lag_sums, n_origins=n_origins, groups=groups)
    kernel = _kernel(p, dt, seed, range(burn_steps, total + 1, stride), reduce)
    (group_sum_p, group_sum_m), group_count = _ensemble(kernel, n_traj, jobs)
    group_p = group_sum_p / group_count[:, None]
    group_m = group_sum_m / group_count[:, None]
    corr_plus = (group_sum_p.sum(axis=0) / n_traj).astype(complex)
    corr_minus = (group_sum_m.sum(axis=0) / n_traj).astype(complex)
    se_p = np.real(np.std(group_p, axis=0, ddof=1)) / math.sqrt(groups)
    se_m = np.real(np.std(group_m, axis=0, ddof=1)) / math.sqrt(groups)
    return CorrelationEstimate(
        tau=tau,
        corr_plus=corr_plus,
        corr_plus_se=se_p,
        corr_minus=corr_minus,
        corr_minus_se=se_m,
        n_traj=n_traj,
        group_plus=np.asarray(group_p),
        group_minus=np.asarray(group_m),
    )


def _snr_mask(mean: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Leading contiguous run of lags where the signal clears 4 standard errors."""
    clear = np.real(mean) > 4.0 * se
    limit = int(np.argmin(clear)) if not clear.all() else clear.size
    mask = np.zeros(clear.size, dtype=bool)
    mask[:limit] = True
    return mask


def _group_slopes(tau: np.ndarray, group_means: np.ndarray, mean: np.ndarray, se: np.ndarray):
    """Per-group exponential decay rates from log-linear fits."""
    usable = _snr_mask(mean, se)
    if usable.sum() < 3:
        raise InvalidParameterError(
            "correlation too noisy for a decay fit; increase n_traj or t_avg"
        )
    slopes = []
    for row in np.real(group_means):
        vals = row[usable]
        pts = vals > 0
        if pts.sum() < 3:
            raise InvalidParameterError("group correlation nonpositive; increase statistics")
        slopes.append(np.polyfit(tau[usable][pts], np.log(vals[pts]), 1)[0])
    return np.array(slopes), usable


def fit_decay_rates(est: CorrelationEstimate) -> DecayFit:
    """Fitted decay rates of corr_plus (-> lambda_minus) and corr_minus (-> lambda_plus)."""
    slopes_p, _ = _group_slopes(est.tau, est.group_plus, np.real(est.corr_plus), est.corr_plus_se)
    slopes_m, _ = _group_slopes(est.tau, est.group_minus, np.real(est.corr_minus), est.corr_minus_se)
    j = slopes_p.size
    return DecayFit(
        rate_plus=float(-slopes_p.mean()),
        rate_plus_se=float(slopes_p.std(ddof=1) / math.sqrt(j)),
        rate_minus=float(-slopes_m.mean()),
        rate_minus_se=float(slopes_m.std(ddof=1) / math.sqrt(j)),
    )


def _simpson_weights(intervals: int) -> np.ndarray:
    """Composite Simpson weights on intervals + 1 >= 3 points of unit spacing.

    An odd interval count takes Simpson panels up to intervals - 3 and one
    3/8 panel over the last three intervals.
    """
    w = np.zeros(intervals + 1)
    m = intervals - 3 if intervals % 2 else intervals  # end of the Simpson panels
    if m:
        w[:m + 1:2], w[1:m:2] = 2.0 / 3.0, 4.0 / 3.0
        w[0] = w[m] = 1.0 / 3.0
    if m < intervals:
        w[m:] += [3.0 / 8.0, 9.0 / 8.0, 9.0 / 8.0, 3.0 / 8.0]
    return w


def spectrum_from_correlation(
    est: CorrelationEstimate, kappa: float, omega_grid
) -> SpectrumEstimate:
    """Numerically integrated spectra 1 +- 2 kappa Re int C(tau) e^{i omega tau} dtau.

    The measured correlation is integrated by composite Simpson's rule on
    its uniform tau grid (an odd interval count ends in one 3/8 panel) and
    completed beyond tau_max with the fitted exponential tail.  Means and
    standard errors come from the per-group estimates.
    """
    omega = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    bad = omega[~np.isfinite(omega)]
    if bad.size:
        raise InvalidParameterError(f"omega must be finite, got {float(bad[0])!r}")
    slopes_p, _ = _group_slopes(est.tau, est.group_plus, np.real(est.corr_plus), est.corr_plus_se)
    slopes_m, _ = _group_slopes(est.tau, est.group_minus, np.real(est.corr_minus), est.corr_minus_se)
    tau = est.tau
    t_max = tau[-1]
    spacing = np.diff(tau)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise InvalidParameterError("the correlation's tau grid must be uniform")
    weights = spacing[0] * _simpson_weights(spacing.size)

    def one_branch(group_means, slopes, sign):
        vals = np.empty((group_means.shape[0], omega.size))
        for j, row in enumerate(np.real(group_means)):
            lam = max(-slopes[j], 1e-12)
            tail = row[-1] * (
                lam * np.cos(omega * t_max) - omega * np.sin(omega * t_max)
            ) / (lam**2 + omega**2)
            core = (row[None, :] * np.cos(omega[:, None] * tau[None, :])) @ weights
            vals[j] = 1.0 + sign * 2.0 * kappa * (core + tail)
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])

    s_plus, se_plus = one_branch(est.group_plus, slopes_p, +1.0)
    s_minus, se_minus = one_branch(est.group_minus, slopes_m, -1.0)
    return SpectrumEstimate(
        omega=omega, s_plus=s_plus, s_plus_se=se_plus, s_minus=s_minus, s_minus_se=se_minus
    )
