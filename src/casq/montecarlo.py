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

Layout: the trajectories are split into work units of _UNIT trajectories
(aligned to 0, so no unit crosses a reduction chunk), and _unit computes
one unit, one interval update per record.  A unit returns per-trajectory
arrays only: x+- at the sampled steps for run, and for
two_time_correlation the lag products of its (2, width, records) record
array, all lags contracted in one einsum pass over a sliding window of
the records and averaged over the time origins.  The blow-up guard tests
max(|alpha|, |alpha_dag|) at every recorded step, the only states
computed.  The units run on a fork-context process pool created for the
call, one worker per usable core unless `jobs` says otherwise, and shut
down before the call returns or raises; with one worker or one unit they
run in the calling process.  The workers call no BLAS.

Reproducibility: every unit owns a counter-based Philox stream,
SeedSequence(seed, spawn_key=(unit index,)), drawn trajectory-major as
(width, intervals, 2), so a trajectory's draws do not depend on how many
trajectories follow it in its unit.  The calling process joins the unit
results of each fixed-size trajectory chunk in index order and reduces
the chunks in index order (numpy pairwise summation within a chunk), so
identical (seed, n_traj, dt, t_end) give bitwise-identical moment series
and correlation estimates for any `jobs`.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidParameterError, NotStableError, TrajectoryBlowupError
from .params import Coefficients, SystemParams, coefficients

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
# trajectories integrated together; two_time_correlation keeps each
# trajectory's whole record, so it works in half the chunk
_RUN_CHUNK = 4096
_CORR_CHUNK = 2048
_UNIT = 2048  # trajectories per work unit; divides both chunk sizes


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
    if ("fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon):
        return multiprocessing.get_context("fork")
    return None


def _workers(jobs) -> int:
    """The jobs argument of run and two_time_correlation: None means usable_cores()."""
    if jobs is None:
        return usable_cores()
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
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
    n_origins: int | None  # set by two_time_correlation: time origins of the lag products
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


def _kernel(p: SystemParams, dt: float, seed: int, record_steps,
            n_origins: int | None = None) -> _Kernel:
    """The _Kernel of one call; rejects a step too coarse for the rates and a negative seed."""
    c = coefficients(p)
    if dt * max(c.lambda_plus, abs(c.lambda_minus)) >= 0.05:
        raise InvalidParameterError(
            f"dt = {dt:.3e} too large: need dt * max(lambda) < 0.05"
        )
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
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
                   n_origins=n_origins, limit=BLOWUP_LIMIT)


def _unit(k: _Kernel, lo: int, hi: int):
    """The vacuum-start trajectories lo..hi-1 at k.record_steps: (result, blowup).

    result holds x_+- = alpha_dag +- alpha at k.record_steps as
    (records, 2, width); when k.n_origins is set it holds instead each
    trajectory's lag products averaged over that many time origins, as
    (2, width, lags).  Each interval to a record is one draw, from the
    unit's Philox stream SeedSequence(k.seed, spawn_key=(lo // _UNIT,)).  A
    magnitude max(|alpha|, |alpha_dag|) above k.limit at a record stops the
    unit and returns (None, (step, peak)); otherwise blowup is None.
    Nothing here calls BLAS, so the unit is safe in a forked worker.
    """
    width, records, intervals = hi - lo, len(k.record_steps), k.keep_p.size
    if k.n_origins is None:
        rec = out = np.empty((records, 2, width), dtype=k.dtype)
    else:
        # rec[q, i, r]: quadrature q (x+, x-) of trajectory lo + i at record r
        rec = np.empty((2, width, records), dtype=k.dtype)
        out = rec.transpose(2, 0, 1)
    start = records - intervals  # 1 when step 0, the vacuum, is recorded
    out[:start] = 0.0
    stream = np.random.SeedSequence(k.seed, spawn_key=(lo // _UNIT,))
    # zeta[i, r, q]: normal of quadrature q for trajectory lo + i over interval r
    zeta = np.random.Generator(np.random.Philox(stream)).standard_normal((width, intervals, 2))
    xp = np.zeros(width, dtype=k.dtype)
    xm = np.zeros(width, dtype=k.dtype)
    for r in range(intervals):
        xp = k.keep_p[r] * xp + k.gain_p[r] * zeta[:, r, 0]
        xm = k.keep_m[r] * xm + k.gain_m[r] * zeta[:, r, 1]
        out[start + r, 0] = xp
        out[start + r, 1] = xm
        peak = 0.5 * max(float(np.abs(xp - xm).max(initial=0.0)),
                         float(np.abs(xp + xm).max(initial=0.0)))
        if peak > k.limit:
            return None, (k.record_steps[start + r], peak)

    if k.n_origins is None:
        return rec, None
    n = k.n_origins
    corr = np.empty((2, width, records - n + 1), dtype=k.dtype)
    for x, lags in zip(rec, corr):
        np.einsum("no,nko->nk", x[:, :n], sliding_window_view(x, n, axis=1), out=lags)
    corr /= n
    return corr, None


def _chunks(k: _Kernel, n_traj: int, chunk_size: int, jobs: int):
    """Yield (lo, hi, result) for each chunk of chunk_size trajectories, in index order.

    result joins the _unit results of trajectories lo..hi-1 along their
    trajectory axis.  The units (_UNIT trajectories each, so none crosses a
    chunk) run on min(jobs, units) worker processes, or in this process
    through builtin map when that is one or worker_context() is None.  The pool
    is shut down before this generator returns, raises or is closed.  The
    first chunk with a unit that blew up raises TrajectoryBlowupError at the
    earliest failing step among its units, with the largest magnitude any
    of them reached there: the step and peak a whole-chunk check reports.
    """
    los = range(0, n_traj, _UNIT)
    his = [min(lo + _UNIT, n_traj) for lo in los]
    workers, pool, context = min(jobs, len(los)), None, worker_context()
    if workers > 1 and context is not None:
        pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        results = (pool.map if pool else map)(functools.partial(_unit, k), los, his)
        axis = -1 if k.n_origins is None else 1
        for lo in range(0, n_traj, chunk_size):
            hi = min(lo + chunk_size, n_traj)
            parts = [next(results) for _ in range(lo, hi, _UNIT)]
            failed = [blowup for _, blowup in parts if blowup is not None]
            if failed:
                step = min(s for s, _ in failed)
                peak = max(v for s, v in failed if s == step)
                raise TrajectoryBlowupError(
                    f"trajectory magnitude {peak:.3e} exceeded {k.limit:.1e} "
                    f"at step {step} (params {k.p})"
                )
            arrays = [result for result, _ in parts]
            yield lo, hi, arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


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
    TrajectoryBlowupError.  The trajectories run on `jobs` worker
    processes (default: the usable cores; 1 runs in this process); the
    result does not depend on jobs.
    """
    c = coefficients(p)
    if c.lambda_minus <= 0:
        raise NotStableError(
            f"stochastic run requires lambda_minus > 0, got {c.lambda_minus:.6g}",
            lambda_minus=c.lambda_minus,
        )
    if not (math.isfinite(dt) and dt > 0 and math.isfinite(t_end) and t_end > 0) or n_traj < 2:
        raise InvalidParameterError(
            f"need finite dt > 0, finite t_end > 0, n_traj >= 2; got dt={dt}, t_end={t_end}, "
            f"n_traj={n_traj}")
    jobs = _workers(jobs)

    n_steps = max(int(round(t_end / dt)), 1)
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 26)
    sample_times = np.atleast_1d(sample_times)
    # half a step of round-off is allowed at either end
    if not np.all((sample_times >= -0.5 * dt) & (sample_times <= t_end + 0.5 * dt)):
        raise InvalidParameterError(f"sample_times must lie in [0, t_end = {t_end:g}]")
    sample_steps = sorted({min(int(round(t / dt)), n_steps) for t in sample_times})
    n_samples = len(sample_steps)
    kernel = _kernel(p, dt, seed, sample_steps)

    # alpha, alpha_dag, alpha^2, alpha_dag*alpha, x_plus^2, x_minus^2
    sums = np.zeros((n_samples, 6), dtype=complex)
    sums_abs2 = np.zeros((n_samples, 6))
    with contextlib.closing(_chunks(kernel, n_traj, _RUN_CHUNK, jobs)) as chunks:
        for _, _, rec in chunks:
            for i, (xp, xm) in enumerate(rec):
                alpha, alpha_dag = 0.5 * (xp - xm), 0.5 * (xp + xm)
                rows = (alpha, alpha_dag, alpha * alpha, alpha_dag * alpha, xp * xp, xm * xm)
                for j, row in enumerate(rows):
                    sums[i, j] += row.sum()
                    mags = np.abs(row)
                    sums_abs2[i, j] += float(mags @ mags)

    means = sums / n_traj
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
    c = coefficients(p)
    if c.lambda_minus <= 0:
        raise NotStableError(
            f"stationary correlation requires lambda_minus > 0, got {c.lambda_minus:.6g}",
            lambda_minus=c.lambda_minus,
        )
    if not (math.isfinite(dt) and dt > 0):
        raise InvalidParameterError(f"dt must be finite and > 0, got {dt}")
    tau = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if tau.size < 2 or tau[0] != 0.0:
        raise InvalidParameterError("tau_grid must start at 0 and hold >= 2 points")
    spacing = np.diff(tau)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise InvalidParameterError("tau_grid must be uniform")
    if groups < 2:
        raise InvalidParameterError(f"need groups >= 2 for standard errors, got {groups}")
    if n_traj < 2 * groups:
        raise InvalidParameterError(f"need n_traj >= {2 * groups} for {groups} error groups")
    jobs = _workers(jobs)
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
    kernel = _kernel(p, dt, seed, range(burn_steps, total + 1, stride), n_origins)

    # corr[q, i, l]: lag-l product of quadrature q (x+, x-) of trajectory
    # lo + i, averaged over the time origins
    group_sum = np.zeros((2, groups, n_lags), dtype=kernel.dtype)
    group_count = np.zeros(groups, dtype=int)
    with contextlib.closing(_chunks(kernel, n_traj, _CORR_CHUNK, jobs)) as chunks:
        for lo, hi, corr in chunks:
            gid = np.arange(lo, hi) % groups
            for g in range(groups):
                mask = gid == g
                if mask.any():
                    group_sum[:, g] += corr[:, mask].sum(axis=1)
                    group_count[g] += int(mask.sum())

    group_sum_p, group_sum_m = group_sum
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


def spectrum_from_correlation(
    est: CorrelationEstimate, kappa: float, omega_grid
) -> SpectrumEstimate:
    """Numerically integrated spectra 1 +- 2 kappa Re int C(tau) e^{i omega tau} dtau.

    The measured correlation is integrated by the trapezoid rule on its tau
    grid and completed beyond tau_max with the fitted exponential tail.
    Means and standard errors come from the per-group estimates.
    """
    omega = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    slopes_p, _ = _group_slopes(est.tau, est.group_plus, np.real(est.corr_plus), est.corr_plus_se)
    slopes_m, _ = _group_slopes(est.tau, est.group_minus, np.real(est.corr_minus), est.corr_minus_se)
    tau = est.tau
    t_max = tau[-1]

    def one_branch(group_means, slopes, sign):
        vals = np.empty((group_means.shape[0], omega.size))
        for j, row in enumerate(np.real(group_means)):
            lam = max(-slopes[j], 1e-12)
            tail = row[-1] * (
                lam * np.cos(omega * t_max) - omega * np.sin(omega * t_max)
            ) / (lam**2 + omega**2)
            core = np.trapezoid(row[None, :] * np.cos(omega[:, None] * tau[None, :]), tau, axis=1)
            vals[j] = 1.0 + sign * 2.0 * kappa * (core + tail)
        return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(vals.shape[0])

    s_plus, se_plus = one_branch(est.group_plus, slopes_p, +1.0)
    s_minus, se_minus = one_branch(est.group_minus, slopes_m, -1.0)
    return SpectrumEstimate(
        omega=omega, s_plus=s_plus, s_plus_se=se_plus, s_minus=s_minus, s_minus_se=se_minus
    )
