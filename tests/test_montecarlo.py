"""Doubled-phase-space Monte Carlo: noise factorization, reproducibility,
moment convergence against the deterministic engines, and the stationary
two-time structure.

Stochastic assertions run at fixed seeds.  The tests that compare with
another engine set their bands by one rule: a correct kernel fails each
test by chance with probability 0.27% (the two-sided 3-sigma tail), split
evenly over the test's comparisons (Bonferroni).  A mean over many
trajectories is normal (z_band); a mean over 10 trajectory groups, with
the groups' spread as its error, is Student t with 9 degrees of freedom
(t_band).  Their dt keeps the Euler-Maruyama chain's modelled offset from
the continuum, e.g. the factor 1 / (1 - lambda dt / 2) on a stationary
variance, below 0.1 standard error, and their trajectory counts make each
of them fail under a 2% error in the noise gain or the decay rate.
"""

import ast
import concurrent.futures
import dataclasses
import functools
import inspect
import math
import multiprocessing
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from casq import analytic, cli, moments, montecarlo
from casq.errors import InvalidParameterError, NotStableError, TrajectoryBlowupError
from casq.params import Coefficients, SystemParams, coefficients, threshold_tolerance


MODULE_POINT = SystemParams(a=4, kappa=0.8, beta=0.2).with_relative_drive(0.5)
FALSE_ALARM = 0.0027  # chance failure rate of one stochastic test


def z_band(comparisons):
    """Band in standard errors for one of `comparisons` normal statistics."""
    return stats.norm.isf(FALSE_ALARM / 2 / comparisons)


def t_band(comparisons, groups=10):
    """Band in group standard errors for one of `comparisons` group-mean statistics."""
    return stats.t.isf(FALSE_ALARM / 2 / comparisons, groups - 1)


def assert_fields_equal(a, b):
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


def em_reference(p, n_traj, dt, n_steps, seed, record_steps):
    """Euler-Maruyama on (alpha, alpha_dag) directly, the form `montecarlo`
    stepped before it moved to the decoupled quadratures x+- = alpha_dag +- alpha.

    Draws from the same per-trajectory Philox streams, spawned from
    (seed, trajectory index), and returns {step: (alpha, alpha_dag)} over all
    n_traj trajectories for each step in record_steps (step 0 is the vacuum).
    """
    c = coefficients(p)
    noise = montecarlo.factor_noise(c)
    if noise.is_real:
        dtype, amp_p, amp_m = float, noise.amp_plus.real, noise.amp_minus.real
    else:
        dtype, amp_p, amp_m = complex, noise.amp_plus, noise.amp_minus
    decay, coupling, sdt = c.decay, c.coupling, math.sqrt(dt)
    children = np.random.SeedSequence(seed).spawn(n_traj)
    xi = np.stack([np.random.Generator(np.random.Philox(child)).standard_normal((n_steps, 2))
                   for child in children])
    alpha = np.zeros(n_traj, dtype=dtype)
    alpha_dag = np.zeros(n_traj, dtype=dtype)
    out = {0: (alpha, alpha_dag)}
    for k in range(n_steps):
        xi1, xi2 = xi[:, k, 0], xi[:, k, 1]
        alpha, alpha_dag = (
            alpha + dt * (-decay * alpha + coupling * alpha_dag) + sdt * (amp_p * xi1 + amp_m * xi2),
            alpha_dag + dt * (-decay * alpha_dag + coupling * alpha) + sdt * (amp_p * xi1 - amp_m * xi2),
        )
        if k + 1 in record_steps:
            out[k + 1] = (alpha, alpha_dag)
    return {s: out[s] for s in record_steps}


def em_interval_reference(p, n_traj, dt, seed, record_steps):
    """The Euler-Maruyama chain on (alpha, alpha_dag) drawn only at record_steps.

    One EM step is z <- M z + B xi with M = I + dt [[-decay, coupling],
    [coupling, -decay]] and B = sqrt(dt) [[amp_p, amp_m], [amp_p, -amp_m]].
    B's columns are eigenvectors of M (eigenvalues k_p, k_m), so g steps are
    z <- M^g z + B diag(s_p, s_m) zeta with s**2 = sum_{j<g} k**(2j).  zeta
    comes from the unit streams: SeedSequence(seed, spawn_key=(unit,)),
    (width, intervals, 2) per unit of _UNIT trajectories.  Returns
    {step: (alpha, alpha_dag)} for each step in record_steps (0 is the vacuum).
    """
    c = coefficients(p)
    noise = montecarlo.factor_noise(c)
    if noise.is_real:
        dtype, amp_p, amp_m = float, noise.amp_plus.real, noise.amp_minus.real
    else:
        dtype, amp_p, amp_m = complex, noise.amp_plus, noise.amp_minus
    step = np.eye(2) + dt * np.array([[-c.decay, c.coupling], [c.coupling, -c.decay]])
    b = math.sqrt(dt) * np.array([[amp_p, amp_m], [amp_p, -amp_m]])
    k_p, k_m = 1.0 + dt * (c.coupling - c.decay), 1.0 - dt * (c.coupling + c.decay)
    steps = [s for s in record_steps if s > 0]
    gaps = np.diff(steps, prepend=0)
    unit = montecarlo._UNIT
    zeta = np.concatenate([
        np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(u,))))
        .standard_normal((min(lo + unit, n_traj) - lo, gaps.size, 2))
        for u, lo in enumerate(range(0, n_traj, unit))
    ])
    alpha = np.zeros(n_traj, dtype=dtype)
    alpha_dag = np.zeros(n_traj, dtype=dtype)
    out = {0: (alpha, alpha_dag)}
    for r, (s, g) in enumerate(zip(steps, gaps)):
        m = np.linalg.matrix_power(step, g)
        s_p, s_m = (math.sqrt(math.fsum(k ** (2 * j) for j in range(g))) for k in (k_p, k_m))
        w1, w2 = s_p * zeta[:, r, 0], s_m * zeta[:, r, 1]
        alpha, alpha_dag = (
            m[0, 0] * alpha + m[0, 1] * alpha_dag + b[0, 0] * w1 + b[0, 1] * w2,
            m[1, 0] * alpha + m[1, 1] * alpha_dag + b[1, 0] * w1 + b[1, 1] * w2,
        )
        out[s] = (alpha, alpha_dag)
    return {s: out[s] for s in record_steps}


def small_run_n_cl(jobs):
    return montecarlo.run(MODULE_POINT, 4096, 0.1, 0.01, seed=1, jobs=jobs).n_cl


@pytest.fixture
def pool_always(monkeypatch):
    """Send every ensemble of more than one unit to the pool, however little its work.

    The tests of the pooled path run ensembles far below _POOL_MIN_WORK."""
    monkeypatch.setattr(montecarlo, "_POOL_MIN_WORK", 0)


class TestNoiseFactorization:
    def test_no_drive_no_atoms(self):
        noise = montecarlo.factor_noise(coefficients(SystemParams(a=0, kappa=0.8, beta=0)))
        assert noise.amp_plus == 0 and noise.amp_minus == 0

    def test_pure_dpa(self):
        noise = montecarlo.factor_noise(
            coefficients(SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2))
        )
        assert noise.amp_plus == pytest.approx(math.sqrt(0.1), rel=1e-14)
        assert noise.amp_minus == pytest.approx(math.sqrt(0.1), rel=1e-14)

    def test_laser_with_drive(self):
        noise = montecarlo.factor_noise(
            coefficients(SystemParams(a=100, kappa=0.8, beta=0, epsilon=0.2))
        )
        assert noise.amp_plus == pytest.approx(math.sqrt(50.1), rel=1e-13)
        assert noise.amp_minus == pytest.approx(math.sqrt(0.1), rel=1e-13)
        assert noise.is_real

    def test_eigenvalue_identities_including_imaginary(self):
        cases = [
            coefficients(MODULE_POINT),
            # fabricated set with a negative minus radicand: amp_minus imaginary
            Coefficients(r=1.0, s=2.0, u=0.0, v=0.0, b=1.0, kappa=4.0, epsilon=0.5,
                         lambda_minus=0.5, lambda_plus=2.5),
        ]
        for c in cases:
            noise = montecarlo.factor_noise(c)
            assert noise.amp_plus**2 + noise.amp_minus**2 == pytest.approx(
                c.epsilon - 2 * c.v, rel=1e-12, abs=1e-12
            )
            assert noise.amp_plus**2 - noise.amp_minus**2 == pytest.approx(
                2 * c.r, rel=1e-12, abs=1e-12
            )
        assert montecarlo.factor_noise(cases[1]).amp_minus.imag > 0


@settings(max_examples=200, deadline=None)
@given(keep=st.floats(0.95, 1.0, exclude_min=True), gap=st.integers(1, 10_000),
       gain=st.floats(1e-3, 10.0), imaginary=st.booleans())
def test_interval_gain_sums_the_steps(keep, gap, gain, imaginary):
    # gap steps of x <- keep x + g xi add variance g**2 sum_{j<gap} keep**(2j)
    g = 1j * gain if imaginary else gain
    decay, spread = montecarlo._span(keep, g, [1, gap])
    assert spread[0] == g and decay[0] == keep
    want = math.fsum(keep ** (2 * j) * (g * g).real for j in range(gap))
    got = spread[1] * spread[1]
    assert got.imag == 0.0
    assert abs(got.real - want) <= 1e-12 * abs(want)


class TestIncrements:
    def test_covariance_matches_diffusion(self):
        # sample covariance of the generated increments reproduces the
        # normally ordered diffusion matrix within 3 standard errors
        c = coefficients(MODULE_POINT)
        noise = montecarlo.factor_noise(c)
        dt = 0.004
        rng = np.random.default_rng(1913)
        n = 400_000
        xi = rng.standard_normal((2, n))
        dw_alpha = math.sqrt(dt) * (noise.amp_plus.real * xi[0] + noise.amp_minus.real * xi[1])
        dw_dag = math.sqrt(dt) * (noise.amp_plus.real * xi[0] - noise.amp_minus.real * xi[1])

        prod_self = dw_alpha * dw_alpha
        prod_cross = dw_alpha * dw_dag
        se_self = prod_self.std(ddof=1) / math.sqrt(n)
        se_cross = prod_cross.std(ddof=1) / math.sqrt(n)
        assert abs(prod_self.mean() - (c.epsilon - 2 * c.v) * dt) < 3 * se_self
        assert abs(prod_cross.mean() - 2 * c.r * dt) < 3 * se_cross
        assert abs(dw_alpha.mean()) < 3 * dw_alpha.std(ddof=1) / math.sqrt(n)


class TestRun:
    def test_silent_vacuum(self):
        series = montecarlo.run(
            SystemParams(a=0, kappa=0.8, beta=0, epsilon=0), 64, 1.0, 0.01, seed=5
        )
        assert np.all(series.alpha_sq == 0)
        assert np.all(series.n_cl == 0)
        assert np.all(series.minus_sq_se == 0)

    def test_bitwise_reproducible(self, pool_always):
        # 6444 trajectories are four 2048-trajectory work units, the last
        # partial, summed in unit order whichever worker computes them
        kw = dict(n_traj=6444, t_end=2.0, dt=0.01, seed=97)
        s1 = montecarlo.run(MODULE_POINT, **kw, jobs=1)
        assert_fields_equal(s1, montecarlo.run(MODULE_POINT, **kw, jobs=1))
        assert_fields_equal(s1, montecarlo.run(MODULE_POINT, **kw, jobs=2))
        s3 = montecarlo.run(MODULE_POINT, **{**kw, "seed": 98}, jobs=1)
        assert not np.array_equal(s1.n_cl, s3.n_cl)

    def test_moments_track_ode_solution(self):
        # four comparisons at each of 25 times; at dt 5e-4 the chain's
        # modelled offset from the ODE is at most 0.06 se
        series = montecarlo.run(MODULE_POINT, 32768, 30.0, 0.0005, seed=3111)
        z = z_band(4 * (series.times.size - 1))
        checked = 0
        for i, t in enumerate(series.times):
            if t == 0.0:
                continue
            ref = moments.propagate(MODULE_POINT, float(t))[-1]
            checked += 1
            assert abs(series.n_cl[i].real - ref.n_cl) <= z * series.n_cl_se[i]
            assert abs(series.plus_sq[i].real - ref.var_flow_plus) <= z * series.plus_sq_se[i]
            assert abs(series.minus_sq[i].real - ref.var_flow_minus) <= z * series.minus_sq_se[i]
            assert abs(series.mean_alpha[i]) <= z * max(series.mean_alpha_se[i], 1e-300)
        assert checked >= 20

    def test_pure_dpa_mean_photon(self):
        p = SystemParams(a=0, kappa=0.8, beta=0, epsilon=0.2)
        series = montecarlo.run(p, 20000, 50.0, 0.01, seed=2204, sample_times=[50.0])
        assert abs(series.n_cl[-1].real - 1.0 / 6.0) <= 3 * series.n_cl_se[-1]

    def test_steady_matches_closed_forms(self):
        c = coefficients(MODULE_POINT)
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        series = montecarlo.run(MODULE_POINT, 20000, 32.0, 0.005, seed=630, sample_times=[32.0])
        assert abs(series.plus_sq[-1].real - s_plus) <= 3 * series.plus_sq_se[-1]
        assert abs(series.minus_sq[-1].real - s_minus) <= 3 * series.minus_sq_se[-1]

    def test_se_shrinks_like_sqrt_n(self):
        kw = dict(t_end=4.0, dt=0.01, sample_times=[4.0])
        s1 = montecarlo.run(MODULE_POINT, 4096, seed=11, **kw)
        s2 = montecarlo.run(MODULE_POINT, 8192, seed=11, **kw)
        ratio = s1.plus_sq_se[-1] / s2.plus_sq_se[-1]
        assert ratio == pytest.approx(math.sqrt(2.0), rel=0.2)

    def test_dt_refinement_study(self):
        # the Euler-Maruyama chain for the squeezed combination has the exact
        # stationary variance X_minus/lambda_plus / (1 - lambda_plus dt / 2):
        # each run must match the discrete prediction at its own dt (the
        # first-order bias model), and the model's bias shrinks linearly in dt
        c = coefficients(MODULE_POINT)
        exact = analytic.steady_alpha_sq(c)[1]
        preds = {}
        for dt in (0.03, 0.0075):
            series = montecarlo.run(MODULE_POINT, 60000, 30.0, dt, seed=505,
                                    sample_times=[30.0])
            predicted = exact / (1.0 - 0.5 * c.lambda_plus * dt)
            assert abs(series.minus_sq[-1].real - predicted) <= 3 * series.minus_sq_se[-1]
            preds[dt] = (series.minus_sq[-1].real, series.minus_sq_se[-1], predicted)
        # the coarse run resolves its bias away from the continuum value
        got, se, predicted = preds[0.03]
        assert abs(got - exact) > 2 * se
        assert predicted - exact == pytest.approx(4 * (preds[0.0075][2] - exact), rel=0.02)

    def test_matches_em_reference(self):
        # 5000 trajectories are three work units, the last partial;
        # intervals of 5 to 295 steps pin the interval drift
        # (1 - lambda dt)**g and gains of the quadrature kernel
        n_traj, dt, n_steps, seed = 5000, 0.01, 600, 4242
        steps = [0, 5, 300, 512, 600]
        series = montecarlo.run(MODULE_POINT, n_traj, n_steps * dt, dt, seed,
                                sample_times=[s * dt for s in steps])
        ref = em_interval_reference(MODULE_POINT, n_traj, dt, seed, steps)
        for i, s in enumerate(steps):
            alpha, alpha_dag = ref[s]
            plus, minus = alpha_dag + alpha, alpha_dag - alpha
            rows = {"mean_alpha": alpha, "mean_alpha_dag": alpha_dag, "alpha_sq": alpha * alpha,
                    "n_cl": alpha_dag * alpha, "plus_sq": plus * plus, "minus_sq": minus * minus}
            for name, row in rows.items():
                se = row.std() / math.sqrt(n_traj - 1)
                np.testing.assert_allclose(getattr(series, name)[i], row.mean(), rtol=1e-12,
                                           atol=0, err_msg=f"{name} at step {s}")
                np.testing.assert_allclose(getattr(series, name + "_se")[i], se, rtol=1e-12,
                                           atol=0, err_msg=f"{name}_se at step {s}")

    def test_unstable_rejected(self):
        with pytest.raises(NotStableError):
            montecarlo.run(MODULE_POINT.with_relative_drive(1.2), 64, 1.0, 0.005, seed=1)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed"):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=-1)

    def test_oversized_step_rejected(self):
        with pytest.raises(InvalidParameterError):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.2, seed=1)

    @pytest.mark.parametrize("dt, t_end", [
        (math.nan, 1.0), (math.inf, 1.0), (0.01, math.nan), (0.01, math.inf),
    ], ids=["dt-nan", "dt-inf", "t_end-nan", "t_end-inf"])
    def test_non_finite_time_rejected(self, dt, t_end):
        with pytest.raises(InvalidParameterError, match="finite"):
            montecarlo.run(MODULE_POINT, 64, t_end, dt, seed=1)

    def test_blowup_guard(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOWUP_LIMIT", 1e-12)
        with pytest.raises(TrajectoryBlowupError):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=1)

    @pytest.mark.parametrize("seed, limit, peak, step", [
        (18, 6.5, "6.720e+00", 512), (25, 6.7, "6.940e+00", 512), (25, 7.0, "7.202e+00", 1536),
    ], ids=["earliest-in-later-unit", "two-units-at-step", "one-unit"])
    def test_blowup_reported_alike_in_workers(self, monkeypatch, pool_always, seed, limit, peak,
                                              step):
        # peaks of the three work units at the recorded steps 512..2048 are
        # seed 18: 5.65 5.86 6.05 7.26 / 5.94 6.75 6.12 5.77 / 6.72 5.86 5.84 5.89
        # seed 25: 6.80 6.52 6.57 5.75 / 5.99 5.68 7.20 6.93 / 6.94 6.73 6.00 5.83
        # The whole ensemble is checked: the earliest step at which any unit
        # exceeds the limit, with the largest magnitude there.  At 6.5 (seed
        # 18) the units fail at 2048, 1024 and 512, so neither the first
        # failing unit nor the largest peak is reported; at 6.7 (seed 25)
        # units 0 and 2 fail at 512 and unit 2's larger peak is reported,
        # not unit 1's 7.20 at 1536; at 7.0 only unit 1 fails
        monkeypatch.setattr(montecarlo, "BLOWUP_LIMIT", limit)
        pattern = rf"magnitude {re.escape(peak)} exceeded \S+ at step {step} "
        messages = []
        for jobs in (1, 2):
            with pytest.raises(TrajectoryBlowupError, match=pattern) as exc:
                montecarlo.run(MODULE_POINT, 6144, 20.48, 0.01, seed=seed, jobs=jobs,
                               sample_times=[5.12, 10.24, 15.36, 20.48])
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_unit_draws_do_not_depend_on_width(self):
        # the unit stream is drawn trajectory-major, so a trajectory's path
        # does not depend on how many trajectories follow it in its unit
        def records(rec, lo):
            return rec

        for steps in ([0, 7, 100, 101], range(3, 40, 4)):
            kernel = montecarlo._kernel(MODULE_POINT, 0.01, 5, steps, records)
            short, _ = montecarlo._unit(kernel, 0, 1000)
            full, _ = montecarlo._unit(kernel, 0, 2048)
            np.testing.assert_array_equal(short, full[:, :1000])

    @pytest.mark.parametrize("width", [7, 2048])
    def test_unit_returns_sums_without_a_trajectory_axis(self, width):
        # each unit reduces its own trajectories, so the calling process
        # receives sums whose shapes do not depend on the unit's width
        kernel = montecarlo._kernel(MODULE_POINT, 0.01, 5, [0, 7, 100], montecarlo._moment_sums)
        (sums, sums_abs2), blowup = montecarlo._unit(kernel, 2048, 2048 + width)
        assert blowup is None and sums.shape == sums_abs2.shape == (3, 6)
        lags = functools.partial(montecarlo._lag_sums, n_origins=4, groups=3)
        lag_kernel = montecarlo._kernel(MODULE_POINT, 0.01, 5, range(3, 40, 4), lags)
        (group_sums, sizes), blowup = montecarlo._unit(lag_kernel, 2048, 2048 + width)
        assert blowup is None and group_sums.shape == (2, 3, 7)
        np.testing.assert_array_equal(sizes, np.bincount(np.arange(2048, 2048 + width) % 3))

    def test_same_law_as_em_reference(self):
        # the recorded states have the step-by-step chain's law: four moments
        # at three steps against em_reference run on other seeds, each
        # difference within its two-sample band
        n_traj, dt, n_steps = 30000, 0.02, 150
        steps = [3, 40, 150]
        series = montecarlo.run(MODULE_POINT, n_traj, n_steps * dt, dt, seed=8128,
                                sample_times=[s * dt for s in steps])
        ref = em_reference(MODULE_POINT, n_traj, dt, n_steps, 8129, steps)
        z = z_band(4 * len(steps))
        for i, s in enumerate(steps):
            alpha, alpha_dag = ref[s]
            plus, minus = alpha_dag + alpha, alpha_dag - alpha
            rows = {"mean_alpha": alpha, "n_cl": alpha_dag * alpha,
                    "plus_sq": plus * plus, "minus_sq": minus * minus}
            for name, row in rows.items():
                se = math.hypot(getattr(series, name + "_se")[i], row.std() / math.sqrt(n_traj - 1))
                assert abs(getattr(series, name)[i] - row.mean()) <= z * se, f"{name} at step {s}"

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_no_workers_rejected(self, jobs):
        with pytest.raises(InvalidParameterError, match="jobs"):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=1, jobs=jobs)

    def test_one_unit_runs_without_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        montecarlo.run(MODULE_POINT, 2048, 0.1, 0.01, seed=1, jobs=2)
        montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], 2048, 0.01, seed=1,
                                        t_burn=0.1, jobs=2)
        montecarlo.run(MODULE_POINT, 4096, 0.1, 0.01, seed=1, jobs=1)

    def test_small_run_skips_the_pool_bitwise(self, monkeypatch):
        # 20000 trajectories recorded once, as `casq verify` runs them, are
        # below the pool's break-even; forced onto the pool they give the
        # same bits
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        kw = dict(n_traj=20000, t_end=10.0, dt=0.0025, seed=7041, sample_times=[10.0], jobs=2)
        assert 20000 < montecarlo._POOL_MIN_WORK
        in_process = montecarlo.run(MODULE_POINT, **kw)
        assert started == []
        monkeypatch.setattr(montecarlo, "_POOL_MIN_WORK", 0)
        pooled = montecarlo.run(MODULE_POINT, **kw)
        assert len(started) == 1 or montecarlo.worker_context() is None
        assert_fields_equal(in_process, pooled)

    def test_daemonic_process_runs_in_process(self, pool_always):
        # a multiprocessing.Pool worker is daemonic and may not start children
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(small_run_n_cl, (2,)).get(timeout=60)
        np.testing.assert_array_equal(got, small_run_n_cl(1))

    @pytest.mark.parametrize("outside", [-0.5, 3.0])
    def test_sample_time_outside_run_rejected(self, outside):
        with pytest.raises(InvalidParameterError):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=1, sample_times=[outside, 0.5])

    def test_no_sample_time_rejected(self):
        with pytest.raises(InvalidParameterError, match="sample_times"):
            montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=1, sample_times=[])

    def test_sample_time_round_off_at_ends_accepted(self):
        series = montecarlo.run(MODULE_POINT, 64, 1.0, 0.01, seed=1,
                                sample_times=[-0.004, 1.004])
        np.testing.assert_allclose(series.times, [0.0, 1.0])


TAU = np.arange(0.0, 4.0001, 0.05)


@pytest.fixture(scope="module")
def estimate():
    # at dt 2.5e-4 the chain's modelled offset is 0.09 se in the zero-lag
    # values and at most 0.02 se in the spectrum
    return montecarlo.two_time_correlation(
        MODULE_POINT, TAU, n_traj=16384, dt=0.00025, seed=1804
    )


class TestTwoTimeCorrelation:
    def test_zero_lag_matches_steady_moments(self, estimate):
        c = coefficients(MODULE_POINT)
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        t = t_band(2)
        assert abs(estimate.corr_plus[0].real - s_plus) <= t * estimate.corr_plus_se[0]
        assert abs(estimate.corr_minus[0].real - s_minus) <= t * estimate.corr_minus_se[0]

    def test_fitted_decay_rates(self):
        # the rates need 8x the trajectories of the fixture to resolve a 2%
        # decay error; the chain's rate -log(1 - lambda dt) / dt is at most
        # 0.08 se off lambda at dt 1e-3
        estimate = montecarlo.two_time_correlation(
            MODULE_POINT, TAU, n_traj=131072, dt=0.001, seed=1804
        )
        c = coefficients(MODULE_POINT)
        fit = montecarlo.fit_decay_rates(estimate)
        t = t_band(2)
        assert abs(fit.rate_plus - c.lambda_minus) <= t * fit.rate_plus_se
        assert abs(fit.rate_minus - c.lambda_plus) <= t * fit.rate_minus_se

    def test_spectrum_quadrature_matches_closed_form(self, estimate):
        kappa = MODULE_POINT.kappa
        omegas = np.array([0.0, kappa / 2, kappa])
        est = montecarlo.spectrum_from_correlation(estimate, kappa, omegas)
        curve = analytic.spectrum(MODULE_POINT, omegas)
        t = t_band(2 * omegas.size)
        for i in range(omegas.size):
            assert abs(est.s_plus[i] - curve.s_plus[i]) <= t * est.s_plus_se[i]
            assert abs(est.s_minus[i] - curve.s_minus[i]) <= t * est.s_minus_se[i]

    def test_oversized_step_rejected(self):
        # a non-positive step is rejected before it reaches the stride
        for dt in (0.2, 0.0, -0.01):
            with pytest.raises(InvalidParameterError):
                montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.2], 100, dt, seed=1)

    @pytest.mark.parametrize("dt", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_step_rejected(self, dt):
        with pytest.raises(InvalidParameterError, match="finite"):
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], 100, dt, seed=1)

    def test_bitwise_reproducible(self, pool_always):
        # 4500 trajectories are three 2048-trajectory work units, the last partial
        tau = np.arange(5) * 0.05
        kw = dict(tau_grid=tau, n_traj=4500, dt=0.01, seed=77, t_burn=1.0, t_avg=0.5)
        e1 = montecarlo.two_time_correlation(MODULE_POINT, **kw, jobs=1)
        assert_fields_equal(e1, montecarlo.two_time_correlation(MODULE_POINT, **kw, jobs=1))
        assert_fields_equal(e1, montecarlo.two_time_correlation(MODULE_POINT, **kw, jobs=2))

    def test_no_workers_rejected(self):
        with pytest.raises(InvalidParameterError, match="jobs"):
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], 100, 0.01, seed=1, jobs=0)

    def test_blowup_guard(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOWUP_LIMIT", 1e-12)
        with pytest.raises(TrajectoryBlowupError):
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], 100, 0.01, seed=1)

    def test_group_means_match_em_reference(self):
        # 4500 trajectories are three work units, the last partial, whose
        # error groups start at different indices; one 500-step burn-in
        # interval, then 5-step intervals
        tau = np.arange(5) * 0.05
        n_traj, dt, groups, seed = 4500, 0.01, 10, 77
        est = montecarlo.two_time_correlation(MODULE_POINT, tau, n_traj, dt, seed,
                                              t_burn=5.0, t_avg=0.5, groups=groups)
        stride, burn, n_origins = 5, 500, 10
        n_records = tau.size + n_origins - 1
        steps = [burn + r * stride for r in range(n_records)]
        ref = em_interval_reference(MODULE_POINT, n_traj, dt, seed, steps)
        for sign, got in ((1.0, est.group_plus), (-1.0, est.group_minus)):
            rec = np.stack([ref[s][1] + sign * ref[s][0] for s in steps], axis=1)
            lag = np.stack([(rec[:, :n_origins] * rec[:, k:k + n_origins]).mean(axis=1)
                            for k in range(tau.size)], axis=1)
            want = np.stack([lag[g::groups].mean(axis=0) for g in range(groups)])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_many_lag_products_match_direct_loop(self):
        # 40 lags over 25 time origins, so every record sits in many lag
        # windows; 3000 trajectories fill one 2048-trajectory unit and part
        # of a second; the lag products are checked against the per-lag loop
        tau = np.arange(40) * 0.02
        n_traj, dt, groups, seed = 3000, 0.01, 6, 2718
        est = montecarlo.two_time_correlation(MODULE_POINT, tau, n_traj, dt, seed,
                                              t_burn=1.0, t_avg=0.5, groups=groups)
        stride, burn, n_origins = 2, 100, 25
        n_records = tau.size + n_origins - 1
        steps = [burn + r * stride for r in range(n_records)]
        ref = em_interval_reference(MODULE_POINT, n_traj, dt, seed, steps)
        for sign, got in ((1.0, est.group_plus), (-1.0, est.group_minus)):
            rec = np.stack([ref[s][1] + sign * ref[s][0] for s in steps], axis=1)
            lag = np.empty((n_traj, tau.size))
            for k in range(tau.size):
                lag[:, k] = (rec[:, :n_origins] * rec[:, k:k + n_origins]).mean(axis=1)
            want = np.stack([lag[g::groups].mean(axis=0) for g in range(groups)])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kwargs", [
        dict(groups=0), dict(groups=1), dict(t_burn=-5.0), dict(t_avg=-1.0),
        dict(t_burn=math.nan), dict(t_avg=math.inf), dict(seed=-1),
    ], ids=["groups-0", "groups-1", "t_burn-negative", "t_avg-negative", "t_burn-nan",
            "t_avg-inf", "seed-negative"])
    def test_bad_input_rejected(self, kwargs):
        kwargs = {"seed": 1, **kwargs}
        with pytest.raises(InvalidParameterError):
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], 100, 0.01, **kwargs)

    @pytest.mark.parametrize("tau", [[0.0, 0.015, 0.03], [0.0, 0.001, 0.002]],
                             ids=["1.5-steps", "0.1-steps"])
    def test_tau_spacing_off_step_grid_rejected(self, tau):
        # the spacing used to be rounded to whole steps: [0, 0.02, 0.04], [0, 0.01, 0.02]
        with pytest.raises(InvalidParameterError, match="whole number of steps"):
            montecarlo.two_time_correlation(MODULE_POINT, tau, 100, 0.01, seed=1)

    def test_tau_grid_validation(self):
        with pytest.raises(InvalidParameterError):
            montecarlo.two_time_correlation(MODULE_POINT, [0.5, 1.0], 100, 0.005, seed=1)
        with pytest.raises(InvalidParameterError):
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1, 0.5], 100, 0.005, seed=1)
        with pytest.raises(NotStableError):
            montecarlo.two_time_correlation(
                MODULE_POINT.with_relative_drive(1.2), [0.0, 0.1], 100, 0.005, seed=1
            )


def exact_correlations(tau):
    """Noise-free C(tau) = C(0) exp(-lambda tau) at MODULE_POINT, as two equal groups."""
    c = coefficients(MODULE_POINT)
    s_plus, s_minus = analytic.steady_alpha_sq(c)
    plus, minus = s_plus * np.exp(-c.lambda_minus * tau), s_minus * np.exp(-c.lambda_plus * tau)
    zero = np.zeros(tau.size)
    return montecarlo.CorrelationEstimate(
        tau=tau, corr_plus=plus.astype(complex), corr_plus_se=zero,
        corr_minus=minus.astype(complex), corr_minus_se=zero, n_traj=2,
        group_plus=np.stack([plus, plus]), group_minus=np.stack([minus, minus]))


@pytest.mark.parametrize("tau", [TAU, TAU[:-1]], ids=["80-intervals", "79-intervals"])
def test_spectrum_quadrature_of_exact_correlations(tau):
    # the quadrature must reproduce the closed-form spectra; the trapezoid
    # rule is 3.5e-4 to 1.6e-3 off here, composite Simpson within 5e-7
    est = exact_correlations(tau)
    omegas = np.array([0.0, MODULE_POINT.kappa / 2, MODULE_POINT.kappa])
    got = montecarlo.spectrum_from_correlation(est, MODULE_POINT.kappa, omegas)
    want = analytic.spectrum(MODULE_POINT, omegas)
    np.testing.assert_allclose(got.s_plus, want.s_plus, rtol=0, atol=1e-5)
    np.testing.assert_allclose(got.s_minus, want.s_minus, rtol=0, atol=1e-5)


@pytest.mark.parametrize("omega", [math.nan, math.inf])
def test_spectrum_non_finite_omega_rejected(omega):
    # as analytic.spectrum refuses it
    with pytest.raises(InvalidParameterError, match="omega must be finite"):
        montecarlo.spectrum_from_correlation(exact_correlations(TAU), MODULE_POINT.kappa,
                                             [0.0, omega])


def test_at_threshold_refused_like_the_other_engines(tmp_path):
    # lambda_minus = 3.3e-10 is within threshold_tolerance: params.stability
    # calls the point AT_THRESHOLD and the steady-state engines refuse it
    args = ["--a", "25", "--beta", "0.1", "--epsilon-rel-threshold", "0.9999999998"]
    p = SystemParams(a=25, kappa=0.8, beta=0.1).with_relative_drive(0.9999999998)
    assert 0 < coefficients(p).lambda_minus <= threshold_tolerance(p)
    with pytest.raises(NotStableError):
        montecarlo.run(p, 64, 1.0, 0.01, seed=1)
    with pytest.raises(NotStableError):
        montecarlo.two_time_correlation(p, [0.0, 0.1], 64, 0.01, seed=1)
    assert cli.main(["mc", *args, "--n-traj", "64", "--out", str(tmp_path / "mc.csv")]) == 3
    assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("engine, name, value", [
    ("run", "n_traj", 100.0), ("run", "n_traj", True), ("run", "seed", 1.5),
    ("run", "jobs", 1.5), ("corr", "n_traj", 100.0), ("corr", "groups", 2.5),
    ("corr", "seed", 1.5), ("corr", "jobs", 1.5),
], ids=["run-n_traj-float", "run-n_traj-bool", "run-seed", "run-jobs",
        "corr-n_traj", "corr-groups", "corr-seed", "corr-jobs"])
def test_non_integer_counts_rejected(monkeypatch, engine, name, value):
    # every count is checked before any trajectory is computed
    def no_work(*args, **kwargs):
        raise AssertionError("trajectories were computed")

    monkeypatch.setattr(montecarlo, "_ensemble", no_work)
    kwargs = {"n_traj": 100, "seed": 1, "dt": 0.01, name: value}
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
        if engine == "run":
            montecarlo.run(MODULE_POINT, t_end=1.0, **kwargs)
        else:
            montecarlo.two_time_correlation(MODULE_POINT, [0.0, 0.1], **kwargs)


def test_workers_call_no_blas():
    # the units and their reductions run in forked workers, where a BLAS
    # thread pool inherited from the parent may deadlock
    banned_calls = {"dot", "matmul", "inner", "tensordot", "vdot"}
    workers = {"_unit", "_moment_sums", "_lag_sums"}
    checked = set()
    for fn in ast.walk(ast.parse(inspect.getsource(montecarlo))):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in workers):
            continue
        checked.add(fn.name)
        for node in ast.walk(fn):
            where = f"{fn.name}, line {getattr(node, 'lineno', '?')}"
            assert not isinstance(getattr(node, "op", None), ast.MatMult), f"@ in {where}"
            assert not (isinstance(node, ast.Attribute) and node.attr == "linalg"), where
            if isinstance(node, ast.Call):
                callee = node.func.attr if isinstance(node.func, ast.Attribute) else \
                    getattr(node.func, "id", None)
                assert callee not in banned_calls, f"{callee} in {where}"
                if callee == "einsum":
                    assert all(kw.arg != "optimize" for kw in node.keywords), where
    assert checked == workers
