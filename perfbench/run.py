"""casq benchmark: run one workload, check every output, print its metrics.

    python3 perfbench/run.py --workload verify|oracle|ensemble --seed N --seconds S --trace 0|1

Run from a checkout of the repository; casq is imported from its `src/`.
A run repeats whole rounds of the workload while another round still fits
in S seconds (at least one) and reports medians over its rounds.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 the rounds are
traced, one untraced round follows as the baseline of the tracing overhead,
and it prints the per-layer metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# one process, BLAS capped at the cores this process may use; set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

# set-up is sampled before the first round and again after the last, so its
# median covers the same stretch of host load as the rounds it sits beside
SETUP_SAMPLES = 5
FIGURE_PASSES = 24

# operating points (physics, fixed): the `casq verify` default point, the
# figure-6 point, and a small-gain point whose transient a dim-96 basis holds
VERIFY_POINT = ref.at_drive(ref.Point(a=25.0, kappa=0.8, beta=0.1), 0.5)
FIG6_POINT = ref.Point(a=100.0, kappa=0.8, beta=0.067, epsilon=0.3)
TRANSIENT_POINT = ref.at_drive(ref.Point(a=4.0, kappa=0.8, beta=0.2), 0.5)

HEADLINE = ref.threshold_optimum(100.0, 0.8)  # (beta, variance) at A=100, kappa=0.8
VERIFY_ROWS = 10  # checks in the `casq verify` table

STEADY_DIMS = (256, 512)
TRANSIENT_DIM = 96
TRANSIENT_DT = 1.25e-3  # below the RK4 stability limit of the dim-96 generator
TRANSIENT_TIMES = (0.5, 1.0, 2.0, 4.0)

MC_TRAJ, MC_T_END, MC_DT = 20000, 10.0, 0.0015
REPEAT_TRAJ, REPEAT_T_END = 2048, 1.0
CORR_TRAJ, CORR_DT = 8000, 0.002
CORR_TAU = np.arange(81) * 0.02
SPECTRUM_OMEGA = np.array([0.0, 0.4, 0.8])  # 0, kappa/2, kappa

# Monte Carlo checks: bands wide enough that a correct program fails one of a
# round's statistical comparisons by chance with probability below 1e-4
# (Bonferroni), so a failed check points at the program, not at the seed.
# 156 moments carry trajectory standard errors (normal: two-sided tail
# 1e-4/156 -> 5.0); 2 decay rates and 6 spectrum values carry errors from
# 10 trajectory groups (Student t, 9 degrees of freedom: tail 1e-4/8 -> 8.6).
MOMENT_Z = 5.0
GROUP_T = 8.6


@dataclass
class Round:
    seeds: tuple[int, int]  # Monte Carlo seeds of this round, derived from --seed
    stages: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    csv_bytes: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return bool(ok)

    def op(self, fn, *args, **kwargs):
        """Call one operation of the program; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the program's fault, reported as a failed operation
            self.failed += 1
            print(f"operation failed: {getattr(fn, '__qualname__', fn)}: {exc!r}", file=sys.stderr)
            return None


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def close(value, target, rtol, atol=0.0) -> bool:
    return abs(value - target) <= rtol * abs(target) + atol


def import_casq():
    sys.path.insert(0, str(SRC))
    import casq

    if Path(casq.__file__).resolve().parent != SRC / "casq":
        sys.exit(f"perfbench: imported casq from {casq.__file__}, not from {SRC}")
    return casq


def measure_setup() -> list[float]:
    """Times for fresh interpreters to finish `import casq`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import casq, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              cwd=ROOT, env=env, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.wait()
        if line != "ready\n" or child.returncode != 0:
            sys.exit("perfbench: `import casq` failed in a fresh interpreter")
        times.append(elapsed)
    return times


def system_params(p: ref.Point):
    from casq.params import SystemParams

    return SystemParams(a=p.a, kappa=p.kappa, beta=p.beta, epsilon=p.epsilon)


def run_cli(rnd: Round, argv: list[str]):
    """casq.cli.main in-process; returns (exit code or None if it raised, stdout)."""
    from casq import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rnd.op(cli.main, argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# verify: figure presets, then `casq verify --out`
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


def _read_numeric(path: Path) -> tuple[list[str], np.ndarray]:
    header, rows = _read_csv(path)
    return header, np.array(rows, dtype=float)


def same_grid(got, want) -> bool:
    return got.shape == want.shape and np.allclose(got, want, rtol=0, atol=1e-12)


def check_figures(rnd: Round, work: Path) -> None:
    kappa = 0.8
    _, f2 = _read_numeric(work / "fig2.csv")
    beta = f2[:, 0]
    rnd.check(np.allclose(f2[:, 1], ref.no_crystal_minus_variance(100.0, kappa, beta), rtol=1e-10, atol=0),
              "fig2 no-crystal column")
    rnd.check(np.allclose(f2[:, 2], ref.threshold_minus_variance(100.0, kappa, beta), rtol=1e-10, atol=0),
              "fig2 threshold column")
    i = int(np.argmin(f2[:, 2]))
    beta_star, v_star = HEADLINE
    rnd.check(abs(f2[i, 2] - 0.0681) <= 1e-4 and abs(f2[i, 2] - v_star) <= 1e-6,
              f"fig2 minimum {f2[i, 2]}")
    rnd.check(abs(beta[i] - 0.0677) <= 1e-3 and abs(beta[i] - beta_star) <= 1e-3,
              f"fig2 optimum at beta {beta[i]}")

    header, f3 = _read_numeric(work / "fig3.csv")
    rnd.check(header[1:] == [f"var_minus_threshold_a{g}" for g in (25, 50, 100)], "fig3 header")
    for j, gain in enumerate((25.0, 50.0, 100.0)):
        rnd.check(np.allclose(f3[:, 1 + j], ref.threshold_minus_variance(gain, kappa, f3[:, 0]),
                              rtol=1e-10, atol=0), f"fig3 A={gain} column")

    grid = np.arange(2001) * 1e-3  # the default figure grid, 0:2:0.001
    laser = ref.Point(25.0, kappa, grid)
    driven = ref.Point(25.0, kappa, grid, 0.3)
    stable = ref.threshold_epsilon(laser) > 1e-9  # lambda_minus at epsilon = 0
    _, f4 = _read_numeric(work / "fig4.csv")
    if rnd.check(same_grid(f4[:, 0], grid[stable]), "fig4 keeps exactly the stable points"):
        kept = ref.Point(25.0, kappa, grid[stable])
        rnd.check(np.allclose(f4[:, 1], ref.spectra(kept, 0.0)[1], rtol=1e-9, atol=1e-12),
                  "fig4 no-crystal column")
        rnd.check(np.allclose(f4[:, 2], ref.spectra(ref.at_drive(kept, 1.0), 0.0)[1],
                              rtol=1e-9, atol=1e-12), "fig4 threshold column")

    _, f5 = _read_numeric(work / "fig5.csv")
    stable = (ref.coeffs(laser).lambda_minus > 1e-9) & (ref.coeffs(driven).lambda_minus > 1e-9)
    if rnd.check(same_grid(f5[:, 0], grid[stable]), "fig5 keeps exactly the stable points"):
        rnd.check(np.allclose(f5[:, 1], ref.moments(ref.Point(25.0, kappa, grid[stable]))[1],
                              rtol=1e-9, atol=1e-12), "fig5 epsilon=0 column")
        rnd.check(np.allclose(f5[:, 2], ref.moments(ref.Point(25.0, kappa, grid[stable], 0.3))[1],
                              rtol=1e-9, atol=1e-12), "fig5 epsilon=0.3 column")

    _, f6 = _read_numeric(work / "fig6.csv")
    for j, p in ((1, ref.Point(100.0, kappa, 0.067)), (2, FIG6_POINT)):
        col = f6[:, j]
        rnd.check(col.min() >= 0.0 and col.sum() <= 1.0 + 1e-11, f"fig6 column {j} is not a distribution")
        rnd.check(np.allclose(col, ref.photon_distribution(p, 32), rtol=1e-9, atol=1e-13),
                  f"fig6 column {j}")


def check_verify_table(rnd: Round, text: str, work: Path, code) -> None:
    """Every row PASS, and every row's value within its bound of the benchmark's own reference."""
    plus, minus = ref.quadrature_moments(VERIFY_POINT)
    _, n_cl = ref.moments(VERIFY_POINT)
    var_plus, var_minus = ref.variances(VERIFY_POINT)
    expected = {
        "moments n_cl vs analytic": n_cl, "moments <a+^2> vs analytic": plus,
        "moments <a-^2> vs analytic": minus, "oracle mean_n vs analytic": n_cl,
        "oracle var_plus vs analytic": var_plus, "oracle var_minus vs analytic": var_minus,
        "oracle P(n) vs closed form (max |delta|)": 0.0, "mc <a+^2> vs analytic": plus,
        "mc <a-^2> vs analytic": minus, "mc n_cl vs analytic": n_cl,
    }
    lines = text.splitlines()
    rows = [line.rsplit(None, 4) for line in lines[1:] if not line.startswith("verification")]
    rnd.check(len(rows) == VERIFY_ROWS and all(len(r) == 5 for r in rows), "verify table shape")
    for name, reference, value, bound, status in (r for r in rows if len(r) == 5):
        target = expected.get(name.strip())
        if not rnd.check(target is not None, f"verify row {name!r}"):
            continue
        reference, value, bound = float(reference), float(value), float(bound)
        rnd.check(status == "PASS", f"verify row {name!r} says {status}")
        rnd.check(close(reference, target, 1e-7), f"verify row {name!r} reference {reference}")
        # the table prints 8 significant digits and the bound with 3
        rnd.check(abs(value - target) <= 1.01 * bound + 1e-7 * abs(target),
                  f"verify row {name!r} value {value} vs {target}")
    if code is not None:  # the CSV is written only when the command returns
        rnd.check(code == 0 and lines[-1] == "verification PASSED", f"verify exit {code}")
        header, data = _read_csv(work / "verify.csv")
        rnd.check(header == ["check", "reference", "value", "bound", "status"]
                  and [r[0] for r in data] == [r[0].strip() for r in rows]
                  and all(r[4] == "PASS" for r in data), "verify CSV")


def figure_pass(rnd: Round, work: Path) -> float:
    """`casq figure 2`..`6` once; returns the time of the five commands."""
    start = time.perf_counter()
    for n in (2, 3, 4, 5, 6):
        run_cli(rnd, ["figure", str(n), "--out", str(work)])
    elapsed = time.perf_counter() - start
    rnd.csv_bytes += sum((work / f"fig{n}.csv").stat().st_size for n in (2, 3, 4, 5, 6))
    check_figures(rnd, work)
    return elapsed


def workload_verify(rnd: Round, work: Path) -> None:
    # half the figure passes run before the verify call and half after, and
    # figures_s is their mean: a pass lasts ~0.2 s, and on a shared host the
    # mean over the round is steadier from run to run than the median
    passes = [figure_pass(rnd, work) for _ in range(FIGURE_PASSES // 2)]

    out = work / "verify.csv"
    out.unlink(missing_ok=True)
    start = time.perf_counter()
    code, text = run_cli(rnd, ["verify", "--out", str(out)])
    rnd.stages["verify_s"] = time.perf_counter() - start
    if out.exists():  # today a partial file: the command fails after the header
        rnd.csv_bytes += out.stat().st_size
    check_verify_table(rnd, text, work, code)

    passes += [figure_pass(rnd, work) for _ in range(FIGURE_PASSES - FIGURE_PASSES // 2)]
    rnd.stages["figures_s"] = statistics.fmean(passes)


# ---------------------------------------------------------------------------
# oracle: Fock steady states (sparse LU) and an RK4 transient
# ---------------------------------------------------------------------------

def workload_oracle(rnd: Round, work: Path) -> None:
    from casq import fock, moments

    solved = {}
    start = time.perf_counter()
    for label, point in (("verify", VERIFY_POINT), ("fig6", FIG6_POINT)):
        p = system_params(point)
        for dim in STEADY_DIMS:
            rho = rnd.op(fock.steady_state, p, dim)
            obs = rho and rnd.op(fock.observables, rho)
            if obs:
                solved[label, dim] = obs
    rnd.stages["steady_s"] = time.perf_counter() - start

    for (label, dim), obs in solved.items():
        point = VERIFY_POINT if label == "verify" else FIG6_POINT
        _, n_cl = ref.moments(point)
        var_plus, var_minus = ref.variances(point)
        what = f"steady {label} dim {dim}"
        rnd.check(abs(obs.pnd.sum() - 1.0) <= 1e-10, f"{what}: trace {obs.pnd.sum()}")
        rnd.check(close(obs.mean_n, n_cl, 1e-3), f"{what}: mean_n {obs.mean_n} vs {n_cl}")
        rnd.check(close(obs.var_plus, var_plus, 1e-3), f"{what}: var_plus {obs.var_plus}")
        rnd.check(close(obs.var_minus, var_minus, 1e-3), f"{what}: var_minus {obs.var_minus}")
        delta = np.abs(obs.pnd - ref.photon_distribution(point, dim - 1)).max()
        rnd.check(delta <= 1e-4, f"{what}: P(n) off by {delta}")
    for label in ("verify", "fig6"):
        if all((label, d) in solved for d in STEADY_DIMS):
            small, large = (solved[label, d] for d in STEADY_DIMS)
            for attr in ("mean_n", "var_plus", "var_minus"):
                rnd.check(close(getattr(small, attr), getattr(large, attr), 1e-3),
                          f"steady {label}: {attr} differs between dims {STEADY_DIMS}")

    p = system_params(TRANSIENT_POINT)
    states = []
    start = time.perf_counter()
    rho, t_prev = fock.vacuum(TRANSIENT_DIM), 0.0
    for t in TRANSIENT_TIMES:
        rho = rho and rnd.op(fock.evolve, rho, p, t - t_prev, dt=TRANSIENT_DT)
        obs = rho and rnd.op(fock.observables, rho)
        states.append((t, obs))
        t_prev = t
    flow = rnd.op(moments.propagate, p, TRANSIENT_TIMES[-1])
    rnd.stages["transient_s"] = time.perf_counter() - start

    for t, obs in states:
        if obs is None:
            continue
        alpha_sq, n_cl = ref.moments(TRANSIENT_POINT, t)
        var_plus, var_minus = ref.variances(TRANSIENT_POINT, t)
        rnd.check(abs(obs.pnd.sum() - 1.0) <= 1e-6, f"transient t={t}: trace {obs.pnd.sum()}")
        rnd.check(close(obs.mean_n, n_cl, 1e-5), f"transient t={t}: mean_n {obs.mean_n} vs {n_cl}")
        rnd.check(close(obs.mean_a_sq.real, alpha_sq, 1e-5), f"transient t={t}: <a^2> {obs.mean_a_sq}")
        rnd.check(close(obs.var_plus, var_plus, 1e-5) and close(obs.var_minus, var_minus, 1e-5),
                  f"transient t={t}: variances")
    if flow is not None:
        rnd.check(math.isclose(flow[-1].t, TRANSIENT_TIMES[-1]), "propagate end time")
        for s in flow:
            alpha_sq, n_cl = ref.moments(TRANSIENT_POINT, s.t)
            plus, minus = ref.quadrature_moments(TRANSIENT_POINT, s.t)
            rnd.check(close(s.n_cl, n_cl, 1e-7, 1e-12) and close(s.alpha_sq.real, alpha_sq, 1e-7, 1e-12)
                      and close(s.var_flow_plus, plus, 1e-7, 1e-12)
                      and close(s.var_flow_minus, minus, 1e-7, 1e-12),
                      f"propagate t={s.t}: {s}")


# ---------------------------------------------------------------------------
# ensemble: Monte Carlo moments, two-time correlation, decay fit, spectrum
# ---------------------------------------------------------------------------

def check_series(rnd: Round, series) -> None:
    for i, t in enumerate(series.times):
        alpha_sq, n_cl = ref.moments(VERIFY_POINT, float(t))
        plus, minus = ref.quadrature_moments(VERIFY_POINT, float(t))
        for name, target in (("mean_alpha", 0.0), ("mean_alpha_dag", 0.0), ("alpha_sq", alpha_sq),
                             ("n_cl", n_cl), ("plus_sq", plus), ("minus_sq", minus)):
            value = complex(getattr(series, name)[i])
            se = float(getattr(series, name + "_se")[i])
            rnd.check(value.imag == 0.0 and abs(value.real - target) <= MOMENT_Z * se,
                      f"mc {name} at t={t}: {value.real} vs {target} (se {se})")


def workload_ensemble(rnd: Round, work: Path) -> None:
    from casq import montecarlo

    p = system_params(VERIFY_POINT)
    c = ref.coeffs(VERIFY_POINT)
    run_seed, corr_seed = rnd.seeds

    start = time.perf_counter()
    series = rnd.op(montecarlo.run, p, MC_TRAJ, MC_T_END, MC_DT, run_seed)
    rnd.stages["mc_run_s"] = time.perf_counter() - start
    if series is not None:
        rnd.check(series.times.size == 26 and abs(series.times[-1] - MC_T_END) <= MC_DT / 2, "mc sample times")
        check_series(rnd, series)

    first = rnd.op(montecarlo.run, p, REPEAT_TRAJ, REPEAT_T_END, MC_DT, run_seed)
    second = rnd.op(montecarlo.run, p, REPEAT_TRAJ, REPEAT_T_END, MC_DT, run_seed)
    if first is not None and second is not None:
        same = all(np.array_equal(getattr(first, f), getattr(second, f))
                   for f in ("times", "alpha_sq", "alpha_sq_se", "n_cl", "n_cl_se", "plus_sq",
                             "minus_sq", "mean_alpha", "mean_alpha_dag"))
        rnd.check(same, "repeated montecarlo.run with the same seed is not bitwise identical")

    start = time.perf_counter()
    est = rnd.op(montecarlo.two_time_correlation, p, CORR_TAU, CORR_TRAJ, CORR_DT, corr_seed)
    fit = est and rnd.op(montecarlo.fit_decay_rates, est)
    spec = est and rnd.op(montecarlo.spectrum_from_correlation, est, p.kappa, SPECTRUM_OMEGA)
    rnd.stages["correlation_s"] = time.perf_counter() - start

    if fit:
        rnd.check(abs(fit.rate_plus - c.lambda_minus) <= GROUP_T * fit.rate_plus_se,
                  f"decay rate of C_+ {fit.rate_plus} vs {c.lambda_minus} (se {fit.rate_plus_se})")
        rnd.check(abs(fit.rate_minus - c.lambda_plus) <= GROUP_T * fit.rate_minus_se,
                  f"decay rate of C_- {fit.rate_minus} vs {c.lambda_plus} (se {fit.rate_minus_se})")
    if spec:
        s_plus, s_minus = ref.spectra(VERIFY_POINT, SPECTRUM_OMEGA)
        for name, got, se, want in (("S_+", spec.s_plus, spec.s_plus_se, s_plus),
                                    ("S_-", spec.s_minus, spec.s_minus_se, s_minus)):
            rnd.check(np.all(np.abs(got - want) <= GROUP_T * se), f"spectrum {name} {got} vs {want} (se {se})")


# ---------------------------------------------------------------------------
# rounds, metrics and the result line
# ---------------------------------------------------------------------------

# workload -> (round function, the two timed stages reported as stage1_s / stage2_s)
WORKLOADS = {
    "verify": (workload_verify, ("figures_s", "verify_s")),
    "oracle": (workload_oracle, ("steady_s", "transient_s")),
    "ensemble": (workload_ensemble, ("mc_run_s", "correlation_s")),
}


def run_round(workload: str, seed: int, index: int, work: Path, tracer: Tracer | None) -> Round:
    seeds = tuple(int(v) for v in np.random.SeedSequence([seed, index]).generate_state(2))
    rnd = Round(seeds=seeds)
    if tracer:
        tracer.install()
    try:
        start = time.perf_counter()
        WORKLOADS[workload][0](rnd, work)
        rnd.wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    for problem in rnd.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return rnd


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casq" / "__init__.py").is_file():
        sys.exit(f"perfbench: no casq package under {SRC}")
    units = metric_units(args.trace)
    setup = [] if args.trace else measure_setup()
    import_casq()
    stage_names = WORKLOADS[args.workload][1]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    rounds, traced = [], []  # traced: (round, its per-layer metrics, number of spans)
    begin = time.perf_counter()
    try:
        while True:
            tracer = Tracer() if args.trace else None
            rounds.append(run_round(args.workload, args.seed, len(rounds), work, tracer))
            if len(rounds) == 1:  # later rounds only add allocator growth
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer:  # reduce each round's spans at once; only the last round's are written out
                traced.append((rounds[-1], layer_metrics(tracer.spans), len(tracer.spans)))
            if time.perf_counter() - begin + statistics.median(r.wall for r in rounds) > args.seconds:
                break
        if args.trace:  # the untraced baseline of the tracing overhead
            rounds.append(run_round(args.workload, args.seed, len(rounds), work, None))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        setup += measure_setup()

    correct = all(not r.problems for r in rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    if args.trace:
        metrics = {name: statistics.median(m[name] for _, m, _ in traced) for name in traced[0][1]}
        metrics["cli.csv_bytes"] = statistics.median(r.csv_bytes for r, _, _ in traced)
        metrics["trace.spans"] = statistics.median(n for _, _, n in traced)
        metrics["trace.wall_s"] = statistics.median(r.wall for r, _, _ in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - rounds[-1].wall
        spans_dir = BENCH / "runs"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    else:
        stages = {n: statistics.median(r.stages[n] for r in rounds) for n in stage_names}
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(r.wall for r in rounds),
            "peak_rss_mb": peak_rss_mb,
            "stage1_s": stages[stage_names[0]],
            "stage2_s": stages[stage_names[1]],
        }
        print(f"workload {args.workload}: {len(rounds)} round(s), seed {args.seed}")
        for name, value in stages.items():
            print(f"  {name:<22} {value:.6g} s")
        if args.workload == "ensemble":
            per_s = MC_TRAJ * round(MC_T_END / MC_DT) / stages["mc_run_s"]
            print(f"  {'mc_traj_steps_per_s':<22} {per_s:.6g} 1/s")
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for name, u in units.items():
        print(f"  {name:<40} {metrics[name]:.6g} {u}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
