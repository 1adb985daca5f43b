"""Command-line front end: sweeps, figure presets, cross-engine verification.

CSV is the source of truth (12 significant digits, deterministic bytes);
SVG output is a convenience rendering of the same series.  Exit codes:

    0  success
    2  invalid parameters or inadequate configuration (truncation, step size)
    3  not stable (at or above threshold where a steady state was required)
    4  cross-engine verification mismatch
    5  I/O failure
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analytic, fock, moments, montecarlo
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    QFunctionUndefinedError,
    StepSizeError,
    TrajectoryBlowupError,
    TruncationError,
)
from .params import SystemParams, _coefficients, coefficients, threshold_tolerance

OUT_DIR_ENV = "CASQ_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_STABLE = 3
EXIT_MISMATCH = 4
EXIT_IO = 5


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_svg(path, x, series, title, xlabel, ylabel) -> None:
    """Minimal deterministic polyline plot; series is [(label, yarray), ...]."""
    width, height, pad = 720, 480, 60
    finite = np.concatenate([np.asarray(y)[np.isfinite(y)] for _, y in series])
    x = np.asarray(x, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(finite.min()), float(finite.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(v):
        return pad + (v - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" font-size="12">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{_fmt(x_hi)}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{_fmt(y_lo)}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{_fmt(y_hi)}</text>',
    ]
    for i, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(y)
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x[keep], y[keep]))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _parse_range(text: str) -> np.ndarray:
    """'start:stop:step' (inclusive of stop up to round-off) or a single value."""
    if ":" in text:
        pieces = text.split(":")
        if len(pieces) != 3:
            raise InvalidParameterError(f"range must be start:stop:step, got {text!r}")
        start, stop, step_size = (float(v) for v in pieces)
        if step_size <= 0 or stop < start:
            raise InvalidParameterError(f"bad range {text!r}: need step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step_size + 0.5)) + 1
        return start + step_size * np.arange(count)
    return np.array([float(text)])


def _out_dir(args) -> str:
    return args.out or os.environ.get(OUT_DIR_ENV, ".")


def _svg_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return root + ".svg"


def _out_path(args, default_name: str) -> str:
    out = args.out
    if out and out.endswith(os.sep):
        return os.path.join(out, default_name)
    if out:
        return out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), default_name)


def _make_params(a, kappa, beta, epsilon, epsilon_rel) -> SystemParams:
    # an explicit --epsilon always wins over a subcommand's relative default
    if epsilon is not None:
        return SystemParams(a=a, kappa=kappa, beta=beta, epsilon=epsilon)
    p = SystemParams(a=a, kappa=kappa, beta=beta, epsilon=0.0)
    if epsilon_rel is not None:
        p = p.with_relative_drive(epsilon_rel)
    return p


def _grid_coefficients(a, kappa, betas, epsilon=None, epsilon_rel=None):
    """Coefficients, threshold drives and threshold tolerance over an ascending beta grid.

    The knobs are validated as _make_params validates one point: at both ends
    of the grid, which bound every beta, and for a relative drive at every point.
    """
    _make_params(a, kappa, float(betas[-1]), epsilon, epsilon_rel)
    p = _make_params(a, kappa, float(betas[0]), epsilon, epsilon_rel)
    c, eps_th = _coefficients(a, kappa, betas, 0.0 if epsilon is None else epsilon)
    if epsilon_rel is not None:
        if np.any(eps_th <= 0):
            raise InvalidParameterError(
                f"threshold drive is {eps_th.min():.6g} <= 0 at beta={betas[np.argmin(eps_th)]}; "
                "no nonnegative epsilon reaches it"
            )
        c = _coefficients(a, kappa, betas, epsilon_rel * eps_th)[0]
    return c, eps_th, threshold_tolerance(p)


def _stable_points(n, betas, keep, reason):
    """betas[keep] of figure n; reports the clipped points and raises NotStableError if none is kept."""
    skipped = betas[~keep]
    if skipped.size:
        print(f"clipped {skipped.size} figure-{n} points {reason} "
              f"(beta in [{skipped.min():g}, {skipped.max():g}])", file=sys.stderr)
    if not keep.any():
        raise NotStableError(f"figure {n}: no stable sweep points")
    return betas[keep]


def _mc_times(p: SystemParams, dt, t_end):
    """Monte Carlo step and end time: the given values, else defaults from the decay rates."""
    c = coefficients(p)
    if dt is None:
        dt = 0.01 / max(c.lambda_plus, abs(c.lambda_minus), p.kappa, 1.0)
    if t_end is None:
        t_end = 10.0 / c.lambda_minus
    return dt, t_end


def _add_system_args(sub, beta_range=False):
    sub.add_argument("--a", type=float, default=100.0, help="linear gain coefficient A")
    sub.add_argument("--kappa", type=float, default=0.8, help="cavity damping constant")
    if beta_range:
        sub.add_argument("--beta", type=str, default="0:2:0.001",
                         help="pump-coupling ratio, either a value or start:stop:step")
    else:
        sub.add_argument("--beta", type=float, default=0.0, help="pump-coupling ratio")
    drive = sub.add_mutually_exclusive_group()
    drive.add_argument("--epsilon", type=float, default=None,
                       help="parametric drive (default 0)")
    drive.add_argument("--epsilon-rel-threshold", type=float, default=None, dest="epsilon_rel",
                       help="parametric drive as a fraction of the threshold drive")


def _add_out_args(sub):
    sub.add_argument("--out", type=str, default=None,
                     help=f"output file (or directory ending in '{os.sep}'); "
                          f"default directory from ${OUT_DIR_ENV} or '.'")
    sub.add_argument("--format", choices=["csv", "svg"], default="csv",
                     help="'svg' also renders a plot next to the CSV")


# ---------------------------------------------------------------------------
# sweep engines (module-level so worker processes can import them)
# ---------------------------------------------------------------------------

def _point_variances(task):
    engine, a, kappa, beta, epsilon, dim, n_traj, dt, t_end, seed = task
    p = SystemParams(a=a, kappa=kappa, beta=beta, epsilon=epsilon)
    if engine == "analytic":
        v = analytic.variance_steady(p)
        rec = analytic.steady_record(p) if math.isfinite(v.plus) else None
        mean_n = rec.n_cl if rec else math.inf
        return beta, epsilon, v.plus, v.minus, mean_n
    if engine == "oracle":
        rho = fock.steady_state(p, dim)
        obs = fock.observables(rho)
        return beta, epsilon, obs.var_plus, obs.var_minus, obs.mean_n
    if engine == "mc":
        dt, t_end = _mc_times(p, dt, t_end)
        series = montecarlo.run(p, n_traj, t_end, dt, seed, sample_times=[t_end])
        return (
            beta,
            epsilon,
            1.0 + float(np.real(series.plus_sq[-1])),
            1.0 - float(np.real(series.minus_sq[-1])),
            float(np.real(series.n_cl[-1])),
        )
    raise InvalidParameterError(f"unknown engine {engine!r}")


def _run_sweep(tasks, jobs):
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_point_variances, tasks))
    return [_point_variances(t) for t in tasks]


def _sweep_command(args):
    betas = _parse_range(args.beta) if isinstance(args.beta, str) else np.array([args.beta])
    skipped = []
    tasks = []
    for beta in betas:
        p = _make_params(args.a, args.kappa, float(beta), args.epsilon, args.epsilon_rel)
        if coefficients(p).lambda_minus <= threshold_tolerance(p):
            skipped.append(float(beta))
            continue
        tasks.append(
            (args.engine, p.a, p.kappa, p.beta, p.epsilon,
             args.dim, args.n_traj, args.dt, args.t_end, args.seed)
        )
    if skipped:
        print(
            f"clipped {len(skipped)} sweep points with lambda_minus <= 0 "
            f"(beta in [{min(skipped):g}, {max(skipped):g}])",
            file=sys.stderr,
        )
    if not tasks:
        raise NotStableError("entire sweep lies at or above threshold")
    return _run_sweep(tasks, args.jobs), skipped


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    betas = _parse_range(args.beta)
    c, eps_th, _ = _grid_coefficients(args.a, args.kappa, betas, args.epsilon, args.epsilon_rel)
    rows = zip(betas, c.r, c.s, c.u, c.v, c.b, c.lambda_minus, c.lambda_plus, eps_th)
    path = _out_path(args, "coeffs.csv")
    header = ["beta", "R", "S", "U", "V", "B", "lambda_minus", "lambda_plus", "epsilon_threshold"]
    _write_csv(path, header, rows)
    print(path)
    return EXIT_OK


def _cmd_variance(args) -> int:
    results, _ = _sweep_command(args)
    path = _out_path(args, "variance.csv")
    header = ["beta", "epsilon", "var_plus", "var_minus", "mean_n"]
    _write_csv(path, header, results)
    if args.format == "svg":
        arr = np.array([r[:4] for r in results], dtype=float)
        _write_svg(
            _svg_path(path),
            arr[:, 0],
            [("var_plus", arr[:, 2]), ("var_minus", arr[:, 3])],
            f"steady-state quadrature variances ({args.engine})",
            "beta", "variance",
        )
    print(path)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    omegas = _parse_range(args.omega)
    curve = analytic.spectrum(p, omegas)
    path = _out_path(args, "spectrum.csv")
    rows = list(zip(curve.omega, curve.s_plus, curve.s_minus))
    _write_csv(path, ["omega", "s_plus", "s_minus"], rows)
    if args.format == "svg":
        _write_svg(
            _svg_path(path), curve.omega,
            [("s_plus", curve.s_plus), ("s_minus", curve.s_minus)],
            "output squeezing spectrum", "omega", "S(omega)",
        )
    print(path)
    return EXIT_OK


def _cmd_mean_photon(args) -> int:
    if args.t_end is not None and args.engine == "analytic":
        betas = _parse_range(args.beta) if isinstance(args.beta, str) else [args.beta]
        rows = []
        for beta in betas:
            p = _make_params(args.a, args.kappa, float(beta), args.epsilon, args.epsilon_rel)
            rows.append((beta, p.epsilon, analytic.mean_photon_number(p, args.t_end)))
        header = ["beta", "epsilon", "mean_n"]
        path = _out_path(args, "mean_photon.csv")
        _write_csv(path, header, rows)
        print(path)
        return EXIT_OK
    results, _ = _sweep_command(args)
    rows = [(beta, eps, mean_n) for beta, eps, _vp, _vm, mean_n in results]
    path = _out_path(args, "mean_photon.csv")
    _write_csv(path, ["beta", "epsilon", "mean_n"], rows)
    if args.format == "svg":
        arr = np.array(rows, dtype=float)
        _write_svg(_svg_path(path), arr[:, 0], [("mean_n", arr[:, 2])],
                   f"steady-state mean photon number ({args.engine})", "beta", "<n>")
    print(path)
    return EXIT_OK


def _cmd_pnd(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    if args.engine == "oracle":
        rho = fock.steady_state(p, args.dim)
        probs = fock.observables(rho).pnd[: args.n_max + 1]
    else:
        record = analytic.steady_record(p)
        probs = analytic.photon_distribution(record, args.n_max).probs
    rows = list(enumerate(probs))
    path = _out_path(args, "pnd.csv")
    _write_csv(path, ["n", "p"], rows)
    if args.format == "svg":
        arr = np.array(rows, dtype=float)
        _write_svg(_svg_path(path), arr[:, 0], [("P(n)", arr[:, 1])],
                   f"photon number distribution ({args.engine})", "n", "P(n)")
    print(path)
    return EXIT_OK


def _figure_grid(step=1e-3):
    if not step > 0:
        raise InvalidParameterError(f"--beta-step must be > 0, got {step}")
    return np.arange(0.0, 2.0 + step / 2.0, step)


def _cmd_figure(args) -> int:
    n = args.n
    out_dir = _out_dir(args)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fig{n}.csv")
    a_list = [float(v) for v in str(args.a).split(",")] if args.a is not None else None
    kappa = args.kappa

    if n == 2:
        a = a_list[0] if a_list else 100.0
        betas = _figure_grid(args.beta_step)
        SystemParams(a=a, kappa=kappa, beta=0.0)  # validates the knobs
        dotted = analytic.no_crystal_minus_curve(a, kappa, betas)
        solid = analytic.threshold_minus_curve(a, kappa, betas)
        _write_csv(path, ["beta", "var_minus_no_crystal", "var_minus_threshold"],
                   zip(betas, dotted, solid))
        series = [("no crystal", dotted), ("threshold", solid)]
        title, xlabel, ylabel = "squeezed-quadrature variance", "beta", "variance"
    elif n == 3:
        gains = a_list or [25.0, 50.0, 100.0]
        betas = _figure_grid(args.beta_step)
        for g in gains:
            SystemParams(a=g, kappa=kappa, beta=0.0)  # validates the knobs
        curves = [(f"A={g:g}", analytic.threshold_minus_curve(g, kappa, betas)) for g in gains]
        _write_csv(path, ["beta"] + [f"var_minus_threshold_a{g:g}" for g in gains],
                   zip(betas, *[c for _, c in curves]))
        series = curves
        title, xlabel, ylabel = "at-threshold variance vs gain", "beta", "variance"
    elif n == 4:
        a = a_list[0] if a_list else 25.0
        betas = _figure_grid(args.beta_step)
        c, eps_th, tol = _grid_coefficients(a, kappa, betas)
        betas = _stable_points(4, betas, (eps_th > 0) & (c.lambda_minus > tol),
                               "outside the stable region")
        dotted = analytic._spectra(_grid_coefficients(a, kappa, betas)[0],
                                   a, kappa, betas, args.omega, tol)[1]
        solid = analytic._spectra(_grid_coefficients(a, kappa, betas, epsilon_rel=1.0)[0],
                                  a, kappa, betas, args.omega, tol)[1]
        _write_csv(path, ["beta", "s_minus_no_crystal", "s_minus_threshold"],
                   zip(betas, dotted, solid))
        series = [("no crystal", dotted), ("threshold", solid)]
        title, xlabel, ylabel = f"squeezing spectrum at omega={args.omega:g}", "beta", "S_-"
    elif n == 5:
        a = a_list[0] if a_list else 25.0
        eps = 0.3 if args.epsilon is None else args.epsilon
        betas = _figure_grid(args.beta_step)
        c_on, _, tol = _grid_coefficients(a, kappa, betas, eps)
        c_off = _grid_coefficients(a, kappa, betas)[0]
        betas = _stable_points(5, betas, (c_on.lambda_minus > tol) & (c_off.lambda_minus > tol),
                               "at or above threshold")
        off = analytic._steady_moments(_grid_coefficients(a, kappa, betas)[0])[1]
        on = analytic._steady_moments(_grid_coefficients(a, kappa, betas, eps)[0])[1]
        _write_csv(path, ["beta", "mean_n_no_crystal", "mean_n_pa"], zip(betas, off, on))
        series = [("epsilon=0", off), (f"epsilon={eps:g}", on)]
        title, xlabel, ylabel = "steady-state mean photon number", "beta", "<n>"
    else:  # n == 6
        a = a_list[0] if a_list else 100.0
        beta = args.beta if args.beta is not None else 0.067
        eps = 0.3 if args.epsilon is None else args.epsilon
        n_max = args.n_max
        p_on = SystemParams(a=a, kappa=kappa, beta=beta, epsilon=eps)
        p_off = p_on.with_epsilon(0.0)
        pnd_off = analytic.photon_distribution(analytic.steady_record(p_off), n_max).probs
        pnd_on = analytic.photon_distribution(analytic.steady_record(p_on), n_max).probs
        ns = np.arange(n_max + 1)
        _write_csv(path, ["n", "p_no_crystal", "p_pa"], zip(ns, pnd_off, pnd_on))
        betas, series = ns, [("epsilon=0", pnd_off), (f"epsilon={eps:g}", pnd_on)]
        title, xlabel, ylabel = "steady-state photon number distribution", "n", "P(n)"

    if args.format == "svg":
        _write_svg(os.path.join(out_dir, f"fig{n}.svg"), betas, series, title, xlabel, ylabel)
    print(path)
    return EXIT_OK


def verify_point(
    p: SystemParams,
    dim: int = 150,
    n_traj: int = 20000,
    dt: float | None = None,
    t_end: float | None = None,
    seed: int = 7041,
    sigma: float = 3.0,
    oracle_rtol: float = 1e-3,
    pnd_atol: float = 1e-4,
    moments_rtol: float = 1e-8,
):
    """Run all four engines at one parameter point and tabulate agreement.

    Returns (rows, ok); each row is (check, reference, value, bound, status).
    """
    c = coefficients(p)
    var = analytic.variance_steady(p)
    record = analytic.steady_record(p)
    s_plus, s_minus = analytic.steady_alpha_sq(c)

    rows = []

    def check(name, reference, value, bound):
        ok = abs(value - reference) <= bound
        rows.append((name, reference, value, bound, "PASS" if ok else "FAIL"))
        return ok

    ok = True
    lin = moments.steady_from_linear_solve(p)
    ok &= check("moments n_cl vs analytic", record.n_cl, lin.n_cl,
                moments_rtol * max(abs(record.n_cl), 1e-30))
    ok &= check("moments <a+^2> vs analytic", s_plus, lin.var_flow_plus,
                moments_rtol * abs(s_plus))
    ok &= check("moments <a-^2> vs analytic", s_minus, lin.var_flow_minus,
                moments_rtol * max(abs(s_minus), 1e-30))

    rho = fock.steady_state(p, dim)
    obs = fock.observables(rho)
    ok &= check("oracle mean_n vs analytic", record.n_cl, obs.mean_n,
                oracle_rtol * max(abs(record.n_cl), 1e-12))
    ok &= check("oracle var_plus vs analytic", var.plus, obs.var_plus, oracle_rtol * var.plus)
    ok &= check("oracle var_minus vs analytic", var.minus, obs.var_minus,
                oracle_rtol * var.minus)
    n_head = min(dim // 2, 64)
    pnd = analytic.photon_distribution(record, n_head).probs
    delta = float(np.abs(obs.pnd[: n_head + 1] - pnd).max())
    okP = delta <= pnd_atol
    rows.append(("oracle P(n) vs closed form (max |delta|)", 0.0, delta, pnd_atol,
                 "PASS" if okP else "FAIL"))
    ok &= okP

    dt, t_end = _mc_times(p, dt, t_end)
    series = montecarlo.run(p, n_traj, t_end, dt, seed, sample_times=[t_end])
    ok &= check("mc <a+^2> vs analytic", s_plus, float(np.real(series.plus_sq[-1])),
                sigma * float(series.plus_sq_se[-1]))
    ok &= check("mc <a-^2> vs analytic", s_minus, float(np.real(series.minus_sq[-1])),
                sigma * float(series.minus_sq_se[-1]))
    ok &= check("mc n_cl vs analytic", record.n_cl, float(np.real(series.n_cl[-1])),
                sigma * float(series.n_cl_se[-1]))
    return rows, ok


def _cmd_verify(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    rows, ok = verify_point(
        p, dim=args.dim, n_traj=args.n_traj, dt=args.dt, t_end=args.t_end,
        seed=args.seed, sigma=args.sigma, oracle_rtol=args.oracle_rtol,
        pnd_atol=args.pnd_atol,
    )
    widths = (42, 16, 16, 12, 6)
    print(f"{'check':<{widths[0]}}{'reference':>{widths[1]}}{'value':>{widths[2]}}"
          f"{'bound':>{widths[3]}}{'status':>{widths[4]}}")
    for name, ref, val, bound, status in rows:
        print(f"{name:<{widths[0]}}{ref:>{widths[1]}.8g}{val:>{widths[2]}.8g}"
              f"{bound:>{widths[3]}.3g}{status:>{widths[4]}}")
    if args.out:
        _write_csv(_out_path(args, "verify.csv"),
                   ["check", "reference", "value", "bound", "status"], rows)
    print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_mc(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    dt, t_end = _mc_times(p, args.dt, args.t_end)
    series = montecarlo.run(p, args.n_traj, t_end, dt, args.seed)
    rows = [
        (
            t,
            np.real(series.alpha_sq[i]), series.alpha_sq_se[i],
            np.real(series.n_cl[i]), series.n_cl_se[i],
            np.real(series.plus_sq[i]), series.plus_sq_se[i],
            np.real(series.minus_sq[i]), series.minus_sq_se[i],
        )
        for i, t in enumerate(series.times)
    ]
    header = ["t", "alpha_sq", "alpha_sq_se", "n_cl", "n_cl_se",
              "plus_sq", "plus_sq_se", "minus_sq", "minus_sq_se"]
    path = _out_path(args, "mc.csv")
    _write_csv(path, header, rows)
    print(path)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    if args.t_end is None:
        rho = fock.steady_state(p, args.dim)
    else:
        rho = fock.evolve(fock.vacuum(args.dim), p, args.t_end, dt=args.dt)
    obs = fock.observables(rho)
    header = ["t", "mean_n", "var_plus", "var_minus", "re_mean_a_sq",
              "trace_err", "boundary_pop"]
    row = (
        args.t_end if args.t_end is not None else math.inf,
        obs.mean_n, obs.var_plus, obs.var_minus, obs.mean_a_sq.real,
        rho.trace_err, rho.boundary_pop,
    )
    path = _out_path(args, "oracle.csv")
    _write_csv(path, header, [row])
    print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parser and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casq",
        description="Cascade-laser + parametric-amplifier squeezing simulator; "
                    "CSV output uses 12 significant digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="master-equation coefficients over a beta sweep")
    _add_system_args(sp, beta_range=True)
    _add_out_args(sp)

    sp = sub.add_parser("variance", help="steady-state quadrature variances over a beta sweep")
    _add_system_args(sp, beta_range=True)
    sp.add_argument("--engine", choices=["analytic", "oracle", "mc"], default="analytic")
    sp.add_argument("--dim", type=int, default=150, help="Fock truncation (oracle engine)")
    sp.add_argument("--n-traj", type=int, default=20000)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--seed", type=int, default=7041)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                    help="worker processes for oracle/mc sweeps")
    _add_out_args(sp)

    sp = sub.add_parser("spectrum", help="output squeezing spectrum on a frequency grid")
    _add_system_args(sp)
    sp.add_argument("--omega", type=str, default="0:5:0.01", help="value or start:stop:step")
    _add_out_args(sp)

    sp = sub.add_parser("mean-photon", help="mean photon number over a beta sweep")
    _add_system_args(sp, beta_range=True)
    sp.add_argument("--engine", choices=["analytic", "oracle", "mc"], default="analytic")
    sp.add_argument("--dim", type=int, default=150)
    sp.add_argument("--n-traj", type=int, default=20000)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None,
                    help="analytic engine: evaluate the transient at this time; "
                         "mc engine: integration end (oracle reports steady state)")
    sp.add_argument("--seed", type=int, default=7041)
    sp.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_out_args(sp)

    sp = sub.add_parser("pnd", help="photon number distribution at steady state")
    _add_system_args(sp)
    sp.add_argument("--engine", choices=["analytic", "oracle"], default="analytic")
    sp.add_argument("--n-max", type=int, default=64)
    sp.add_argument("--dim", type=int, default=150)
    _add_out_args(sp)

    sp = sub.add_parser("figure", help="reproduce a figure preset (2..6)")
    sp.add_argument("n", type=int, choices=[2, 3, 4, 5, 6])
    sp.add_argument("--a", type=str, default=None,
                    help="gain override; figure 3 accepts a comma list (default 25,50,100)")
    sp.add_argument("--kappa", type=float, default=0.8)
    sp.add_argument("--beta", type=float, default=None, help="figure 6 operating point")
    sp.add_argument("--epsilon", type=float, default=None, help="figures 5 and 6 drive")
    sp.add_argument("--omega", type=float, default=0.0,
                    help="figure 4 evaluation frequency (spectrum-vs-beta plots use omega=0)")
    sp.add_argument("--beta-step", type=float, default=1e-3)
    sp.add_argument("--n-max", type=int, default=32, help="figure 6 photon cutoff")
    _add_out_args(sp)

    sp = sub.add_parser("verify", help="cross-check all four engines at one parameter point")
    _add_system_args(sp)
    sp.add_argument("--dim", type=int, default=256)
    sp.add_argument("--n-traj", type=int, default=20000)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--seed", type=int, default=7041)
    sp.add_argument("--sigma", type=float, default=3.0, help="Monte Carlo tolerance in standard errors")
    sp.add_argument("--oracle-rtol", type=float, default=1e-3)
    sp.add_argument("--pnd-atol", type=float, default=1e-4)
    # default point: squeezed, all engines converge in seconds
    sp.set_defaults(a=25.0, beta=0.1, epsilon_rel=0.5)
    _add_out_args(sp)

    sp = sub.add_parser("mc", help="doubled-phase-space moment time series")
    _add_system_args(sp)
    sp.add_argument("--n-traj", type=int, default=20000)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None)
    sp.add_argument("--seed", type=int, default=7041)
    _add_out_args(sp)

    sp = sub.add_parser("oracle", help="truncated-Fock observables (steady state or transient)")
    _add_system_args(sp)
    sp.add_argument("--dim", type=int, default=150)
    sp.add_argument("--dt", type=float, default=None)
    sp.add_argument("--t-end", type=float, default=None,
                    help="integrate to this time instead of solving for the steady state")
    _add_out_args(sp)
    return parser


_DISPATCH = {
    "coeffs": _cmd_coeffs,
    "variance": _cmd_variance,
    "spectrum": _cmd_spectrum,
    "mean-photon": _cmd_mean_photon,
    "pnd": _cmd_pnd,
    "figure": _cmd_figure,
    "verify": _cmd_verify,
    "mc": _cmd_mc,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except InvalidParameterError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotStableError as exc:
        print(f"not stable: {exc}", file=sys.stderr)
        return EXIT_NOT_STABLE
    except (TruncationError, ConvergenceError, StepSizeError,
            TrajectoryBlowupError, QFunctionUndefinedError) as exc:
        print(f"configuration inadequate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
