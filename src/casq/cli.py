"""Command-line front end: sweeps, figure presets, cross-engine verification.

CSV is the source of truth, with deterministic bytes: each cell is written
by its column's type, strings verbatim, integers in full and floats with
%.12g (12 significant digits).  SVG output is a convenience rendering of
the same series.  Exit codes:

    0  success
    2  invalid parameters or inadequate configuration (truncation, step size)
    3  not stable (at or above threshold where a steady state was required)
    4  cross-engine verification mismatch
    5  I/O failure
"""

from __future__ import annotations

import argparse
import functools
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

# defaults of options that only some engines read (the parser leaves them None)
ORACLE_DIM = 150
MC_N_TRAJ = 20000
MC_SEED = 7041


# the CSV cell rule of the module docstring, keyed by NumPy dtype kind
_CELL_FORMATS = {"U": "%s", "i": "%d", "f": "%.12g"}


def _cell_format(dtype) -> str:
    try:
        return _CELL_FORMATS[dtype.kind]
    except KeyError:
        raise TypeError(f"no CSV cell format for dtype {dtype}") from None


def _fmt(value) -> str:
    return _cell_format(np.asarray(value).dtype) % value


def _write_csv(path, header, columns) -> None:
    """Write equal-length columns under header, each cell in its column's format."""
    columns = [np.asarray(col) for col in columns]
    line = ",".join(_cell_format(col.dtype) for col in columns) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in columns), strict=True))


def _xml_text(text: str) -> str:
    """text escaped for an XML text node."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
    px = pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="15">{_xml_text(title)}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 16}" text-anchor="middle" font-size="12">{_xml_text(xlabel)}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{_xml_text(ylabel)}</text>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{_fmt(x_lo)}</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end" font-size="10">{_fmt(x_hi)}</text>',
        f'<text x="{pad - 4}" y="{height - pad}" text-anchor="end" font-size="10">{_fmt(y_lo)}</text>',
        f'<text x="{pad - 4}" y="{pad + 4}" text-anchor="end" font-size="10">{_fmt(y_hi)}</text>',
    ]
    for i, (label, y) in enumerate(series):
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(y)
        py = height - pad - (y[keep] - y_lo) / (y_hi - y_lo) * (height - 2 * pad)
        pts = " ".join("%.2f,%.2f" % pt for pt in zip(px[keep].tolist(), py.tolist()))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - pad - 4}" y="{pad + 16 + 14 * i}" text-anchor="end" '
            f'font-size="11" fill="{color}">{_xml_text(label)}</text>'
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


def _out_path(args, default_name: str) -> str:
    out = args.out
    if out and out.endswith(os.sep):
        return os.path.join(out, default_name)
    if out:
        return out
    return os.path.join(os.environ.get(OUT_DIR_ENV, "."), default_name)


def _emit(args, path, header, columns, plot=None) -> int:
    """Write columns as CSV to path and print that path.

    plot is (x, series, title, xlabel, ylabel); with --format svg it is
    rendered next to the CSV, under the same name with an .svg suffix.
    """
    _write_csv(path, header, columns)
    if plot is not None and args.format == "svg":
        _write_svg(os.path.splitext(path)[0] + ".svg", *plot)
    print(path)
    return EXIT_OK


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
    of the grid, which bound every beta.  A relative drive needs a positive
    threshold drive at every point; its fraction is then checked where that
    drive is largest, which bounds every drive it sets.
    """
    _make_params(a, kappa, float(betas[-1]), epsilon, None)
    p = _make_params(a, kappa, float(betas[0]), epsilon, None)
    c, eps_th = _coefficients(a, kappa, betas, 0.0 if epsilon is None else epsilon)
    if epsilon_rel is not None:
        bad = betas[eps_th <= 0]
        if bad.size:  # raises the error with_relative_drive gives at the first one
            SystemParams(a=a, kappa=kappa, beta=float(bad[0])).with_relative_drive(epsilon_rel)
        _make_params(a, kappa, float(betas[np.argmax(eps_th)]), None, epsilon_rel)
        c = _coefficients(a, kappa, betas, epsilon_rel * eps_th)[0]
    return c, eps_th, threshold_tolerance(p)


def _stable_points(betas, keep, clipped, empty):
    """betas[keep]; reports the others on stderr as `clipped` points.

    Raises NotStableError with the message `empty` if none is kept.
    """
    skipped = betas[~keep]
    if skipped.size:
        print(f"clipped {skipped.size} {clipped} "
              f"(beta in [{skipped.min():g}, {skipped.max():g}])", file=sys.stderr)
    if not keep.any():
        raise NotStableError(empty)
    return betas[keep]


def _mc_times(p: SystemParams, dt, t_end):
    """Monte Carlo step and end time: the given values, else defaults from the decay rates."""
    c = coefficients(p)
    if dt is None:
        dt = 0.01 / max(c.lambda_plus, abs(c.lambda_minus), p.kappa, 1.0)
    if t_end is None:
        t_end = 10.0 / c.lambda_minus
    return dt, t_end


def _mc_settings(p: SystemParams, args):
    """(n_traj, dt, t_end, seed) at p: --n-traj, --dt, --t-end and --seed, else their defaults."""
    dt, t_end = _mc_times(p, args.dt, args.t_end)
    n_traj = MC_N_TRAJ if args.n_traj is None else args.n_traj
    seed = MC_SEED if args.seed is None else args.seed
    return n_traj, dt, t_end, seed


def _reject_unread(args, names, reads, what) -> None:
    """Raise InvalidParameterError for any option in `names` given but not in `reads`."""
    ignored = [name for name in names if getattr(args, name) is not None and name not in reads]
    if ignored:
        flags = ", ".join("--" + name.replace("_", "-") for name in ignored)
        raise InvalidParameterError(f"{what} does not read {flags}")


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


def _add_out_args(sub, plot=False, target=f"output file (or directory ending in '{os.sep}')"):
    sub.add_argument("--out", type=str, default=None,
                     help=f"{target}; default directory from ${OUT_DIR_ENV} or '.'")
    if plot:
        sub.add_argument("--format", choices=["csv", "svg"], default="csv",
                         help="'svg' also renders a plot next to the CSV")


def _add_mc_args(sub, t_end_help="Monte Carlo integration end (default 10 / lambda_minus)"):
    sub.add_argument("--n-traj", type=int, default=None,
                     help=f"Monte Carlo trajectories (default {MC_N_TRAJ})")
    sub.add_argument("--dt", type=float, default=None,
                     help="Monte Carlo step (default from the decay rates)")
    sub.add_argument("--t-end", type=float, default=None, help=t_end_help)
    sub.add_argument("--seed", type=int, default=None, help=f"Monte Carlo seed (default {MC_SEED})")


# ---------------------------------------------------------------------------
# sweep engines (module-level so worker processes can import them)
# ---------------------------------------------------------------------------

def _point_variances(args, mc_jobs, beta, epsilon):
    """(beta, epsilon, var_plus, var_minus, mean_n) of --engine at one sweep point.

    mc_jobs is the worker-process count of a Monte Carlo point.
    """
    p = SystemParams(a=args.a, kappa=args.kappa, beta=beta, epsilon=epsilon)
    if args.engine == "analytic":
        v = analytic.variance_steady(p)
        rec = analytic.steady_record(p) if math.isfinite(v.plus) else None
        mean_n = rec.n_cl if rec else math.inf
        return beta, epsilon, v.plus, v.minus, mean_n
    if args.engine == "oracle":
        rho = fock.steady_state(p, ORACLE_DIM if args.dim is None else args.dim)
        obs = fock.observables(rho)
        return beta, epsilon, obs.var_plus, obs.var_minus, obs.mean_n
    n_traj, dt, t_end, seed = _mc_settings(p, args)  # engine == "mc"
    series = montecarlo.run(p, n_traj, t_end, dt, seed, sample_times=[t_end], jobs=mc_jobs)
    return (
        beta,
        epsilon,
        1.0 + float(np.real(series.plus_sq[-1])),
        1.0 - float(np.real(series.minus_sq[-1])),
        float(np.real(series.n_cl[-1])),
    )


def _beta_grid(args):
    """Check --jobs; return the --beta grid, its drives and which points lie below threshold."""
    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    betas = _parse_range(args.beta)
    c, _, tol = _grid_coefficients(args.a, args.kappa, betas, args.epsilon, args.epsilon_rel)
    return betas, np.broadcast_to(c.epsilon, betas.shape), c.lambda_minus > tol


# the engine options of the variance and mean-photon sweeps, and the ones each engine reads
_SWEEP_OPTIONS = ("dim", "n_traj", "dt", "t_end", "seed")
_ENGINE_OPTIONS = {"analytic": (), "oracle": ("dim",), "mc": ("n_traj", "dt", "t_end", "seed")}


def _sweep(args):
    """_point_variances at the stable points of --beta.

    Closed-form points run in this process: each costs microseconds, less
    than starting a worker.  Other points run on --jobs processes; a Monte
    Carlo point then runs in its own process, and in --jobs processes when
    the points run serially.
    """
    _reject_unread(args, _SWEEP_OPTIONS, _ENGINE_OPTIONS[args.engine],
                   f"the {args.engine} engine")
    betas, eps, keep = _beta_grid(args)
    betas = _stable_points(betas, keep, "sweep points with lambda_minus <= 0",
                           "entire sweep lies at or above threshold")
    if args.jobs > 1 and betas.size > 1 and args.engine != "analytic":
        point = functools.partial(_point_variances, args, 1)
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return list(pool.map(point, betas.tolist(), eps[keep].tolist()))
    point = functools.partial(_point_variances, args, args.jobs)
    return list(map(point, betas.tolist(), eps[keep].tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    betas = _parse_range(args.beta)
    c, eps_th, _ = _grid_coefficients(args.a, args.kappa, betas, args.epsilon, args.epsilon_rel)
    header = ["beta", "R", "S", "U", "V", "B", "lambda_minus", "lambda_plus", "epsilon_threshold"]
    return _emit(args, _out_path(args, "coeffs.csv"), header,
                 (betas, c.r, c.s, c.u, c.v, c.b, c.lambda_minus, c.lambda_plus, eps_th))


def _cmd_variance(args) -> int:
    arr = np.array(_sweep(args), dtype=float)
    return _emit(args, _out_path(args, "variance.csv"),
                 ["beta", "epsilon", "var_plus", "var_minus", "mean_n"], arr.T,
                 (arr[:, 0], [("var_plus", arr[:, 2]), ("var_minus", arr[:, 3])],
                  f"steady-state quadrature variances ({args.engine})", "beta", "variance"))


def _cmd_spectrum(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    omegas = _parse_range(args.omega)
    curve = analytic.spectrum(p, omegas)
    series = [("s_plus", curve.s_plus), ("s_minus", curve.s_minus)]
    return _emit(args, _out_path(args, "spectrum.csv"), ["omega", "s_plus", "s_minus"],
                 (curve.omega, curve.s_plus, curve.s_minus),
                 (curve.omega, series, "output squeezing spectrum", "omega", "S(omega)"))


def _cmd_mean_photon(args) -> int:
    if args.engine == "analytic" and args.t_end is not None:
        _reject_unread(args, _SWEEP_OPTIONS, ("t_end",), "the analytic engine")
        betas, eps, _ = _beta_grid(args)
        rows = [(beta, epsilon, analytic.mean_photon_number(
                    SystemParams(a=args.a, kappa=args.kappa, beta=float(beta),
                                 epsilon=float(epsilon)), args.t_end))
                for beta, epsilon in zip(betas, eps)]
        title = f"mean photon number at t={args.t_end:g} (analytic)"
    else:
        rows = [(beta, eps, mean_n) for beta, eps, _vp, _vm, mean_n in _sweep(args)]
        title = f"steady-state mean photon number ({args.engine})"
    arr = np.array(rows, dtype=float)
    return _emit(args, _out_path(args, "mean_photon.csv"), ["beta", "epsilon", "mean_n"], arr.T,
                 (arr[:, 0], [("mean_n", arr[:, 2])], title, "beta", "<n>"))


def _cmd_pnd(args) -> int:
    _reject_unread(args, ("dim",), _ENGINE_OPTIONS[args.engine], f"the {args.engine} engine")
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    if args.engine == "oracle":
        dim = ORACLE_DIM if args.dim is None else args.dim
        if not 0 <= args.n_max <= dim - 1:
            raise InvalidParameterError(
                f"--n-max must lie in [0, dim - 1] = [0, {dim - 1}], got {args.n_max}")
        rho = fock.steady_state(p, dim)
        probs = fock.observables(rho).pnd[: args.n_max + 1]
    else:
        record = analytic.steady_record(p)
        probs = analytic.photon_distribution(record, args.n_max).probs
    ns = np.arange(probs.size)
    return _emit(args, _out_path(args, "pnd.csv"), ["n", "p"], (ns, probs),
                 (ns, [("P(n)", probs)], f"photon number distribution ({args.engine})",
                  "n", "P(n)"))


def _figure_grid(step):
    if not step > 0:
        raise InvalidParameterError(f"--beta-step must be > 0, got {step}")
    return np.arange(0.0, 2.0 + step / 2.0, step)


def _figure_gains(args):
    """The gains of figure args.n: --a (a comma list only for figure 3), else the preset's."""
    if args.a is None:
        return {3: [25.0, 50.0, 100.0], 4: [25.0], 5: [25.0]}.get(args.n, [100.0])
    try:
        gains = [float(v) for v in args.a.split(",")]
    except ValueError:
        raise InvalidParameterError(f"--a must be a number or comma list, got {args.a!r}") from None
    if len(gains) > 1 and args.n != 3:
        raise InvalidParameterError(f"figure {args.n} takes one --a value, got {args.a!r}")
    return gains


# the options each figure preset reads besides --a, --kappa and --out
_FIGURE_OPTIONS = {
    2: ("beta_step",),
    3: ("beta_step",),
    4: ("beta_step", "omega"),
    5: ("beta_step", "epsilon"),
    6: ("beta", "epsilon", "n_max"),
}


def _cmd_figure(args) -> int:
    n, kappa = args.n, args.kappa
    _reject_unread(args, ("beta", "epsilon", "omega", "beta_step", "n_max"), _FIGURE_OPTIONS[n],
                   f"figure {n}")
    gains = _figure_gains(args)
    for g in gains:
        SystemParams(a=g, kappa=kappa, beta=0.0)  # validates the knobs
    a = gains[0]
    eps = 0.3 if args.epsilon is None else args.epsilon
    beta_step = 1e-3 if args.beta_step is None else args.beta_step
    omega = 0.0 if args.omega is None else args.omega

    if n == 2:
        x = _figure_grid(beta_step)
        series = [("no crystal", analytic.no_crystal_minus_curve(a, kappa, x)),
                  ("threshold", analytic.threshold_minus_curve(a, kappa, x))]
        header = ["beta", "var_minus_no_crystal", "var_minus_threshold"]
        title, xlabel, ylabel = "squeezed-quadrature variance", "beta", "variance"
    elif n == 3:
        x = _figure_grid(beta_step)
        series = [(f"A={g:g}", analytic.threshold_minus_curve(g, kappa, x)) for g in gains]
        header = ["beta"] + [f"var_minus_threshold_a{g:g}" for g in gains]
        title, xlabel, ylabel = "at-threshold variance vs gain", "beta", "variance"
    elif n == 4:
        betas = _figure_grid(beta_step)
        c, eps_th, tol = _grid_coefficients(a, kappa, betas)
        x = _stable_points(betas, (eps_th > 0) & (c.lambda_minus > tol),
                           "figure-4 points outside the stable region",
                           "figure 4: no stable sweep points")
        dotted = analytic._spectra(_grid_coefficients(a, kappa, x)[0],
                                   a, kappa, x, omega, tol)[1]
        solid = analytic._spectra(_grid_coefficients(a, kappa, x, epsilon_rel=1.0)[0],
                                  a, kappa, x, omega, tol)[1]
        series = [("no crystal", dotted), ("threshold", solid)]
        header = ["beta", "s_minus_no_crystal", "s_minus_threshold"]
        title, xlabel, ylabel = f"squeezing spectrum at omega={omega:g}", "beta", "S_-"
    elif n == 5:
        betas = _figure_grid(beta_step)
        c_on, _, tol = _grid_coefficients(a, kappa, betas, eps)
        c_off = _grid_coefficients(a, kappa, betas)[0]
        x = _stable_points(betas, (c_on.lambda_minus > tol) & (c_off.lambda_minus > tol),
                           "figure-5 points at or above threshold",
                           "figure 5: no stable sweep points")
        off = analytic._steady_moments(_grid_coefficients(a, kappa, x)[0])[1]
        on = analytic._steady_moments(_grid_coefficients(a, kappa, x, eps)[0])[1]
        series = [("epsilon=0", off), (f"epsilon={eps:g}", on)]
        header = ["beta", "mean_n_no_crystal", "mean_n_pa"]
        title, xlabel, ylabel = "steady-state mean photon number", "beta", "<n>"
    else:  # n == 6
        beta = args.beta if args.beta is not None else 0.067
        n_max = 32 if args.n_max is None else args.n_max
        p_on = SystemParams(a=a, kappa=kappa, beta=beta, epsilon=eps)
        p_off = p_on.with_epsilon(0.0)
        pnd_off = analytic.photon_distribution(analytic.steady_record(p_off), n_max).probs
        pnd_on = analytic.photon_distribution(analytic.steady_record(p_on), n_max).probs
        x = np.arange(n_max + 1)
        series = [("epsilon=0", pnd_off), (f"epsilon={eps:g}", pnd_on)]
        header = ["n", "p_no_crystal", "p_pa"]
        title, xlabel, ylabel = "steady-state photon number distribution", "n", "P(n)"

    out_dir = args.out or os.environ.get(OUT_DIR_ENV, ".")  # a directory, created on demand
    os.makedirs(out_dir, exist_ok=True)
    return _emit(args, os.path.join(out_dir, f"fig{n}.csv"), header,
                 (x, *(y for _, y in series)), (x, series, title, xlabel, ylabel))


MOMENTS_RTOL = 1e-8


def _check_row(name, reference, value, bound, digits=None):
    """One verify row, (check, reference, value, bound, status).

    The status compares the unrounded value with the bound; with `digits`
    the value is kept to that many significant digits, so digits below its
    round-off are neither printed nor written.
    """
    status = "PASS" if abs(value - reference) <= bound else "FAIL"
    if digits is not None:
        value = float(f"{value:.{digits}g}")
    return name, reference, value, bound, status


def verify_point(p: SystemParams, *, dim, n_traj, dt, t_end, seed, sigma, oracle_rtol, pnd_atol):
    """Run all four engines at one parameter point and tabulate agreement.

    dt and t_end may be None for the Monte Carlo defaults.  Returns (rows, ok);
    each row is (check, reference, value, bound, status).
    """
    c = coefficients(p)
    var = analytic.variance_steady(p)
    record = analytic.steady_record(p)
    s_plus, s_minus = analytic.steady_alpha_sq(c)

    rows = []

    def check(name, reference, value, bound, digits=None):
        rows.append(_check_row(name, reference, value, bound, digits))

    lin = moments.steady_from_linear_solve(p)
    check("moments n_cl vs analytic", record.n_cl, lin.n_cl,
          MOMENTS_RTOL * max(abs(record.n_cl), 1e-30))
    check("moments <a+^2> vs analytic", s_plus, lin.var_flow_plus, MOMENTS_RTOL * abs(s_plus))
    check("moments <a-^2> vs analytic", s_minus, lin.var_flow_minus,
          MOMENTS_RTOL * max(abs(s_minus), 1e-30))

    rho = fock.steady_state(p, dim)
    obs = fock.observables(rho)
    check("oracle mean_n vs analytic", record.n_cl, obs.mean_n,
          oracle_rtol * max(abs(record.n_cl), 1e-12))
    check("oracle var_plus vs analytic", var.plus, obs.var_plus, oracle_rtol * var.plus)
    check("oracle var_minus vs analytic", var.minus, obs.var_minus, oracle_rtol * var.minus)
    n_head = min(dim // 2, 64)
    pnd = analytic.photon_distribution(record, n_head).probs
    # a difference of two distributions whose entries carry ~1e-15 of
    # round-off: 3 digits, as its bound is printed
    check("oracle P(n) vs closed form (max |delta|)", 0.0,
          float(np.abs(obs.pnd[: n_head + 1] - pnd).max()), pnd_atol, digits=3)

    dt, t_end = _mc_times(p, dt, t_end)
    series = montecarlo.run(p, n_traj, t_end, dt, seed, sample_times=[t_end])
    check("mc <a+^2> vs analytic", s_plus, float(np.real(series.plus_sq[-1])),
          sigma * float(series.plus_sq_se[-1]))
    check("mc <a-^2> vs analytic", s_minus, float(np.real(series.minus_sq[-1])),
          sigma * float(series.minus_sq_se[-1]))
    check("mc n_cl vs analytic", record.n_cl, float(np.real(series.n_cl[-1])),
          sigma * float(series.n_cl_se[-1]))
    return rows, all(row[4] == "PASS" for row in rows)


def _cmd_verify(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    n_traj, dt, t_end, seed = _mc_settings(p, args)
    rows, ok = verify_point(
        p, dim=args.dim, n_traj=n_traj, dt=dt, t_end=t_end, seed=seed,
        sigma=args.sigma, oracle_rtol=args.oracle_rtol, pnd_atol=args.pnd_atol,
    )
    widths = (42, 16, 16, 12, 6)
    print(f"{'check':<{widths[0]}}{'reference':>{widths[1]}}{'value':>{widths[2]}}"
          f"{'bound':>{widths[3]}}{'status':>{widths[4]}}")
    for name, ref, val, bound, status in rows:
        print(f"{name:<{widths[0]}}{ref:>{widths[1]}.8g}{val:>{widths[2]}.8g}"
              f"{bound:>{widths[3]}.3g}{status:>{widths[4]}}")
    if args.out:
        _write_csv(_out_path(args, "verify.csv"),
                   ["check", "reference", "value", "bound", "status"], zip(*rows))
    print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_mc(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    n_traj, dt, t_end, seed = _mc_settings(p, args)
    s = montecarlo.run(p, n_traj, t_end, dt, seed)
    header = ["t", "alpha_sq", "alpha_sq_se", "n_cl", "n_cl_se",
              "plus_sq", "plus_sq_se", "minus_sq", "minus_sq_se"]
    return _emit(args, _out_path(args, "mc.csv"), header,
                 (s.times, np.real(s.alpha_sq), s.alpha_sq_se, np.real(s.n_cl), s.n_cl_se,
                  np.real(s.plus_sq), s.plus_sq_se, np.real(s.minus_sq), s.minus_sq_se))


def _cmd_oracle(args) -> int:
    if args.t_end is None and args.dt is not None:
        raise InvalidParameterError("the steady state does not read --dt")
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
    return _emit(args, _out_path(args, "oracle.csv"), header, zip(row))


# ---------------------------------------------------------------------------
# argument parser and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="casq",
        description="Cascade-laser + parametric-amplifier squeezing simulator; "
                    "CSV output uses 12 significant digits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="master-equation coefficients over a beta sweep")
    sp.set_defaults(run=_cmd_coeffs)
    _add_system_args(sp, beta_range=True)
    _add_out_args(sp)

    for name, what, run, t_end_help in (
        ("variance", "steady-state quadrature variances", _cmd_variance,
         "mc engine: integration end (default 10 / lambda_minus)"),
        ("mean-photon", "mean photon number", _cmd_mean_photon,
         "analytic engine: evaluate the transient at this time; "
         "mc engine: integration end (default 10 / lambda_minus)"),
    ):
        sp = sub.add_parser(name, help=f"{what} over a beta sweep")
        sp.set_defaults(run=run)
        _add_system_args(sp, beta_range=True)
        sp.add_argument("--engine", choices=["analytic", "oracle", "mc"], default="analytic")
        sp.add_argument("--dim", type=int, default=None,
                        help=f"Fock truncation (oracle engine, default {ORACLE_DIM})")
        _add_mc_args(sp, t_end_help)
        sp.add_argument("--jobs", type=int, default=montecarlo.usable_cores(),
                        help="worker processes for the sweep (default: the usable cores)")
        _add_out_args(sp, plot=True)

    sp = sub.add_parser("spectrum", help="output squeezing spectrum on a frequency grid")
    sp.set_defaults(run=_cmd_spectrum)
    _add_system_args(sp)
    sp.add_argument("--omega", type=str, default="0:5:0.01", help="value or start:stop:step")
    _add_out_args(sp, plot=True)

    sp = sub.add_parser("pnd", help="photon number distribution at steady state")
    sp.set_defaults(run=_cmd_pnd)
    _add_system_args(sp)
    sp.add_argument("--engine", choices=["analytic", "oracle"], default="analytic")
    sp.add_argument("--n-max", type=int, default=64)
    sp.add_argument("--dim", type=int, default=None,
                    help=f"Fock truncation (oracle engine, default {ORACLE_DIM})")
    _add_out_args(sp, plot=True)

    sp = sub.add_parser("figure", help="reproduce a figure preset (2..6)")
    sp.set_defaults(run=_cmd_figure)
    sp.add_argument("n", type=int, choices=[2, 3, 4, 5, 6])
    sp.add_argument("--a", type=str, default=None,
                    help="gain override; figure 3 accepts a comma list (default 25,50,100)")
    sp.add_argument("--kappa", type=float, default=0.8)
    sp.add_argument("--beta", type=float, default=None,
                    help="figure 6 operating point (default 0.067)")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="figures 5 and 6 drive (default 0.3)")
    sp.add_argument("--omega", type=float, default=None,
                    help="figure 4 evaluation frequency (default 0)")
    sp.add_argument("--beta-step", type=float, default=None,
                    help="figures 2 to 5 beta grid step (default 0.001)")
    sp.add_argument("--n-max", type=int, default=None,
                    help="figure 6 photon cutoff (default 32)")
    _add_out_args(sp, plot=True, target="output directory for figN.csv (and figN.svg)")

    sp = sub.add_parser("verify", help="cross-check all four engines at one parameter point")
    _add_system_args(sp)
    sp.add_argument("--dim", type=int, default=256)
    _add_mc_args(sp)
    sp.add_argument("--sigma", type=float, default=3.0, help="Monte Carlo tolerance in standard errors")
    sp.add_argument("--oracle-rtol", type=float, default=1e-3)
    sp.add_argument("--pnd-atol", type=float, default=1e-4)
    # default point: squeezed, all engines converge in seconds
    sp.set_defaults(run=_cmd_verify, a=25.0, beta=0.1, epsilon_rel=0.5)
    _add_out_args(sp)

    sp = sub.add_parser("mc", help="doubled-phase-space moment time series")
    sp.set_defaults(run=_cmd_mc)
    _add_system_args(sp)
    _add_mc_args(sp)
    _add_out_args(sp)

    sp = sub.add_parser("oracle", help="truncated-Fock observables (steady state or transient)")
    sp.set_defaults(run=_cmd_oracle)
    _add_system_args(sp)
    sp.add_argument("--dim", type=int, default=ORACLE_DIM)
    sp.add_argument("--dt", type=float, default=None, help="RK4 step of the --t-end transient")
    sp.add_argument("--t-end", type=float, default=None,
                    help="integrate to this time instead of solving for the steady state")
    _add_out_args(sp)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
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
