"""Command-line front end: sweeps, figure presets and the table of `casq.crosscheck`.

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

import numpy as np

from . import analytic, crosscheck, fock, montecarlo
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    NotStableError,
    QFunctionUndefinedError,
    StepSizeError,
    TrajectoryBlowupError,
    TruncationError,
)
from .params import SystemParams, coefficient_grid, coefficients, threshold_tolerance

OUT_DIR_ENV = "CASQ_OUT_DIR"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_STABLE = 3
EXIT_MISMATCH = 4
EXIT_IO = 5

# defaults of options that only some engines read (the parser leaves them None)
ORACLE_DIM = 150  # number-basis levels of the oracle's --t-end transient
MC_N_TRAJ = 20000
MC_SEED = 7041

# the most points a beta or omega grid may hold, checked before it is allocated
MAX_GRID_POINTS = 10**6
# the largest photon cutoff, bounded by its work: the closed-form P(n) table
# costs O(n_max^2) time (about 5 s at the bound on 2 cores), and the oracle's
# lab P(n) holds three (n_max + 1) x dim float64 arrays (3 x 164 MB at dim 1024)
MAX_PND_N = 20_000


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
        fh.write("".join(map(line.__mod__, zip(*(col.tolist() for col in columns), strict=True))))


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
    """'start:stop:step' (inclusive of stop up to round-off) or a single value, all finite."""
    try:
        values = [float(v) for v in text.split(":")]
    except ValueError:
        values = []
    if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
        raise InvalidParameterError(f"range must be a finite value or start:stop:step, got {text!r}")
    if len(values) == 1:
        return np.array(values)
    start, stop, step_size = values
    if not (step_size > 0 and stop >= start and math.isfinite((stop - start) / step_size)):
        raise InvalidParameterError(f"bad range {text!r}: need step > 0, stop >= start, finite count")
    count = int(math.floor((stop - start) / step_size + 0.5)) + 1
    if count > MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"range {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    return start + step_size * np.arange(count)


def _check_n_max(n_max: int) -> None:
    """A photon cutoff of 0..MAX_PND_N, checked before either engine solves or allocates."""
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be >= 0, got {n_max}")
    if n_max > MAX_PND_N:
        raise InvalidParameterError(f"n_max {n_max} is more than {MAX_PND_N}")


def _out_path(args, default_name: str) -> str:
    if args.out and not args.out.endswith(os.sep):
        return args.out
    return os.path.join(args.out or os.environ.get(OUT_DIR_ENV, "."), default_name)


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


def _mc_settings(p: SystemParams, args):
    """(n_traj, dt, t_end, seed) at p: --n-traj, --dt, --t-end and --seed, else their defaults."""
    c = coefficients(p)
    dt = 0.01 / max(c.lambda_plus, abs(c.lambda_minus), p.kappa, 1.0) if args.dt is None else args.dt
    t_end = 10.0 / c.lambda_minus if args.t_end is None else args.t_end
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
    # None lets a one-point subcommand's relative default apply (see _make_params)
    drive.add_argument("--epsilon", type=float, default=0.0 if beta_range else None,
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

def _oracle_steady_state(p: SystemParams, dim):
    """The oracle's steady state at p in the squeezed frame: in dim levels, or,
    with dim None, in as many as the frame's own thermal occupation asks for."""
    if dim is not None and dim < 2:  # fock reads dim 0 as "size the frame"
        raise InvalidParameterError(f"dim must be >= 2, got {dim}")
    return fock.steady_state(p, dim or 0, frame="auto")


def _point_variances(args, mc_jobs, beta, epsilon):
    """(beta, epsilon, var_plus, var_minus, mean_n) of the oracle or mc engine at one point.

    mc_jobs is the worker-process count of a Monte Carlo point.
    """
    p = SystemParams(a=args.a, kappa=args.kappa, beta=beta, epsilon=epsilon)
    if args.engine == "oracle":
        obs = fock.observables(_oracle_steady_state(p, args.dim))
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
    c, _ = coefficient_grid(args.a, args.kappa, betas, args.epsilon, args.epsilon_rel)
    return betas, np.broadcast_to(c.epsilon, betas.shape), c.lambda_minus > threshold_tolerance(c)


# the engine options of the variance and mean-photon sweeps, and the ones each engine reads
_SWEEP_OPTIONS = ("dim", "n_traj", "dt", "t_end", "seed")
_ENGINE_OPTIONS = {"analytic": (), "oracle": ("dim",), "mc": ("n_traj", "dt", "t_end", "seed")}


def _sweep(args):
    """Rows (beta, epsilon, var_plus, var_minus, mean_n) at the stable points of --beta.

    The closed forms take the whole grid in one array pass.  Other points
    run on --jobs processes where montecarlo.worker_context allows them; a
    Monte Carlo point then runs in its own process, and in --jobs processes
    when the points run serially.
    """
    _reject_unread(args, _SWEEP_OPTIONS, _ENGINE_OPTIONS[args.engine],
                   f"the {args.engine} engine")
    betas, eps, keep = _beta_grid(args)
    betas = _stable_points(betas, keep, "sweep points with lambda_minus <= 0",
                           "entire sweep lies at or above threshold")
    eps = eps[keep]
    if args.engine == "analytic":
        c, _ = coefficient_grid(args.a, args.kappa, betas, eps)
        s_plus, s_minus = analytic.steady_alpha_sq(c)
        mean_n = analytic.mean_photon_curve(args.a, args.kappa, betas, eps)
        return np.column_stack((betas, eps, 1.0 + s_plus, 1.0 - s_minus, mean_n))
    context = montecarlo.worker_context() if args.jobs > 1 and betas.size > 1 else None
    if context is not None:
        from concurrent.futures import ProcessPoolExecutor

        point = functools.partial(_point_variances, args, 1)
        with ProcessPoolExecutor(max_workers=args.jobs, mp_context=context) as pool:
            return np.array(list(pool.map(point, betas.tolist(), eps.tolist())))
    point = functools.partial(_point_variances, args, args.jobs)
    return np.array(list(map(point, betas.tolist(), eps.tolist())))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_coeffs(args) -> int:
    betas = _parse_range(args.beta)
    c, eps_th = coefficient_grid(args.a, args.kappa, betas, args.epsilon, args.epsilon_rel)
    header = ["beta", "R", "S", "U", "V", "B", "lambda_minus", "lambda_plus", "epsilon_threshold"]
    return _emit(args, _out_path(args, "coeffs.csv"), header,
                 (betas, c.r, c.s, c.u, c.v, c.b, c.lambda_minus, c.lambda_plus, eps_th))


def _cmd_variance(args) -> int:
    arr = _sweep(args)
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
        mean_n = analytic.mean_photon_curve(args.a, args.kappa, betas, eps, args.t_end)
        arr = np.column_stack((betas, eps, mean_n))
        title = f"mean photon number at t={args.t_end:g} (analytic)"
    else:
        arr = _sweep(args)[:, [0, 1, 4]]
        title = f"steady-state mean photon number ({args.engine})"
    return _emit(args, _out_path(args, "mean_photon.csv"), ["beta", "epsilon", "mean_n"], arr.T,
                 (arr[:, 0], [("mean_n", arr[:, 2])], title, "beta", "<n>"))


def _cmd_pnd(args) -> int:
    _reject_unread(args, ("dim",), _ENGINE_OPTIONS[args.engine], f"the {args.engine} engine")
    _check_n_max(args.n_max)
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    if args.engine == "oracle":  # the squeezed frame gives the lab P(n) for any n
        probs = fock.observables(_oracle_steady_state(p, args.dim), n_max=args.n_max).pnd
    else:
        record = analytic.steady_record(p)
        probs = analytic.photon_distribution(record, args.n_max).probs
    ns = np.arange(probs.size)
    return _emit(args, _out_path(args, "pnd.csv"), ["n", "p"], (ns, probs),
                 (ns, [("P(n)", probs)], f"photon number distribution ({args.engine})",
                  "n", "P(n)"))


# each figure preset: the options it reads besides --a, --kappa and --out, and its default gains
_FIGURES = {
    2: (("beta_step",), [100.0]),
    3: (("beta_step",), [25.0, 50.0, 100.0]),
    4: (("beta_step", "omega"), [25.0]),
    5: (("beta_step", "epsilon"), [25.0]),
    6: (("beta", "epsilon", "n_max"), [100.0]),
}


def _cmd_figure(args) -> int:
    n, kappa = args.n, args.kappa
    reads, gains = _FIGURES[n]
    _reject_unread(args, ("beta", "epsilon", "omega", "beta_step", "n_max"), reads, f"figure {n}")
    if args.a is not None:  # a comma list only for figure 3
        try:
            gains = [float(v) for v in args.a.split(",")]
        except ValueError:
            raise InvalidParameterError(f"--a must be a number or comma list, got {args.a!r}") from None
        if len(gains) > 1 and n != 3:
            raise InvalidParameterError(f"figure {n} takes one --a value, got {args.a!r}")
    a = gains[0]
    eps = 0.3 if args.epsilon is None else args.epsilon
    step = 1e-3 if args.beta_step is None else args.beta_step
    if not (math.isfinite(step) and step > 0):
        raise InvalidParameterError(f"--beta-step must be finite and > 0, got {step}")
    if (2.0 + step / 2.0) / step > MAX_GRID_POINTS:
        raise InvalidParameterError(
            f"--beta-step {step:g} gives more than {MAX_GRID_POINTS} points")
    betas = np.arange(0.0, 2.0 + step / 2.0, step)  # the grid of figures 2 to 5
    omega = 0.0 if args.omega is None else args.omega
    if not math.isfinite(omega):  # before figure 4 reports its clipped points
        raise InvalidParameterError(f"--omega must be finite, got {omega}")

    if n == 2:
        x = betas
        series = [("no crystal", analytic.no_crystal_minus_curve(a, kappa, x)),
                  ("threshold", analytic.threshold_minus_curve(a, kappa, x))]
        header = ["beta", "var_minus_no_crystal", "var_minus_threshold"]
        title, xlabel, ylabel = "squeezed-quadrature variance", "beta", "variance"
    elif n == 3:
        x = betas
        series = [(f"A={g:g}", analytic.threshold_minus_curve(g, kappa, x)) for g in gains]
        header = ["beta"] + [f"var_minus_threshold_a{g:g}" for g in gains]
        title, xlabel, ylabel = "at-threshold variance vs gain", "beta", "variance"
    elif n == 4:
        c, eps_th = coefficient_grid(a, kappa, betas)
        x = _stable_points(betas, (eps_th > 0) & (c.lambda_minus > threshold_tolerance(c)),
                           "figure-4 points outside the stable region",
                           "figure 4: no stable sweep points")
        series = [("no crystal", analytic.spectrum_minus_curve(a, kappa, x, omega, 0.0)),
                  ("threshold", analytic.spectrum_minus_curve(a, kappa, x, omega, 1.0))]
        header = ["beta", "s_minus_no_crystal", "s_minus_threshold"]
        title, xlabel, ylabel = f"squeezing spectrum at omega={omega:g}", "beta", "S_-"
    elif n == 5:
        # lambda_minus falls as the drive rises, so these points are stable undriven too
        c, _ = coefficient_grid(a, kappa, betas, eps)
        x = _stable_points(betas, c.lambda_minus > threshold_tolerance(c),
                           "figure-5 points at or above threshold",
                           "figure 5: no stable sweep points")
        series = [("epsilon=0", analytic.mean_photon_curve(a, kappa, x, 0.0)),
                  (f"epsilon={eps:g}", analytic.mean_photon_curve(a, kappa, x, eps))]
        header = ["beta", "mean_n_no_crystal", "mean_n_pa"]
        title, xlabel, ylabel = "steady-state mean photon number", "beta", "<n>"
    else:  # n == 6
        beta = args.beta if args.beta is not None else 0.067
        n_max = 32 if args.n_max is None else args.n_max
        _check_n_max(n_max)
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


def _cmd_verify(args) -> int:
    p = _make_params(args.a, args.kappa, args.beta, args.epsilon, args.epsilon_rel)
    n_traj, dt, t_end, seed = _mc_settings(p, args)
    rows, ok = crosscheck.verify_point(
        p, dim=args.dim, n_traj=n_traj, dt=dt, t_end=t_end, seed=seed,
        sigma=args.sigma, oracle_rtol=args.oracle_rtol, pnd_atol=args.pnd_atol,
    )
    print(f"{'check':<42}{'reference':>16}{'value':>16}{'bound':>12}{'status':>6}")
    for name, ref, val, bound, status in rows:
        print(f"{name:<42}{ref:>16.8g}{val:>16.8g}{bound:>12.3g}{status:>6}")
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
        rho = _oracle_steady_state(p, args.dim)
    else:  # evolve runs in the number basis only
        dim = ORACLE_DIM if args.dim is None else args.dim
        if dim > fock.FRAME_DIM_MAX:  # before vacuum allocates dim^2 complex entries
            raise InvalidParameterError(
                f"dim must be <= FRAME_DIM_MAX = {fock.FRAME_DIM_MAX} for the transient, "
                f"got {dim}")
        rho = fock.evolve(fock.vacuum(dim), p, args.t_end, dt=args.dt)
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

_ORACLE_DIM_HELP = (f"levels of the oracle's squeezed-frame basis, at most {fock.FRAME_DIM_MAX} "
                    "(default: sized from the frame's own thermal occupation)")


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
        sp.add_argument("--dim", type=int, default=None, help=_ORACLE_DIM_HELP)
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
    sp.add_argument("--dim", type=int, default=None, help=_ORACLE_DIM_HELP)
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
    sp.add_argument("--dim", type=int, default=None, help=_ORACLE_DIM_HELP)
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
    sp.add_argument("--dim", type=int, default=None,
                    help=f"{_ORACLE_DIM_HELP}; with --t-end, levels of the number basis, "
                         f"at most {fock.FRAME_DIM_MAX} (default {ORACLE_DIM})")
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
