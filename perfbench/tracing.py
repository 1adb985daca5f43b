"""Spans around every call into the public functions of casq's modules.

`Tracer.install` replaces each public function of the layer modules, in
every casq namespace that binds it, by a wrapper that records one span:
name, layer, start, end, parent and any exception that escaped.  Spans stay
in memory; `layer_metrics` reduces them to per-layer figures and `dump`
writes them out when the benchmark ends.  Nothing inside casq changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import resource
import sys
import time

import reference

LAYERS = ("params", "analytic", "fock", "montecarlo", "moments", "cli")


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "error", "counts")

    def __init__(self, name: str, layer: str, parent: int | None):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.error: str | None = None
        self.counts: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _steps(t_end: float, dt: float) -> int:
    return max(int(round(t_end / dt)), 1)


def _correlation_steps(a: dict) -> int:
    """Euler-Maruyama steps per trajectory of two_time_correlation, by its documented defaults."""
    tau = list(a["tau_grid"])
    dt = a["dt"]
    stride = max(int(round((tau[1] - tau[0]) / dt)), 1)
    d_tau = stride * dt
    p = a["p"]
    t_burn = a["t_burn"]
    if t_burn is None:
        t_burn = 10.0 / reference.coeffs(reference.Point(p.a, p.kappa, p.beta, p.epsilon)).lambda_minus
    t_avg = a["t_avg"] if a["t_avg"] is not None else 5.0 * (len(tau) - 1) * d_tau
    n_origins = max(int(round(t_avg / d_tau)), 1)
    return _steps(t_burn, dt) + (len(tau) + n_origins - 2) * stride


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Work counts read off the arguments of a call: name -> fn(arguments) -> {count: value}
_COUNTS = {
    "fock.steady_state": lambda a: {"unknowns": (a["dim"] * a["dim"] + 1) // 2},
    "fock.evolve": lambda a: {"rk4_steps": _steps(a["t_end"], a["dt"]) if a["t_end"] > 0 else 0},
    "montecarlo.run": lambda a: {"traj_steps": a["n_traj"] * _steps(a["t_end"], a["dt"])},
    "montecarlo.two_time_correlation": lambda a: {"traj_steps": a["n_traj"] * _correlation_steps(a)},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "casq" or name.startswith("casq.")]
        for layer in LAYERS:
            for fname, fn in _public_functions(sys.modules[f"casq.{layer}"]):
                wrapper = self._wrap(layer, fname, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._restore.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _wrap(self, layer, fname, fn):
        name = f"{layer}.{fname}"
        counter = _COUNTS.get(name)
        track_rss = name == "fock.steady_state"
        is_main = name == "cli.main"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(f"cli.{args[0][0]}" if is_main else name, layer, stack[-1] if stack else None)
            if counter is not None:
                span.counts = counter(_args(fn, args, kwargs))
            stack.append(len(spans))
            spans.append(span)
            rss_before = _maxrss_mb() if track_rss else 0.0
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if track_rss:
                    span.counts["rss_growth_mb"] = _maxrss_mb() - rss_before

        return wrapper

    def dump(self, path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "error": s.error, **s.counts}) + "\n")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over one traced round.

    `<name>.s` sums the spans of that function that are not nested in a span
    of the same name; self time subtracts the time covered by child spans;
    `<layer>.errors` counts exceptions that left the layer, not those passed
    between its own functions.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def self_time(i):
        return spans[i].duration - child_time[i]

    def inclusive(name):
        total = 0.0
        for s in spans:
            if s.name == name and (s.parent is None or spans[s.parent].name != name):
                total += s.duration
        return total

    def count(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    root = []
    for i, s in enumerate(spans):
        root.append(i if s.parent is None else root[s.parent])

    def cli_self(command):
        """Self time of the cli spans inside top-level `cli.<command>` spans."""
        return sum(self_time(i) for i, s in enumerate(spans)
                   if s.layer == "cli" and spans[root[i]].name == command)

    m = {
        "cli.figure.self_s": cli_self("cli.figure"),
        "cli.verify.self_s": cli_self("cli.verify"),
        "params.coefficients.calls": sum(s.name == "params.coefficients" for s in spans),
        "params.coefficients.s": inclusive("params.coefficients"),
        "analytic.calls": sum(s.layer == "analytic" for s in spans),
        "analytic.self_s": sum(self_time(i) for i, s in enumerate(spans) if s.layer == "analytic"),
        "analytic.photon_distribution.s": inclusive("analytic.photon_distribution"),
    }
    for name, key in (("fock.steady_state", "unknowns"), ("fock.evolve", "rk4_steps"),
                      ("montecarlo.run", "traj_steps"), ("montecarlo.two_time_correlation", "traj_steps")):
        seconds = inclusive(name)
        work = count(name, key)
        m[f"{name}.s"] = seconds
        m[f"{name}.{key}"] = work
        if name != "montecarlo.two_time_correlation":
            m[f"{name}.{key}_per_s"] = rate(work, seconds)
    m["fock.steady_state.rss_growth_mb"] = count("fock.steady_state", "rss_growth_mb")
    for name in ("fock.observables", "montecarlo.fit_decay_rates",
                 "montecarlo.spectrum_from_correlation", "moments.propagate",
                 "moments.steady_from_linear_solve"):
        m[f"{name}.s"] = inclusive(name)
    for layer in LAYERS:
        m[f"{layer}.errors"] = sum(
            1 for s in spans
            if s.layer == layer and s.error and (s.parent is None or spans[s.parent].layer != layer)
        )
    return m
