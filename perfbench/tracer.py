"""Per-module spans and counters, taken from outside the satmimo package.

Every satmimo module calls its collaborators through a module-level name
(``cli.exact_se_mc``, ``joint_wmmse.solve_multipliers``, ...). ``traced``
swaps those names for timing wrappers for the length of a ``with`` block and
puts the originals back afterwards, so the program's own files stay
untouched. A wrapper may also wrap an oracle it passes on, to count the
oracle's calls, and read the ``SolveTrace`` a solver returns.

Spans nest: a span's self time is its duration minus the time of the spans
opened inside it. Only the aggregates are kept (per span name: calls, total
and self seconds), which is all the per-layer metrics need.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

# span of the receiver update inside the joint solver; the streamwise solver
# borrows joint_wmmse.update_weights and is not counted under it
_RECEIVER_UPDATE = "joint_wmmse.receiver_update"
_JOINT_SOLVE = "joint_wmmse.solve"


class Tracer:
    """Span stack plus aggregate times and counters for one traced sweep."""

    def __init__(self):
        self._stack = []                     # [name, start, child seconds]
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.maxima = {}
        self.unwrapped = []                  # names the program no longer has

    def timed(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            elapsed = time.perf_counter() - frame[1]
            self.total_s[name] += elapsed
            self.self_s[name] += elapsed - frame[2]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][2] += elapsed

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def count(self, name, amount=1):
        self.counts[name] += amount

    def record_max(self, name, value):
        self.maxima[name] = max(self.maxima.get(name, -np.inf), float(value))

    def counting(self, name, fn):
        """fn wrapped so that each call adds one to counter name."""
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def _count_oracle(tr, bound, arg_name, counter):
    """Make the callable argument arg_name of a bound call count its calls
    under counter; nothing to do when the function has no such parameter."""
    if arg_name in bound.arguments:
        bound.arguments[arg_name] = tr.counting(counter,
                                                bound.arguments[arg_name])


def _span(tr, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tr.timed(name, fn, *args, **kwargs)
    return wrapper


def _exact_se_mc(tr, fn, users_kept):
    """Monte-Carlo evaluator; users_kept(report) is how many of the
    evaluated users the caller keeps (all for a row, one for TDMA)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        report = tr.timed("se_eval.exact_se_mc", fn, *args, **kwargs)
        trials = int(report.trials_used)
        tr.count("se_eval.user_trials", trials * len(report.per_user_se))
        tr.count("se_eval.useful_user_trials", trials * users_kept(report))
        return report
    return wrapper


def _sample_gamma(tr, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gamma = tr.timed("channel.sample_gamma", fn, *args, **kwargs)
        tr.count("channel.sample_gamma.draws", np.size(gamma))
        return gamma
    return wrapper


def _receiver_update(tr, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tr.parent() != _JOINT_SOLVE:
            return fn(*args, **kwargs)
        return tr.timed(_RECEIVER_UPDATE, fn, *args, **kwargs)
    return wrapper


def _solve_multipliers(tr, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        kind = "single" if bound.arguments.get("dim") == 1 else "multi"
        tr.count(f"ellipsoid.searches_{kind}")
        _count_oracle(tr, bound, "residual_oracle",
                      f"ellipsoid.oracle_calls_{kind}")
        return tr.timed("ellipsoid.solve_multipliers", fn,
                        *bound.args, **bound.kwargs)
    return wrapper


def _bisection_multiplier(tr, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        _count_oracle(tr, bound, "residual_fn",
                      "streamwise.bisection_oracle_calls")
        return tr.timed("streamwise.bisection_multiplier", fn,
                        *bound.args, **bound.kwargs)
    return wrapper


def _record_certificate(tr, layer, solve_trace):
    tr.count(f"{layer}.iterations", int(solve_trace.iterations))
    tr.count(f"{layer}.unconverged", int(not solve_trace.converged))


def _joint_solve(tr, fn):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tr.timed(_JOINT_SOLVE, fn, *args, **kwargs)
        solve_trace = result[-1]
        _record_certificate(tr, "joint_wmmse", solve_trace)
        tr.count("joint_wmmse.pinv_fallbacks", int(solve_trace.pinv_fallbacks))
        bound = signature.bind(*args, **kwargs).arguments
        if solve_trace.max_residual and "constraints" in bound:
            # residual in watts, relative to the largest cap of the solve
            cap = max(float(np.max(c)) for c in bound["constraints"].caps)
            tr.record_max("joint_wmmse.max_residual",
                          solve_trace.max_residual[-1] / cap)
        return result
    return wrapper


def _streamwise_solve(tr, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tr.timed("streamwise.solve_streamwise", fn, *args, **kwargs)
        _record_certificate(tr, "streamwise", result[-1])
        return result
    return wrapper


# (satmimo module, attribute, wrapper factory) for every traced call
_PATCHES = [
    ("cli", "sample_geometry",
     lambda t, f: _span(t, "scenario.sample_geometry", f)),
    ("cli", "effective_channels",
     lambda t, f: _span(t, "channel.effective_channels", f)),
    ("cli", "exact_se_mc",
     lambda t, f: _exact_se_mc(t, f, lambda r: len(r.per_user_se))),
    # tdma_mrt_baseline evaluates every user and keeps only user k
    ("baselines", "exact_se_mc",
     lambda t, f: _exact_se_mc(t, f, lambda r: 1)),
    ("se_eval", "sample_gamma", _sample_gamma),
    ("joint_wmmse", "solve", _joint_solve),
    ("joint_wmmse", "update_combiners", _receiver_update),
    ("joint_wmmse", "mse_at_optimum", _receiver_update),
    ("joint_wmmse", "update_weights", _receiver_update),
    ("joint_wmmse", "solve_multipliers", _solve_multipliers),
    ("joint_wmmse", "power_residuals",
     lambda t, f: _span(t, "power.residuals", f)),
    ("streamwise", "solve_streamwise", _streamwise_solve),
    ("streamwise", "associate",
     lambda t, f: _span(t, "streamwise.associate", f)),
    ("streamwise", "bisection_multiplier", _bisection_multiplier),
    ("streamwise", "max_weight_assignment",
     lambda t, f: _span(t, "assignment.max_weight_assignment", f)),
    ("assignment", "_hungarian_min",
     lambda t, f: functools.wraps(f)(
         t.counting("assignment.hungarian_solves", f))),
]


@contextlib.contextmanager
def traced(package):
    """Install the wrappers on the satmimo package for the block's length."""
    tr = Tracer()
    saved = []
    try:
        for module_name, attr, factory in _PATCHES:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                tr.unwrapped.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, factory(tr, original))
        yield tr
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(tr, traced_run_s, overhead_frac):
    """Per-layer metric values (name -> (value, unit)) for one traced sweep
    that took traced_run_s and overhead_frac more than an untraced one."""
    ms = 1000.0

    def total(name):
        return tr.total_s.get(name, 0.0) * ms

    def own(name):
        return tr.self_s.get(name, 0.0) * ms

    evaluated = tr.counts["se_eval.user_trials"]
    useful = tr.counts["se_eval.useful_user_trials"]
    covered = sum(tr.self_s.values())
    out = {
        "se_eval.exact_se_mc.self_ms": (own("se_eval.exact_se_mc"), "ms"),
        "se_eval.exact_se_mc.calls": (tr.calls["se_eval.exact_se_mc"], "count"),
        "se_eval.user_trials": (evaluated, "count"),
        "se_eval.useful_user_ratio": (useful / evaluated if evaluated else 0.0,
                                      "ratio"),
        "channel.sample_gamma.ms": (total("channel.sample_gamma"), "ms"),
        "channel.sample_gamma.draws": (tr.counts["channel.sample_gamma.draws"],
                                       "count"),
        "channel.effective_channels.ms": (total("channel.effective_channels"),
                                          "ms"),
        "ellipsoid.solve_multipliers.self_ms": (
            own("ellipsoid.solve_multipliers"), "ms"),
        "power.residuals.ms": (total("power.residuals"), "ms"),
        "power.residuals.calls": (tr.calls["power.residuals"], "count"),
        "joint_wmmse.solve.self_ms": (own(_JOINT_SOLVE), "ms"),
        "joint_wmmse.receiver_update.ms": (total(_RECEIVER_UPDATE), "ms"),
        "joint_wmmse.max_residual": (
            tr.maxima.get("joint_wmmse.max_residual", 0.0), "ratio"),
        "streamwise.solve_streamwise.self_ms": (
            own("streamwise.solve_streamwise"), "ms"),
        "streamwise.bisection_multiplier.ms": (
            total("streamwise.bisection_multiplier"), "ms"),
        "streamwise.associate.ms": (total("streamwise.associate"), "ms"),
        "assignment.max_weight_assignment.ms": (
            total("assignment.max_weight_assignment"), "ms"),
        "scenario.sample_geometry.ms": (total("scenario.sample_geometry"), "ms"),
        "scenario.sample_geometry.calls": (tr.calls["scenario.sample_geometry"],
                                           "count"),
        "cli.run_job.self_ms": (own("cli.run_job"), "ms"),
        "trace_overhead_frac": (overhead_frac, "ratio"),
        "trace_self_cover_frac": (covered / traced_run_s, "ratio"),
    }
    for name in ("ellipsoid.searches_single", "ellipsoid.searches_multi",
                 "ellipsoid.oracle_calls_single", "ellipsoid.oracle_calls_multi",
                 "joint_wmmse.iterations", "joint_wmmse.unconverged",
                 "joint_wmmse.pinv_fallbacks",
                 "streamwise.bisection_oracle_calls", "streamwise.iterations",
                 "streamwise.unconverged", "assignment.hungarian_solves"):
        out[name] = (tr.counts[name], "count")
    return out
