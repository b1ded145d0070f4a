"""Spans around the program's layers, recorded from outside the package.

``install`` replaces every public function of the traced modules, and the
methods named in ``METHODS``, with a wrapper that records one span per call:
name, start, end, parent span and seed id.  The seed id is the
``seed_index`` of the enclosing ``harness.evaluate_seed`` call.  Names bound
by ``from ... import`` in other overadapt modules are rebound too, so calls
between modules are seen.

Two wrappers do more than time the call:

* ``AnalyticRisk.task_risk`` (which ``report`` calls once per task and
  ``verify_theorem_orderings`` calls directly) is recorded as
  ``risk.AnalyticRisk.report.new_lambda`` on the first call per evaluator at a
  lambda with tau != 0, where the lambda-dependent trace blocks are built,
  and as ``risk.AnalyticRisk.report.cached`` otherwise;
* ``mc_expected_risk`` receives a proxy around its ``rng`` argument that counts
  ``standard_normal`` variates and their time.  The proxy delegates to the same
  generator, so the stream and every value stay as they were.

Spans stay in memory; the caller writes them out at the end.  Run traced code
in one process (``--workers 1``), or spans made in pool workers are lost.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import weakref
from time import perf_counter

MODULES = ("synth", "estimators", "risk", "theory", "harness", "svgplot", "cli")
METHODS = {
    ("risk", "AnalyticRisk"): {"__init__": "risk.AnalyticRisk.init"},
    ("risk", "FtResolvent"): {"traces": "risk.FtResolvent.traces"},
    ("estimators", "GramSolver"): {"factor": "estimators.GramSolver.factor",
                                   "solve": "estimators.GramSolver.solve"},
}
NEW_LAMBDA = "risk.AnalyticRisk.report.new_lambda"
CACHED = "risk.AnalyticRisk.report.cached"


class Tracer:
    """In-memory span list: ``[name, start, end, parent index, seed id]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = {"risk.mc.normals": 0, "risk.mc.rng_s": 0.0,
                         "harness.write_results.bytes": 0}
        self._stack: list[int] = []
        self._seed = None
        self._lambdas: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def call(self, name, fn, args, kwargs, seed=None):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
               self._seed if seed is None else seed]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        outer_seed = self._seed
        if seed is not None:
            self._seed = seed
        rec[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self._seed = outer_seed

    def first_at_lambda(self, evaluator, kind) -> bool:
        lam, tau = kind.effective
        if tau == 0.0:
            return False
        seen = self._lambdas.setdefault(evaluator, set())
        if lam in seen:
            return False
        seen.add(lam)
        return True


class CountingRng:
    """Delegates to a numpy Generator, counting ``standard_normal`` variates."""

    def __init__(self, rng, counters: dict):
        self._rng = rng
        self._counters = counters

    def standard_normal(self, *args, **kwargs):
        start = perf_counter()
        out = self._rng.standard_normal(*args, **kwargs)
        self._counters["risk.mc.rng_s"] += perf_counter() - start
        self._counters["risk.mc.normals"] += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _function_wrapper(tracer: Tracer, name: str, fn):
    if name == "harness.evaluate_seed":
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            seed = sig.bind(*args, **kwargs).arguments["seed_index"]
            return tracer.call(name, fn, args, kwargs, seed=seed)
    elif name == "risk.mc_expected_risk":
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.arguments["rng"] = CountingRng(bound.arguments["rng"], tracer.counters)
            return tracer.call(name, fn, bound.args, bound.kwargs)
    elif name == "harness.write_results":
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            path = sig.bind(*args, **kwargs).arguments["path"]
            tracer.counters["harness.write_results.bytes"] += os.path.getsize(path)
            return out
    else:
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
    return functools.wraps(fn)(wrapper)


def _task_risk_wrapper(tracer: Tracer, fn):
    def wrapper(self, kind, *args, **kwargs):
        name = NEW_LAMBDA if tracer.first_at_lambda(self, kind) else CACHED
        return tracer.call(name, fn, (self, kind, *args), kwargs)
    return functools.wraps(fn)(wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced layers of the already importable ``overadapt`` package."""
    mods = {m: importlib.import_module(f"overadapt.{m}") for m in MODULES}
    wrapped: dict[int, object] = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = _function_wrapper(tracer, f"{short}.{attr}", obj)
    for (short, cls_name), methods in METHODS.items():
        cls = getattr(mods[short], cls_name)
        for meth, name in methods.items():
            setattr(cls, meth, _function_wrapper(tracer, name, getattr(cls, meth)))
    analytic = mods["risk"].AnalyticRisk
    analytic.task_risk = _task_risk_wrapper(tracer, analytic.task_risk)

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "overadapt" or mod_name.startswith("overadapt.")):
            continue
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(mod, attr, wrapped[id(obj)])


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def span_stats(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and durations.

    Self time is a span's duration minus the time its direct children cover;
    spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "durations": []})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - child[i]
        st["durations"].append(end - start)
    return stats


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``metrics.LAYERS``)."""
    stats = span_stats(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
    get = lambda name: stats.get(name, empty)  # noqa: E731
    out: dict[str, float] = {}
    for name in ("synth.sample_design", "harness.evaluate_seed", "risk.mc_expected_risk",
                 "risk.FtResolvent.traces", "estimators.GramSolver.factor",
                 "estimators.GramSolver.solve", NEW_LAMBDA, CACHED, "theory.tau_prime"):
        out[f"{name}.calls"] = get(name)["calls"]
    for name in ("harness.write_results", "svgplot.render_tradeoff_svg", "cli.main",
                 "synth.sample_design", "risk.AnalyticRisk.init", NEW_LAMBDA, CACHED,
                 "estimators.GramSolver.factor", "estimators.GramSolver.solve",
                 "risk.mc_expected_risk", "risk.lemma_approx_risk", "risk.FtResolvent.traces",
                 "theory.verify_theorem_orderings", "theory.eigen_band_check"):
        out[f"{name}.self_s"] = get(name)["self_s"]
    seeds = get("harness.evaluate_seed")["durations"]
    out["harness.evaluate_seed.p50_s"] = _percentile(seeds, 0.5)
    out["harness.evaluate_seed.p90_s"] = _percentile(seeds, 0.9)
    out["harness.evaluate_seed.total_s"] = get("harness.evaluate_seed")["total_s"]
    out["harness.write_results.bytes"] = counters["harness.write_results.bytes"]
    out["risk.mc.normals"] = counters["risk.mc.normals"]
    out["risk.mc.rng_s"] = counters["risk.mc.rng_s"]
    out["risk.mc.linalg_s"] = out["risk.mc_expected_risk.self_s"] - counters["risk.mc.rng_s"]
    return out
