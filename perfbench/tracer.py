"""Traced launcher for the delpezzo CLI, and the arithmetic on its spans.

    PERFBENCH_SPANS=spans.json python3 perfbench/tracer.py count --a -1 --B 100

runs `delpezzo.cli.main` on the given arguments, as `python -m delpezzo.cli`
does, with every function in TARGETS replaced by a timing wrapper.  The
wrapper is installed right after its module is executed, before any other
module of the package can bind the name, so every caller (`from .x import f`,
a module-global call, a method lookup) goes through it.  Module imports of
the package are spans too.  Nothing inside the package is edited.

Each span is [name, start, end, parent index, counts or None]; they are kept
in memory and written as one JSON object to $PERFBENCH_SPANS when the request
ends.  The benchmark (run.py) tags each file with its request id and turns
the spans into per-layer metrics with `layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import os
import statistics
import sys
from time import perf_counter

IMPORT_SPAN = "cli.import"


def _box_counts(args, out):
    B1 = args[1]
    return {"points": len(out), "scanned": (2 * B1 + 1) * 2 * B1 * B1}


def _torsor_counts(args, out):
    return {
        "points": out.count,
        "visited": out.stats.get("visited", 0),
        "weighted": out.stats.get("weighted_positive", 0),
    }


# (module, attribute, span name, counts taken from (args, result) or None)
TARGETS = (
    ("delpezzo.cli", "Cache.get", "cli.cache_get", lambda args, out: {"hits": int(out is not None)}),
    ("delpezzo.cli", "Cache.put", "cli.cache_put", None),
    ("delpezzo.counting", "direct_count", "counting.direct", lambda args, out: {"points": out.count}),
    ("delpezzo.counting", "_direct_box", "counting.direct_box", _box_counts),
    ("delpezzo.counting", "_direct_pruned_count", "counting.direct_pruned", None),
    ("delpezzo.counting", "torsor_count", "counting.torsor", _torsor_counts),
    ("delpezzo.counting", "moebius_slice_check", "counting.moebius_slice", None),
    ("delpezzo.characters", "CharacterChi.L1", "characters.L1", lambda args, out: {"terms": out.cut}),
    ("delpezzo.constant", "predict_constant", "constant.predict", None),
    ("delpezzo.constant", "finite_product", "constant.finite_product", None),
    ("delpezzo.local_densities", "omega_p", "local_densities.omega_p", None),
    ("delpezzo.local_densities", "omega_p_bruteforce", "local_densities.oracle", None),
    ("delpezzo.archimedean", "omega_inf_chart", "archimedean.chart", None),
    ("delpezzo.archimedean", "omega_inf_region", "archimedean.region", None),
    ("delpezzo.archimedean", "omega_inf_montecarlo", "archimedean.montecarlo", None),
    ("delpezzo.eta", "eta_closed", "eta.closed", None),
    ("delpezzo.eta", "eta_bruteforce", "eta.bruteforce", None),
    ("delpezzo.theta", "theta1_factor_identity", "theta.identity", None),
    ("delpezzo.torsor", "orbit", "torsor.orbit", None),
)


class Tracer:
    """Records nested spans of one request."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def call(self, name, fn, args=(), kwargs=None, counts=None):
        i = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1], None]
        self.spans.append(rec)
        self._stack.append(i)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **(kwargs or {}))
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if counts is not None:
            rec[4] = counts(args, out)
        return out

    def wrap(self, fn, name, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts)

        return wrapper

    def patch(self, module) -> None:
        for mod_name, attr, name, counts in TARGETS:
            if mod_name != module.__name__:
                continue
            owner = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, leaf, self.wrap(getattr(owner, leaf), name, counts))


class _TracingFinder(importlib.abc.MetaPathFinder):
    """Times each delpezzo module import and patches the module after it runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "delpezzo" and not fullname.startswith("delpezzo."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run_module = spec.loader.exec_module
        tracer = self.tracer

        def exec_module(module):
            tracer.call(IMPORT_SPAN, run_module, (module,))
            tracer.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> int:
    tracer = Tracer()
    sys.meta_path.insert(0, _TracingFinder(tracer))
    rc = 1
    try:
        import delpezzo.cli

        rc = delpezzo.cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans}, fh, separators=(",", ":"))
    return rc


# ---------------------------------------------------------------------------
# span arithmetic (benchmark side)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans of one request come from one thread and nest, so the children of a
    span are disjoint intervals inside it."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


# per-layer metric name -> (unit, better)
LAYER_METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.cache_get_s": ("s", "lower"),
    "cli.cache_gets": ("count", "lower"),
    "cli.cache_hits": ("count", "higher"),
    "cli.cache_records": ("count", "lower"),
    "cli.cache_put_s": ("s", "lower"),
    "counting.direct_box_s": ("s", "lower"),
    "counting.direct_box_calls": ("count", "lower"),
    "counting.direct_box_yield": ("ratio", "higher"),
    "counting.direct_pruned_s": ("s", "lower"),
    "counting.direct_pruned_calls": ("count", "lower"),
    "counting.torsor_s": ("s", "lower"),
    "counting.torsor_calls": ("count", "lower"),
    "counting.torsor_visited": ("count", "lower"),
    "counting.torsor_yield": ("ratio", "higher"),
    "counting.points": ("count", "lower"),
    "counting.moebius_slice_s": ("s", "lower"),
    "counting.moebius_slices": ("count", "lower"),
    "characters.L1_s": ("s", "lower"),
    "characters.L1_calls": ("count", "lower"),
    "characters.L1_terms": ("count", "lower"),
    "constant.predict_s": ("s", "lower"),
    "constant.finite_product_s": ("s", "lower"),
    "local_densities.omega_p_s": ("s", "lower"),
    "local_densities.omega_p_calls": ("count", "lower"),
    "local_densities.oracle_s": ("s", "lower"),
    "local_densities.oracle_calls": ("count", "lower"),
    "archimedean.chart_s": ("s", "lower"),
    "archimedean.region_s": ("s", "lower"),
    "archimedean.montecarlo_s": ("s", "lower"),
    "eta.closed_s": ("s", "lower"),
    "eta.closed_calls": ("count", "lower"),
    "eta.bruteforce_s": ("s", "lower"),
    "eta.bruteforce_calls": ("count", "lower"),
    "theta.identity_s": ("s", "lower"),
    "theta.identity_calls": ("count", "lower"),
    "torsor.orbit_s": ("s", "lower"),
    "torsor.orbit_calls": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.wrapper_est_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Median extra seconds of one traced call over a direct call, measured on
    a no-op in this process."""

    def noop():
        return None

    def per_call(fn) -> float:
        t = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - t) / calls

    return statistics.median(
        per_call(Tracer().wrap(noop, "noop", None)) - per_call(noop) for _ in range(repeats)
    )


def layer_metrics(requests, wrapper_cost: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    `requests` holds per request (traced latency, latency of its untraced
    twin, cache records before the request, spans).  `<span>_s` is the summed
    self time of the spans of that name, `<span>_calls` their number; the
    counts come from the spans' counters.  `cli.cache_records` is the number
    of records the cache gets scanned.  The unattributed remainder is the
    request latency not covered by any span (interpreter start, argument
    parsing, output, writing the spans).  The overhead is traced minus
    untraced latency summed over the pairs; `trace.wrapper_est_s` is the
    number of spans times `wrapper_cost`, the wrappers' own share of it."""
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    attributed = 0.0
    records = 0
    for _, _, before, spans in requests:
        for s, t in zip(spans, self_times(spans)):
            name = s[0]
            self_s[name] = self_s.get(name, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
            attributed += t
            if name == "cli.cache_get":
                records += before
            for k, v in (s[4] or {}).items():
                key = f"{name}.{k}"
                counts[key] = counts.get(key, 0) + v
    traced_wall = sum(r[0] for r in requests)
    untraced_wall = sum(r[1] for r in requests)

    def ratio(num: str, den: str) -> float:
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {
        "cli.import_s": self_s.get(IMPORT_SPAN, 0.0),
        "cli.cache_gets": calls.get("cli.cache_get", 0),
        "cli.cache_hits": counts.get("cli.cache_get.hits", 0),
        "cli.cache_records": records,
        "counting.direct_box_yield": ratio("counting.direct_box.points", "counting.direct_box.scanned"),
        "counting.torsor_visited": counts.get("counting.torsor.visited", 0),
        "counting.torsor_yield": ratio("counting.torsor.weighted", "counting.torsor.visited"),
        "counting.points": counts.get("counting.direct.points", 0)
        + counts.get("counting.torsor.points", 0),
        "counting.moebius_slices": calls.get("counting.moebius_slice", 0),
        "characters.L1_terms": counts.get("characters.L1.terms", 0),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.wrapper_est_s": sum(len(r[3]) for r in requests) * wrapper_cost,
        "trace.unattributed_s": traced_wall - attributed,
    }
    for metric in LAYER_METRICS:
        span, _, kind = metric.rpartition("_")
        if metric in m:
            continue
        m[metric] = self_s.get(span, 0.0) if kind == "s" else calls.get(span, 0)
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
