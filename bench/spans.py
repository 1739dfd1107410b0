"""In-process span tracing of the rbmrelax layers, for the per-layer metrics.

Tracer.installed() replaces each traced function by a wrapper that records
a span (id, parent id, name, start, end) around the call.  The wrapper goes
into every rbmrelax module namespace that holds the function, because cli
and scenario import names directly (rbmrelax.cli.predict,
rbmrelax.scenario.hydro_params_at), and into the oracle registry
rbmrelax.validation._CHECKS, which holds the check functions themselves.
Spans stay in memory; write_spans() saves them when the run ends.

A layer's self time is its span durations minus the durations of its
direct child spans.  The program is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute path).  The span name is the layer metric
# prefix; SolventMixture.build spans count mixture constructions.
TARGETS = {
    "scenario.parse_config": ("rbmrelax.scenario", "parse_config"),
    "scenario.predict": ("rbmrelax.scenario", "predict"),
    "scenario.Scenario.hydro_at": ("rbmrelax.scenario", "Scenario.hydro_at"),
    "scenario.density_sensitivity_curve": ("rbmrelax.scenario", "density_sensitivity_curve"),
    "hydro.SolventMixture.build": ("rbmrelax.hydro", "SolventMixture.__post_init__"),
    "hydro.hydro_params_at": ("rbmrelax.hydro", "hydro_params_at"),
    "hydro.mixture_viscosity": ("rbmrelax.hydro", "mixture_viscosity"),
    "hydro.total_rate": ("rbmrelax.hydro", "total_rate"),
    "bath.b_perp_sq_surface": ("rbmrelax.bath", "b_perp_sq_surface"),
    "bath.b_perp_sq_volume": ("rbmrelax.bath", "b_perp_sq_volume"),
    "bath.b_perp_mc": ("rbmrelax.bath", "b_perp_mc"),
    "core_relax.t1_total": ("rbmrelax.core_relax", "t1_total"),
    "measure_sim.simulate_curve": ("rbmrelax.measure_sim", "simulate_curve"),
    "measure_sim.fit_exponential": ("rbmrelax.measure_sim", "fit_exponential"),
    "measure_sim.least_squares": ("rbmrelax.measure_sim", "least_squares"),
    "measure_sim.write_curve": ("rbmrelax.measure_sim", "write_curve"),
    "measure_sim.write_fit_json": ("rbmrelax.measure_sim", "write_fit_json"),
    "sensitivity.optimize_density": ("rbmrelax.sensitivity", "optimize_density"),
    "sensitivity.delta_r_min": ("rbmrelax.sensitivity", "delta_r_min"),
    "sensitivity.write_sensitivity_curve": ("rbmrelax.sensitivity", "write_sensitivity_curve"),
    "validation.check_bath_mc": ("rbmrelax.validation", "check_bath_mc"),
    "validation.check_lorentzian_quadrature": ("rbmrelax.validation", "check_lorentzian_quadrature"),
    "validation.check_sensitivity_ratio": ("rbmrelax.validation", "check_sensitivity_ratio"),
}
# t1_sampler returns a closure; each call of that closure is one span.
SAMPLER = ("rbmrelax.scenario", "t1_sampler")
SAMPLER_SPAN = "scenario.t1_sampler_draw"


# Counts recorded with a span, read from a returning call's inputs and result.
OBSERVERS = {
    "bath.b_perp_mc": lambda args, kwargs, r: {
        "samples": kwargs["samples"] if "samples" in kwargs else args[2],
        "tail_warning": int(r.tail_warning)},
    "measure_sim.fit_exponential": lambda args, kwargs, r: {
        "converged": int(r.converged), "singular": int(r.singular_curvature)},
    "measure_sim.least_squares": lambda args, kwargs, r: {"nfev": r.nfev},
    "sensitivity.optimize_density": lambda args, kwargs, r: {"skipped": len(r.skipped)},
}


class Tracer:
    """Holds the spans of one traced pass."""

    def __init__(self):
        self.spans = []        # (id, parent id or 0, name, start, end, counts)
        self._stack = [0]
        self._ids = itertools.count(1)
        self.missing = []      # targets the source tree no longer has

    def wrap(self, name: str, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            counts = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe:
                    counts = observe(args, kwargs, result)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, counts))

        return traced

    def _wrap_sampler(self, t1_sampler):
        def traced_sampler(*args, **kwargs):
            return self.wrap(SAMPLER_SPAN, t1_sampler(*args, **kwargs))
        return traced_sampler

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        undo = []
        try:
            for name, (module, attr) in TARGETS.items():
                self._install(module, attr, lambda fn, name=name: self.wrap(name, fn), undo)
            self._install(*SAMPLER, self._wrap_sampler, undo)
            yield self
        finally:
            for obj, key, original in reversed(undo):
                if isinstance(obj, dict):
                    obj[key] = original
                else:
                    setattr(obj, key, original)

    def _install(self, module, attr, make_wrapper, undo):
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(original)
        if path:  # a method: patch the class only
            undo.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            return
        # a function defined in the package is replaced wherever the package
        # imported it; a foreign one (least_squares) only where named
        home = getattr(original, "__module__", None) == module
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != module and not (home and mod_name.startswith("rbmrelax")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        checks = getattr(sys.modules.get("rbmrelax.validation"), "_CHECKS", {})
        for key, fns in list(checks.items()):
            if original in fns:
                undo.append((checks, key, fns))
                checks[key] = tuple(wrapper if f is original else f for f in fns)


class SpanStats:
    """Durations and counts of one traced pass, grouped by span name."""

    def __init__(self, spans):
        self.by_name, child_time = {}, {}
        for sid, parent, name, t0, t1, counts in spans:
            self.by_name.setdefault(name, []).append((t1 - t0, counts))
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
        self.self_time = {}
        for sid, parent, name, t0, t1, counts in spans:
            own = (t1 - t0) - child_time.get(sid, 0.0)
            self.self_time[name] = self.self_time.get(name, 0.0) + own

    def calls(self, name):
        return len(self.by_name.get(name, ()))

    def total_s(self, name):
        return math.fsum(d for d, _ in self.by_name.get(name, ()))

    def self_s(self, name):
        return self.self_time.get(name, 0.0)

    def percentile_us(self, name, q):
        ds = sorted(d for d, _ in self.by_name.get(name, ()))
        return ds[max(0, math.ceil(q * len(ds)) - 1)] * 1e6 if ds else 0.0

    def count(self, name, key):
        return sum(c[key] for _, c in self.by_name.get(name, ()) if c)


def _ratio(a, b):
    return a / b if b else 0.0


# Metric "<span name>.<stat>" for these stats; the rest are derived below.
STATS = {
    "calls": SpanStats.calls,
    "total_s": SpanStats.total_s,
    "self_s": SpanStats.self_s,
    "p50_us": lambda s, n: s.percentile_us(n, 0.5),
    "p90_us": lambda s, n: s.percentile_us(n, 0.9),
}
DERIVED = {
    "hydro.SolventMixture.builds": lambda s: s.calls("hydro.SolventMixture.build"),
    "bath.b_perp_mc.samples": lambda s: s.count("bath.b_perp_mc", "samples"),
    "bath.b_perp_mc.ns_per_sample": lambda s: _ratio(
        s.total_s("bath.b_perp_mc") * 1e9, s.count("bath.b_perp_mc", "samples")),
    "bath.b_perp_mc.tail_warnings": lambda s: s.count("bath.b_perp_mc", "tail_warning"),
    "measure_sim.fit_exponential.converged_ratio": lambda s: _ratio(
        s.count("measure_sim.fit_exponential", "converged"),
        s.calls("measure_sim.fit_exponential")),
    "measure_sim.fit_exponential.singular_count": lambda s: s.count(
        "measure_sim.fit_exponential", "singular"),
    "measure_sim.least_squares.nfev_mean": lambda s: _ratio(
        s.count("measure_sim.least_squares", "nfev"), s.calls("measure_sim.least_squares")),
    "sensitivity.skipped_points": lambda s: s.count("sensitivity.optimize_density", "skipped"),
}


def layer_metrics(spans, names) -> dict:
    """Values of the named per-layer metrics for one traced pass.  A layer
    the workload never calls reads 0."""
    stats = SpanStats(spans)
    values = {}
    for name in names:
        if name in DERIVED:
            values[name] = DERIVED[name](stats)
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = STATS[stat](stats, span)
    return values


def write_spans(spans, path: Path) -> None:
    """One tab-separated line per span: id, parent, name, start, end."""
    with path.open("w") as fh:
        fh.write("id\tparent\tname\tstart_s\tend_s\n")
        for sid, parent, name, t0, t1, _ in spans:
            fh.write(f"{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\n")

