"""The benchmark's trace targets still name functions of the package.

bench/spans.py wraps package functions by module and attribute name to time
each layer.  A target the source no longer has is only reported as missing
when the benchmark runs, so a refactor that renamed a traced function (say
t1_total or total_rate) would drop its layer metrics unnoticed.  Two
targets are known to be stale: measure_sim.least_squares (the fit is
numpy's own) and scenario.t1_sampler (draw_spots replaced it).
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
KNOWN_STALE = ["rbmrelax.measure_sim.least_squares", "rbmrelax.scenario.t1_sampler"]


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves_but_the_known_stale_ones():
    spans = _load_spans()
    tracer = spans.Tracer()
    # the tracer's own lookup, over every TARGETS entry and SAMPLER
    with tracer.installed():
        pass
    assert sorted(tracer.missing) == KNOWN_STALE
