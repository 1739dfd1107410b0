"""The paired benchmark tool runs its pairs in ABBA order and reduces canned
results to medians, interquartile ranges and pair wins, without starting
a process.

tools/ab_bench.py is not part of the package, so its directory is put on
sys.path here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import ab_bench  # noqa: E402

SPECS = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                   .read_text())["end_to_end"]
# items_per_s of pairs 0..3 on each side; the change wins pairs 0, 1 and 3
ITEMS = {"base": [8.0, 9.0, 8.5, 7.0], "change": [9.5, 9.25, 8.0, 10.0]}


def canned(side, seed, correct=True):
    i = seed - 100
    values = {m["name"]: 1.0 for m in SPECS}
    values.update(items_per_s=ITEMS[side][i], peak_rss_mb=41.0 + (side == "change") * i,
                  output_bytes=1089.0)
    return {"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()}}


@pytest.fixture
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)


def test_pairs_run_in_abba_order_and_reduce_to_medians(no_subprocess, tmp_path):
    calls = []

    def run_one(side, workload, seed):
        calls.append((side, workload, seed))
        return canned(side, seed)

    raw = ab_bench.run_pairs(ab_bench.schedule(["oracle_mc"], 4, 100), run_one)
    assert [c[0] for c in calls] == ["base", "change", "change", "base",
                                     "base", "change", "change", "base"]
    assert [c[2] for c in calls] == [100, 100, 101, 101, 102, 102, 103, 103]
    assert {c[1] for c in calls} == {"oracle_mc"}

    doc = ab_bench.record(27, {"base": {"rev": "HEAD~1", "commit": "a" * 40},
                               "change": {"commit": "b" * 40, "uncommitted_edits": False}},
                          {"workloads": ["oracle_mc"], "pairs": 4, "seed": 100,
                           "seconds": 30.0}, raw, SPECS)
    items = doc["summary"]["oracle_mc"]["metrics"]["items_per_s"]
    # medians and quartiles interpolate linearly, as numpy's percentile does
    assert items["base"] == {"median": 8.25, "iqr": 8.625 - 7.75}
    assert items["change"] == {"median": 9.375, "iqr": 9.625 - 8.9375}
    assert items["relative_change"] == pytest.approx(9.375 / 8.25 - 1.0, rel=1e-15)
    assert (items["pairs_won"], items["pairs"]) == (3, 4)
    # lower is better: a growing peak RSS wins no pair, an unchanged size none
    rss = doc["summary"]["oracle_mc"]["metrics"]["peak_rss_mb"]
    assert (rss["pairs_won"], rss["change"]["median"]) == (0, 42.5)
    assert doc["summary"]["oracle_mc"]["metrics"]["output_bytes"]["pairs_won"] == 0
    assert doc["summary"]["oracle_mc"]["all_correct"]

    # the schema of BENCH_<pr>.json, through a JSON round trip
    path = tmp_path / "BENCH_27.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    back = json.loads(path.read_text())
    assert set(back) == {"pr", "commits", "command", "machine", "summary", "pairs"}
    assert set(back["commits"]) == {"base", "change"}
    assert set(back["summary"]["oracle_mc"]["metrics"]) == {m["name"] for m in SPECS}
    for m in back["summary"]["oracle_mc"]["metrics"].values():
        assert set(m) == {"unit", "better", "base", "change", "relative_change",
                          "pairs_won", "pairs"}
        assert set(m["base"]) == set(m["change"]) == {"median", "iqr"}
    assert len(back["pairs"]) == 4
    for pair in back["pairs"]:
        assert set(pair) == {"workload", "pair", "seed", "order", "base", "change"}
        assert set(pair["base"]) == {"correct", "failed", "attempted", "metrics"}
    assert back["pairs"][1]["order"] == ["change", "base"]
    assert "items_per_s: 8.25 -> 9.375 1/s +13.6%, change better in 3 of 4 pairs" in (
        ab_bench.report(doc["summary"]))


def test_a_failed_run_marks_its_workload(no_subprocess):
    plan = ab_bench.schedule(["oracle_mc", "forward_grid"], 2, 100)
    assert [(w, i) for w, i, _, _ in plan] == [("oracle_mc", 0), ("oracle_mc", 1),
                                              ("forward_grid", 0), ("forward_grid", 1)]
    raw = ab_bench.run_pairs(
        plan, lambda side, w, seed: canned(side, seed, correct=(w, side, seed)
                                           != ("forward_grid", "change", 101)))
    summary = ab_bench.summarize(raw, SPECS)
    assert summary["oracle_mc"]["all_correct"]
    assert not summary["forward_grid"]["all_correct"]
    assert "forward_grid: A RUN FAILED ITS CHECKS" in ab_bench.report(summary)


def test_pairs_must_cover_both_orders(no_subprocess):
    with pytest.raises(SystemExit):
        ab_bench.main(["HEAD", "--pr", "1", "--pairs", "1"])
