"""The paired benchmark tool runs its pairs in ABBA order and reduces canned
results to medians, interquartile ranges, pair wins and pair ratios, and
keeps each run's harness environment record, without starting a process.

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


def harness_record(side, seed):
    """The parts of a harness result file (.bench_run/<workload>/
    result_trace0.json) that the tool reads."""
    return {"environment": {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
                            "nproc": 2, "platform": "Linux", "git_commit": "unknown",
                            "output_fs": "ext2/ext3", "threads": {"OMP_NUM_THREADS": "2"}},
            "detail": {"setup_wall_s": [0.15, 0.16 + (side == "change") * 0.01,
                                        0.17 + seed * 1e-4],
                       "passes": []}}


def canned(side, seed, correct=True):
    i = seed - 100
    values = {m["name"]: 1.0 for m in SPECS}
    values.update(items_per_s=ITEMS[side][i], peak_rss_mb=41.0 + (side == "change") * i,
                  output_bytes=1089.0)
    return {"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
            "metrics": {name: {"value": v, "unit": "x"} for name, v in values.items()},
            "environment": ab_bench.run_environment(harness_record(side, seed))}


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
    # change/base of each pair, in pair order
    assert items["pair_ratios"] == [9.5 / 8.0, 9.25 / 9.0, 8.0 / 8.5, 10.0 / 7.0]
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
                          "pairs_won", "pairs", "pair_ratios"}
        assert len(m["pair_ratios"]) == 4
        assert set(m["base"]) == set(m["change"]) == {"median", "iqr"}
    assert len(back["pairs"]) == 4
    for pair in back["pairs"]:
        assert set(pair) == {"workload", "pair", "seed", "order", "base", "change"}
        assert set(pair["base"]) == {"correct", "failed", "attempted", "metrics",
                                     "environment"}
        # each run keeps its own harness environment record
        for side in ("base", "change"):
            env = pair[side]["environment"]
            assert {"numpy", "scipy", "output_fs", "threads", "setup_wall_s"} <= set(env)
            assert env["setup_wall_s"] == (
                harness_record(side, pair["seed"])["detail"]["setup_wall_s"])
    assert back["pairs"][1]["order"] == ["change", "base"]
    text = ab_bench.report(doc["summary"])
    assert "items_per_s: 8.25 -> 9.375 1/s +13.6%, change better in 3 of 4 pairs" in text
    assert "change/base per pair: 1.1875, 1.0278, 0.9412, 1.4286" in text


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


def test_a_zero_base_value_has_no_ratio(no_subprocess):
    raw = ab_bench.run_pairs(ab_bench.schedule(["oracle_mc"], 2, 100),
                             lambda side, w, seed: canned(side, seed))
    raw[1]["base"]["metrics"]["output_bytes"] = 0.0
    summary = ab_bench.summarize(raw, SPECS)
    assert summary["oracle_mc"]["metrics"]["output_bytes"]["pair_ratios"] == [1.0, None]
    assert "change/base per pair: 1.0000, -" in ab_bench.report(summary)


def test_pairs_must_cover_both_orders(no_subprocess):
    with pytest.raises(SystemExit):
        ab_bench.main(["HEAD", "--pr", "1", "--pairs", "1"])


@pytest.mark.parametrize("pairs", ["3", "5"])
def test_an_odd_pair_count_is_rejected(no_subprocess, pairs):
    # ABBA order is balanced only for an even count: 3 pairs run the base
    # first twice
    with pytest.raises(SystemExit):
        ab_bench.main(["HEAD", "--pr", "1", "--pairs", pairs])
