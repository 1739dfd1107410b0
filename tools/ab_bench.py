"""Paired, order-balanced benchmark runs of a git revision against this checkout.

Usage:

    python3 tools/ab_bench.py REV --pr N [--workload W ...] [--pairs 4]

`git archive REV` is unpacked into a temporary directory outside the
repository, and the working tree of this checkout (tracked files and
untracked files that .gitignore does not exclude, uncommitted edits
included) is copied into another.  Each side then runs its own
`bench/run.py --workload W --seed S --seconds T --trace 0`, one run at a
time, T being the run_seconds of BENCHMARK.json.  Pair i of a workload
uses seed `--seed` + i, and the pairs run in ABBA order (base first in
even pairs, the change first in odd ones), so a drift of the host's speed
over a series falls on both sides alike; that holds only for an even
count, so an odd `--pairs` is rejected.  Before every run the copy's
.bench_run/ is removed and os.sync() is called, so that no run pays for
the files or the write-back of another.

For each workload it prints every end-to-end metric of BENCHMARK.json:
both sides' medians over the pairs, the relative change of the medians,
the number of pairs in which the change was better, and each pair's
change/base ratio.  It writes BENCH_<N>.json at the root of this
checkout, with both sides' medians and interquartile ranges, the pair
ratios, the commits and the raw pairs.  Each run in the raw pairs keeps
the harness's environment record (numpy and scipy versions, output
filesystem, thread caps) and its unscaled --version times (setup_wall_s),
read from the run's .bench_run/<workload>/result_trace0.json before the
next run removes it.  It writes nothing else into this checkout, and
exits 1 when a run fails its output checks.  Only the standard library
is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("forward_grid", "spot_ensemble", "oracle_mc")


def schedule(workloads, pairs: int, seed: int) -> list:
    """(workload, pair index, seed, sides in run order) of every pair."""
    return [(w, i, seed + i, ("base", "change") if i % 2 == 0 else ("change", "base"))
            for w in workloads for i in range(pairs)]


def run_pairs(plan, run_one) -> list:
    """Run every pair of plan through run_one(side, workload, seed), which
    returns the result line of bench/run.py, and return the raw pairs."""
    raw = []
    for workload, i, seed, order in plan:
        results = {side: run_one(side, workload, seed) for side in order}
        raw.append({"workload": workload, "pair": i, "seed": seed, "order": list(order),
                    **{side: {"correct": results[side]["correct"],
                              "failed": results[side]["failed"],
                              "attempted": results[side]["attempted"],
                              "metrics": {name: m["value"]
                                          for name, m in results[side]["metrics"].items()},
                              "environment": results[side]["environment"]}
                       for side in ("base", "change")}})
    return raw


def spread(values) -> dict:
    """Median and interquartile range (quartiles by numpy's default linear
    interpolation) of values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def summarize(raw, specs) -> dict:
    """Per workload and end-to-end metric: both sides' median and IQR, the
    relative change of the medians and the pairs that the change won."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in raw):
        pairs = [p for p in raw if p["workload"] == workload]
        metrics = {}
        for spec in specs:
            name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
            base = [p["base"]["metrics"][name] for p in pairs]
            change = [p["change"]["metrics"][name] for p in pairs]
            b, c = spread(base), spread(change)
            ratios = [y / x if x else None for x, y in zip(base, change)]
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"], "base": b, "change": c,
                "relative_change": (c["median"] / b["median"] - 1.0
                                    if b["median"] else None),
                "pairs_won": sum(sign * (y - x) > 0.0 for x, y in zip(base, change)),
                "pairs": len(pairs),
                "pair_ratios": ratios,
            }
        summary[workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in ("base", "change")),
            "metrics": metrics,
        }
    return summary


def record(pr: int, commits: dict, args: dict, raw, specs) -> dict:
    """The document that BENCH_<pr>.json holds."""
    u = os.uname()
    return {
        "pr": pr,
        "commits": commits,
        "command": args,
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "platform": f"{u.sysname} {u.release} {u.machine}",
                    "python": platform.python_version()},
        "summary": summarize(raw, specs),
        "pairs": raw,
    }


def report(summary: dict) -> str:
    lines = []
    for workload, entry in summary.items():
        verdict = "all runs correct" if entry["all_correct"] else "A RUN FAILED ITS CHECKS"
        lines.append(f"{workload}: {verdict}")
        for name, m in entry["metrics"].items():
            rel = "" if m["relative_change"] is None else f" {m['relative_change']:+.1%}"
            ratios = ", ".join("-" if r is None else f"{r:.4f}" for r in m["pair_ratios"])
            lines.append(f"  {name}: {m['base']['median']:.6g} -> {m['change']['median']:.6g}"
                         f" {m['unit']}{rel}, change better in {m['pairs_won']} of "
                         f"{m['pairs']} pairs ({m['better']} is better); "
                         f"change/base per pair: {ratios}")
    return "\n".join(lines)


def _git(*argv) -> str:
    done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"error: git {' '.join(argv)}: {done.stderr.strip()}")
    return done.stdout


def unpack_revision(rev: str, dest: Path) -> None:
    tar_path = dest.with_suffix(".tar")
    with open(tar_path, "wb") as f:
        done = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=f,
                              stderr=subprocess.PIPE)
    if done.returncode:
        raise SystemExit(f"error: git archive {rev}: {done.stderr.decode().strip()}")
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    tar_path.unlink()


def copy_working_tree(dest: Path) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_environment(record: dict) -> dict:
    """The environment record of one harness result file, with the run's
    unscaled --version times."""
    return {**record["environment"], "setup_wall_s": record["detail"]["setup_wall_s"]}


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one harness run, with its environment record."""
    shutil.rmtree(tree / ".bench_run", ignore_errors=True)
    os.sync()
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"error: bench/run.py in {tree} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    record = json.loads((tree / ".bench_run" / workload / "result_trace0.json").read_text())
    return {**json.loads(lines[-1]), "environment": run_environment(record)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision of the base side")
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<PR>.json")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="a workload to run (repeatable); default: every workload")
    parser.add_argument("--pairs", type=int, default=4, help="an even count")
    parser.add_argument("--seed", type=int, default=7201, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.pairs % 2:
        parser.error("--pairs must be even and at least 2: ABBA order balances "
                     "only whole pairs of pairs")

    workloads = args.workload or list(WORKLOADS)
    commits = {"base": {"rev": args.rev,
                        "commit": _git("rev-parse", f"{args.rev}^{{commit}}").strip()},
               "change": {"commit": _git("rev-parse", "HEAD").strip(),
                          "uncommitted_edits": bool(_git("status", "--porcelain").strip())}}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs, seconds = spec["end_to_end"], spec["run_seconds"]
    with tempfile.TemporaryDirectory(prefix="ab_bench_") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        unpack_revision(args.rev, trees["base"])
        copy_working_tree(trees["change"])

        def run_one(side, workload, seed):
            result = bench_run(trees[side], workload, seed, seconds)
            print(f"{workload} seed {seed} {side}: "
                  + ", ".join(f"{k} {m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
            return result

        raw = run_pairs(schedule(workloads, args.pairs, args.seed), run_one)
    doc = record(args.pr, commits, {"workloads": workloads, "pairs": args.pairs,
                                    "seed": args.seed, "seconds": seconds}, raw, specs)
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(doc, indent=1) + "\n")
    print(report(doc["summary"]))
    return 0 if all(e["all_correct"] for e in doc["summary"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
