"""Self-test of the benchmark at tiny sizes, with no timing gate.

    python3 bench/selftest.py

Checks that every workload, untraced and traced, yields a result line of the
documented schema whose metrics are exactly those BENCHMARK.json names, and
that the output checks catch faults: a corrupted sweep value, a fit record
that did not converge, an oracle exit code of 3, and data that changes
between passes of one seed.  Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run
from workloads import (
    GRID_RUNS,
    TINY,
    WORKLOADS,
    Invocation,
    Outcome,
    Workload,
    check_grid_table,
    check_oracle,
    check_spot_ensemble,
    digest_files,
    load_reference,
    spot_ensemble_invocations,
)

WORK = run.RUN_DIR / "selftest"


def check_schema(record: dict, spec: dict) -> list:
    line = record["result"]
    kind = "per_layer" if record["trace"] else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[kind]}
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not (line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1):
        problems.append(f"not correct: {record['failures']}")
    if set(line["metrics"]) != set(expected):
        problems.append(f"metric names differ from BENCHMARK.json {kind}: "
                        f"{sorted(set(line['metrics']) ^ set(expected))}")
    for name, m in line["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name) \
                or isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            problems.append(f"metric {name}: {m}")
    json.loads(json.dumps(line))  # serialisable
    return problems


def sweep_fault_caught() -> list:
    """A tiny sweep checks clean, and fails once a value is corrupted."""
    grid = GRID_RUNS[0]
    out = WORK / "sweep.tsv"
    code = run.run_child(["-m", "rbmrelax.cli", *grid.argv(TINY.grid_points, out)]).code
    reference = load_reference()[grid.key]
    problems = [] if code == 0 else [f"tiny sweep exit code {code}"]
    if check_grid_table(out, grid, TINY.grid_points, reference):
        problems.append("clean sweep output failed its check")
    lines = out.read_text().splitlines()
    for corrupt in ("1.0000001", "nan"):
        cells = lines[3].split("\t")
        cells[-1] = repr(float(cells[-1]) * float(corrupt))
        out.write_text("\n".join(lines[:3] + ["\t".join(cells)] + lines[4:]) + "\n")
        if not check_grid_table(out, grid, TINY.grid_points, reference):
            problems.append(f"sweep value scaled by {corrupt} not caught")
    return problems


def fit_fault_caught() -> list:
    """A tiny simulate checks clean, and fails once one fit record reads
    converged = false."""
    (inv,) = spot_ensemble_invocations(WORK, 1, TINY)
    code, stdout, *_ = run.run_child(["-m", "rbmrelax.cli", *inv.argv])
    problems = inv.check(code, stdout).problems
    fit_path = WORK / "sim" / "gd_water_25nm" / "spot_0003_fit.json"
    fit = json.loads(fit_path.read_text())
    fit["converged"] = False
    fit_path.write_text(json.dumps(fit))
    if not check_spot_ensemble(WORK / "sim", TINY.spots):
        problems.append("non-converged fit record not caught")
    return problems


def oracle_fault_caught() -> list:
    report = "PASS  bath_mc\noverall: PASS\n"
    problems = [] if not check_oracle(0, report).problems else ["clean oracle rejected"]
    if not check_oracle(3, report).problems:
        problems.append("oracle exit code 3 not caught")
    if not check_oracle(0, report.replace("overall: PASS", "overall: FAIL")).problems:
        problems.append("oracle FAIL verdict not caught")
    return problems


def determinism_fault_caught() -> list:
    """PassRunner flags data that changes between passes of one seed, and
    data that does not change between two seeds."""
    problems = []
    for seeded, label in ((False, "changing output"), (True, "seed-blind output")):
        counter = iter(range(100))

        def invocations(pass_dir, seed, sizes):
            out = pass_dir / "data.txt"

            def check(code, stdout):
                return Outcome(digest_files([out], pass_dir), [])
            return [Invocation((str(out),), check)]

        def execute(argv, counter=counter, seeded=seeded):
            Path(argv[0]).write_text("same" if seeded else str(next(counter)))
            return 0, "", None

        fake = Workload("fake", lambda s: 1, invocations, seeded=seeded)
        tally = run.Tally()
        runner = run.PassRunner(fake, TINY, 7, tally)
        runner.work = WORK / "fake"
        for _ in range(3):
            runner.run(execute, "fake")
        shutil.rmtree(runner.work)
        if not tally.failures:
            problems.append(f"{label} across passes not caught")
    return problems


def main() -> int:
    os.chdir(run.ROOT)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if names == list(WORKLOADS) else [f"workloads {names} != {list(WORKLOADS)}"]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    for name in names:
        for trace in (False, True):
            record = run.run(WORKLOADS[name], TINY, seed=3, seconds=0.0, trace=trace)
            problems += [f"{name} trace {int(trace)}: {p}" for p in check_schema(record, spec)]
    problems += sweep_fault_caught()
    problems += fit_fault_caught()
    problems += oracle_fault_caught()
    problems += determinism_fault_caught()
    shutil.rmtree(WORK)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
