"""Record the forward_grid reference values from the current source tree.

Runs each forward_grid invocation once at full size and keeps every
REFERENCE_STRIDE-th grid point with its checked value in bench/reference.json.
Re-run only when a change is meant to alter forward-model outputs, and say
so in the change:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import FULL, GRID_RUNS, REFERENCE_FILE, REFERENCE_STRIDE, read_table

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    os.chdir(ROOT)
    work = Path(".bench_run/reference")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH="src")
    reference = {}
    for run in GRID_RUNS:
        out = work / f"{run.key}.tsv"
        subprocess.run([sys.executable, "-m", "rbmrelax.cli",
                        *run.argv(FULL.grid_points, out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        header, rows, meta = read_table(out)
        if meta.get("skipped_densities") or len(rows) != FULL.grid_points:
            raise SystemExit(f"{run.key}: grid rows were skipped; pick other bounds")
        col = header.index(run.value_column)
        reference[run.key] = [[r[0], r[col]] for r in rows[::REFERENCE_STRIDE]]
    shutil.rmtree(work)
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
