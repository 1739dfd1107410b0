"""Check that the CLI data files of this checkout equal those of a git revision.

Usage:

    python3 tools/output_identity.py REV

`git archive REV` is unpacked into a temporary directory.  The same matrix
of CLI runs is then made twice from the root of this checkout, once with
PYTHONPATH pointing at the revision's src/ and once at this checkout's
src/ (working tree, uncommitted edits included), and every data file is
compared byte for byte.  Manifests carry a timestamp and are left out.
Both runs use this checkout's configs/.

The matrix, for the shipped configs:

* `t1 --out` on every config;
* `sweep` on every axis, with the 5,001-point grids of the benchmark;
* `sensitivity` on the benchmark's density grid and on the default grid;
* `simulate` of gd_water + gd_acetone, 200 spots each, seed 77;
* `fit --out` on three of the simulated curves, whose stdout is saved
  as a data file too;
* `simulate` of a 5,000-shot config (FAST below) whose spot 0 does not
  converge, so its fit file holds NaN and false, and `fit --out` on that
  curve, which exits 2 and whose stdout is saved as a data file too;
* `simulate` of a short-grid config (SHORT below) whose batch mixes three
  rows too short to fit with one that does not converge;
* `simulate` of FAST under a condition name with a per cent sign, quotes
  and a non-ASCII letter (ESCAPED below), which names its directory and
  its summary.json entry;
* `sensitivity` on a comma grid holding a density whose rate sits on the
  level splitting (NOVIB below), so the file lists skipped_densities;
* `oracle all`, whose report goes to stdout and is saved as a data file
  (the one run of the Monte Carlo dipolar sum).

Prints the number of compared files and each differing path, and exits 1
when a file differs or exists on one side only, or when a command exits
with another code than the matrix expects in either tree.  For a
differing .json file it names the key paths that only one side has (say,
`plan` or `conditions.fast.plan`), then counts the differing numbers at
the paths both share; a .txt report (`t1`'s, or the oracle's, whose
`key = value` lines fall under their check's `PASS  <check>` heading, as
`bath_mc.surface_z`) is compared the same way; for a differing .tsv file
it counts the differing numbers.  Either way it prints the largest
difference in ulps, so a last-digit drift reads as one, or that a side
does not parse (say, an empty .json file).
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import re
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("bare_nd_25nm", "gd_acetone_x046_25nm", "gd_water_25nm", "sensitivity_20nm")
SWEEPS = {
    "gd_density": "1e23:1e28:5001:log",
    "water_fraction": "0:1:5001:lin",
    "diameter": "5e-9:200e-9:5001:log",
}
SENSITIVITY_GRID = "1e23:1e28:5001:log"
SIMULATE = ("gd_water_25nm", "gd_acetone_x046_25nm")
SPOTS, SEED = 200, 77
FITTED = ("gd_water_25nm/spot_0000", "gd_water_25nm/spot_0123",
          "gd_acetone_x046_25nm/spot_0199")
# the 5,000-shot config of tests/test_cli.py: its spot 0 has a T1 variance
# that is not positive, so that fit does not converge
FAST = """\
[molecular_bath]
density_per_m3 = 6.894758631919541e+25

[measurement]
shots_per_point = 5000
n_dark_times = 8

[random]
seed = 1234
"""
FAST_SPOTS = 6
# a 6-point grid to 0.03 T1: of its 4 spots, 3 are too short to fit and
# one has a T1 variance that is not positive
SHORT = """\
[measurement]
shots_per_point = 5000
n_dark_times = 6
tau_span_factor = 0.03

[random]
seed = 1234
"""
SHORT_SPOTS = 4
# without the vibrational term the molecular rate is linear in density and
# reaches the level splitting at the middle density of NOVIB_GRID (the
# notice case of tests/test_cli.py)
NOVIB = """\
[molecular_bath]
vibration_rate_ghz = 0
"""
NOVIB_GRID = "1e24,1e25,3.5967435940905747e+25,1e26,1e27"
# a condition name that JSON escapes and %-formatting would misread
ESCAPED = '50% "wet" é.ini'
# the configs above, written to the tool's temp dir under these names
WRITTEN = {"fast.ini": FAST, "short.ini": SHORT, "novib.ini": NOVIB, ESCAPED: FAST}


def matrix(out: Path, tmp: Path) -> list:
    """(name, argv, stdout file or None, expected exit code) of every CLI
    run, writing below out; tmp holds the WRITTEN configs.

    Stdout is kept only where it is the run's data: it names the output
    paths otherwise, which differ between the two trees.
    """
    runs = []
    for c in CONFIGS:
        cfg = f"configs/{c}.ini"
        runs.append((f"t1 {c}", ["t1", "--config", cfg, "--out", str(out / f"t1_{c}.txt")],
                     None, 0))
        for axis, grid in SWEEPS.items():
            runs.append((f"sweep {axis} {c}",
                         ["sweep", "--config", cfg, "--axis", axis, "--grid", grid,
                          "--out", str(out / f"sweep_{axis}_{c}.tsv")], None, 0))
        runs.append((f"sensitivity {c}",
                     ["sensitivity", "--config", cfg, "--grid", SENSITIVITY_GRID,
                      "--out", str(out / f"sensitivity_{c}.tsv")], None, 0))
        runs.append((f"sensitivity default-grid {c}",
                     ["sensitivity", "--config", cfg,
                      "--out", str(out / f"sensitivity_default_{c}.tsv")], None, 0))
    sim = out / "simulate"
    argv = ["simulate", "--spots", str(SPOTS), "--seed", str(SEED), "--out", str(sim)]
    for c in SIMULATE:
        argv += ["--config", f"configs/{c}.ini"]
    runs.append(("simulate", argv, None, 0))
    for spot in FITTED:
        stem = f"fit_{spot.replace('/', '_')}"
        runs.append((f"fit {spot}", ["fit", str(sim / f"{spot}_curve.tsv"),
                                     "--out", str(out / f"{stem}.json")],
                     out / f"{stem}.stdout.json", 0))
    fast = tmp / "fast.ini"
    runs.append(("simulate fast", ["simulate", "--config", str(fast), "--spots",
                                   str(FAST_SPOTS), "--out", str(out / "simulate_fast")],
                 None, 0))
    runs.append(("fit fast/spot_0000",
                 ["fit", str(out / "simulate_fast" / fast.stem / "spot_0000_curve.tsv"),
                  "--out", str(out / "fit_fast_spot_0000.json")],
                 out / "fit_fast_spot_0000.stdout.json", 2))
    runs.append(("simulate short", ["simulate", "--config", str(tmp / "short.ini"),
                                    "--spots", str(SHORT_SPOTS),
                                    "--out", str(out / "simulate_short")], None, 0))
    runs.append(("simulate escaped", ["simulate", "--config", str(tmp / ESCAPED), "--spots",
                                      str(FAST_SPOTS), "--out", str(out / "simulate_escaped")],
                 None, 0))
    runs.append(("sensitivity resonant", ["sensitivity", "--config", str(tmp / "novib.ini"),
                                          "--grid", NOVIB_GRID,
                                          "--out", str(out / "sensitivity_resonant.tsv")],
                 None, 0))
    runs.append(("oracle all", ["oracle", "all"], out / "oracle_all.txt", 0))
    return runs


def run_matrix(side: str, src: Path, out: Path, tmp: Path) -> list:
    """Run the matrix against one src/ tree; one line per failed run."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src))
    failed = []
    for name, argv, stdout_file, code in matrix(out, tmp):
        proc = subprocess.run([sys.executable, "-m", "rbmrelax.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True)
        if stdout_file is not None:
            stdout_file.write_text(proc.stdout)
        if proc.returncode != code:
            failed.append(f"{name} failed ({side}): "
                          f"exit {proc.returncode}: {proc.stderr.strip()}")
    return failed


def data_files(out: Path) -> set:
    return {str(p.relative_to(out)) for p in out.rglob("*")
            if p.is_file() and not (p.name == "manifest.json"
                                    or p.name.endswith(".manifest.json"))}


def numbers(path: Path) -> list:
    """Every numeric field of a .tsv table, metadata comments included, in
    file order."""
    found = []
    for token in re.split(r"[\s,=]+", path.read_text()):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


def report_doc(text: str) -> dict:
    """A `key = value` report as {key: value}, each key under the check of
    the `PASS  <check>` or `FAIL  <check>` heading above it, if any, with the
    heading's word as the check's `verdict` and an `overall: <word>` line as
    `overall`; a value that parses as a float is one."""
    doc = section = {}
    for line in text.splitlines():
        verdict, _, check = line.partition("  ")
        if verdict in ("PASS", "FAIL") and check:
            section = doc[check] = {"verdict": verdict}
            continue
        key, sep, value = line.strip().partition(" = ")
        if not sep and key.startswith("overall: "):
            key, sep, value = key.partition(": ")
            section = doc
        if sep:
            try:
                section[key] = float(value)
            except ValueError:
                section[key] = value
    return doc


def _number(node):
    return float(node) if isinstance(node, (int, float)) and not isinstance(node, bool) else None


def json_pairs(a, b, path: str = "") -> tuple:
    """Walk two parsed JSON documents together.  Returns the key paths
    only a has, those only b has (dotted, list items as [i]), the (a, b)
    number pairs at the paths both share, None on a side whose value there
    is not a number, and the shared paths of unequal values that are not
    numbers on either side, as strings or booleans."""
    if isinstance(a, dict) and isinstance(b, dict):
        subs = {k: f"{path}.{k}" if path else k for k in a.keys() | b.keys()}
    elif isinstance(a, list) and isinstance(b, list):
        subs = {i: f"{path}[{i}]" for i in range(max(len(a), len(b)))}
        a, b = dict(enumerate(a)), dict(enumerate(b))
    else:
        pair = (_number(a), _number(b))
        if pair == (None, None):
            return [], [], [], [] if a == b else [path]
        return [], [], [pair], []
    found = ([], [], [], [])
    for key in sorted(subs):
        if key not in b:
            found[0].append(subs[key])
        elif key not in a:
            found[1].append(subs[key])
        else:
            for acc, more in zip(found, json_pairs(a[key], b[key], subs[key])):
                acc.extend(more)
    return found


def _ordered(x: float) -> int:
    # the bits of a double as an integer that counts ulps across zero
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(1 << 63) - bits


def number_diff(a: Path, b: Path) -> str:
    """How data files a (the revision's) and b (this checkout's) differ.
    For .json and .txt reports, the key paths that only one side has, the
    shared paths whose other values (strings, booleans, verdicts) differ,
    then how many numbers at the shared paths differ; for .tsv, how many
    numbers differ.  Either way by at most how many ulps; NaN equals NaN.
    A file that does not parse is named instead."""
    parse = {".json": lambda p: json.loads(p.read_text()),
             ".txt": lambda p: report_doc(p.read_text())}.get(a.suffix, numbers)
    parsed = []
    for side, path in (("the revision's", a), ("this checkout's", b)):
        try:
            parsed.append(parse(path))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            return f"{side} file does not parse: {exc}"
    notes, shared = [], ""
    if parse is not numbers:
        only_a, only_b, pairs, changed = json_pairs(*parsed)
        for side, only in (("the revision's", only_a), ("this checkout's", only_b)):
            if only:
                notes.append(f"only in {side}: {', '.join(only)}")
        shared = "shared " if notes else ""
        if changed:
            notes.append(f"other values differ at: {', '.join(changed)}")
    else:
        xs, ys = parsed
        if len(xs) != len(ys):
            return f"{len(xs)} against {len(ys)} numbers"
        pairs = list(zip(xs, ys))
    differ = [(x, y) for x, y in pairs if x != y and not (x != x and y != y)]  # NaN equals NaN
    ulps = [abs(_ordered(x) - _ordered(y)) for x, y in differ
            if x is not None and y is not None]
    if not differ:
        count = f"all {len(pairs)} {shared}numbers equal"
        notes.append(count if notes else f"{count}, the text differs")
    else:
        count = f"{len(differ)} of {len(pairs)} {shared}numbers differ"
        notes.append(f"{count}, by at most {max(ulps)} ulp" if ulps else count)
    return "; ".join(notes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="output_identity_") as tmp:
        tmp = Path(tmp)
        tree = tmp / "rev"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", args.rev],
                                 cwd=ROOT, capture_output=True)
        if archive.returncode:
            print(f"error: git archive {args.rev}: {archive.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        tar_path = tmp / "rev.tar"
        tar_path.write_bytes(archive.stdout)
        with tarfile.open(tar_path) as tar:
            tar.extractall(tree, filter="data")

        for name, text in WRITTEN.items():
            (tmp / name).write_text(text)
        outs = {"rev": tmp / "out_rev", "here": tmp / "out_here"}
        differing = (run_matrix("rev", tree / "src", outs["rev"], tmp)
                     + run_matrix("here", ROOT / "src", outs["here"], tmp))
        files = {side: data_files(out) for side, out in outs.items()}
        for name in sorted(files["rev"] ^ files["here"]):
            side = "rev" if name in files["rev"] else "here"
            differing.append(f"{name} (only in {side})")
        common = sorted(files["rev"] & files["here"])
        for name in common:
            a, b = outs["rev"] / name, outs["here"] / name
            if not filecmp.cmp(a, b, shallow=False):
                differing.append(f"{name}: {number_diff(a, b)}"
                                 if a.suffix in (".tsv", ".json", ".txt") else name)

    print(f"{len(common)} data files compared against {args.rev}, "
          f"{len(differing)} differences")
    for line in differing:
        print(f"differs: {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
