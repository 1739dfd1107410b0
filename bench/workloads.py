"""The benchmark's workloads: the CLI invocations of one pass, and the checks
that decide whether each invocation's output is correct.

Every path here is relative to the checkout root, which is the working
directory of the harness and of every CLI child it starts.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_FILE = BENCH_DIR / "reference.json"

# Dipole samples drawn by one `oracle all`: check_bath_mc draws 10^6 for the
# surface bath, 10^6 for the volume bath and 10^4, 31,623, 10^5, 316,228 and
# 10^6 for its stderr-scaling fit (rbmrelax.validation.check_bath_mc).
ORACLE_MC_SAMPLES = 3_457_851

# Relative tolerance of forward_grid values against the recorded reference.
REFERENCE_RTOL = 1e-9
# Abscissae of a coarser grid match the reference ones to this tolerance.
ABSCISSA_RTOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one pass.

    grid_points is the size of each forward_grid axis.  The reference holds
    every REFERENCE_STRIDE-th point of the full 5001-point grids, that is
    the 101-point grid on the same bounds; each pass checks the reference
    points its own grid passes through.
    """

    grid_points: int
    spots: int


FULL = Sizes(grid_points=5001, spots=500)
TINY = Sizes(grid_points=11, spots=40)
REFERENCE_STRIDE = 50


@dataclass(frozen=True)
class Outcome:
    """What one invocation produced: data-file digests and sizes, and the
    problems its checks found (empty when the output is correct)."""

    artifacts: dict          # relative name -> (sha256 hex, size in bytes)
    problems: list


@dataclass(frozen=True)
class Invocation:
    """One CLI run: its arguments and the check of its output, called with
    the exit code and the captured stdout."""

    argv: tuple
    check: Callable[[int, str], Outcome]


@dataclass(frozen=True)
class Workload:
    """A named set of passes; BENCHMARK.json records why each was chosen."""

    name: str
    items_per_pass: Callable[[Sizes], int]
    invocations: Callable[[Path, int, Sizes], list]
    # True when the workload's output depends on the seed; passes then
    # alternate between two seeds and outputs of the two must differ.
    seeded: bool


def digest_files(paths, base: Path) -> dict:
    out = {}
    for p in sorted(paths):
        data = p.read_bytes()
        out[str(p.relative_to(base))] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def is_manifest(p: Path) -> bool:
    return p.name == "manifest.json" or p.name.endswith(".manifest.json")


def _exit_problem(code: int) -> list:
    return [] if code == 0 else [f"exit code {code}, expected 0"]


# forward_grid ---------------------------------------------------------------

@dataclass(frozen=True)
class GridRun:
    """One sweep or sensitivity invocation of forward_grid."""

    key: str
    verb: str
    config: str
    axis: str | None        # sweep axis; None for the sensitivity verb
    lo: str
    hi: str
    scale: str
    value_column: str       # column compared against the reference

    def argv(self, n: int, out: Path) -> tuple:
        grid = f"{self.lo}:{self.hi}:{n}:{self.scale}"
        axis = ("--axis", self.axis) if self.axis else ()
        return (self.verb, "--config", self.config, *axis, "--grid", grid,
                "--out", str(out))


GRID_RUNS = (
    GridRun("water_fraction", "sweep", "configs/gd_water_25nm.ini",
            "water_fraction", "0", "1", "lin", "t1_s"),
    GridRun("gd_density", "sweep", "configs/gd_water_25nm.ini",
            "gd_density", "1e23", "1e28", "log", "t1_s"),
    GridRun("diameter", "sweep", "configs/gd_acetone_x046_25nm.ini",
            "diameter", "5e-9", "200e-9", "log", "t1_s"),
    GridRun("sensitivity", "sensitivity", "configs/sensitivity_20nm.ini",
            None, "1e23", "1e28", "log", "delta_r_min_per_s"),
)


def read_table(path: Path):
    """Header, numeric rows and '# key = value' comments of a CLI table."""
    header, rows, meta = None, [], {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").partition("=")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split("\t")
        elif line:
            rows.append([float(v) for v in line.split("\t")])
    return header, rows, meta


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def check_grid_table(path: Path, run: GridRun, n: int, reference: list) -> list:
    """Problems with one forward_grid table: row count, finiteness and
    agreement with the reference points that fall on this grid."""
    try:
        header, rows, meta = read_table(path)
    except (OSError, ValueError) as exc:
        return [f"{path}: unreadable table: {exc}"]
    if header is None or run.value_column not in header:
        return [f"{path}: no {run.value_column} column"]
    col = header.index(run.value_column)
    skipped = [float(v) for v in meta.get("skipped_densities", "").split(",") if v]
    problems = []
    if len(rows) != n - len(skipped):
        problems.append(f"{path}: {len(rows)} rows, expected {n - len(skipped)}")
    if any(len(r) != len(header) or not all(map(math.isfinite, r)) for r in rows):
        problems.append(f"{path}: non-finite or ragged row")
        return problems
    xs = [r[0] for r in rows]
    for k, (x, value) in enumerate(reference):
        if k * (n - 1) % (len(reference) - 1):
            continue  # not on this grid
        i = bisect.bisect_left(xs, x - abs(x) * ABSCISSA_RTOL)
        if i == len(xs) or not math.isclose(xs[i], x, rel_tol=ABSCISSA_RTOL):
            if not any(math.isclose(s, x, rel_tol=ABSCISSA_RTOL) for s in skipped):
                problems.append(f"{path}: reference point {x!r} missing")
            continue
        got = rows[i][col]
        if not math.isclose(got, value, rel_tol=REFERENCE_RTOL):
            problems.append(f"{path}: {run.value_column} at {x!r} is {got!r}, "
                            f"reference {value!r}")
    return problems


def forward_grid_invocations(pass_dir: Path, seed: int, sizes: Sizes) -> list:
    reference = load_reference()
    invs = []
    for run in GRID_RUNS:
        out = pass_dir / f"{run.key}.tsv"

        def check(code, stdout, run=run, out=out):
            problems = _exit_problem(code)
            if not problems:
                problems = check_grid_table(out, run, sizes.grid_points,
                                            reference[run.key])
            artifacts = digest_files([out], pass_dir) if out.is_file() else {}
            return Outcome(artifacts, problems)

        # sweeps are deterministic and take no seed
        invs.append(Invocation(run.argv(sizes.grid_points, out), check))
    return invs


# spot_ensemble --------------------------------------------------------------

SPOT_CONFIGS = ("configs/gd_water_25nm.ini", "configs/gd_acetone_x046_25nm.ini")
PULL_BAND = (0.8, 1.2)


def pull_band(n: int) -> tuple:
    """Accepted range of the pull variance at n spots.

    PULL_BAND is the band at 1000 spots, where it is about 4.5 standard
    deviations of the sample variance wide.  Fewer spots widen it in
    proportion to that standard deviation, so the false-alarm rate stays
    the same at any size.
    """
    half = (PULL_BAND[1] - PULL_BAND[0]) / 2.0 * math.sqrt(max(999.0 / (n - 1), 1.0))
    return 1.0 - half, 1.0 + half


def check_spot_ensemble(out_dir: Path, spots: int) -> list:
    """Problems with a simulate output directory, in the terms of acceptance
    test 09 plus the fit-pull calibration of acceptance test 06."""
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    names = [Path(c).stem for c in SPOT_CONFIGS]
    problems = []
    conditions = summary.get("conditions", {})
    for name in names:
        cond = conditions.get(name) or {}
        if cond.get("n_converged") != spots or not cond.get("gaussian"):
            problems.append(f"{name}: {cond.get('n_converged')} of {spots} fits "
                            "converged or no gaussian summary")
            continue
        pulls = []
        for j in range(spots):
            try:
                fit = json.loads((out_dir / name / f"spot_{j:04d}_fit.json").read_text())
                curve = (out_dir / name / f"spot_{j:04d}_curve.tsv").read_text()
            except (OSError, ValueError) as exc:
                problems.append(f"{name} spot {j}: {exc}")
                break
            if fit.get("converged") is not True:
                problems.append(f"{name} spot {j}: fit not converged")
                break
            if len(curve.splitlines()) < 5:
                problems.append(f"{name} spot {j}: curve has too few rows")
                break
            pulls.append((fit["t1_hat_s"] - fit["t1_true_s"]) / fit["t1_stderr_s"])
        else:
            mean = sum(pulls) / len(pulls)
            var = sum((p - mean) ** 2 for p in pulls) / len(pulls)
            lo, hi = pull_band(spots)
            if not lo <= var <= hi:
                problems.append(f"{name}: pull variance {var:.3f} outside "
                                f"[{lo:.3f}, {hi:.3f}]")
    if problems:
        return problems
    water, acetone = (conditions[n]["gaussian"]["mean_t1_s"] for n in names)
    if not acetone > water:
        problems.append(f"acetone-rich mean T1 {acetone!r} not above water {water!r}")
    z = (summary.get("separation") or {}).get("z_geometric", 0.0)
    if not z > 2.0:
        problems.append(f"z_geometric {z!r} not above 2")
    return problems


def spot_ensemble_invocations(pass_dir: Path, seed: int, sizes: Sizes) -> list:
    out = pass_dir / "sim"

    def check(code, stdout):
        problems = _exit_problem(code) or check_spot_ensemble(out, sizes.spots)
        files = [p for p in out.rglob("*") if p.is_file() and not is_manifest(p)]
        return Outcome(digest_files(files, pass_dir), problems)

    argv = ("simulate", *[a for c in SPOT_CONFIGS for a in ("--config", c)],
            "--spots", str(sizes.spots), "--seed", str(seed), "--out", str(out))
    return [Invocation(argv, check)]


# oracle_mc ------------------------------------------------------------------

def check_oracle(code: int, stdout: str) -> Outcome:
    """The oracle writes no data file; its report on stdout is its output."""
    problems = _exit_problem(code)
    if "overall: PASS" not in stdout.splitlines():
        problems.append("report lacks 'overall: PASS'")
    data = stdout.encode()
    return Outcome({"report": (hashlib.sha256(data).hexdigest(), len(data))}, problems)


def oracle_mc_invocations(pass_dir: Path, seed: int, sizes: Sizes) -> list:
    # run_oracles fixes its own seed, so the workload seed has no effect.
    # One invocation per pass: a median over many single invocations was
    # steadier than one over a few passes of three.
    return [Invocation(("oracle", "all"), check_oracle)]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "forward_grid",
            lambda s: len(GRID_RUNS) * s.grid_points,
            forward_grid_invocations, seeded=False),
        Workload(
            "spot_ensemble",
            lambda s: len(SPOT_CONFIGS) * s.spots,
            spot_ensemble_invocations, seeded=True),
        Workload(
            "oracle_mc",
            lambda s: ORACLE_MC_SAMPLES,
            oracle_mc_invocations, seeded=False),
    )
}


def pass_seeds(workload: Workload, seed: int) -> tuple:
    """The seed of each pass variant.  A seeded workload alternates two
    distinct seeds drawn from the benchmark seed; the others use it as is."""
    if not workload.seeded:
        return (seed,)
    rng = random.Random(seed)
    first = rng.randrange(2**31)
    second = first
    while second == first:
        second = rng.randrange(2**31)
    return first, second
