"""Benchmark of the rbmrelax command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the harness works in the checkout that holds it.  It
runs the workload's CLI invocations as a user would, one
`python -m rbmrelax.cli ...` child at a time with PYTHONPATH=src, in passes
until about S seconds are spent on passes.  Every output is checked, and data
files of passes with the same seed must be byte-identical.

--trace 0 reports the end-to-end metrics, all from untraced children.  A
fixed calibration job runs before every invocation and after the last one,
and each invocation's wall time is rescaled by the mean of the two
calibration times around it (see CALIBRATION).
--trace 1 reports the per-layer metrics: start-up probes in fresh
interpreters, one untraced child pass for CPU time and file counts, then
in-process passes through rbmrelax.cli.main, alternately untraced and
traced (bench/spans.py), whose wall-time ratio is the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics ({name: {value, unit}}).  Lines before it are a readable report and
the environment record; .bench_run/<workload>/result_trace<0|1>.json keeps
the full record, and spans/pass<N>.tsv the spans of each traced pass.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from workloads import FULL, WORKLOADS, Sizes, Workload, pass_seeds

ROOT = Path(__file__).resolve().parents[1]
RUN_DIR = Path(".bench_run")
CHILD_TIMEOUT_S = 60     # the slowest invocation takes about 10 s
SETUP_REPEATS = 3
PROBE_REPEATS = 3
# The host's speed swings by up to a factor of two over seconds to minutes, so
# raw wall times of runs made minutes apart spread by 20-30% of their median.
# A fixed job that shares the program's profile (interpreter start-up, imports
# of numpy and scipy.optimize, a scalar Python loop and numpy array work) runs
# next to every invocation; wall times are rescaled to the machine speed at
# which it takes CALIBRATION_NOMINAL_S.  It imports nothing from src/, so no
# change to the program moves it.
CALIBRATION = """\
import math
import numpy as np
import scipy.optimize
s = 0.0
for i in range(300000):
    x = i * 1e-5
    s += math.exp(-x) * math.sqrt(x + 1.0) / (1.0 + x * x)
a = np.random.default_rng(0).random(1000000)
for _ in range(10):
    s += float(np.sqrt(a * a + 1.0).sum())
print(repr(s))
"""
CALIBRATION_NOMINAL_S = 1.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> dict:
    """Cap BLAS/OpenMP pools at nproc for this process and its children."""
    limit = nproc()
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= limit):
            os.environ[var] = str(limit)
    return {var: os.environ[var] for var in THREAD_VARS}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH="src")


def _command_output(argv) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def environment(threads: dict) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    toplevel = _command_output(["git", "rev-parse", "--show-toplevel"])
    commit = (_command_output(["git", "rev-parse", "HEAD"])
              if toplevel and Path(toplevel).resolve() == ROOT else "") or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "platform": platform.platform(),
        "git_commit": commit,
        "output_fs": _command_output(["stat", "-f", "-c", "%T", str(RUN_DIR)]) or "unknown",
        "threads": threads,
    }


class Tally:
    """Invocations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems[:3])}")


class Child(NamedTuple):
    code: int           # -1 when killed at CHILD_TIMEOUT_S
    out: str
    wall_s: float
    cpu_s: float        # user + system CPU of the child
    maxrss_kb: int


def run_child(argv) -> Child:
    """Run one child to completion.  The child is reaped with wait4, so its
    own CPU time and peak RSS are known, apart from those of other children."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    killer = threading.Timer(CHILD_TIMEOUT_S, kill)
    killer.start()
    try:
        out = proc.stdout.read()
    except BaseException:
        kill()
        raise
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    code = -1 if killed.is_set() else proc.returncode
    return Child(code, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


class Calibrator:
    """Runs the CALIBRATION job between pieces of timed work."""

    def __init__(self):
        self.times = []
        self.run()

    def run(self) -> None:
        child = run_child(["-c", CALIBRATION])
        if child.code != 0:
            raise RuntimeError(f"calibration job failed with exit code {child.code}")
        self.times.append(child.wall_s)

    def rescale(self, wall: float) -> float:
        """`wall` seconds of work done since the last job, rescaled by the
        mean of that job's time and the time of a new job run now."""
        self.run()
        return wall * 2.0 * CALIBRATION_NOMINAL_S / (self.times[-2] + self.times[-1])


def run_version(tally: Tally) -> float:
    """Wall seconds of one `rbmrelax.cli --version`."""
    code, out, wall, _, _ = run_child(["-m", "rbmrelax.cli", "--version"])
    ok = code == 0 and re.fullmatch(r"\d+\.\d+\S*", out.strip()) is not None
    tally.record("--version", [] if ok else [f"exit {code}, stdout {out.strip()!r}"])
    return wall


class PassRunner:
    """Runs passes of one workload and checks every invocation's output,
    including byte-identity with the first pass of the same seed.

    Pass outputs are never deleted: each run writes under a directory of
    its own in RUN_DIR/<workload>/passes.  On ext4 mounted with `discard`,
    files written after thousands were deleted took up to twice as long
    until the freed space was written over; `spot_ensemble` runs that
    followed a run's clean-up read 30-40% slower than runs that did not.
    Every pass starts with os.sync(), untimed, so that no pass pays for the
    write-back of data written before it.
    """

    def __init__(self, workload: Workload, sizes: Sizes, seed: int, tally: Tally,
                 calibrator: Calibrator | None = None):
        self.workload, self.sizes, self.tally = workload, sizes, tally
        self.seeds = pass_seeds(workload, seed)
        self.min_passes = len(self.seeds) + 1   # so that one seed repeats
        self.first = {}          # seed -> artifacts of each invocation
        self.passes = []         # per-pass record
        self.work = RUN_DIR / workload.name
        self.token = f"{time.time_ns()}-{os.getpid()}"
        self.calibrator = calibrator

    def run(self, execute, label: str) -> dict:
        """One pass; execute(argv) -> (exit code, stdout, Child or None).
        Returns the pass record with its wall time (invocations only), the
        wall time rescaled by calibration, items, output bytes, files
        written, and the CPU time and peak RSS of child invocations."""
        index = len(self.passes)
        seed = self.seeds[index % len(self.seeds)]
        pass_dir = self.work / "passes" / self.token / str(index)
        pass_dir.mkdir(parents=True)
        invocations = self.workload.invocations(pass_dir, seed, self.sizes)
        results, walls, scaled = [], [], []
        os.sync()
        for inv in invocations:
            t0 = time.perf_counter()
            results.append(execute(inv.argv))
            walls.append(time.perf_counter() - t0)
            if self.calibrator:
                scaled.append(self.calibrator.rescale(walls[-1]))
        children = [child for _, _, child in results if child is not None]

        files = [p for p in pass_dir.rglob("*") if p.is_file()]
        outcomes = [inv.check(code, out) for inv, (code, out, _) in zip(invocations, results)]
        reference = self.first.setdefault(seed, [o.artifacts for o in outcomes])
        for i, (inv, outcome) in enumerate(zip(invocations, outcomes)):
            problems = list(outcome.problems)
            if outcome.artifacts != reference[i]:
                problems.append("data files differ from an earlier pass with the same seed")
            other = [a for s, a in self.first.items() if s != seed]
            if other and outcome.artifacts == other[0][i]:
                problems.append("data files equal those of a different seed")
            self.tally.record(f"pass {index} {' '.join(inv.argv[:2])}", problems)

        record = {
            "label": label, "seed": seed, "wall_s": sum(walls),
            "scaled_wall_s": sum(scaled) if scaled else None,
            "child_cpu_s": sum(c.cpu_s for c in children),
            "child_maxrss_kb": max((c.maxrss_kb for c in children), default=0),
            "items": self.workload.items_per_pass(self.sizes),
            "output_bytes": sum(size for o in outcomes
                                for _, size in o.artifacts.values()),
            "files_written": len(files),
        }
        self.passes.append(record)
        return record


def subprocess_execute(argv):
    child = run_child(["-m", "rbmrelax.cli", *argv])
    return child.code, child.out, child


def inprocess_execute(argv):
    from rbmrelax.cli import main as cli_main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a child would exit 1 with this traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), None


def end_to_end(workload: Workload, sizes: Sizes, seed: int, seconds: float,
               tally: Tally) -> tuple:
    run_version(tally)  # warm-up, which may compile bytecode
    calibrator = Calibrator()
    setup_wall, setup = [], []
    for _ in range(SETUP_REPEATS):
        setup_wall.append(run_version(tally))
        setup.append(calibrator.rescale(setup_wall[-1]))
    runner = PassRunner(workload, sizes, seed, tally, calibrator)
    t0 = time.perf_counter()
    # stop at the pass boundary nearest to `seconds`
    while (len(runner.passes) < runner.min_passes or
           (time.perf_counter() - t0) * (1 + 0.5 / len(runner.passes)) < seconds):
        runner.run(subprocess_execute, "child")
    passes = runner.passes
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(p["items"] / p["scaled_wall_s"] for p in passes),
        "peak_rss_mb": max(p["child_maxrss_kb"] for p in passes) / 1024.0,
        "output_bytes": statistics.median(p["output_bytes"] for p in passes),
        "success_rate": 1.0 - len(tally.failures) / tally.attempted,
    }
    unscaled = statistics.median(p["items"] / p["wall_s"] for p in passes)
    return metrics, {"setup_s": setup, "setup_wall_s": setup_wall,
                     "calibration_s": calibrator.times,
                     "unscaled_items_per_s": unscaled, "passes": passes}


def probe(code: str, tally: Tally) -> list:
    """(wall s, stdout) of PROBE_REPEATS fresh interpreters running `code`;
    failed runs are tallied and left out."""
    runs = []
    for _ in range(PROBE_REPEATS):
        status, out, wall, _, _ = run_child(["-c", code])
        tally.record(f"python -c {code!r}", [] if status == 0 else [f"exit {status}"])
        if status == 0:
            runs.append((wall, out))
    return runs


def import_seconds(module: str, tally: Tally) -> list:
    """Time to import `module`, measured inside fresh interpreters."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(repr(time.perf_counter() - t))")
    return [float(out) for _, out in probe(code, tally)]


def per_layer(workload: Workload, sizes: Sizes, seed: int, seconds: float,
              tally: Tally) -> tuple:
    from spans import Tracer, layer_metrics, write_spans

    span_metrics = [m["name"] for m in metric_specs(True)
                    if not m["name"].startswith(("cli.", "trace."))]

    interp = [wall for wall, _ in probe("pass", tally)]
    imp = import_seconds("rbmrelax.cli", tally)
    sco = import_seconds("scipy.optimize", tally)

    runner = PassRunner(workload, sizes, seed, tally)
    spans_dir = runner.work / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    child = runner.run(subprocess_execute, "child")

    sys.path.insert(0, str(Path("src").resolve()))
    import rbmrelax.cli  # noqa: F401  (import outside the timed passes)
    untraced, traced, layers, missing = [], [], [], set()
    measured = 0.0
    while measured < seconds or not traced:
        record = runner.run(inprocess_execute, "in-process")
        untraced.append(record["wall_s"])
        tracer = Tracer()
        with tracer.installed():
            record = runner.run(inprocess_execute, "traced")
        traced.append(record["wall_s"])
        missing.update(tracer.missing)
        layers.append(layer_metrics(tracer.spans, span_metrics))
        write_spans(tracer.spans, spans_dir / f"pass{len(runner.passes) - 1}.tsv")
        measured += untraced[-1] + traced[-1]
    if missing:
        print(f"warning: trace targets missing from the source: {sorted(missing)}",
              file=sys.stderr)

    metrics = {
        "cli.interpreter_s": statistics.median(interp) if interp else 0.0,
        "cli.import_s": statistics.median(imp) if imp else 0.0,
        "cli.scipy_optimize_import_s": statistics.median(sco) if sco else 0.0,
        "cli.child_cpu_s": child["child_cpu_s"],
        "cli.files_written": child["files_written"],
        **{n: statistics.median(p[n] for p in layers) for n in span_metrics},
        "trace.overhead_frac": statistics.median(traced) / statistics.median(untraced) - 1.0,
    }
    detail = {"probes": {"interpreter_s": interp, "import_s": imp,
                         "scipy_optimize_import_s": sco},
              "passes": runner.passes, "trace_missing": sorted(missing)}
    return metrics, detail


def metric_specs(trace: bool) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(workload: Workload, sizes: Sizes, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark and return the full result record."""
    RUN_DIR.mkdir(exist_ok=True)
    threads = cap_threads()
    env = environment(threads)
    tally = Tally()
    measure = per_layer if trace else end_to_end
    values, detail = measure(workload, sizes, seed, seconds, tally)
    specs = metric_specs(trace)
    unlisted = set(values) - {m["name"] for m in specs}
    if unlisted:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unlisted)}")
    line = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    return {"workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "environment": env, "failures": tally.failures,
            "detail": detail, "result": line}


def report(record: dict) -> None:
    line = record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for p in record["detail"]["passes"]:
        scaled = (f" ({p['scaled_wall_s']:.3f} s rescaled)"
                  if p["scaled_wall_s"] is not None else "")
        print(f"  pass ({p['label']}, seed {p['seed']}): {p['wall_s']:.3f} s{scaled}, "
              f"{p['items']} items, {p['output_bytes']} data bytes")
    verdict = "PASS" if line["correct"] else "FAIL"
    print(f"output checks: {verdict}, {line['failed']} of {line['attempted']} "
          f"invocations failed (error_rate {line['failed'] / line['attempted']!r})")
    if "calibration_s" in record["detail"]:
        detail = record["detail"]
        print(f"  calibration job: median {statistics.median(detail['calibration_s']):.3f} s "
              f"over {len(detail['calibration_s'])} runs; unscaled: median "
              f"--version {statistics.median(detail['setup_wall_s']):.3f} s, "
              f"{detail['unscaled_items_per_s']!r} items per wall second")
    for failure in record["failures"]:
        print(f"  failed: {failure}")
    for name, m in line["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (Path("src/rbmrelax/cli.py").is_file() and Path("configs").is_dir()):
        print(f"error: {ROOT} holds no rbmrelax source tree (src/, configs/)",
              file=sys.stderr)
        return 2
    record = run(WORKLOADS[args.workload], FULL, args.seed, args.seconds, bool(args.trace))
    work = RUN_DIR / args.workload
    work.mkdir(parents=True, exist_ok=True)
    (work / f"result_trace{record['trace']}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    report(record)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
