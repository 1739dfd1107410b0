"""No verb loads scipy, the package holds no module that no verb loads, each
verb imports only what it runs, the CLI loads numpy with a one-thread BLAS
pool, and the collector contract of the CLI: paused while it and each
verb's modules load, frozen only for the process's own command line, which
writes the same data bytes as main() called in process, and a sweep whose
memory does not grow with its table.

scipy is a test-only dependency: the tests use it as the reference for
the numpy PCHIP and the batched fit.  Each case runs in a fresh
interpreter, because this test session has imported scipy and every
package module already; one of them blocks scipy outright, so that any
import of it fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rbmrelax.cli import main
from rbmrelax.measure_sim import write_curve

SRC = Path(__file__).resolve().parents[1] / "src"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_fresh(tmp_path, body: str, block_scipy: bool = False) -> str:
    script = f"""\
import sys
if {block_scipy!r}:
    sys.modules["scipy"] = None  # every import of scipy now fails
sys.path.insert(0, {str(SRC)!r})
import rbmrelax.cli
from rbmrelax.cli import main

def scipy_loaded():
    return sorted(m for m, mod in sys.modules.items()
                  if mod is not None and (m == "scipy" or m.startswith("scipy.")))

assert not scipy_loaded(), scipy_loaded()
cfg = {str(CONFIGS / "gd_water_25nm.ini")!r}
sens = {str(CONFIGS / "sensitivity_20nm.ini")!r}
out = {str(tmp_path)!r}
{body}
print("ok")
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_forward_verbs_do_not_import_scipy(tmp_path):
    run_fresh(tmp_path, """\
assert main(["t1", "--config", cfg]) == 0
for axis, grid in (("gd_density", "0,1e24,1e25"), ("water_fraction", "0:1:3"),
                   ("diameter", "10e-9:30e-9:3:log")):
    assert main(["sweep", "--config", cfg, "--axis", axis, "--grid", grid,
                 "--out", f"{out}/{axis}.tsv"]) == 0
assert main(["sensitivity", "--config", sens, "--grid", "1e24:1e27:4:log",
             "--out", f"{out}/sens.tsv"]) == 0
assert not scipy_loaded(), scipy_loaded()
""")


def test_every_verb_runs_with_scipy_blocked(tmp_path):
    stdout = run_fresh(tmp_path, """\
try:
    import scipy
except ImportError:
    print("scipy blocked")
assert main(["t1", "--config", cfg]) == 0
assert main(["sweep", "--config", cfg, "--axis", "gd_density", "--grid", "0,1e24",
             "--out", f"{out}/sweep.tsv"]) == 0
assert main(["sensitivity", "--config", sens, "--grid", "1e24:1e27:4:log",
             "--out", f"{out}/sens.tsv"]) == 0
assert main(["simulate", "--config", cfg, "--spots", "2", "--out", f"{out}/sim"]) == 0
assert main(["fit", f"{out}/sim/gd_water_25nm/spot_0000_curve.tsv",
             "--out", f"{out}/fit.json"]) == 0
assert main(["oracle", "all"]) == 0
""", block_scipy=True)
    lines = stdout.splitlines()
    assert lines[0] == "scipy blocked"
    assert "overall: PASS" in lines


def test_every_package_module_is_reachable_from_the_cli(tmp_path):
    stdout = run_fresh(tmp_path, """\
assert main(["t1", "--config", cfg]) == 0
assert main(["sweep", "--config", cfg, "--axis", "gd_density", "--grid", "0,1e24",
             "--out", f"{out}/sweep.tsv"]) == 0
assert main(["sensitivity", "--config", sens, "--grid", "1e24:1e27:4:log",
             "--out", f"{out}/sens.tsv"]) == 0
assert main(["simulate", "--config", cfg, "--spots", "2", "--out", f"{out}/sim"]) == 0
assert main(["fit", f"{out}/sim/gd_water_25nm/spot_0000_curve.tsv"]) == 0
assert main(["oracle", "quadrature"]) == 0
import json
print(json.dumps(sorted(m for m in sys.modules
                        if m == "rbmrelax" or m.startswith("rbmrelax."))))
""")
    loaded = json.loads(stdout.splitlines()[-2])
    package = SRC / "rbmrelax"
    shipped = sorted("rbmrelax" if p.stem == "__init__" else f"rbmrelax.{p.stem}"
                     for p in package.glob("*.py"))
    assert loaded == shipped


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="the kernel does not list a process's threads")
def test_cli_loads_numpy_with_one_blas_thread():
    # OpenBLAS sizes its pool when numpy loads; the CLI asks for one thread
    # for that import and then gives the caller's setting back
    script = f"""\
import os, sys
sys.path.insert(0, {str(SRC)!r})
import rbmrelax.cli
print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "2"]


@pytest.mark.parametrize("enabled, frozen", [(True, False), (False, False), (True, True)])
def test_cli_import_keeps_the_callers_collector_setting(enabled, frozen):
    # the collector is paused while the CLI loads and then set back as it
    # was; the loaded heap ends in the oldest generation, not the young ones,
    # and objects the caller froze stay frozen
    script = f"""\
import gc, sys
sys.path.insert(0, {str(SRC)!r})
gc.enable() if {enabled!r} else gc.disable()
if {frozen!r}:
    gc.freeze()
import rbmrelax.cli
young = len(gc.get_objects(generation=0)) + len(gc.get_objects(generation=1))
print(gc.isenabled(), gc.get_freeze_count() > 0, young < 1000)
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(enabled), str(frozen), str(not frozen)]


def test_main_with_argv_does_not_freeze(tmp_path):
    run_fresh(tmp_path, """\
import gc
assert main(["t1", "--config", cfg]) == 0
assert main(["sweep", "--config", cfg, "--axis", "gd_density", "--grid", "0,1e24",
             "--out", f"{out}/sweep.tsv"]) == 0
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
""")


def test_main_of_the_process_command_line_freezes(tmp_path):
    run_fresh(tmp_path, """\
import gc
sys.argv = ["rbmrelax", "t1", "--config", cfg]
assert main() == 0
assert gc.get_freeze_count() > 0
""")


def test_forward_verbs_load_only_the_modules_they_use(tmp_path):
    stdout = run_fresh(tmp_path, """\
assert main(["t1", "--config", cfg]) == 0
assert main(["sweep", "--config", cfg, "--axis", "diameter", "--grid", "10e-9,30e-9",
             "--out", f"{out}/sweep.tsv"]) == 0
print(sorted(m for m in ("rbmrelax.sensitivity", "rbmrelax.measure_sim",
                         "rbmrelax.validation") if m in sys.modules))
""")
    assert stdout.splitlines()[-2] == "[]"


def test_each_verb_imports_only_what_it_runs(tmp_path):
    # a bare import loads the CLI and its error types; the oracles load no
    # config parser, forward model or fit
    stdout = run_fresh(tmp_path, """\
import json
def loaded(names):
    return sorted(m for m in names if m in sys.modules)
package = sorted(m for m in sys.modules if m == "rbmrelax" or m.startswith("rbmrelax."))
assert main(["oracle", "all"]) == 0
print(json.dumps([package, loaded(("rbmrelax.scenario", "rbmrelax.hydro",
                                   "rbmrelax.measure_sim", "configparser"))]))
""")
    package, after_oracle = json.loads(stdout.splitlines()[-2])
    assert (package, after_oracle) == (["rbmrelax", "rbmrelax.cli", "rbmrelax.errors"], [])


# each verb as the process's own command line, in its own interpreter, so
# that it finds every module it imports
VERB_RUNS = {
    "t1": ["t1", "--config", "{cfg}"],
    "sweep": ["sweep", "--config", "{cfg}", "--axis", "gd_density", "--grid", "0,1e24",
              "--out", "{out}/sweep.tsv"],
    "sensitivity": ["sensitivity", "--config", "{sens}", "--grid", "1e24:1e27:4:log",
                    "--out", "{out}/sens.tsv"],
    "simulate": ["simulate", "--config", "{cfg}", "--spots", "2", "--out", "{out}/sim"],
    "fit": ["fit", "{out}/curve.tsv"],
    "oracle": ["oracle", "quadrature"],
}


@pytest.mark.parametrize("verb", sorted(VERB_RUNS))
def test_verb_imports_run_with_the_collector_paused(tmp_path, verb):
    # every package module the verb imports is found with the collector
    # off and ends frozen, and the caller's setting is back afterwards
    tau = np.geomspace(1e-6, 1e-3, 12)[None]
    write_curve(tau, 0.7 + 0.2 * np.exp(-tau / 1e-4), np.full_like(tau, 1e-3),
                [tmp_path / "curve.tsv"])
    argv = [a.format(cfg=CONFIGS / "gd_water_25nm.ini", sens=CONFIGS / "sensitivity_20nm.ini",
                     out=tmp_path) for a in VERB_RUNS[verb]]
    run_fresh(tmp_path, f"""\
import gc
found = []

class Watch:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.startswith("rbmrelax."):
            found.append((name, gc.isenabled()))

sys.meta_path.insert(0, Watch)
sys.argv = ["rbmrelax", *{argv!r}]
assert main() == 0
assert found and not any(enabled for _, enabled in found), found
young = {{id(o) for o in gc.get_objects()}}
assert not [name for name, _ in found if id(vars(sys.modules[name])) in young], found
assert gc.isenabled()
""")


# one small run of each kind of data file: a table along an axis, a
# sensitivity curve, and the spot files and summary of two conditions
PROGRAM_RUNS = {
    "sweep": ["sweep", "--config", str(CONFIGS / "gd_water_25nm.ini"),
              "--axis", "water_fraction", "--grid", "0:1:11", "--out", "{out}/sweep.tsv"],
    "sensitivity": ["sensitivity", "--config", str(CONFIGS / "sensitivity_20nm.ini"),
                    "--grid", "1e24:1e27:7:log", "--out", "{out}/sens.tsv"],
    "simulate": ["simulate", "--config", str(CONFIGS / "gd_water_25nm.ini"),
                 "--config", str(CONFIGS / "gd_acetone_x046_25nm.ini"),
                 "--spots", "4", "--out", "{out}/sim"],
}


def data_files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and not p.name.endswith("manifest.json")}


@pytest.mark.parametrize("verb", sorted(PROGRAM_RUNS))
def test_program_writes_the_bytes_of_main_in_process(tmp_path, verb):
    # python -m rbmrelax.cli freezes the loaded heap; main(argv) does not
    program, in_process = tmp_path / "program", tmp_path / "in_process"
    program.mkdir()
    in_process.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "rbmrelax.cli",
         *(a.format(out=program) for a in PROGRAM_RUNS[verb])],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert main([a.format(out=in_process) for a in PROGRAM_RUNS[verb]]) == 0
    written = data_files(program)
    assert written
    assert written == data_files(in_process)


def _sweep_peak_kib(tmp_path, src: Path, points: int) -> int:
    """ru_maxrss (KiB on Linux) of one `python -m rbmrelax.cli sweep` child
    over a points-point water_fraction grid."""
    out, err = tmp_path / f"sweep_{points}.tsv", tmp_path / f"sweep_{points}.stderr"
    argv = [sys.executable, "-m", "rbmrelax.cli", "sweep",
            "--config", str(CONFIGS / "gd_water_25nm.ini"), "--axis", "water_fraction",
            "--grid", f"0:1:{points}", "--out", str(out)]
    pid = os.posix_spawn(sys.executable, argv, dict(os.environ, PYTHONPATH=str(src)),
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                                       (os.POSIX_SPAWN_OPEN, 2, str(err),
                                        os.O_WRONLY | os.O_CREAT, 0o644)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, err.read_text()
    return usage.ru_maxrss


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss counts KiB on Linux")
def test_sweep_memory_does_not_grow_with_the_table(tmp_path):
    # the program path writes its table in blocks, so 100,001 rows cost
    # little more than predict's arrays over 11 rows: +3 MB measured, where
    # a writer that builds the whole table as text grew by 94 MB
    small = _sweep_peak_kib(tmp_path, SRC, 11)
    large = _sweep_peak_kib(tmp_path, SRC, 100_001)
    assert (large - small) * 1024 < 40e6, (small, large)
