"""Command-line front end for the relaxometry engine.

Verbs:

* ``t1``: forward-predict T1 and its rate attribution for one config.
* ``sweep``: tabulate predictions along one parameter axis.
* ``simulate``: generate, fit, and summarize synthetic spot ensembles.
* ``fit``: fit a stored relaxation curve.
* ``sensitivity``: minimal detectable rate versus molecular density.
* ``oracle``: run closed-form vs numerical cross-checks.

Exit codes: 0 success, 1 invalid input or configuration, an output that
cannot be written or an array too large to allocate, 2 numerical failure
(singular point or non-converged fit), 3 failed oracle check.

Every file-producing verb writes a JSON manifest beside its outputs.
Timestamps live only in manifests, so the data files of reruns with the
same config and seed are byte-identical.  Tabular data files (sweeps,
curves, sensitivity curves) use the one format of rbmrelax.table.
``simulate`` runs in three phases.  Plan (_plan_simulate) predicts and
plans every condition and draws every spot's true T1 (scenario.draw_spots,
one array predict per condition), so a spot outside the model's domain
fails the run with nothing written.  Compute (measure_sim.simulate_condition)
simulates and fits one condition's spots and forms its summary entry, with
no file I/O.  Write stores that condition's curve file and fit document
per spot before the next is computed, then summary.json, the manifest and
the stdout lines.  A fit document is the json.dumps of a spot's fit
columns, index and true T1; the condition's plan, seed and stream index
are written once, in summary.json.  ``fit`` prints the one-row document
of its curve's fit and writes that text to --out.

``sweep`` and ``sensitivity`` evaluate their whole grid in one array
predict call, so they share one density domain; a sweep passes its
columns from predict's mapping by name to write_table, which
formats a column that does not vary along the axis once and writes the
rows in blocks of a fixed row count, so the table text adds a fixed amount
to the memory of the grid and predict's arrays.
No verb loads scipy: the fit is numpy's, and ``oracle``'s quadrature check
is one fixed Gauss-Legendre sum of validation's own.  Loading this module
imports numpy and rbmrelax.errors; a verb imports what it runs when it
runs: scenario (with hydro, table, bath and core_relax) for every verb
but ``fit`` and ``oracle``, measure_sim for ``simulate`` and ``fit``,
sensitivity for ``sensitivity``, and validation for ``oracle``.

The cyclic garbage collector is paused while this module loads and while
a verb imports its modules, and the caller's setting goes back after,
also if loading fails: what loading builds lives until exit, and the
young collections its allocation triggers would only walk it again.  It
then moves to the oldest generation without a collection.  When ``main``
runs the process's own command line (``argv`` is None: ``python -m
rbmrelax.cli``, the ``rbmrelax`` script, ``--version``), it moves to the
collector's permanent generation instead (gc.freeze(), before the verb
and again after its imports), so neither the verb's collections nor the
interpreter's last ones at exit walk it.  Callers that pass ``argv``, and
code that imports the library, are never frozen.

This module loads numpy with a one-thread BLAS pool: it sets the BLAS and
OpenMP thread variables to 1 for the import, then puts the caller's values
back.  OpenBLAS starts its pool's threads when numpy loads, which on a
small machine can cost tens of milliseconds of every run's start-up, and
the package's only BLAS/LAPACK calls (the fit's batched 3x3 inverses, the
oracle's 5-point polyfit) are too small to split over threads.  A numpy
that is already loaded keeps its pool, so code that imports the library,
not the CLI, keeps its own BLAS.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def _loading(freeze: bool = False):
    """Pause the collector for a block of imports, then move what they built
    out of the young generation, which the next young collection would walk
    at once: to the permanent one if freeze (the process's own command
    line), else to the oldest (module docstring)."""
    caller_collects = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        # unfreeze would also release objects a caller froze, so not then
        if freeze or not gc.get_freeze_count():
            gc.freeze()
            if not freeze:
                gc.unfreeze()
        if caller_collects:
            gc.enable()


# no collections while loading builds its long-lived objects (module docstring)
with _loading():
    import argparse
    import math
    import os
    import sys
    from pathlib import Path

    _BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS")
    _caller_threads = {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        import numpy as np
    finally:
        # the pool is sized when numpy loads, so the caller's values go back
        # for whatever this process reads or starts later
        for var, value in _caller_threads.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value

    from . import __version__
    from .errors import ConfigError, ParameterError, allocate

# sweep axis -> (its column, the predict override it sets)
SWEEP_AXES = {"gd_density": ("gd_density_per_m3", "gd_density"),
              "water_fraction": ("x_water", "x_water"),
              "diameter": ("diameter_m", "diameter")}
ORACLE_NAMES = ("bath_mc", "sensitivity", "quadrature", "all")


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting, so usage errors map to exit code 1."""

    def error(self, message):
        raise ConfigError(message)


def _write_manifest(path: Path, command: str, configs, outputs) -> None:
    """Write the audit record of one file-producing command.

    configs holds one dict per input config: path, sha256 of the canonical
    serialization, seed, and for simulate the condition index that selects
    its random stream; outputs lists every data file the command wrote,
    relative to the manifest's own directory.
    """
    import json
    from datetime import datetime, timezone
    manifest = {"command": command, "version": __version__,
                "created_utc": datetime.now(timezone.utc).isoformat(),
                "configs": list(configs), "outputs": sorted(str(o) for o in outputs)}
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _config_entry(path, sc, **extra) -> dict:
    from .scenario import config_hash
    return {"path": str(path), "sha256": config_hash(sc), "seed": sc.seed, **extra}


def _grid_number(token: str, spec: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ConfigError(f"non-numeric grid value {token.strip()!r} in {spec!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite grid value {token.strip()!r} in {spec!r}")
    return value


def _parse_grid(spec: str) -> np.ndarray:
    """Parse 'lo:hi:n[:log|lin]' or a comma-separated ascending list to floats.

    Every bound and value must be a finite number.
    """
    text = spec.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError(f"grid must be lo:hi:n[:log|lin], got {spec!r}")
        scale = parts[3] if len(parts) == 4 else "lin"
        if scale not in ("lin", "log"):
            raise ConfigError(f"grid scale must be 'log' or 'lin', got {scale!r}")
        lo, hi = _grid_number(parts[0], spec), _grid_number(parts[1], spec)
        try:
            n = int(parts[2])
        except ValueError:
            raise ConfigError(f"grid size must be an integer, got {parts[2]!r}") from None
        if n < 2:
            raise ConfigError("grid needs at least 2 points")
        if not lo < hi:
            raise ConfigError(f"grid requires lo < hi, got {lo!r}:{hi!r}")
        if scale == "log" and lo <= 0.0:
            raise ConfigError("log grid requires positive bounds")
        allocate(n, f"grid size {n} in {spec!r}", ConfigError)
        if scale == "log":
            return np.geomspace(lo, hi, n)
        return np.linspace(lo, hi, n)
    values = [_grid_number(token, spec) for token in text.split(",") if token.strip()]
    if len(values) < 2:
        raise ConfigError("grid needs at least 2 points")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("grid values must be strictly ascending")
    return np.array(values)


def _t1_report(pred) -> str:
    return "".join(f"{key} = {value:.17g}\n" for key, value in pred.items())


def cmd_t1(args) -> int:
    with _loading(args.freeze):
        from .scenario import parse_config, predict
    sc = parse_config(args.config)
    report = _t1_report(predict(sc))
    sys.stdout.write(report)
    if args.out:
        out = Path(args.out)
        out.write_text(report)
        _write_manifest(out.with_name(out.name + ".manifest.json"), "t1",
                        [_config_entry(args.config, sc)], [out.name])
    return 0


SWEEP_COLUMNS = ("viscosity_pa_s", "microviscosity_factor",
                 "gd_rate_dip_per_s", "gd_rate_vib_per_s",
                 "gd_rate_trans_per_s", "gd_rate_rot_per_s",
                 "gd_rate_total_per_s", "b_perp_sq_surface_t2",
                 "b_perp_sq_molecular_t2", "t1_s")


def cmd_sweep(args) -> int:
    with _loading(args.freeze):
        from .scenario import parse_config, predict
        from .table import write_table
    sc = parse_config(args.config)
    values = _parse_grid(args.grid)
    column, override = SWEEP_AXES[args.axis]
    # predict rejects an out-of-range grid value before anything is written
    doc = predict(sc, **{override: values})

    out = Path(args.out)
    # a column that does not vary along the axis stays 0-d, formatted once
    write_table(out, {name: doc[name] for name in (column,) + SWEEP_COLUMNS})
    _write_manifest(out.with_name(out.name + ".manifest.json"), "sweep",
                    [_config_entry(args.config, sc)], [out.name])
    t1 = doc["t1_s"]
    print(f"{values.size} rows over {args.axis} -> {out}")
    print(f"t1 range: {np.min(t1):.6g} s to {np.max(t1):.6g} s")
    return 0


def _plan_simulate(args) -> list:
    """One record per config, (name, config, scenario, condition index,
    predicted T1, plan, (spot T1s, spot generators)), with nothing written,
    so a bad condition or spot leaves no partial output."""
    from dataclasses import replace

    from .scenario import draw_spots, measurement_plan, parse_config, predict
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    conditions = []
    taken = set()
    for index, cfg in enumerate(args.config):
        sc = parse_config(cfg)
        if args.seed is not None:
            sc = replace(sc, seed=args.seed)
        name = Path(cfg).stem
        # a.ini, a_2.ini, d/a.ini: the first suffix may be taken already
        while name in taken:
            name = f"{name}_{index}"
        taken.add(name)
        t1_pred = predict(sc)["t1_s"]
        plan = measurement_plan(sc, t1_pred)
        # the condition index is part of the stream key, so conditions never
        # share a stream, whatever seeds their configs carry
        spots = draw_spots(sc, np.random.SeedSequence(sc.seed, spawn_key=(index,)),
                           args.spots)
        conditions.append((name, cfg, sc, index, t1_pred, plan, spots))
    return conditions


def cmd_simulate(args) -> int:
    with _loading(args.freeze):
        import json

        from .measure_sim import separation_scores, simulate_condition, write_curve, write_fit_json
        from .scenario import config_hash
    conditions = _plan_simulate(args)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".writable"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out_dir} is not writable: {exc}")

    # compute and write alternate, so one condition's arrays are held at a time
    outputs = []
    summary_doc = {"conditions": {}, "separation": None}
    for name, cfg, sc, index, t1_pred, plan, (t1_true, rngs) in conditions:
        curve, columns, entry = simulate_condition(t1_true, rngs, plan)
        (out_dir / name).mkdir(exist_ok=True)
        stems = [f"{name}/spot_{j:04d}" for j in columns["spot"]]
        write_curve(*curve, [f"{out_dir}/{s}_curve.tsv" for s in stems])
        write_fit_json(columns, [f"{out_dir}/{s}_fit.json" for s in stems])
        outputs += [f"{s}_{kind}" for s in stems for kind in ("curve.tsv", "fit.json")]
        summary_doc["conditions"][name] = {
            "config": str(cfg), "config_sha256": config_hash(sc), "seed": sc.seed,
            "condition_index": index, "plan": plan.as_dict(), "n_spots": args.spots,
            "t1_predicted_s": t1_pred, **entry,
        }

    summaries = [cond["gaussian"] for cond in summary_doc["conditions"].values()]
    if len(summaries) == 2 and all(s is not None for s in summaries):
        summary_doc["separation"] = separation_scores(*summaries)

    (out_dir / "summary.json").write_text(
        json.dumps(summary_doc, indent=2, sort_keys=True) + "\n")
    outputs.append("summary.json")
    _write_manifest(out_dir / "manifest.json", "simulate",
                    [_config_entry(cfg, sc, condition_index=index)
                     for _, cfg, sc, index, *_ in conditions], outputs)

    for name, summ in zip(summary_doc["conditions"], summaries):
        if summ is not None:
            print(f"{name}: t1 = {summ['mean_t1_s']:.6g} s +- {summ['sigma_t1_s']:.6g} s "
                  f"(n = {summ['n']})")
        else:
            print(f"{name}: no gaussian summary (too few converged fits)")
    if summary_doc["separation"] is not None:
        z = summary_doc["separation"]
        print(f"separation: z_geometric = {z['z_geometric']:.3f}, "
              f"z_pooled = {z['z_pooled']:.3f}")
    return 0


def cmd_fit(args) -> int:
    with _loading(args.freeze):
        from .measure_sim import fit_exponential, read_curve, render_fit_json
    curve = read_curve(args.data)
    try:
        fit = fit_exponential(*curve)
    except ParameterError as exc:
        raise ParameterError(f"{args.data}: {exc}") from exc
    text, = render_fit_json(fit)
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.write_bytes(text.encode())
        _write_manifest(out.with_name(out.name + ".manifest.json"), "fit",
                        [], [out.name])
    if not fit["converged"][0]:
        print(f"fit did not converge: {fit['message'][0]}", file=sys.stderr)
        return 2
    return 0


def cmd_sensitivity(args) -> int:
    with _loading(args.freeze):
        from .scenario import density_sensitivity_curve, parse_config
        from .sensitivity import write_sensitivity_curve
    sc = parse_config(args.config)
    grid = _parse_grid(args.grid) if args.grid else None
    curve = density_sensitivity_curve(sc, grid=grid)
    out = Path(args.out)
    write_sensitivity_curve(curve, out)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "sensitivity",
                    [_config_entry(args.config, sc)], [out.name])
    print(f"minimum delta_r = {curve.delta_min:.6g} /s at density "
          f"{curve.argmin_density:.6g} /m^3 (r_total {curve.rate_at_min:.6g} /s)")
    for n in curve.skipped:
        print(f"notice: grid point {n:.6g} /m^3 skipped "
              "(rate sits on the level splitting)", file=sys.stderr)
    if curve.boundary_warning:
        print("warning: minimum lies on the grid boundary; widen the grid",
              file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    with _loading(args.freeze):
        from .validation import format_report, run_oracles
    report = run_oracles(args.which)
    print(format_report(report))
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rbmrelax",
                     description="Relaxometry of rotational Brownian motion: "
                                 "forward models, simulations, and fits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("t1", help="forward-predict T1 for one config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_t1)

    p = sub.add_parser("sweep", help="tabulate predictions along one axis")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p.add_argument("--grid", required=True,
                   help="lo:hi:n[:log|lin] or comma-separated ascending values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate",
                       help="simulate and fit spot ensembles (separation "
                            "scores need exactly two configs)")
    p.add_argument("--config", action="append", required=True,
                   help="repeat for a two-condition comparison")
    p.add_argument("--spots", type=int, default=25)
    p.add_argument("--seed", type=int, default=None,
                   help="overrides every config seed; condition i draws from "
                        "SeedSequence(seed, spawn_key=(i,)), so conditions "
                        "never share a stream")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a stored relaxation curve")
    p.add_argument("data", help="curve file (tau_s signal stderr)")
    p.add_argument("--out", default=None, help="write the fit as JSON here")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sensitivity",
                       help="minimal detectable rate vs molecular density")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", default=None,
                   help="density grid, lo:hi:n[:log|lin] or comma list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("oracle", help="closed form vs numerical cross-checks")
    p.add_argument("which", choices=ORACLE_NAMES)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    if argv is None:
        # the process's own command line: what loading built lives until exit
        gc.freeze()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.freeze = argv is None
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
