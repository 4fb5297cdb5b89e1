"""Command-line entry point.

Subcommands: denoise, synth, verify, eval, simulate.  Every run is
fully described by a flat dotted-key config file plus command-line
overrides (a flag beats its config key).  This module owns every output
format: result CSVs carry a '#' metadata preamble and JSON files a
``meta`` record, both with the tool version, seed and config hash so
runs can be reproduced exactly; the simulated ``survey.csv`` is written
by ``data_model.save_table``, the pair of ``load_table``.  Outputs are
written to a temporary file and renamed on success.

``synth`` and ``eval`` run their independent tasks (sweep trials; LOYO
folds and diagnostics halves) on ``--jobs`` processes: at ``--jobs 1``
the command's own, otherwise ``--jobs`` workers of one
``synthgen.worker_pool`` while the command's process waits.  ``jobs``
defaults to the usable CPU count and is capped at the task count, and
at the count whose largest kernel ridge fits stay within
``regress.KERNEL_RIDGE_BYTES`` together (with a note on stderr).  A
kernel ridge model on several processes has its compiled routines loaded
(``regress.load_kernel_ridge``) before the workers fork, so each worker
inherits them.
``main`` runs every command at one BLAS thread (``blas.num_threads``)
and restores the caller's count on exit; forked workers inherit the pin.
So identical configs and seeds give byte-identical files across reruns,
across ``--jobs`` values and across hosts with the same numpy/OpenBLAS
build and CPU type.  Where no OpenBLAS thread setter is found, commands
run unpinned.  Regressor configs, ``jobs``, ``method``, ``methods`` and
``eval.test_filter`` are checked when read, so a bad value of any of them
fails before any input is loaded; a kernel ridge model whose largest
training set is over its row limit fails right after loading (``synth``:
before any worker starts), and an ``eval`` test filter that empties a
year fails before any fit.  Usage, config and table errors exit 2, and so
does running out of memory (``MemoryError``: the input or config asks for
more than the host has); a fit that fails on well-formed input
(``EstimationError``, ``SingularModelError``) exits 3, also when it fails
in a worker.  ``verify`` draws and checks its joints in blocks of
``VERIFY_BLOCK`` (see ``oracle.random_joints``).
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, blas, data_model, estimators, evalharness, oracle, synthgen
from .regress import (RegressionError, RegressorConfig, SingularModelError,
                      check_kernel_ridge_rows, kernel_ridge_processes,
                      load_kernel_ridge)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_MODEL = 3  # a fit failed on well-formed input

_DENOISE_METHODS = ("3qs", "hs")
_TEST_FILTERS = ("none", "brightness-zero")


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config handling


def read_config(path):
    """Parse a flat ``key = value`` config file ('#' starts a comment)."""
    cfg = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                cfg[key.strip()] = value.strip()
    except OSError as e:
        raise UsageError(f"cannot read config {path}: {e}") from e
    return cfg


def config_hash(cfg):
    # paths and worker counts do not influence results, so identical
    # runs into different directories (or with different --jobs) hash
    # and serialize identically
    canon = json.dumps(
        {k: v for k, v in cfg.items() if k not in ("out", "input", "jobs")},
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _coerce(value):
    for conv in (int, float):
        try:
            return conv(value)
        except ValueError:
            pass
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    return value


KNOWN_PREFIXES = ("schema.", "regressor.x.", "regressor.res.", "regressor.smooth.",
                  "regressor.synth.")
KNOWN_KEYS = {
    "input", "out", "seed", "jobs", "method", "methods", "trials", "joints",
    "synth.species_grid", "synth.sigma_grid", "synth.n_obs",
    "eval.brightness_column", "eval.test_filter", "eval.threshold", "eval.n_aux",
    "simulate.years", "simulate.days_per_year", "simulate.n_species",
    "simulate.beta", "simulate.idio_sigma",
}


def validate_keys(cfg):
    for key in cfg:
        if key in KNOWN_KEYS:
            continue
        if any(key.startswith(p) for p in KNOWN_PREFIXES):
            continue
        raise UsageError(f"unknown config key {key!r}")


def regressor_from_config(cfg, prefix, default_kind):
    kind = cfg.get(f"regressor.{prefix}.kind", default_kind)
    hyper = {}
    pre = f"regressor.{prefix}."
    for key, value in cfg.items():
        if key.startswith(pre) and key != pre + "kind":
            hyper[key[len(pre):]] = _coerce(value)
    seed = int(cfg.get("seed", 0))
    config = RegressorConfig(kind=kind, hyperparameters=hyper, seed=seed)
    config.resolved()  # an unknown or ill-typed key fails here, before any fit
    return config


def _check_one_covariate(table, models):
    """Refuse a spline model (``(prefix, config)`` pairs) on several
    covariates, and any of these covariate models on a table without one."""
    k = table.covariates.shape[1]
    for prefix, config in models:
        if config.kind == "spline_gam" and k != 1:
            raise UsageError(
                f"regressor.{prefix}.kind = spline_gam needs exactly 1 covariate, "
                f"but the table has {k} ({', '.join(table.covariate_names)})")
        if k == 0:
            raise UsageError(f"regressor.{prefix}.kind = {config.kind} needs a "
                             "covariate, but the table has none")


def _check_residual_width(config, widths):
    """Refuse a spline residual model that a fit would give several features.

    ``widths`` maps each use of the residual model to its feature count.
    """
    wide = {use: k for use, k in widths.items() if k > 1}
    if config.kind == "spline_gam" and wide:
        uses = ", ".join(f"{k} for {use}" for use, k in wide.items())
        raise UsageError(
            f"regressor.res.kind = spline_gam needs exactly 1 feature, but the "
            f"residual model would get {uses}")


def _check_kernel_rows(rows, models):
    """Refuse a kernel ridge model (``(prefix, config)`` pairs) over its row limit.

    ``rows`` is the largest training set the command will fit.
    """
    for prefix, config in models:
        if config.kind == "kernel_ridge":
            try:
                check_kernel_ridge_rows(rows)
            except RegressionError as e:
                raise UsageError(f"regressor.{prefix}.kind = {e}") from e


def _parse_jobs(value):
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise UsageError(f"jobs must be an integer >= 1 (got {value!r})")
    return jobs


def _processes(cfg, tasks, rows, models):
    """How many processes run ``tasks`` independent tasks.

    ``jobs`` (default: the usable CPUs), at most one per task, and no more
    than keep the kernel ridge fits of all processes on ``rows`` rows (the
    largest training set) within the byte budget together.  Kernel ridge
    on more than one process loads its routines here, before the pool forks.
    """
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    jobs = max(1, min(_parse_jobs(cfg.get("jobs", usable)), tasks))
    if any(config.kind == "kernel_ridge" for _, config in models):
        cap = kernel_ridge_processes(rows)
        if jobs > cap:
            print(f"note: running {cap} processes, not {jobs}: kernel ridge fits on "
                  f"{rows} rows in {jobs} processes would exceed the byte budget",
                  file=sys.stderr)
            jobs = cap
        if jobs > 1:
            load_kernel_ridge()
    return jobs


def schema_from_config(cfg):
    schema = {
        key[len("schema."):]: value
        for key, value in cfg.items()
        if key.startswith("schema.")
    }
    if not schema:
        raise UsageError("no schema.* entries in config")
    return schema


def _grid(cfg, key, default):
    if key not in cfg:
        return list(default)
    return [_coerce(v.strip()) for v in cfg[key].split(",") if v.strip()]


# ---------------------------------------------------------------------------
# file formats


def _meta(cfg, seed):
    return {"version": __version__, "seed": seed, "config_hash": config_hash(cfg)}


def preamble(cfg, seed):
    """The ``_meta`` facts as CSV preamble lines, the version as 'tqsreg_version'."""
    return [f"{'tqsreg_version' if k == 'version' else k}={v}"
            for k, v in _meta(cfg, seed).items()]


def atomic(path, write_fn):
    """Write via ``write_fn(tmp_path)`` and rename into place on success."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        write_fn(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, doc):
    def write(p):
        with open(p, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    atomic(path, write)


def _write_csv(path, header, rows, pre=()):
    """'# ' preamble lines, the header, then rows of formatted cells."""
    def write(p):
        with open(p, "w", encoding="utf-8", newline="") as fh:
            for line in pre:
                fh.write(f"# {line}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)

    atomic(path, write)


def _floats(matrix):
    return ([repr(float(v)) for v in row] for row in matrix)


def _load_input(cfg, command):
    if "input" not in cfg:
        raise UsageError(f"{command} requires --input or config key 'input'")
    if any(k.startswith("schema.") for k in cfg):
        schema = schema_from_config(cfg)
    else:
        # no schema supplied: assume a table written by this tool
        schema = _default_schema(cfg["input"])
    return data_model.load_table(cfg["input"], schema)


def _default_schema(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh), [])
    schema = {}
    for col in header:
        if col in ("day_of_year",):
            schema[col] = "covariate"
        elif col in ("year", "group"):
            schema[col] = "group"
        elif col.startswith("species"):
            schema[col] = "count"
        else:
            schema[col] = "diagnostic"
    guessed = [c for c, role in schema.items() if role == "diagnostic"]
    if guessed:
        # a mistyped species column would otherwise drop out of denoising unseen
        print(f"note: no schema.* keys; reading {guessed} as diagnostic columns",
              file=sys.stderr)
    return schema


def _out_dir(args):
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def merged_config(args, extra=()):
    cfg = read_config(args.config) if args.config else {}
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if args.jobs is not None:
        cfg["jobs"] = str(args.jobs)
    if args.out:
        cfg["out"] = args.out
    for key, value in extra:
        if value is not None:
            cfg[key] = str(value)
    validate_keys(cfg)
    if "jobs" in cfg:
        _parse_jobs(cfg["jobs"])
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args):
    cfg = merged_config(args, [
        ("simulate.years", args.years),
        ("simulate.days_per_year", args.days_per_year),
        ("simulate.n_species", args.n_species),
    ])
    sim = evalharness.simulate_moth_survey(
        years=int(cfg.get("simulate.years", 5)),
        days_per_year=int(cfg.get("simulate.days_per_year", 180)),
        n_species=int(cfg.get("simulate.n_species", 10)),
        seed=int(cfg.get("seed", 0)),
        beta=float(cfg.get("simulate.beta", 1.0)),
        idio_sigma=float(cfg.get("simulate.idio_sigma", 0.1)),
    )
    out = _out_dir(args)
    atomic(os.path.join(out, "survey.csv"),
           lambda p: data_model.save_table(sim.table, p))
    _write_csv(os.path.join(out, "truth.csv"), sim.table.species_names,
               _floats(sim.true_log_abundance))
    print(f"wrote {out}/survey.csv ({sim.table.n_rows} rows, "
          f"{sim.table.n_species} species)")
    return EXIT_OK


def cmd_denoise(args):
    cfg = merged_config(args, [("input", args.input), ("method", args.method)])
    seed = int(cfg.get("seed", 0))
    method = cfg.get("method", "3qs")
    if method not in _DENOISE_METHODS:
        raise UsageError(f"unknown method {method!r} (expected 3qs or hs)")
    cfg_x = regressor_from_config(cfg, "x", "spline_gam")
    cfg_res = regressor_from_config(cfg, "res", "boosted_trees")
    table = _load_input(cfg, "denoise")
    if table.n_species < 2:
        raise UsageError("need >= 2 species to denoise")
    _check_residual_width(cfg_res, {"the other species": table.n_species - 1})
    _check_kernel_rows(table.n_rows,
                       [("res", cfg_res)] + ([("x", cfg_x)] if method == "3qs" else []))
    if method == "3qs":
        _check_one_covariate(table, [("x", cfg_x)])
        result = estimators.tqs_multi_species(table, cfg_x, cfg_res)
        z_hat = result.z_hat
        per_species = result.training_diagnostics(table)
    else:
        z_hat = estimators.hs_multi_species(table, cfg_res)
        per_species = [{"species": s} for s in table.species_names]
    out = _out_dir(args)
    _write_csv(os.path.join(out, "zhat.csv"), table.species_names, _floats(z_hat),
               pre=preamble(cfg, seed) + [f"method={method}"])
    _write_json(os.path.join(out, "diagnostics.json"),
                {"meta": _meta(cfg, seed), "method": method,
                 "per_species": per_species})
    if method == "3qs":
        for entry in per_species:
            print(f"{entry['species']}: covariate_mse="
                  f"{entry['covariate_model_mse']:.6g} "
                  f"residual_mse={entry['residual_model_mse']:.6g}")
    print(f"wrote {out}/zhat.csv and {out}/diagnostics.json")
    return EXIT_OK


def _sweep_cells(rows):
    for r in rows:
        stderr = "" if np.isnan(r.stderr_mse) else repr(r.stderr_mse)
        yield [repr(r.sweep_value), r.method, repr(r.mean_mse), stderr, str(r.trials)]


def cmd_synth(args):
    cfg = merged_config(args, [("trials", args.trials)])
    seed = int(cfg.get("seed", 0))
    trials = int(cfg.get("trials", 20))
    n_obs = int(cfg.get("synth.n_obs", synthgen.DEFAULT_N_OBS))
    backend = regressor_from_config(cfg, "synth", "kernel_ridge")
    _check_kernel_rows(n_obs, [("synth", backend)])
    ns = _grid(cfg, "synth.species_grid", synthgen.SPECIES_GRID)
    sigmas = _grid(cfg, "synth.sigma_grid", synthgen.SIGMA_GRID)
    jobs = _processes(cfg, max(len(ns), len(sigmas)) * trials, n_obs,
                      [("synth", backend)])
    with synthgen.worker_pool(jobs) as pool:  # one start-up for both sweeps
        species_rows = synthgen.run_species_sweep(
            ns, trials, backend, master_seed=seed, n_obs=n_obs, pool=pool)
        noise_rows = synthgen.run_noise_sweep(
            sigmas, trials, backend, master_seed=seed + 1, n_obs=n_obs, pool=pool)
    out = _out_dir(args)
    header = ("sweep_value", "method", "mean_mse", "stderr_mse", "trials")
    for name, rows in (("species_sweep.csv", species_rows),
                       ("noise_sweep.csv", noise_rows)):
        _write_csv(os.path.join(out, name), header, _sweep_cells(rows),
                   pre=preamble(cfg, seed))
    print(f"wrote {out}/species_sweep.csv and {out}/noise_sweep.csv")
    return EXIT_OK


# joints per stacked oracle call: memory stays flat in --joints, and at 25
# the peak stays near that of checking joint by joint (larger blocks gain
# little speed and hold more)
VERIFY_BLOCK = 25


def _check_block(block, first, seed, corrupt):
    """theorems.json entries of a block of consecutive joints."""
    try:
        z_hat, broken = oracle.exact_tqs(block), ()
    except oracle.FormsDisagree as e:
        z_hat, broken = e.z_hat, e.joints
    # --corrupt-for-testing: negative-control hook used by the test suite
    t1 = oracle.verify_theorem1(block, z_hat + 1.0 if corrupt else z_hat)
    t2 = oracle.verify_theorem2(block, z_hat)
    entries = []
    for k, ((a, b), r1, r2) in enumerate(zip(block.spans, t1, t2)):
        entry = {"joint": first + k, "seed": seed, "support": b - a}
        if k in broken:
            entry.update(error=oracle.FORMS_DISAGREE, satisfied=False)
        else:
            entry.update(theorem1=dict(vars(r1)), theorem2=dict(vars(r2)),
                         satisfied=r1.satisfied and r2.satisfied)
        entries.append(entry)
    return entries


def cmd_verify(args):
    cfg = merged_config(args, [("joints", args.joints)])
    seed = int(cfg.get("seed", 0))
    n_joints = int(cfg.get("joints", 100))
    if n_joints < 1:
        raise UsageError(f"verify needs at least 1 joint (got {n_joints})")
    rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFF))
    reports = []
    for first in range(0, n_joints, VERIFY_BLOCK):
        block = oracle.random_joints(rng, min(VERIFY_BLOCK, n_joints - first),
                                     additive=True, zero_mean_f=True)
        reports += _check_block(block, first, seed, args.corrupt_for_testing)
    failures = [entry["joint"] for entry in reports if not entry["satisfied"]]
    out = _out_dir(args)
    _write_json(os.path.join(out, "theorems.json"),
                {"meta": {**_meta(cfg, seed), "joints": n_joints},
                 "failures": failures, "reports": reports})
    if failures:
        print(f"FAIL: {len(failures)}/{n_joints} joints failed: {failures}")
        return EXIT_VERIFY_FAIL
    print(f"ok: {n_joints}/{n_joints} joints satisfied")
    return EXIT_OK


def cmd_eval(args):
    cfg = merged_config(args, [
        ("input", args.input),
        ("methods", args.methods),
        ("eval.test_filter", args.test_filter),
    ])
    seed = int(cfg.get("seed", 0))
    methods = [m.strip() for m in cfg.get("methods", ",".join(evalharness.METHODS)).split(",")
               if m.strip()]
    unknown = set(methods) - set(evalharness.METHODS)
    if unknown:
        raise UsageError(f"unknown methods: {sorted(unknown)}")
    filter_kind = cfg.get("eval.test_filter", "none")
    if filter_kind not in _TEST_FILTERS:
        raise UsageError(f"unknown test filter {filter_kind!r}")
    cfg_x = regressor_from_config(cfg, "x", "spline_gam")
    cfg_res = regressor_from_config(cfg, "res", "boosted_trees")
    smooth_cfg = regressor_from_config(cfg, "smooth", "spline_gam")
    table = _load_input(cfg, "eval")
    models = [("smooth", smooth_cfg)]  # the smoother scores every cell
    if "3qs" in methods or table.diagnostics:
        models.append(("x", cfg_x))
    _check_one_covariate(table, models)
    n_aux = cfg.get("eval.n_aux")
    n_aux = int(n_aux) if n_aux is not None else None
    if n_aux is not None and n_aux < 1:
        raise UsageError(f"eval.n_aux must be >= 1 (got {n_aux})")
    others = table.n_species - 1
    aux = others if n_aux is None else min(n_aux, others)
    widths = {}
    if "3qs" in methods or "hs" in methods:
        widths["the auxiliary species"] = aux
    if "mb" in methods:
        widths["mb (covariate and brightness)"] = 2
    if table.diagnostics:
        widths["the diagnostics"] = aux
    _check_residual_width(cfg_res, widths)
    if {"hs", "3qs", "mb"} & set(methods) or table.diagnostics:
        models.append(("res", cfg_res))
    # the diagnostics fit on the whole table, the folds on all but one group
    groups = collections.Counter(table.group_labels).values()
    rows = table.n_rows if table.diagnostics else table.n_rows - min(groups, default=0)
    _check_kernel_rows(rows, models)
    # one task per fold and per training year, and the 3QS and HS halves of
    # the diagnostics
    jobs = _processes(cfg, 2 * len(groups) + 2 * bool(table.diagnostics), rows, models)
    brightness_column = cfg.get("eval.brightness_column")
    test_filter = None
    if filter_kind == "brightness-zero":
        column = evalharness.resolve_brightness_column(table, brightness_column)
        thr = cfg.get("eval.threshold")
        thr = float(thr) if thr is not None else None
        test_filter = lambda t: evalharness.brightness_zero_subset(t, column, thr)
    report = evalharness.loyo_evaluate(
        table, methods, cfg_x, cfg_res, smooth_cfg,
        test_filter=test_filter,
        brightness_column=brightness_column,
        n_aux=n_aux,
        with_diagnostics=bool(table.diagnostics),
        jobs=jobs,
    )
    out = _out_dir(args)
    _write_json(os.path.join(out, "eval_report.json"), {
        "meta": _meta(cfg, seed),
        "baseline": report.baseline,
        "improvements": report.improvements,
        "diagnostics": report.diagnostics,
        "cells": [dataclasses.asdict(c) for c in report.cells],
    })
    _write_csv(os.path.join(out, "eval_cells.csv"),
               ("species", "train_group", "test_group", "method", "mse"),
               ([c.species, c.train_group, c.test_group, c.method, repr(c.mse)]
                for c in report.cells),
               pre=preamble(cfg, seed))
    print("mean percent improvement vs raw baseline:")
    for method in methods:
        print(f"  {method:>8s}: {report.improvements[method]:+8.2f}%")
    print(f"wrote {out}/eval_report.json and {out}/eval_cells.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tqsreg",
        description="Systematic measurement-error removal via "
                    "three-quarter-sibling regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat dotted-key config file")
        p.add_argument("--seed", type=int, default=None,
                       help="master random seed (default 0)")
        p.add_argument("--out", help="output directory (default '.')")
        p.add_argument("--jobs", type=int, default=None,
                       help="processes for independent tasks of synth and eval "
                            "(default: the usable CPUs)")

    p = sub.add_parser("denoise", help="denoise a counts CSV")
    common(p)
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--method", choices=_DENOISE_METHODS, default=None,
                   help="denoising method (default 3qs)")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("synth", help="run the synthetic MSE sweeps")
    common(p)
    p.add_argument("--trials", type=int, default=None,
                   help="instances per grid point (default 20)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="exact-enumeration theorem checks")
    common(p)
    p.add_argument("--joints", type=int, default=None,
                   help="number of random joints (default 100)")
    p.add_argument("--corrupt-for-testing", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("eval", help="leave-one-year-out evaluation")
    common(p)
    p.add_argument("--input", help="input CSV path")
    p.add_argument("--methods", default=None,
                   help="comma-separated subset of raw,hs,3qs,mb,global")
    p.add_argument("--test-filter", choices=_TEST_FILTERS,
                   default=None, help="test-subset rule (default none)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate", help="write a simulated survey CSV")
    common(p)
    p.add_argument("--years", type=int, default=None,
                   help="survey years (default 5)")
    p.add_argument("--days-per-year", dest="days_per_year", type=int, default=None,
                   help="nights per year (default 180)")
    p.add_argument("--n-species", dest="n_species", type=int, default=None,
                   help="number of species (default 10)")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with blas.num_threads(1):
            return args.func(args)
    except (estimators.EstimationError, SingularModelError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except (ValueError, RuntimeError, OSError) as e:  # UsageError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as e:  # the input or config asks for more than this host has
        print(f"error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
