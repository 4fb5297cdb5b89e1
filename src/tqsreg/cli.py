"""Command-line entry point.

Subcommands: denoise, synth, verify, eval, simulate.  Every run is
fully described by a flat dotted-key config file plus command-line
flags.  ``KEYS`` is the one place where a plain key is declared: how its
value is read, its default, and the flag that beats it; every key,
``out`` and ``jobs`` included, is honoured.  This module owns every
output format: result CSVs carry a '#' metadata preamble and JSON files
a ``meta`` record, both with the tool version, seed and config hash so
runs can be reproduced exactly; the simulated ``survey.csv`` is written
by ``data_model.save_table``, the pair of ``load_table``.  Outputs are
written to a temporary file and renamed on success.

``synth``, ``eval`` and ``denoise`` run their independent tasks (sweep
trials; LOYO folds, then the diagnostics halves; the covariate stage, then
the residual stage's species) on ``jobs`` processes: the command's own at
1, otherwise the workers of the one ``synthgen.worker_pool`` it opens, so
no model is fit in the command's process.  ``jobs`` is capped at the
larger task list's count, and at
the count whose largest fits (``regress.fit_bytes``, of any backend) stay
within ``regress.FIT_BYTES`` together (with a note on stderr).  A
kernel ridge model on several processes has its compiled routines loaded
(``regress.load_kernel_ridge``) before the workers fork, so each worker
inherits them.  ``main`` runs every command at one BLAS thread
(``blas.num_threads``) and restores the caller's count on exit; forked
workers inherit the pin.  So identical configs and seeds give
byte-identical files across reruns, across ``jobs`` values and across
hosts with the same numpy/OpenBLAS build and CPU type.  Where no
OpenBLAS thread setter is found, commands run unpinned.

Every setting is checked when read, and a value that does not parse
names its key.  A command reads its settings and regressor configs
before it loads any input, and ``synth`` checks its sweeps
(``synthgen.check_sweep``) before any worker starts.  Right after loading
(``synth``: its sweeps), a command refuses a table too small to denoise
or to leave a year out, then checks every fit it will make in one pass
by ``fit``'s own rule (``regress.check_fit``); ``eval`` also refuses,
before any fit, a constant column that its diagnostics divide by and a
test filter that empties a year.  Usage,
config and table errors exit 2, and so does running out of memory
(``MemoryError``: the input or config asks for more than the host has);
a fit that fails on well-formed input (``EstimationError``,
``SingularModelError``) exits 3, also when it fails in a worker.  ``verify`` draws and checks its joints in blocks of ``VERIFY_BLOCK``
(see ``oracle.random_joints``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import typing

import numpy as np

from . import (__version__, blas, data_model, estimators, evalharness, oracle, regress,
               synthgen)
from .regress import RegressionError, RegressorConfig, SingularModelError, fit_bytes

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_MODEL = 3  # a fit failed on well-formed input


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


def _usable_cpus():
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _count(text):
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _finite(text):
    if not np.isfinite(float(text)):
        raise ValueError(text)
    return float(text)


def _numbers(text):
    return [float(v) for v in text.split(",") if v.strip()]


def _methods(text):
    methods = [m.strip() for m in text.split(",") if m.strip()]
    unknown = set(methods) - set(evalharness.METHODS)
    if unknown:
        raise UsageError(f"unknown methods: {sorted(unknown)}")
    if not methods:
        raise UsageError("methods names no method (expected a comma-separated "
                         f"subset of {','.join(evalharness.METHODS)})")
    for m in methods:
        if methods.count(m) > 1:  # more likely a typo than meant
            raise UsageError(f"methods names {m!r} twice")
    return methods


# what a value that its reader refuses with a ValueError should have been
_EXPECTED = {int: "an integer", _count: "an integer >= 1", float: "a number",
             _finite: "a finite number", _numbers: "comma-separated numbers"}


class Key(typing.NamedTuple):
    """A plain config key: how its text is read, its default, and its flag.

    A ``ValueError`` from ``read`` names the key; a value outside
    ``choices`` fails with ``unknown``.  ``flag`` beats the key in
    ``commands``; ``{}`` in its ``help`` shows the default.
    """
    read: typing.Callable = str
    default: object = None  # called, if callable
    flag: str = None
    commands: tuple = ("denoise", "synth", "verify", "eval", "simulate")
    help: str = None
    choices: tuple = ()
    unknown: str = None


# every plain key, in the order of its flag in a command's --help
KEYS = {
    "seed": Key(int, 0, "--seed", help="master random seed (default {})"),
    "out": Key(lambda text: text or ".", ".", "--out",  # '' is the current directory too
               help="output directory (default '{}')"),
    "jobs": Key(_count, _usable_cpus, "--jobs", help="processes for independent tasks of "
                "synth, eval and denoise (default: the usable CPUs)"),
    "input": Key(str, None, "--input", ("denoise", "eval"), "input CSV path"),
    "method": Key(str, "3qs", "--method", ("denoise",), "denoising method (default {})",
                  ("3qs", "hs"), "unknown method {!r} (expected 3qs or hs)"),
    "methods": Key(_methods, evalharness.METHODS, "--methods", ("eval",),
                   "comma-separated subset of raw,hs,3qs,mb,global"),
    "eval.test_filter": Key(str, "none", "--test-filter", ("eval",),
                            "test-subset rule (default {})",
                            ("none", "brightness-zero"), "unknown test filter {!r}"),
    "trials": Key(int, 20, "--trials", ("synth",),
                  "instances per grid point (default {})"),
    "joints": Key(int, 100, "--joints", ("verify",),
                  "number of random joints (default {})"),
    "simulate.years": Key(int, 5, "--years", ("simulate",), "survey years (default {})"),
    "simulate.days_per_year": Key(int, 180, "--days-per-year", ("simulate",),
                                  "nights per year (default {})"),
    "simulate.n_species": Key(int, 10, "--n-species", ("simulate",),
                              "number of species (default {})"),
    "simulate.beta": Key(float, 1.0),
    "simulate.idio_sigma": Key(float, 0.1),
    "synth.species_grid": Key(_numbers, synthgen.SPECIES_GRID),
    "synth.sigma_grid": Key(_numbers, synthgen.SIGMA_GRID),
    "synth.n_obs": Key(int, synthgen.DEFAULT_N_OBS),
    "eval.brightness_column": Key(),
    "eval.threshold": Key(_finite),  # may be negative: a diagnostic may be signed
    "eval.n_aux": Key(int),
}

# each regressor use and its default kind; regressor.<use>.* keys set it up
REGRESSOR_USES = {"x": "spline_gam", "res": "boosted_trees", "smooth": "spline_gam",
                  "synth": "kernel_ridge"}
KNOWN_PREFIXES = ("schema.", *(f"regressor.{use}." for use in REGRESSOR_USES))


def setting(cfg, key):
    """The value of plain key ``key`` in ``cfg``, read and checked, or its default."""
    spec = KEYS[key]
    if key not in cfg:
        return spec.default() if callable(spec.default) else spec.default
    text = cfg[key]
    try:
        value = spec.read(text)
    except UsageError:
        raise
    except ValueError:
        raise UsageError(f"{key} must be {_EXPECTED[spec.read]} (got {text!r})") from None
    if spec.choices and value not in spec.choices:
        raise UsageError(spec.unknown.format(value))
    return value


def validate_keys(cfg):
    for key in cfg:
        if key not in KEYS and not key.startswith(KNOWN_PREFIXES):
            raise UsageError(f"unknown config key {key!r}")


def regressor_from_config(cfg, use):
    pre = f"regressor.{use}."
    hyper = {key[len(pre):]: _coerce(value) for key, value in cfg.items()
             if key.startswith(pre) and key != pre + "kind"}
    config = RegressorConfig(kind=cfg.get(pre + "kind", REGRESSOR_USES[use]),
                             hyperparameters=hyper, seed=setting(cfg, "seed"))
    try:
        config.resolved()  # an unknown or ill-typed key fails here, before any fit
    except RegressionError as e:
        raise UsageError(f"regressor.{use}: {e}") from e
    return config


def _on_covariates(table):
    """What a covariate model or smoother is fit on, for its refusal to name."""
    return f"on the table's covariates ({', '.join(table.covariate_names) or 'none'})"


def _check_fits(fits):
    """Refuse the first of a command's fits, each ``(prefix, config, rows,
    features, use)``, that ``regress.check_fit`` refuses; ``rows`` is the
    largest training set of model ``regressor.<prefix>``, fit for ``use``."""
    for prefix, config, rows, features, use in fits:
        try:
            regress.check_fit(config, rows, features)
        except RegressionError as e:
            raise UsageError(f"regressor.{prefix}.kind = {e} for {use}") from e


def _processes(cfg, tasks, fits):
    """How many processes run ``tasks`` independent tasks.

    ``jobs`` (default: the usable CPUs), at most one per task (``tasks``
    is the longest task list the command runs on its pool), and no more
    than keep the largest of ``fits`` (as in ``_check_fits``) in every
    process within the byte budget together.  Kernel ridge on more than
    one process loads its routines here, before the pool forks.
    """
    jobs = max(1, min(setting(cfg, "jobs"), tasks))
    _, config, rows, features, _ = max(fits, key=lambda f: fit_bytes(*f[1:4]))
    cap = regress.FIT_BYTES // max(fit_bytes(config, rows, features), 1)
    if jobs > cap:
        print(f"note: running {cap} processes, not {jobs}: "
              f"{config.kind.replace('_', ' ')} fits on {rows} rows in {jobs} "
              "processes would exceed the byte budget", file=sys.stderr)
        jobs = cap
    if jobs > 1 and any(f[1].kind == "kernel_ridge" for f in fits):
        regress.load_kernel_ridge()
    return jobs


# ---------------------------------------------------------------------------
# file formats


def _meta(cfg):
    return {"version": __version__, "seed": setting(cfg, "seed"),
            "config_hash": config_hash(cfg)}


def preamble(cfg):
    """The ``_meta`` facts as CSV preamble lines, the version as 'tqsreg_version'."""
    return [f"{'tqsreg_version' if k == 'version' else k}={v}"
            for k, v in _meta(cfg).items()]


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
    path = setting(cfg, "input")
    if path is None:
        raise UsageError(f"{command} requires --input or config key 'input'")
    schema = {k[len("schema."):]: v for k, v in cfg.items() if k.startswith("schema.")}
    # no schema supplied: assume a table written by this tool
    return data_model.load_table(path, schema or _default_schema(path))


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


def _out_dir(cfg):
    out = setting(cfg, "out")
    os.makedirs(out, exist_ok=True)
    return out


def merged_config(args):
    """The config file's keys, each beaten by its flag where one is given."""
    cfg = read_config(args.config) if args.config else {}
    for key, spec in KEYS.items():
        # argparse keeps --days-per-year as days_per_year
        value = spec.flag and getattr(args, spec.flag[2:].replace("-", "_"), None)
        if value is not None:
            cfg[key] = str(value)
    validate_keys(cfg)
    setting(cfg, "jobs")  # every command refuses a bad jobs; synth, eval and denoise use it
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args):
    cfg = merged_config(args)
    # the simulate.* keys are simulate_moth_survey's parameters
    sim = evalharness.simulate_moth_survey(
        seed=setting(cfg, "seed"),
        **{key[len("simulate."):]: setting(cfg, key) for key in KEYS
           if key.startswith("simulate.")})
    out = _out_dir(cfg)
    atomic(os.path.join(out, "survey.csv"),
           lambda p: data_model.save_table(sim.table, p))
    _write_csv(os.path.join(out, "truth.csv"), sim.table.species_names,
               _floats(sim.true_log_abundance))
    print(f"wrote {out}/survey.csv ({sim.table.n_rows} rows, "
          f"{sim.table.n_species} species)")
    return EXIT_OK


def cmd_denoise(args):
    cfg = merged_config(args)
    method = setting(cfg, "method")
    cfg_x, cfg_res = (regressor_from_config(cfg, use) for use in ("x", "res"))
    table = _load_input(cfg, "denoise")
    estimators.check_table(table)
    fits = ([("x", cfg_x, table.n_rows, table.covariates.shape[1],
              f"the covariate model {_on_covariates(table)}")] if method == "3qs" else [])
    fits.append(("res", cfg_res, table.n_rows, table.n_species - 1, "the other species"))
    _check_fits(fits)
    jobs = _processes(cfg, table.n_species, fits)  # a task per species at most
    with synthgen.worker_pool(jobs) as pool:
        if method == "3qs":
            result = estimators.tqs_multi_species(table, cfg_x, cfg_res, pool=pool)
            z_hat = result.z_hat
            per_species = result.training_diagnostics(table)
        else:
            z_hat = estimators.hs_multi_species(table, cfg_res, pool=pool)
            per_species = [{"species": s} for s in table.species_names]
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "zhat.csv"), table.species_names, _floats(z_hat),
               pre=preamble(cfg) + [f"method={method}"])
    _write_json(os.path.join(out, "diagnostics.json"),
                {"meta": _meta(cfg), "method": method, "per_species": per_species})
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
    cfg = merged_config(args)
    seed, trials, n_obs = (setting(cfg, key) for key in ("seed", "trials", "synth.n_obs"))
    backend = regressor_from_config(cfg, "synth")
    ns, sigmas = (setting(cfg, key) for key in ("synth.species_grid", "synth.sigma_grid"))
    synthgen.check_sweep("species", ns, trials, n_obs)
    synthgen.check_sweep("noise", sigmas, trials, n_obs)
    # a trial's widest fit is its joint model, on x and the other species
    fits = [("synth", backend, n_obs, int(max(ns)),
             "the covariate and the other species")]
    _check_fits(fits)
    jobs = _processes(cfg, max(len(ns), len(sigmas)) * trials, fits)
    with synthgen.worker_pool(jobs) as pool:  # one start-up for both sweeps
        species_rows = synthgen.run_species_sweep(
            ns, trials, backend, master_seed=seed, n_obs=n_obs, pool=pool)
        noise_rows = synthgen.run_noise_sweep(
            sigmas, trials, backend, master_seed=seed + 1, n_obs=n_obs, pool=pool)
    out = _out_dir(cfg)
    header = ("sweep_value", "method", "mean_mse", "stderr_mse", "trials")
    for name, rows in (("species_sweep.csv", species_rows),
                       ("noise_sweep.csv", noise_rows)):
        _write_csv(os.path.join(out, name), header, _sweep_cells(rows),
                   pre=preamble(cfg))
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
    cfg = merged_config(args)
    seed, n_joints = setting(cfg, "seed"), setting(cfg, "joints")
    if n_joints < 1:
        raise UsageError(f"verify needs at least 1 joint (got {n_joints})")
    rng = np.random.default_rng(np.random.SeedSequence(seed & 0xFFFFFFFF))
    reports = []
    for first in range(0, n_joints, VERIFY_BLOCK):
        block = oracle.random_joints(rng, min(VERIFY_BLOCK, n_joints - first),
                                     additive=True, zero_mean_f=True)
        reports += _check_block(block, first, seed, args.corrupt_for_testing)
    failures = [entry["joint"] for entry in reports if not entry["satisfied"]]
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "theorems.json"),
                {"meta": {**_meta(cfg), "joints": n_joints},
                 "failures": failures, "reports": reports})
    if failures:
        print(f"FAIL: {len(failures)}/{n_joints} joints failed: {failures}")
        return EXIT_VERIFY_FAIL
    print(f"ok: {n_joints}/{n_joints} joints satisfied")
    return EXIT_OK


def cmd_eval(args):
    cfg = merged_config(args)
    methods = setting(cfg, "methods")
    n_aux = setting(cfg, "eval.n_aux")
    if n_aux is not None and n_aux < 1:
        raise UsageError(f"eval.n_aux must be >= 1 (got {n_aux})")
    brightness_zero = setting(cfg, "eval.test_filter") == "brightness-zero"
    threshold = setting(cfg, "eval.threshold")  # checked whether or not the filter uses it
    cfg_x, cfg_res, smooth_cfg = (regressor_from_config(cfg, use)
                                  for use in ("x", "res", "smooth"))
    table = _load_input(cfg, "eval")
    estimators.check_table(table)
    groups = evalharness.check_groups(table).values()
    # the diagnostics fit on the whole table, the folds on all but one group
    rows = table.n_rows if table.diagnostics else table.n_rows - min(groups)
    k, on = table.covariates.shape[1], _on_covariates(table)
    fits = [("smooth", smooth_cfg, rows, k, f"the smoother {on}")]  # it scores every cell
    if "3qs" in methods or table.diagnostics:
        fits.append(("x", cfg_x, rows, k, f"the covariate model {on}"))
    others = table.n_species - 1
    aux = others if n_aux is None else min(n_aux, others)
    if "3qs" in methods or "hs" in methods:
        fits.append(("res", cfg_res, rows, aux, "the auxiliary species"))
    if "mb" in methods:
        fits.append(("res", cfg_res, rows, 2, "mb (covariate and brightness)"))
    if table.diagnostics:
        fits.append(("res", cfg_res, rows, aux, "the diagnostics"))
    _check_fits(fits)
    # one task per fold and per training year; the diagnostics are two
    jobs = _processes(cfg, 2 * len(groups), fits)
    column = setting(cfg, "eval.brightness_column")
    if brightness_zero or table.diagnostics:
        column = evalharness.resolve_brightness_column(table, column)
    if table.diagnostics:
        evalharness.check_diagnostics(table, column)
    test_filter = None
    if brightness_zero:
        test_filter = lambda t: evalharness.brightness_zero_subset(t, column, threshold)
    with synthgen.worker_pool(jobs) as pool:
        report = evalharness.loyo_evaluate(
            table, methods, cfg_x, cfg_res, smooth_cfg, test_filter=test_filter,
            brightness_column=column, n_aux=n_aux, pool=pool)
        diagnostics = (evalharness.compute_diagnostics(table, cfg_x, cfg_res, column,
                                                       n_aux=n_aux, pool=pool)
                       if table.diagnostics else {})
    out = _out_dir(cfg)
    _write_json(os.path.join(out, "eval_report.json"), {
        "meta": _meta(cfg),
        "baseline": report.baseline,
        "improvements": report.improvements,
        "diagnostics": diagnostics,
        "cells": [dataclasses.asdict(c) for c in report.cells],
    })
    _write_csv(os.path.join(out, "eval_cells.csv"),
               ("species", "train_group", "test_group", "method", "mse"),
               ([c.species, c.train_group, c.test_group, c.method, repr(c.mse)]
                for c in report.cells),
               pre=preamble(cfg))
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
    for name, func, about in (
            ("denoise", cmd_denoise, "denoise a counts CSV"),
            ("synth", cmd_synth, "run the synthetic MSE sweeps"),
            ("verify", cmd_verify, "exact-enumeration theorem checks"),
            ("eval", cmd_eval, "leave-one-year-out evaluation"),
            ("simulate", cmd_simulate, "write a simulated survey CSV")):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="flat dotted-key config file")
        for spec in KEYS.values():
            if spec.flag and name in spec.commands:
                # integer flags are refused by argparse, as --trials abc always was
                p.add_argument(spec.flag, type=int if spec.read in (int, _count) else None,
                               choices=spec.choices or None,
                               help=spec.help.format(spec.default))
        if name == "verify":
            p.add_argument("--corrupt-for-testing", action="store_true",
                           help=argparse.SUPPRESS)
        p.set_defaults(func=func)
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
