"""The three benchmark workloads.

Each workload has
  prepare(seed, directory)  -> context: generates and writes its inputs;
  iteration(ctx, runner)      one timed iteration, a fixed list of operations;
  reference(runner, directory) the same operations on a small input made
                              from REF_SEED, whose outputs are pinned in
                              reference.json.
Operations go through ``runner.op(name, fn)``: ``fn`` returns a JSON-able
summary of the outputs or raises ``CheckFailed``; see run.Runner.

Functions of tqsreg are always reached through their module
(``cli.main``, ``evalharness.loyo_evaluate``) so that the tracer's
wrappers are seen.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

from tqsreg import cli, data_model, evalharness
from tqsreg.regress import RegressorConfig

REF_SEED = 0


class CheckFailed(Exception):
    """An operation ran but its output is outside what is expected."""


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _finite(values, what):
    arr = np.asarray(values, dtype=float)
    _require(arr.size > 0 and bool(np.all(np.isfinite(arr))),
             f"{what}: empty or non-finite")
    return arr


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _run_cli(argv, out, files):
    """Run one tqsreg command in-process; return the digests of its outputs."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([*argv, "--out", str(out)])
    _require(rc == cli.EXIT_OK, f"tqsreg {argv[0]} exited with {rc}")
    return {name: _digest(Path(out) / name) for name in files}


def _read_zhat(path):
    """The float matrix of a zhat.csv, skipping '#' lines and the header."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def _simulate_csv(path, years, days, species, seed):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    sim = evalharness.simulate_moth_survey(
        years=years, days_per_year=days, n_species=species, seed=seed)
    data_model.save_table(sim.table, str(path))
    return sim.table


def _survey_schema(table):
    """load_table schema of a table written by save_table.

    Spelled out here so that the benchmark does not depend on
    data_model.table_schema, which no pipeline path uses.
    """
    schema = {c: "covariate" for c in table.covariate_names}
    schema.update({c: "count" for c in table.species_names})
    schema[table.group_name] = "group"
    schema.update({c: "diagnostic" for c in table.diagnostics})
    return schema


# ---------------------------------------------------------------------------
# cli-trees: the default user path through the CLI


class CliTrees:
    name = "cli-trees"
    years, days, species = 4, 120, 6
    ref_years, ref_days, ref_species = 3, 60, 3

    def prepare(self, seed, directory):
        survey = Path(directory) / "survey.csv"
        _simulate_csv(survey, self.years, self.days, self.species, seed)
        return {"survey": survey, "dir": Path(directory), "shape":
                (self.years, self.days, self.species)}

    @staticmethod
    def _ops(runner, ctx, prefix, values):
        """denoise, denoise --method hs and eval on ctx['survey'].

        ``values`` selects what the summaries hold: full output values
        (pinned reference) or output digests (timed iterations).
        """
        survey, out = str(ctx["survey"]), ctx["dir"]
        years, days, species = ctx["shape"]

        def denoise(method):
            def run():
                dest = out / f"denoise-{method}"
                argv = ["denoise", "--input", survey]
                if method != "3qs":  # plain `tqsreg denoise` is the default 3qs
                    argv += ["--method", method]
                digests = _run_cli(argv, dest, ["zhat.csv", "diagnostics.json"])
                zhat = _read_zhat(dest / "zhat.csv")
                _require(zhat.shape == (years * days, species),
                         f"zhat shape {zhat.shape}")
                _finite(zhat, "zhat")
                return {"zhat": zhat.tolist()} if values else digests
            return run

        def evaluate():
            dest = out / "eval"
            digests = _run_cli(["eval", "--input", survey, "--test-filter",
                                "brightness-zero"],
                               dest, ["eval_report.json", "eval_cells.csv"])
            with open(dest / "eval_report.json", encoding="utf-8") as fh:
                report = json.load(fh)
            n_methods = len(evalharness.METHODS)
            expected = species * years * (years - 1) * n_methods
            _require(len(report["cells"]) == expected,
                     f"{len(report['cells'])} eval cells, expected {expected}")
            _finite(list(report["improvements"].values()), "improvements")
            _finite([c["mse"] for c in report["cells"]], "cell mse")
            if not values:
                return digests
            return {"improvements": report["improvements"],
                    "cell_mse": [c["mse"] for c in report["cells"]]}

        runner.op(f"{prefix}denoise", denoise("3qs"))
        runner.op(f"{prefix}denoise-hs", denoise("hs"))
        runner.op(f"{prefix}eval", evaluate)

    def iteration(self, ctx, runner):
        self._ops(runner, ctx, "", values=False)

    def reference(self, runner, directory):
        survey = Path(directory) / "ref-survey.csv"
        _simulate_csv(survey, self.ref_years, self.ref_days, self.ref_species, REF_SEED)
        ctx = {"survey": survey, "dir": Path(directory) / "ref",
               "shape": (self.ref_years, self.ref_days, self.ref_species)}
        self._ops(runner, ctx, "ref.", values=True)


# ---------------------------------------------------------------------------
# loyo-krr-spline: the LOYO protocol behind acceptance criteria 9 and 10


def _brightness_zero(table):
    return evalharness.brightness_zero_subset(table, "moon_brightness")


EVAL_CFGS = (RegressorConfig("spline_gam"),     # covariate models
             RegressorConfig("kernel_ridge"),   # residual models
             RegressorConfig("spline_gam"))     # per-year smoother
CRITERION_9_METHODS = ("hs", "3qs", "mb", "global")


def criterion_9_call(table):
    """One loyo_evaluate call as in acceptance criterion 9."""
    return evalharness.loyo_evaluate(
        table, list(CRITERION_9_METHODS), *EVAL_CFGS,
        test_filter=_brightness_zero, brightness_column="moon_brightness")


def _report_summary(report, methods, n_cells):
    _require(len(report.cells) == n_cells,
             f"{len(report.cells)} cells, expected {n_cells}")
    summary = {"improvements": {m: report.improvements[m] for m in methods},
               "mean_mse": {m: report.mean_mse(m) for m in methods}}
    _finite(list(summary["improvements"].values()) + list(summary["mean_mse"].values()),
            "loyo summary")
    return summary


class LoyoKrrSpline:
    name = "loyo-krr-spline"
    years, days, species = 5, 60, 10
    ref_years, ref_days, ref_species = 3, 60, 10

    def prepare(self, seed, directory):
        survey = Path(directory) / "survey.csv"
        table = _simulate_csv(survey, self.years, self.days, self.species, seed)
        return {"table": data_model.load_table(str(survey), _survey_schema(table))}

    @staticmethod
    def _ops(runner, table, prefix):
        years = len(set(table.group_labels))
        pairs = table.n_species * years * (years - 1)

        runner.op(f"{prefix}criterion-9", lambda: _report_summary(
            criterion_9_call(table), CRITERION_9_METHODS,
            pairs * len(CRITERION_9_METHODS)))
        for label, test_filter in (("full", None), ("brightness-zero", _brightness_zero)):
            for n_aux in (1, 3, 5, 9):
                runner.op(f"{prefix}criterion-10.{label}.n_aux={n_aux}",
                          lambda f=test_filter, k=n_aux: _report_summary(
                              evalharness.loyo_evaluate(table, ["3qs"], *EVAL_CFGS,
                                                        test_filter=f, n_aux=k),
                              ("3qs",), pairs))

    def iteration(self, ctx, runner):
        self._ops(runner, ctx["table"], "")

    def reference(self, runner, directory):
        sim = evalharness.simulate_moth_survey(
            years=self.ref_years, days_per_year=self.ref_days,
            n_species=self.ref_species, seed=REF_SEED)
        self._ops(runner, sim.table, "ref.")


# ---------------------------------------------------------------------------
# theory-sweeps: exact theorem checks and the synthetic MSE sweeps


def sweep_jobs():
    """``--jobs`` for synth: the usable CPU count, capped at 8 for memory."""
    return max(1, min(8, len(os.sched_getaffinity(0))))


def verify_summary(out, joints, values):
    """Summary of a theorems.json; fails unless every joint satisfied."""
    with open(Path(out) / "theorems.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    _require(doc["failures"] == [], f"verify failures: {doc['failures']}")
    _require(len(doc["reports"]) == joints, "verify report count")
    if not values:
        return None
    return {"failures": doc["failures"],
            "theorem1": [[r["theorem1"]["lhs"], r["theorem1"]["rhs"]]
                         for r in doc["reports"]],
            "theorem2": [[r["theorem2"]["lhs"], r["theorem2"]["rhs"]]
                         for r in doc["reports"]]}


def _sweep_summary(out, trials):
    """mean_mse per sweep file, in row order (grid value, then method)."""
    summary = {}
    for name in ("species_sweep.csv", "noise_sweep.csv"):
        with open(Path(out) / name, encoding="utf-8") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        _require(len(rows) == 10, f"{name}: {len(rows)} rows, expected 10")
        _require(all(int(r["trials"]) == trials for r in rows), f"{name}: trials column")
        summary[name] = _finite([float(r["mean_mse"]) for r in rows], name).tolist()
    return summary


class TheorySweeps:
    name = "theory-sweeps"
    joints, trials = 600, 1
    ref_joints, ref_trials = 20, 1

    @staticmethod
    def _write_config(path, seed, joints, trials):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(f"seed = {seed}\njoints = {joints}\ntrials = {trials}\n",
                              encoding="utf-8")

    def prepare(self, seed, directory):
        cfg = Path(directory) / "theory.cfg"
        self._write_config(cfg, seed, self.joints, self.trials)
        return {"cfg": str(cfg), "dir": Path(directory), "joints": self.joints,
                "trials": self.trials}

    @staticmethod
    def _verify(runner, ctx, name, values):
        def run():
            out = ctx["dir"] / name
            digests = _run_cli(["verify", "--config", ctx["cfg"]], out, ["theorems.json"])
            summary = verify_summary(out, ctx["joints"], values)
            return summary if values else digests
        runner.op(name, run)

    @staticmethod
    def _synth(runner, ctx, name, jobs, values=False):
        def run():
            out = ctx["dir"] / name
            digests = _run_cli(["synth", "--config", ctx["cfg"], "--jobs", str(jobs)],
                               out, ["species_sweep.csv", "noise_sweep.csv"])
            summary = _sweep_summary(out, ctx["trials"])
            return summary if values else digests
        runner.op(name, run)

    def iteration(self, ctx, runner):
        self._verify(runner, ctx, "verify", values=False)
        self._synth(runner, ctx, "synth", sweep_jobs())

    def serial_pass(self, ctx, runner):
        """synth --jobs 1 in-process: per-fit spans and the serial baseline.

        Its outputs must equal those of the parallel run, byte for byte.
        """
        self._synth(runner, ctx, "synth", 1)

    def reference(self, runner, directory):
        cfg = Path(directory) / "ref-theory.cfg"
        self._write_config(cfg, REF_SEED, self.ref_joints, self.ref_trials)
        ctx = {"cfg": str(cfg), "dir": Path(directory) / "ref",
               "joints": self.ref_joints, "trials": self.ref_trials}
        self._verify(runner, ctx, "ref.verify", values=True)
        self._synth(runner, ctx, "ref.synth", sweep_jobs(), values=True)


def criterion_9_selftest(runner):
    """Criterion 9 on the default simulation: 700 spline and 300 kernel-ridge fits."""
    table = evalharness.simulate_moth_survey(seed=REF_SEED).table
    years = len(set(table.group_labels))
    cells = table.n_species * years * (years - 1) * len(CRITERION_9_METHODS)
    runner.op("selftest.criterion-9", lambda: _report_summary(
        criterion_9_call(table), CRITERION_9_METHODS, cells))


WORKLOADS = {w.name: w for w in (CliTrees(), LoyoKrrSpline(), TheorySweeps())}


def negative_control(directory):
    """Run ``verify --corrupt-for-testing``; True when it is classified failed."""
    out = Path(directory) / "negative-control"
    try:
        _run_cli(["verify", "--joints", "5", "--seed", str(REF_SEED),
                  "--corrupt-for-testing"], out, ["theorems.json"])
        verify_summary(out, 5, values=False)
    except CheckFailed:
        return True
    return False
