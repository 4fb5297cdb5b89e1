"""Per-layer metrics computed from the spans of one traced run.

Span phases: ``setup`` (writing and loading the inputs), ``iteration``
(the traced workload iteration), ``serial`` (theory-sweeps only: the
``synth --jobs 1`` pass) and ``selftest``.

* regress, estimators, evalharness and oracle metrics cover ``iteration``
  plus ``serial``: with ``--jobs`` > 1 the fits run in worker processes
  whose spans are lost, so the serial pass is where they are seen.
* data_model metrics cover ``setup`` plus ``iteration``.
* cli metrics and ``synthgen.sweep_s`` / ``trials`` / ``cpu_per_wall``
  cover ``iteration`` only; ``synthgen.serial_sweep_s`` covers ``serial``.

A span's self time is its duration minus the durations of its direct
children (all spans are recorded on one thread, so children never
overlap).  Times are seconds unless the name says ``_ms``.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import SPAN_ATTRS, SPAN_ID, SPAN_NAME, SPAN_PARENT, SPAN_PHASE, SPAN_T0, SPAN_T1

KINDS = ("boosted_trees", "kernel_ridge", "spline_gam")
STAGE_SPANS = ("estimators.tqs_multi_species", "evalharness.denoise_3qs")
SWEEP_SPANS = ("synthgen.run_species_sweep", "synthgen.run_noise_sweep")

# (name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    *[(f"regress.{kind}.{stat}", unit, better)
      for kind in KINDS
      for stat, unit, better in (
          ("fit_calls", "count", "lower"), ("fit_s", "s", "lower"),
          ("fit_ms.p50", "ms", "lower"), ("fit_ms.p90", "ms", "lower"),
          ("fit_rows", "rows", "lower"), ("predict_calls", "count", "lower"),
          ("predict_s", "s", "lower"))],
    ("regress.kernel_ridge.kernel_mb", "MiB", "lower"),
    ("regress.fit.calls", "count", "lower"),
    ("regress.fit.unique_ratio", "ratio", "higher"),
    ("estimators.tqs_multi_species_s", "s", "lower"),
    ("estimators.covariate_stage_s", "s", "lower"),
    ("estimators.residual_stage_s", "s", "lower"),
    ("estimators.hs_estimate_calls", "count", "lower"),
    ("estimators.hs_estimate_s", "s", "lower"),
    ("estimators.tqs_eq2_calls", "count", "lower"),
    ("estimators.tqs_eq2_s", "s", "lower"),
    ("evalharness.loyo_evaluate_calls", "count", "lower"),
    ("evalharness.loyo_evaluate_s", "s", "lower"),
    ("evalharness.folds", "count", "higher"),
    ("evalharness.denoise_3qs_s", "s", "lower"),
    ("evalharness.denoise_hs_s", "s", "lower"),
    ("evalharness.smoother_s", "s", "lower"),
    ("evalharness.diagnostics_s", "s", "lower"),
    ("evalharness.cells", "count", "higher"),
    ("data_model.load_table_s", "s", "lower"),
    ("data_model.load_table_bytes", "bytes", "lower"),
    ("data_model.save_table_s", "s", "lower"),
    ("data_model.split_by_group_s", "s", "lower"),
    ("cli.denoise_s", "s", "lower"),
    ("cli.eval_s", "s", "lower"),
    ("cli.verify_s", "s", "lower"),
    ("cli.synth_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("oracle.joints", "count", "higher"),
    ("oracle.support_total", "count", "higher"),
    ("oracle.exact_tqs_s", "s", "lower"),
    ("oracle.verify_theorem1_s", "s", "lower"),
    ("oracle.verify_theorem2_s", "s", "lower"),
    ("synthgen.trials", "count", "higher"),
    ("synthgen.sweep_s", "s", "lower"),
    ("synthgen.cpu_per_wall", "ratio", "higher"),
    ("synthgen.serial_sweep_s", "s", "lower"),
    ("synthgen.parallel_speedup", "ratio", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
]


def _dur(span):
    return span[SPAN_T1] - span[SPAN_T0]


def _named(spans, name):
    return [s for s in spans if s[SPAN_NAME] == name]


def _total(spans, name):
    return float(sum(_dur(s) for s in _named(spans, name)))


def _attr_sum(spans, name, key):
    return sum((s[SPAN_ATTRS] or {}).get(key, 0) for s in _named(spans, name))


def layer_metrics(spans):
    """Every per-layer metric except the trace.* and fail_ratio entries."""
    by_id = {s[SPAN_ID]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[SPAN_PARENT] >= 0:
            child_time[s[SPAN_PARENT]] += _dur(s)

    def phase(*names):
        return [s for s in spans if s[SPAN_PHASE] in names]

    work = phase("iteration", "serial")
    iteration = phase("iteration")
    out = {}

    # regress: the backends
    fits = [s for s in _named(work, "regress.fit") if "kind" in (s[SPAN_ATTRS] or {})]
    predicts = [s for s in _named(work, "regress.predict")
                if "kind" in (s[SPAN_ATTRS] or {})]
    for kind in KINDS:
        kf = [s for s in fits if s[SPAN_ATTRS]["kind"] == kind]
        kp = [s for s in predicts if s[SPAN_ATTRS]["kind"] == kind]
        ms = np.array([1000.0 * _dur(s) for s in kf])
        out[f"regress.{kind}.fit_calls"] = len(kf)
        out[f"regress.{kind}.fit_s"] = float(ms.sum() / 1000.0)
        out[f"regress.{kind}.fit_ms.p50"] = float(np.percentile(ms, 50)) if kf else 0.0
        out[f"regress.{kind}.fit_ms.p90"] = float(np.percentile(ms, 90)) if kf else 0.0
        out[f"regress.{kind}.fit_rows"] = sum(s[SPAN_ATTRS]["rows"] for s in kf)
        out[f"regress.{kind}.predict_calls"] = len(kp)
        out[f"regress.{kind}.predict_s"] = float(sum(_dur(s) for s in kp))
    krr_rows = [s[SPAN_ATTRS]["rows"] for s in fits
                if s[SPAN_ATTRS]["kind"] == "kernel_ridge"]
    # the m x m float64 kernel matrix of the largest kernel-ridge fit
    out["regress.kernel_ridge.kernel_mb"] = 8.0 * max(krr_rows, default=0) ** 2 / 2**20
    out["regress.fit.calls"] = len(fits)
    out["regress.fit.unique_ratio"] = (
        len({s[SPAN_ATTRS]["key"] for s in fits}) / len(fits) if fits else 0.0)

    # estimators: the covariate / residual stage split, by backend kind
    stage = {"covariate": 0.0, "residual": 0.0}
    for s in fits + predicts:
        anc = by_id.get(s[SPAN_PARENT])
        while anc is not None and anc[SPAN_NAME] not in STAGE_SPANS:
            anc = by_id.get(anc[SPAN_PARENT])
        attrs = (anc[SPAN_ATTRS] or {}) if anc is not None else {}
        if "kind_x" not in attrs or attrs["kind_x"] == attrs["kind_res"]:
            continue
        if s[SPAN_ATTRS]["kind"] == attrs["kind_x"]:
            stage["covariate"] += _dur(s)
        elif s[SPAN_ATTRS]["kind"] == attrs["kind_res"]:
            stage["residual"] += _dur(s)
    out["estimators.tqs_multi_species_s"] = _total(work, "estimators.tqs_multi_species")
    out["estimators.covariate_stage_s"] = stage["covariate"]
    out["estimators.residual_stage_s"] = stage["residual"]
    for fn in ("hs_estimate", "tqs_eq2"):
        out[f"estimators.{fn}_calls"] = len(_named(work, f"estimators.{fn}"))
        out[f"estimators.{fn}_s"] = _total(work, f"estimators.{fn}")

    # evalharness: the LOYO protocol
    loyo_ids = {s[SPAN_ID] for s in _named(work, "evalharness.loyo_evaluate")}
    out["evalharness.loyo_evaluate_calls"] = len(loyo_ids)
    out["evalharness.loyo_evaluate_s"] = _total(work, "evalharness.loyo_evaluate")
    out["evalharness.folds"] = sum(
        1 for s in _named(work, "data_model.split_by_group") if s[SPAN_PARENT] in loyo_ids)
    out["evalharness.denoise_3qs_s"] = _total(work, "evalharness.denoise_3qs")
    out["evalharness.denoise_hs_s"] = _total(work, "evalharness.denoise_hs")
    out["evalharness.smoother_s"] = float(sum(
        _dur(s) for s in fits + predicts if s[SPAN_PARENT] in loyo_ids))
    out["evalharness.diagnostics_s"] = _total(work, "evalharness.compute_diagnostics")
    out["evalharness.cells"] = _attr_sum(work, "evalharness.loyo_evaluate", "cells")

    # data_model: input files and group splits
    io = phase("setup", "iteration")
    out["data_model.load_table_s"] = _total(io, "data_model.load_table")
    out["data_model.load_table_bytes"] = _attr_sum(io, "data_model.load_table", "bytes")
    out["data_model.save_table_s"] = _total(io, "data_model.save_table")
    out["data_model.split_by_group_s"] = _total(io, "data_model.split_by_group")

    # cli: commands, and the CLI's own time (config parsing, output writing)
    for cmd in ("denoise", "eval", "verify", "synth"):
        out[f"cli.{cmd}_s"] = _total(iteration, f"cli.cmd_{cmd}")
    out["cli.self_s"] = float(sum(_dur(s) - child_time[s[SPAN_ID]]
                                  for s in iteration if s[SPAN_NAME].startswith("cli.")))
    out["cli.output_bytes"] = _attr_sum(iteration, "cli.atomic", "bytes")

    # oracle: exact enumeration
    out["oracle.joints"] = len(_named(work, "oracle.random_joint"))
    out["oracle.support_total"] = _attr_sum(work, "oracle.random_joint", "support")
    for fn in ("exact_tqs", "verify_theorem1", "verify_theorem2"):
        out[f"oracle.{fn}_s"] = _total(work, f"oracle.{fn}")

    # synthgen: the sweeps, parallel (iteration) and serial
    sweep_s = sum(_total(iteration, n) for n in SWEEP_SPANS)
    serial_s = sum(_total(phase("serial"), n) for n in SWEEP_SPANS)
    synth_wall = _total(iteration, "cli.cmd_synth")
    synth_cpu = _attr_sum(iteration, "cli.cmd_synth", "cpu_s")
    out["synthgen.trials"] = sum(_attr_sum(iteration, n, "trials") for n in SWEEP_SPANS)
    out["synthgen.sweep_s"] = sweep_s
    out["synthgen.cpu_per_wall"] = synth_cpu / synth_wall if synth_wall else 0.0
    out["synthgen.serial_sweep_s"] = serial_s
    out["synthgen.parallel_speedup"] = serial_s / sweep_s if sweep_s and serial_s else 0.0
    return out
