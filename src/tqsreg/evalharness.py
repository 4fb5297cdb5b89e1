"""Leave-one-year-out evaluation harness and survey simulation.

For every held-out test year, the 3QS and HS denoisers of ``estimators``
(one residual stage serves both) are fit on the remaining years pooled;
a per-year smoother is then fit to the denoised counts of each single
training year and scored on the raw test-year counts.  The smoothers, the
pooled-years ``global`` and the brightness-feature ``mb`` models fit their
species through the denoisers' stage step.  Also provides the
moon-driven survey simulation used in place of the (non-redistributable)
field data, and the correlation / retained-variability diagnostics.

``loyo_evaluate`` first builds every fold's training table and filtered
test rows in the calling process (a test filter need not pickle), then
runs independent tasks: one per held-out year, one per training year
(its raw smoothers and ``mb`` models, each fit once), and the 3QS and HS
halves of the diagnostics.  Given ``jobs`` it runs them on a
``synthgen.worker_pool``; the report is the same for every ``jobs``.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass

import numpy as np

from .data_model import ObservationTable, split_by_group
from .estimators import (_fit_species, _species_configs, hs_multi_species,
                         tqs_multi_species)
from .regress import predict, shared_designs
from .synthgen import worker_pool

# raw smoother, HS, 3QS, brightness-feature model, and the pooled-years
# oracle smoother
METHODS = ("raw", "hs", "3qs", "mb", "global")
# the denoising methods, each diagnosed on the whole table
DIAGNOSED = ("3qs", "hs")

LUNAR_PERIOD = 29.5
WEATHER_FLOOR = 0.0  # the least nightly weather factor of the brightness
ACTIVITY_SCALE = 0.25  # the shared activity factor's loading, per seasonal std
BRIGHTNESS_ZERO_DEFAULT = 0.05


class EvalError(ValueError):
    pass


def percent_improvement(mse_method, mse_baseline):
    """100 * (baseline - method) / baseline."""
    if mse_baseline <= 0:
        raise EvalError("baseline MSE must be positive")
    return 100.0 * (mse_baseline - mse_method) / mse_baseline


def external_correlation(table, z_hat, column):
    """Pearson correlation with an external column before/after denoising."""
    if column not in table.diagnostics:
        raise EvalError(f"no diagnostic column {column!r}")
    ext = table.diagnostics[column]
    if np.std(ext) == 0:
        raise EvalError(f"diagnostic column {column!r} has zero variance")
    z_hat = np.asarray(z_hat, dtype=float)
    if z_hat.shape != table.counts.shape:
        raise EvalError("z_hat shape does not match counts")
    out = []
    for i in range(table.n_species):
        before = float(np.corrcoef(table.counts[:, i], ext)[0, 1])
        after = float(np.corrcoef(z_hat[:, i], ext)[0, 1])
        out.append((before, after))
    return out


def retained_std_fraction(counts, z_hat):
    """std(z_hat_i) / std(counts_i) per species."""
    counts = np.asarray(counts, dtype=float)
    z_hat = np.asarray(z_hat, dtype=float)
    if counts.shape != z_hat.shape:
        raise EvalError("shape mismatch")
    stds = counts.std(axis=0)
    if np.any(stds == 0):
        raise EvalError("zero-variance species column")
    return list(z_hat.std(axis=0) / stds)


def resolve_brightness_column(table, column):
    """The named diagnostic column, else the table's only one."""
    if column is None:
        if len(table.diagnostics) != 1:
            raise EvalError("name a brightness column: the table has "
                            f"{len(table.diagnostics)} diagnostic columns")
        column = next(iter(table.diagnostics))
    if column not in table.diagnostics:
        raise EvalError(f"no diagnostic column {column!r}")
    return column


def brightness_zero_subset(table, column, threshold=None):
    """Boolean row mask of (near-)dark observations."""
    if column not in table.diagnostics:
        raise EvalError(f"no diagnostic column {column!r}")
    col = table.diagnostics[column]
    if threshold is None:
        threshold = BRIGHTNESS_ZERO_DEFAULT * float(col.max())
    return col <= threshold


# ---------------------------------------------------------------------------
# leave-one-year-out protocol


@dataclass(frozen=True)
class EvalCell:
    species: str
    train_group: str
    test_group: str
    method: str
    mse: float


@dataclass(frozen=True)
class EvalReport:
    cells: tuple
    improvements: dict  # method -> mean percent improvement vs the baseline
    diagnostics: dict
    baseline: str = "raw"

    def mean_mse(self, method):
        vals = [c.mse for c in self.cells if c.method == method]
        if not vals:
            raise EvalError(f"no cells for method {method!r}")
        return float(np.mean(vals))


def _denoised(method, table, cfg_x, cfg_res, n_aux):
    """The z-hat matrix of method "3qs" or "hs" on ``table``."""
    if method == "3qs":
        return tqs_multi_species(table, cfg_x, cfg_res, n_aux=n_aux).z_hat
    return hs_multi_species(table, cfg_res, n_aux=n_aux)


def _method_diagnostics(method, table, column, cfg_x, cfg_res, n_aux):
    """One method's entry of ``compute_diagnostics``."""
    z_hat = _denoised(method, table, cfg_x, cfg_res, n_aux)
    corr = external_correlation(table, z_hat, column)
    return {
        "correlation_before": [c[0] for c in corr],
        "correlation_after": [c[1] for c in corr],
        "retained_std": retained_std_fraction(table.counts, z_hat),
    }


def compute_diagnostics(table, cfg_x, cfg_res, column, n_aux=None):
    """Table-1-style diagnostics from a full-table denoise per method.

    ``n_aux`` caps the auxiliary species as in ``loyo_evaluate``.
    """
    out = {m: _method_diagnostics(m, table, column, cfg_x, cfg_res, n_aux)
           for m in DIAGNOSED}
    out["species"] = list(table.species_names)
    return out


def _scores(stage, cfgs, x, y, test_x, test_y):
    """Per species i, the test MSE of stage ``stage``'s model of ``y[:, i]`` on ``x``."""
    models = _fit_species(stage, cfgs, x, y, [slice(None)] * y.shape[1])
    return [float(np.mean((test_y[:, i] - predict(model, test_x)) ** 2))
            for i, model in enumerate(models)]


def _fold_scores(train, test_g, test, methods, cfg_x, cfg_res, smooth_cfg, n_aux):
    """The hs, 3qs and global scores of held-out group ``test_g``: models fit
    on ``train`` (the other groups), scored on its test rows ``test``."""
    smoothers = [smooth_cfg] * train.n_species  # not seeded per species
    test_x, test_y, _ = test
    denoised = {m: _denoised(m, train, cfg_x, cfg_res, n_aux)
                for m in DIAGNOSED if m in methods}
    train_groups = list(dict.fromkeys(train.group_labels))
    scores = {}
    if "global" in methods:
        global_mse = _scores("global", smoothers, train.covariates, train.counts,
                             test_x, test_y)
        scores.update(((g, test_g, "global"), global_mse) for g in train_groups)
    train_labels = np.array(train.group_labels)
    for train_g in train_groups:
        rows = train_labels == train_g
        for method in (m for m in methods if m in denoised):
            scores[train_g, test_g, method] = _scores(
                "smoother", smoothers, train.covariates[rows], denoised[method][rows],
                test_x, test_y)
    return scores


def _year_scores(train_g, year, tests, methods, cfg_res, smooth_cfg):
    """The raw and mb scores of training group ``train_g`` (``year``: its
    covariates, counts and brightness) on each other group's test rows
    (``tests``, by group), in one fit scope: every repeat of a model fit on
    ``train_g`` alone is the model already fit."""
    x, y, bright = year
    s = y.shape[1]
    scores = {}
    with shared_designs():
        for test_g, (test_x, test_y, test_bright) in tests.items():
            if test_g == train_g:
                continue
            scores[train_g, test_g, "raw"] = _scores(
                "smoother", [smooth_cfg] * s, x, y, test_x, test_y)
            if "mb" in methods:
                scores[train_g, test_g, "mb"] = _scores(
                    "mb", _species_configs(cfg_res, s),
                    np.column_stack([x[:, 0], bright]), y,
                    np.column_stack([test_x[:, 0], test_bright]), test_y)
    return scores


def _call(task):
    return task()


def check_groups(table):
    """Each group's rows, in table order; refuses one group or a one-row group."""
    groups = collections.Counter(table.group_labels)
    if len(groups) < 2:
        raise EvalError("need >= 2 distinct group labels")
    for group, rows in groups.items():
        if rows < 2:  # a group's rows alone train its smoothers
            raise EvalError(f"group {group!r} has 1 row (every group needs >= 2)")
    return groups


def loyo_evaluate(table, methods, cfg_x, cfg_res, smooth_cfg, test_filter=None,
                  brightness_column=None, n_aux=None, with_diagnostics=False,
                  jobs=None):
    """Leave-one-group-out predictive evaluation of denoising methods.

    ``methods`` is a subset of ``METHODS``.  ``test_filter``, if
    given, maps the test-year table to a boolean row mask (e.g. a
    brightness-zero rule).  ``n_aux`` caps the auxiliary species used
    by hs/3qs, in the folds and in the diagnostics.  Test rows never touch
    any fitted model.  Before any model is fit, the groups are checked
    (``check_groups``), every test subset is built and checked non-empty
    and, with diagnostics, every species column and
    the brightness column are checked non-constant.  A task per held-out
    group fits the denoisers, their per-year smoothers and ``global``; a
    task per training group fits its raw smoothers and ``mb`` models once
    and scores them on every other group.  ``jobs`` runs these tasks and
    the two halves of the diagnostics, in that order, on that many processes
    (``synthgen.worker_pool``, at one BLAS thread); None runs them here, one
    after another, at the caller's thread count.
    """
    methods = list(methods)
    unknown = set(methods) - set(METHODS)
    if unknown:
        raise EvalError(f"unknown methods: {sorted(unknown)}")
    groups = list(check_groups(table))
    if table.n_species < 2:
        raise EvalError("need >= 2 species")
    needs_brightness = "mb" in methods
    if needs_brightness or with_diagnostics:
        brightness_column = resolve_brightness_column(table, brightness_column)
    if with_diagnostics:  # they divide by each species' and the brightness' std
        for name, column in zip(table.species_names, table.counts.T):
            if np.all(column == column[0]):
                raise EvalError(f"zero-variance species column {name!r}")
        bright = table.diagnostics[brightness_column]
        if np.all(bright == bright[0]):
            raise EvalError(f"diagnostic column {brightness_column!r} has zero variance")

    score_methods = list(dict.fromkeys(["raw"] + methods))
    denoise_args = {"cfg_x": cfg_x, "cfg_res": cfg_res, "n_aux": n_aux}
    tests, folds, years = {}, [], []
    for test_g in groups:
        train, test = split_by_group(table, test_g)
        mask = np.asarray(test_filter(test), dtype=bool) if test_filter is not None \
            else np.ones(test.n_rows, dtype=bool)
        if not mask.any():
            raise EvalError(f"empty test subset for group {test_g!r}")
        tests[test_g] = (test.covariates[mask], test.counts[mask],
                         test.diagnostics[brightness_column][mask]
                         if needs_brightness else None)
        folds.append(functools.partial(_fold_scores, train, test_g, tests[test_g],
                                       score_methods, smooth_cfg=smooth_cfg,
                                       **denoise_args))
        # the group's rows, unfiltered, train its training-year task
        year = (test.covariates, test.counts, test.diagnostics.get(brightness_column))
        years.append(functools.partial(_year_scores, test_g, year, tests, methods,
                                       cfg_res, smooth_cfg))
    tasks = folds + years  # then the diagnostics: the order that ran fastest
    if with_diagnostics:
        tasks += [functools.partial(_method_diagnostics, m, table, brightness_column,
                                    **denoise_args) for m in DIAGNOSED]

    if jobs is None:
        results = [task() for task in tasks]
    else:
        with worker_pool(min(jobs, len(tasks))) as run:
            results = run(_call, tasks)
    scores = {}
    for part in results[:2 * len(groups)]:
        scores.update(part)
    cells = [EvalCell(sp, train_g, test_g, method, scores[train_g, test_g, method][i])
             for test_g in groups for train_g in groups if train_g != test_g
             for i, sp in enumerate(table.species_names) for method in score_methods]

    # aggregate as improvement of the mean MSE over all cells; a mean of
    # per-cell ratios is dominated by cells where the baseline happens
    # to be tiny
    raw_mean = float(np.mean([c.mse for c in cells if c.method == "raw"]))
    improvements = {}
    for method in methods:
        method_mean = float(np.mean([c.mse for c in cells if c.method == method]))
        improvements[method] = percent_improvement(method_mean, raw_mean)

    diagnostics = {}
    if with_diagnostics:
        diagnostics = dict(zip(DIAGNOSED, results[2 * len(groups):]))
        diagnostics["species"] = list(table.species_names)

    return EvalReport(
        cells=tuple(c for c in cells if c.method in methods),
        improvements=improvements,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# survey simulation


@dataclass(frozen=True)
class MothSimulation:
    table: ObservationTable
    true_log_abundance: np.ndarray  # (rows, species) noise-free log counts


def simulate_moth_survey(years=5, days_per_year=180, n_species=10, seed=0,
                         beta=1.0, idio_sigma=0.1):
    """Moon-driven survey simulation with known ground truth.

    Per species the latent log-abundance is a sum of 1-2 seasonal
    Gaussian bumps with year-jittered timing and height.  Detection
    noise has two shared nightly channels plus small idiosyncratic
    noise: -beta_i times the effective moon brightness, and a slowly
    varying activity/weather factor.  Brightness follows a 29.5-day
    cycle whose phase shifts per year; the effective (ground) value is
    the astronomical one scaled by a nightly weather factor in
    [WEATHER_FLOOR, 1].  The diagnostic column stores only the
    astronomical brightness: an imperfect proxy for the detection
    conditions, as in real surveys.
    """
    if years < 2:
        raise EvalError("need >= 2 years")
    if days_per_year < 1:
        raise EvalError(f"need >= 1 night per year (got {days_per_year})")
    if not np.isfinite(beta):
        raise EvalError(f"beta must be finite (got {beta!r})")
    if not (np.isfinite(idio_sigma) and idio_sigma >= 0):
        raise EvalError(f"idio_sigma must be finite and >= 0 (got {idio_sigma!r})")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 77]))
    days = np.arange(1.0, days_per_year + 1.0)
    m = years * days_per_year

    n_bumps = rng.integers(1, 3, size=n_species)
    margin = min(30.0, days_per_year / 4.0)
    centers = rng.uniform(margin, days_per_year - margin, size=(n_species, 2))
    widths = rng.uniform(10.0, 30.0, size=(n_species, 2))
    heights = rng.uniform(1.5, 3.0, size=(n_species, 2))
    loadings = rng.uniform(0.8, 1.2, size=n_species)
    phases = rng.uniform(0.0, LUNAR_PERIOD, size=years)

    covariates = np.empty((m, 1))
    labels = []
    brightness = np.empty(m)
    truth = np.empty((m, n_species))
    for yidx in range(years):
        rows = slice(yidx * days_per_year, (yidx + 1) * days_per_year)
        covariates[rows, 0] = days
        labels += [f"y{2013 + yidx}"] * days_per_year
        brightness[rows] = np.abs(np.sin(np.pi * (days + phases[yidx]) / LUNAR_PERIOD))
        for i in range(n_species):
            curve = np.zeros(days_per_year)
            for b in range(n_bumps[i]):
                c = centers[i, b] + rng.normal(0.0, 5.0)
                h = heights[i, b] * np.exp(rng.normal(0.0, 0.15))
                curve += h * np.exp(-0.5 * ((days - c) / widths[i, b]) ** 2)
            truth[rows, i] = curve
    # scale each species' detection loss with its seasonal variability so
    # the brightness correlation stays in a comparable band across species
    betas = beta * loadings * truth.std(axis=0)
    weather = rng.uniform(WEATHER_FLOOR, 1.0, size=m)
    effective = brightness * weather
    # smooth shared activity factor (~10-day correlation, zero mean,
    # unit variance per year); looks like seasonal signal to a smoother
    activity = np.empty(m)
    kernel = np.exp(-0.5 * (np.arange(-15, 16) / 5.0) ** 2)
    kernel /= np.sqrt(np.sum(kernel**2))
    for yidx in range(years):
        rows = slice(yidx * days_per_year, (yidx + 1) * days_per_year)
        white = rng.normal(0.0, 1.0, size=days_per_year + 30)
        smooth = np.convolve(white, kernel, mode="valid")
        activity[rows] = smooth - smooth.mean()
    act_load = rng.uniform(0.8, 1.2, size=n_species)
    gammas = ACTIVITY_SCALE * act_load * truth.std(axis=0)
    idio = rng.normal(0.0, idio_sigma, size=(m, n_species))
    observed = (
        truth
        - betas[None, :] * effective[:, None]
        - gammas[None, :] * activity[:, None]
        + idio
    )

    table = ObservationTable(
        covariates=covariates,
        counts=observed,
        species_names=[f"species_{i:02d}" for i in range(n_species)],
        group_labels=labels,
        diagnostics={"moon_brightness": brightness},
        covariate_names=("day_of_year",),
        group_name="year",
    )
    return MothSimulation(table=table, true_log_abundance=truth)
