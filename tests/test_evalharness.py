import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsreg import blas, cli, estimators, regress, synthgen
from tqsreg import evalharness as ev
from tqsreg.data_model import ObservationTable, save_table, split_by_group
from tqsreg.estimators import hs_multi_species, species_seed, tqs_multi_species
from tqsreg.evalharness import (
    EvalError,
    brightness_zero_subset,
    compute_diagnostics,
    external_correlation,
    loyo_evaluate,
    percent_improvement,
    retained_std_fraction,
    simulate_moth_survey,
)
from tqsreg.regress import RegressorConfig


@pytest.fixture(scope="module")
def small_sim():
    # 3 years x 60 days x 4 species: fast but structurally complete
    return simulate_moth_survey(years=3, days_per_year=60, n_species=4, seed=1)


@pytest.fixture
def smooth_cfg():
    return RegressorConfig("spline_gam")


class TestPercentImprovement:
    def test_values(self):
        assert percent_improvement(0.5, 1.0) == pytest.approx(50.0)
        assert percent_improvement(2.0, 1.0) == pytest.approx(-100.0)
        assert percent_improvement(1.0, 1.0) == pytest.approx(0.0)

    def test_zero_baseline(self):
        with pytest.raises(EvalError):
            percent_improvement(1.0, 0.0)


class TestExternalCorrelation:
    def test_known_correlations(self):
        m = 50
        ext = np.linspace(0, 1, m)
        counts = np.column_stack([ext * 2.0, -ext + 5.0])
        t = ObservationTable(
            covariates=np.arange(m, dtype=float)[:, None],
            counts=counts,
            species_names=["a", "b"],
            group_labels=["g"] * m,
            diagnostics={"ext": ext},
        )
        z_hat = np.column_stack([np.cos(ext * 9), np.cos(ext * 9)])
        pairs = external_correlation(t, t.counts, "ext")
        assert pairs[0][0] == pytest.approx(1.0)
        assert pairs[1][0] == pytest.approx(-1.0)
        pairs2 = external_correlation(t, z_hat, "ext")
        assert abs(pairs2[0][1]) < 0.5  # decorrelated estimate

    def test_missing_column(self, small_sim):
        with pytest.raises(EvalError, match="no diagnostic column"):
            external_correlation(small_sim.table, small_sim.table.counts, "nope")


class TestRetainedStd:
    def test_identity_is_one(self, rng):
        y = rng.normal(size=(30, 3))
        np.testing.assert_allclose(retained_std_fraction(y, y), 1.0)

    def test_halved(self, rng):
        y = rng.normal(size=(30, 2))
        np.testing.assert_allclose(
            retained_std_fraction(y, 0.5 * y), 0.5, atol=1e-12
        )

    def test_zero_variance_rejected(self):
        with pytest.raises(EvalError):
            retained_std_fraction(np.ones((5, 1)), np.ones((5, 1)))


class TestBrightnessZero:
    def test_threshold_fraction(self):
        # one dark night per lunar period at the default 5% threshold
        sim = simulate_moth_survey(years=5, days_per_year=180, seed=0)
        mask = brightness_zero_subset(sim.table, "moon_brightness")
        frac = mask.mean()
        assert 0.02 < frac < 0.07

    def test_explicit_threshold(self, small_sim):
        col = small_sim.table.diagnostics["moon_brightness"]
        mask = brightness_zero_subset(small_sim.table, "moon_brightness", 0.5)
        np.testing.assert_array_equal(mask, col <= 0.5)

    def test_mask_selects_dark_rows(self, small_sim):
        col = small_sim.table.diagnostics["moon_brightness"]
        mask = brightness_zero_subset(small_sim.table, "moon_brightness")
        assert col[mask].max() < col[~mask].min()


class TestSimulation:
    def test_shapes_and_labels(self, small_sim):
        t = small_sim.table
        assert t.n_rows == 3 * 60
        assert t.n_species == 4
        assert len(set(t.group_labels)) == 3
        assert small_sim.true_log_abundance.shape == (180, 4)

    def test_deterministic(self):
        a = simulate_moth_survey(years=2, days_per_year=40, n_species=3, seed=4)
        b = simulate_moth_survey(years=2, days_per_year=40, n_species=3, seed=4)
        assert np.array_equal(a.table.counts, b.table.counts)
        assert not np.array_equal(
            a.table.counts,
            simulate_moth_survey(years=2, days_per_year=40, n_species=3, seed=5)
            .table.counts,
        )

    def test_observed_below_truth_on_bright_nights(self):
        sim = simulate_moth_survey(years=2, days_per_year=120, n_species=5,
                                   seed=0, idio_sigma=0.0)
        bright = sim.table.diagnostics["moon_brightness"] > 0.8
        diff = sim.true_log_abundance - sim.table.counts
        # detection loss is non-negative without idiosyncratic noise
        assert diff[bright].mean() > diff[~bright].mean()

    def test_brightness_negative_correlation(self):
        sim = simulate_moth_survey(seed=0)
        pairs = external_correlation(sim.table, sim.table.counts,
                                     "moon_brightness")
        before = [p[0] for p in pairs]
        assert all(b < 0 for b in before)

    def test_needs_two_years(self):
        with pytest.raises(EvalError):
            simulate_moth_survey(years=1)


class TestDenoisers:
    def test_3qs_n_aux_none_matches_full(self, small_sim, spline_cfg, krr_cfg):
        t = small_sim.table
        full = tqs_multi_species(t, spline_cfg, krr_cfg).z_hat
        capped = tqs_multi_species(t, spline_cfg, krr_cfg,
                                   n_aux=t.n_species - 1).z_hat
        np.testing.assert_allclose(full, capped, atol=1e-9)

    @pytest.mark.parametrize("n_aux", [0, -1])
    def test_hs_n_aux_below_one_rejected(self, small_sim, krr_cfg, n_aux):
        with pytest.raises(ValueError, match=rf"n_aux must be >= 1 \(got {n_aux}\)"):
            hs_multi_species(small_sim.table, krr_cfg, n_aux=n_aux)

    def test_hs_preserves_mean(self, small_sim, krr_cfg):
        t = small_sim.table
        z = hs_multi_species(t, krr_cfg)
        # the regression residual has approximately (not exactly) zero
        # mean, so the species mean is preserved up to that slack
        np.testing.assert_allclose(z.mean(axis=0), t.counts.mean(axis=0),
                                   atol=0.05)

    def test_3qs_reduces_brightness_correlation(self, small_sim, spline_cfg,
                                                krr_cfg):
        t = small_sim.table
        z = tqs_multi_species(t, spline_cfg, krr_cfg, n_aux=None).z_hat
        pairs = external_correlation(t, z, "moon_brightness")
        before = np.mean([abs(p[0]) for p in pairs])
        after = np.mean([abs(p[1]) for p in pairs])
        assert after < before

    def test_single_species_rejected(self, spline_cfg, krr_cfg):
        t = ObservationTable(
            covariates=np.arange(10.0)[:, None],
            counts=np.ones((10, 1)) + np.arange(10.0)[:, None],
            species_names=["only"],
            group_labels=["g"] * 10,
        )
        with pytest.raises((EvalError, Exception)):
            tqs_multi_species(t, spline_cfg, krr_cfg, n_aux=None)


class TestLoyoProtocol:
    def test_pair_arithmetic_5_years(self, smooth_cfg, krr_cfg, spline_cfg):
        sim = simulate_moth_survey(years=5, days_per_year=40, n_species=3,
                                   seed=2)
        rep = loyo_evaluate(sim.table, ["raw"], spline_cfg, krr_cfg, smooth_cfg)
        # 5 test years x 4 train years = 20 pairs per species per method
        for sp in sim.table.species_names:
            n = sum(1 for c in rep.cells if c.species == sp)
            assert n == 20

    def test_two_years_two_pairs(self, smooth_cfg, krr_cfg, spline_cfg):
        sim = simulate_moth_survey(years=2, days_per_year=40, n_species=2,
                                   seed=2)
        rep = loyo_evaluate(sim.table, ["raw"], spline_cfg, krr_cfg, smooth_cfg)
        per_species = sum(1 for c in rep.cells if c.species ==
                          sim.table.species_names[0])
        assert per_species == 2

    def test_train_test_never_same_year(self, small_sim, smooth_cfg, krr_cfg,
                                        spline_cfg):
        rep = loyo_evaluate(small_sim.table, ["raw"], spline_cfg, krr_cfg,
                            smooth_cfg)
        assert all(c.train_group != c.test_group for c in rep.cells)

    def test_unknown_method(self, small_sim, smooth_cfg, krr_cfg, spline_cfg):
        with pytest.raises(EvalError, match="unknown methods"):
            loyo_evaluate(small_sim.table, ["magic"], spline_cfg, krr_cfg,
                          smooth_cfg)

    def test_improvement_of_raw_is_zero(self, small_sim, smooth_cfg, krr_cfg,
                                        spline_cfg):
        rep = loyo_evaluate(small_sim.table, ["raw", "global"], spline_cfg,
                            krr_cfg, smooth_cfg)
        assert rep.improvements["raw"] == pytest.approx(0.0, abs=1e-12)

    def test_global_replicated_across_train_slots(self, small_sim, smooth_cfg,
                                                  krr_cfg, spline_cfg):
        rep = loyo_evaluate(small_sim.table, ["global"], spline_cfg, krr_cfg,
                            smooth_cfg)
        seen = {}
        for c in rep.cells:
            key = (c.species, c.test_group)
            seen.setdefault(key, set()).add(c.mse)
        assert all(len(v) == 1 for v in seen.values())

    def test_no_test_leakage_sentinel(self, smooth_cfg, krr_cfg, spline_cfg):
        """Corrupting one test year's counts must leave every cell that
        does not score that year bit-identical."""
        sim = simulate_moth_survey(years=3, days_per_year=40, n_species=3,
                                   seed=6)
        t = sim.table
        rep_a = loyo_evaluate(t, ["raw"], spline_cfg, krr_cfg, smooth_cfg)
        bad_year = sorted(set(t.group_labels))[0]
        rows = np.array(t.group_labels) == bad_year
        counts = t.counts.copy()
        counts[rows] += 1e6  # absurd sentinel
        t_bad = ObservationTable(
            covariates=t.covariates, counts=counts,
            species_names=t.species_names, group_labels=list(t.group_labels),
            diagnostics=dict(t.diagnostics),
            covariate_names=t.covariate_names, group_name=t.group_name,
        )
        rep_b = loyo_evaluate(t_bad, ["raw"], spline_cfg, krr_cfg, smooth_cfg)
        a = {(c.species, c.train_group, c.test_group, c.method): c.mse
             for c in rep_a.cells}
        b = {(c.species, c.train_group, c.test_group, c.method): c.mse
             for c in rep_b.cells}
        for key, mse in a.items():
            _, train_g, test_g, _ = key
            if test_g != bad_year and train_g != bad_year:
                assert b[key] == mse, f"leakage at {key}"

    def test_empty_filter_rejected(self, small_sim, smooth_cfg, krr_cfg,
                                   spline_cfg):
        with pytest.raises(EvalError, match="empty test subset"):
            loyo_evaluate(small_sim.table, ["raw"], spline_cfg, krr_cfg,
                          smooth_cfg,
                          test_filter=lambda t: np.zeros(t.n_rows, bool))

    def test_report_serialization(self, small_sim, smooth_cfg, krr_cfg,
                                  spline_cfg, tmp_path):
        # the eval subcommand is the one writer of an EvalReport; it computes
        # at one BLAS thread, so the reference does too
        with blas.num_threads(1):
            rep = loyo_evaluate(small_sim.table, ["raw", "global"], spline_cfg,
                                krr_cfg, smooth_cfg)
            diagnostics = compute_diagnostics(small_sim.table, spline_cfg, krr_cfg,
                                              "moon_brightness")
        survey = tmp_path / "survey.csv"
        save_table(small_sim.table, survey)
        cfg_p = tmp_path / "ev.cfg"
        cfg_p.write_text("regressor.res.kind = kernel_ridge\n")
        out = tmp_path / "ev"
        assert cli.main(["eval", "--input", str(survey), "--config", str(cfg_p),
                         "--out", str(out), "--seed", "0",
                         "--methods", "raw,global"]) == cli.EXIT_OK
        doc = json.loads((out / "eval_report.json").read_text())
        assert doc["baseline"] == "raw"
        assert len(doc["cells"]) == len(rep.cells)
        assert doc["cells"] == [
            {"species": c.species, "train_group": c.train_group,
             "test_group": c.test_group, "method": c.method, "mse": c.mse}
            for c in rep.cells
        ]
        assert doc["improvements"] == rep.improvements
        assert doc["diagnostics"] == diagnostics
        lines = (out / "eval_cells.csv").read_text().splitlines()
        assert lines[0].startswith("# tqsreg_version=")
        assert lines[1] == "# seed=0"
        assert lines[2].startswith("# config_hash=")
        assert lines[3].startswith("species,train_group,test_group,method,mse")
        assert len(lines) == 4 + len(rep.cells)
        for ln, c in zip(lines[4:], rep.cells):
            assert ln.split(",")[:4] == [c.species, c.train_group, c.test_group,
                                         c.method]
            assert float(ln.split(",")[4]) == c.mse

    def test_methods(self):
        assert ev.METHODS == ("raw", "hs", "3qs", "mb", "global")

    def test_parallel_equals_serial(self, small_sim, smooth_cfg, krr_cfg, spline_cfg):
        # the test filter is a lambda: it runs in this process only
        reports, diagnostics = [], []
        for jobs in (1, 2, 3):
            with synthgen.worker_pool(jobs) as pool:
                reports.append(loyo_evaluate(
                    small_sim.table, list(ev.METHODS), spline_cfg, krr_cfg, smooth_cfg,
                    pool=pool, test_filter=lambda t: brightness_zero_subset(
                        t, "moon_brightness")))
                diagnostics.append(compute_diagnostics(
                    small_sim.table, spline_cfg, krr_cfg, "moon_brightness", pool=pool))
        # an odd process count places fold and training-year tasks otherwise
        for other, other_diagnostics in zip(reports[1:], diagnostics[1:]):
            assert reports[0].cells == other.cells
            assert reports[0].improvements == other.improvements
            assert diagnostics[0] == other_diagnostics
        assert set(diagnostics[0]) == {"3qs", "hs", "species"}

    def test_constant_brightness_fails_before_any_fit(self, small_sim, smooth_cfg,
                                                      krr_cfg, spline_cfg, monkeypatch):
        t = small_sim.table
        flat = ObservationTable(
            covariates=t.covariates, counts=t.counts, species_names=t.species_names,
            group_labels=list(t.group_labels),
            diagnostics={"moon_brightness": np.full(t.n_rows, 0.5)},
            covariate_names=t.covariate_names, group_name=t.group_name)
        fits = []
        for mod in (regress, estimators):  # every module that binds fit
            monkeypatch.setattr(mod, "fit", lambda *a: fits.append(a))
        with pytest.raises(EvalError,
                           match="diagnostic column 'moon_brightness' has zero variance"):
            compute_diagnostics(flat, spline_cfg, krr_cfg, "moon_brightness")
        assert fits == []

    def test_constant_species_fails_before_any_fit(self, small_sim, krr_cfg, spline_cfg,
                                                   monkeypatch):
        t = small_sim.table
        counts = t.counts.copy()
        counts[:, 2] = 1.0
        flat = ObservationTable(
            covariates=t.covariates, counts=counts, species_names=t.species_names,
            group_labels=list(t.group_labels), diagnostics=dict(t.diagnostics),
            covariate_names=t.covariate_names, group_name=t.group_name)
        fits = []
        for mod in (regress, estimators):  # every module that binds fit
            monkeypatch.setattr(mod, "fit", lambda *a: fits.append(a))
        with pytest.raises(EvalError, match="zero-variance species column 'species_02'"):
            # None names the table's only diagnostic column
            compute_diagnostics(flat, spline_cfg, krr_cfg, None)
        assert fits == []


class TestFoldReference:
    """Every ``loyo_evaluate`` cell equals, bit for bit, per-species loops
    written out here: one smoother fit per (training year, method, species),
    one ``global`` fit per (fold, species) and one ``mb`` fit, seeded by
    (seed, species), per (training year, species)."""

    SMOOTHERS = (RegressorConfig("spline_gam"), RegressorConfig("kernel_ridge"),
                 RegressorConfig("boosted_trees", {"n_stages": 5, "subsample": 0.7}, 3))
    RESIDUALS = (RegressorConfig("kernel_ridge"),
                 RegressorConfig("boosted_trees", {"n_stages": 5, "subsample": 0.8}, 5))

    @staticmethod
    def _cells(table, cfg_x, cfg_res, smooth_cfg, n_aux):
        def mse(model, x, y):
            return float(np.mean((y - regress.predict(model, x)) ** 2))

        groups = list(dict.fromkeys(table.group_labels))
        cells = []
        for test_g in groups:
            train, test = split_by_group(table, test_g)
            denoised = {
                "raw": train.counts,
                "hs": hs_multi_species(train, cfg_res, n_aux=n_aux),
                "3qs": tqs_multi_species(train, cfg_x, cfg_res, n_aux=n_aux).z_hat,
            }
            test_y = test.counts
            test_mb = np.column_stack([test.covariates[:, 0],
                                       test.diagnostics["moon_brightness"]])
            labels = np.array(train.group_labels)
            for train_g in (g for g in groups if g != test_g):
                rows = labels == train_g
                year_x = train.covariates[rows]
                feats = np.column_stack([year_x[:, 0],
                                         train.diagnostics["moon_brightness"][rows]])
                for i, sp in enumerate(train.species_names):
                    for method in ev.METHODS:
                        if method == "global":
                            model = regress.fit(smooth_cfg, train.covariates,
                                                train.counts[:, i])
                            err = mse(model, test.covariates, test_y[:, i])
                        elif method == "mb":
                            cfg = cfg_res.with_seed(species_seed(cfg_res.seed, i))
                            model = regress.fit(cfg, feats, train.counts[rows, i])
                            err = mse(model, test_mb, test_y[:, i])
                        else:
                            model = regress.fit(smooth_cfg, year_x,
                                                denoised[method][rows, i])
                            err = mse(model, test.covariates, test_y[:, i])
                        cells.append((sp, train_g, test_g, method, err.hex()))
        return cells

    @settings(max_examples=8, deadline=None)
    @given(years=st.integers(2, 4), days=st.integers(12, 30), s=st.integers(2, 4),
           smoother=st.integers(0, 2), residual=st.integers(0, 1),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bit_identical(self, years, days, s, smoother, residual, seed, data):
        table = simulate_moth_survey(years=years, days_per_year=days, n_species=s,
                                     seed=seed).table
        n_aux = data.draw(st.none() | st.just(1))
        cfg_x, cfg_res = RegressorConfig("spline_gam"), self.RESIDUALS[residual]
        smooth_cfg = self.SMOOTHERS[smoother]
        rep = loyo_evaluate(table, list(ev.METHODS), cfg_x, cfg_res, smooth_cfg,
                            n_aux=n_aux)
        assert [(c.species, c.train_group, c.test_group, c.method, c.mse.hex())
                for c in rep.cells] \
            == self._cells(table, cfg_x, cfg_res, smooth_cfg, n_aux)

    @pytest.mark.parametrize("cfg_res", RESIDUALS, ids=["kernel_ridge", "boosted_trees"])
    def test_backend_fits_each_mb_model_once_per_call(self, spline_cfg, cfg_res,
                                                      monkeypatch):
        keys = []
        real = getattr(regress, f"_fit_{cfg_res.kind}")

        def spy(params, x, y, *seed):
            keys.append((x.tobytes(), y.tobytes(), seed))
            return real(params, x, y, *seed)

        monkeypatch.setattr(regress, f"_fit_{cfg_res.kind}", spy)
        years, s = 3, 3
        table = simulate_moth_survey(years=years, days_per_year=16, n_species=s,
                                     seed=4).table
        reports = [loyo_evaluate(table, ["raw", "mb"], spline_cfg, cfg_res, spline_cfg)
                   for _ in range(2)]
        # one (training year, species) model each, and a second call fits again
        n = years * s
        assert len(keys) == 2 * n
        assert len(set(keys[:n])) == n and keys[n:] == keys[:n]
        assert reports[0] == reports[1]

    def test_mb_factors_once_per_training_year(self, spline_cfg, krr_cfg, monkeypatch):
        factored, fitted = [], []
        real_design = regress._kernel_design

        def design_spy(*args):  # one factorization per design
            factored.append(1)
            return real_design(*args)

        def fit_spy(real, kind, *args):
            fitted.append(kind)
            return real(*args)

        monkeypatch.setattr(regress, "_kernel_design", design_spy)
        for kind in ("kernel_ridge", "spline_gam"):
            real = getattr(regress, f"_fit_{kind}")
            monkeypatch.setattr(regress, f"_fit_{kind}",
                                functools.partial(fit_spy, real, kind))
        years, s = 3, 4
        table = simulate_moth_survey(years=years, days_per_year=20, n_species=s,
                                     seed=3).table
        loyo_evaluate(table, ["mb"], spline_cfg, krr_cfg, spline_cfg)
        # the backend fits each (training year, species) raw smoother and mb
        # model once, and its other folds reuse it
        assert fitted.count("spline_gam") == years * s
        assert fitted.count("kernel_ridge") == years * s
        # every species of a training year shares mb's features: one design
        assert len(factored) == years
