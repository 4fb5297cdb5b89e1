import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsreg import cli, estimators, regress, synthgen
from tqsreg.data_model import ObservationTable, save_table
from tqsreg.estimators import (
    EstimationError,
    center,
    hs_estimate,
    hs_multi_species,
    species_seed,
    tqs_eq1,
    tqs_eq2,
    tqs_multi_species,
)
from tqsreg.regress import RegressorConfig


def linear_instance(rng, m=400, w=(1.0, -0.7), noise_scale=1.0):
    """Y_i = w_i X + N with shared uniform noise; returns components."""
    x = rng.uniform(-1, 1, size=m)
    n = noise_scale * rng.uniform(-0.5, 0.5, size=m)
    z1 = w[0] * x
    z2 = w[1] * x
    return x, n, z1, z2, z1 + n, z2 + n


class TestCenter:
    def test_zero_mean(self, rng):
        v = center(rng.normal(3.0, 1.0, size=50))
        assert abs(v.mean()) < 1e-12

    def test_target_mean(self):
        v = center(np.array([1.0, 2.0, 3.0]), target_mean=10.0)
        assert v.mean() == pytest.approx(10.0)
        np.testing.assert_allclose(np.diff(v), [1.0, 1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            center(np.array([]))


class TestSpeciesSeed:
    def test_stable_and_distinct(self):
        seeds = [species_seed(7, i) for i in range(10)]
        assert seeds == [species_seed(7, i) for i in range(10)]
        assert len(set(seeds)) == 10

    def test_master_seed_matters(self):
        assert species_seed(1, 0) != species_seed(2, 0)


class TestHalfSibling:
    def test_removes_shared_noise_when_no_common_cause(self, krr_cfg, rng):
        # pure HS setting: z1, z2 independent, noise shared
        m = 400
        n = rng.uniform(-1, 1, size=m)
        z1 = rng.normal(size=m)
        y1 = z1 + n
        y2 = n  # second measurement is pure noise
        z_hat = hs_estimate(y1, y2, krr_cfg)
        assert np.mean((center(z_hat, z1.mean()) - z1) ** 2) < 0.25 * np.var(n)

    def test_distorts_signal_with_common_cause(self, krr_cfg, rng):
        # the known failure mode: common X makes HS remove real signal
        x, n, z1, z2, y1, y2 = linear_instance(rng, noise_scale=0.2)
        z_hat = hs_estimate(y1, y2, krr_cfg)
        retained = np.std(z_hat) / np.std(y1)
        assert retained < 0.6  # most of the (real) variation is destroyed


class TestTqsOracleAgreement:
    """Finite-sample estimators against exact enumeration values."""

    def test_exact_recovery_observable_noise(self, krr_cfg):
        # discrete instance where f(N) is a function of (X, Y2): with a
        # flexible regressor the estimate approaches z1 + mean(f) exactly
        rng = np.random.default_rng(0)
        m = 600
        x = rng.choice([-1.0, 1.0], size=m)
        n = rng.choice([0.0, 1.0], size=m)
        z1 = x
        y1 = z1 + n
        y2 = n  # z2 degenerate at 0
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-8})
        z_hat = tqs_eq1(y1, x, y2, cfg, cfg)
        # finite-sample target: z1 plus the per-x-group sample mean of n
        # (the empirical analogue of the constant offset E f)
        expected = z1.copy()
        for xv in (-1.0, 1.0):
            expected[x == xv] += n[x == xv].mean()
        np.testing.assert_allclose(z_hat, expected, atol=1e-4)

    def test_eq1_eq2_close_for_flexible_model(self, rng):
        x, n, z1, z2, y1, y2 = linear_instance(rng)
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-4})
        a = tqs_eq1(y1, x, y2, cfg, cfg)
        b = tqs_eq2(y1, x, y2, cfg, cfg)
        # algebraically identical only for linear smoothers on the same
        # basis; here they are distinct fits, so allow a loose budget
        assert np.mean((a - b) ** 2) < 5e-3


class TestTqsProperties:
    def test_improvement_over_raw_20_seeds(self):
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-3})
        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x, n, z1, z2, y1, y2 = linear_instance(rng)
            z_hat = tqs_eq2(y1, x, y2, cfg, cfg)
            mse_hat = np.mean((center(z_hat, z1.mean()) - z1) ** 2)
            mse_raw = np.mean((y1 - z1) ** 2)
            wins += mse_hat < mse_raw
        assert wins == 20

    def test_shift_equivariance(self, rng):
        x, n, z1, z2, y1, y2 = linear_instance(rng)
        cfg = RegressorConfig("kernel_ridge")
        a = tqs_eq1(y1, x, y2, cfg, cfg)
        b = tqs_eq1(y1 + 5.0, x, y2, cfg, cfg)
        np.testing.assert_allclose(b, a + 5.0, atol=1e-6)

    def test_deterministic(self, rng):
        x, n, z1, z2, y1, y2 = linear_instance(rng)
        cfg = RegressorConfig("boosted_trees")
        assert np.array_equal(
            tqs_eq1(y1, x, y2, cfg, cfg), tqs_eq1(y1, x, y2, cfg, cfg)
        )


def make_table(rng, m=300, s=4, noise_scale=0.5):
    x = rng.uniform(-1, 1, size=m)
    n = rng.uniform(-1, 1, size=m)
    w = rng.uniform(0.5, 1.5, size=s)
    wn = rng.uniform(0.5, 1.5, size=s)
    z = np.outer(x, w)
    y = z + np.outer(n, wn) * noise_scale
    table = ObservationTable(
        covariates=x[:, None],
        counts=y,
        species_names=[f"sp{j}" for j in range(s)],
        group_labels=["g"] * m,
    )
    return table, z


class TestMultiSpecies:
    def test_reduces_mse_every_species(self, spline_cfg, krr_cfg, rng):
        table, z = make_table(rng)
        res = tqs_multi_species(table, spline_cfg, krr_cfg)
        for i in range(table.n_species):
            mse_hat = np.mean((center(res.z_hat[:, i], z[:, i].mean()) - z[:, i]) ** 2)
            mse_raw = np.mean((table.counts[:, i] - z[:, i]) ** 2)
            assert mse_hat < mse_raw

    def test_species_order_invariance(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=3)
        res = tqs_multi_species(table, spline_cfg, krr_cfg)
        perm = [2, 0, 1]
        table_p = ObservationTable(
            covariates=table.covariates,
            counts=table.counts[:, perm],
            species_names=[table.species_names[j] for j in perm],
            group_labels=list(table.group_labels),
        )
        res_p = tqs_multi_species(table_p, spline_cfg, krr_cfg)
        # same species -> same estimate, regardless of column order
        for out_col, orig_col in enumerate(perm):
            np.testing.assert_allclose(
                res_p.z_hat[:, out_col], res.z_hat[:, orig_col], atol=1e-9
            )

    def test_residuals_match_covariate_models(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=2)
        res = tqs_multi_species(table, spline_cfg, krr_cfg)
        for i in range(2):
            pred = res.covariate_models[i].predict(table.covariates)
            np.testing.assert_allclose(
                res.residuals[:, i], table.counts[:, i] - pred, atol=1e-12
            )

    def test_single_species_rejected(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=1)
        with pytest.raises(ValueError, match=">= 2 species"):
            tqs_multi_species(table, spline_cfg, krr_cfg)

    def test_no_covariate_rejected(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=2, m=20)
        bare = ObservationTable(covariates=np.zeros((20, 0)), counts=table.counts,
                                species_names=table.species_names,
                                group_labels=list(table.group_labels))
        with pytest.raises(ValueError, match=">= 1 process covariate"):
            tqs_multi_species(bare, spline_cfg, krr_cfg)

    def test_error_names_failing_species(self, krr_cfg, rng):
        # spline on constant x fails; the error must identify the species
        table, _ = make_table(rng, s=2)
        const = ObservationTable(
            covariates=np.zeros((table.n_rows, 1)),
            counts=table.counts,
            species_names=table.species_names,
            group_labels=list(table.group_labels),
        )
        with pytest.raises(EstimationError, match="species 0"):
            tqs_multi_species(const, RegressorConfig("spline_gam"), krr_cfg)

    def test_training_diagnostics_shape(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=3)
        res = tqs_multi_species(table, spline_cfg, krr_cfg)
        diag = res.training_diagnostics(table)
        assert len(diag) == 3
        for entry in diag:
            assert entry["covariate_model_mse"] >= 0
            assert entry["residual_model_mse"] >= 0

    def test_save_round_trip(self, spline_cfg, krr_cfg, rng, tmp_path):
        # the denoise subcommand is the one writer of a DenoiseResult
        table, _ = make_table(rng, s=2, m=60)
        res = tqs_multi_species(table, spline_cfg, krr_cfg)
        csv_p = tmp_path / "survey.csv"
        save_table(table, csv_p)
        cfg_p = tmp_path / "dn.cfg"
        cfg_p.write_text(
            "schema.x0 = covariate\nschema.sp0 = count\nschema.sp1 = count\n"
            "schema.group = group\nregressor.res.kind = kernel_ridge\n")
        out = tmp_path / "dn"
        assert cli.main(["denoise", "--input", str(csv_p), "--config", str(cfg_p),
                         "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "zhat.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[-61] == "sp0,sp1"
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[-60:]])
        np.testing.assert_array_equal(got, res.z_hat)
        doc = json.loads((out / "diagnostics.json").read_text())
        assert doc["method"] == "3qs"
        assert doc["per_species"] == res.training_diagnostics(table)

    def test_n_aux_uses_most_abundant_others(self, spline_cfg, krr_cfg, rng):
        table, _ = make_table(rng, s=4, m=120)
        totals = table.counts.sum(axis=0)
        res = tqs_multi_species(table, spline_cfg, krr_cfg, n_aux=2)
        for i, aux in enumerate(res.aux_columns):
            others = sorted((j for j in range(4) if j != i),
                            key=lambda j: (-totals[j], j))
            assert aux == tuple(others[:2])
            assert res.residual_models[i].n_features == 2
        assert len(res.training_diagnostics(table)) == 4
        full = tqs_multi_species(table, spline_cfg, krr_cfg)
        assert full.aux_columns == ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

    def test_n_aux_fit_failure_names_species(self, spline_cfg, rng):
        table, _ = make_table(rng, s=3, m=60)
        bad_res = RegressorConfig("kernel_ridge", {"bogus": 1.0})
        with pytest.raises(EstimationError, match="residual model failed for species 0"):
            tqs_multi_species(table, spline_cfg, bad_res, n_aux=1)
        with pytest.raises(EstimationError, match="residual model failed for species 0"):
            hs_multi_species(table, bad_res, n_aux=1)

    @pytest.mark.parametrize("n_aux", [0, -1])
    def test_n_aux_below_one_rejected(self, spline_cfg, krr_cfg, rng, n_aux):
        table, _ = make_table(rng, s=4, m=60)
        with pytest.raises(ValueError, match=rf"n_aux must be >= 1 \(got {n_aux}\)"):
            tqs_multi_species(table, spline_cfg, krr_cfg, n_aux=n_aux)


class TestNoSecondPredict:
    """The estimators take each model's predictions on its own training rows
    from the fit (``fitted``); no model predicts a second time."""

    def test_no_predict_calls(self, spline_cfg, krr_cfg, rng, monkeypatch):
        calls = []
        real_predict = regress.FittedRegressor.predict

        def counting_predict(self, x):
            calls.append(self.kind)
            return real_predict(self, x)

        monkeypatch.setattr(regress.FittedRegressor, "predict", counting_predict)
        table, _ = make_table(rng, s=3, m=60)
        trees = RegressorConfig("boosted_trees", {"n_stages": 5, "subsample": 0.7})
        for cfg_res in (krr_cfg, trees):
            res = tqs_multi_species(table, spline_cfg, cfg_res, n_aux=1)
            res.training_diagnostics(table)
            hs_multi_species(table, cfg_res)
        y = table.counts
        hs_estimate(y[:, 0], y[:, 1:], krr_cfg)
        tqs_eq1(y[:, 0], table.covariates, y[:, 1:], spline_cfg, krr_cfg)
        tqs_eq2(y[:, 0], table.covariates, y[:, 1:], spline_cfg, krr_cfg)
        assert calls == []
        res.residual_models[0].predict(res.residuals[:, list(res.aux_columns[0])])
        assert calls == ["boosted_trees"]  # the spy sees a real predict


class TestSpeciesPermutation:
    """With kernel-ridge residual models, permuting the species columns of a
    table permutes the 3QS estimate, up to rounding (the residual models see
    their features in another order).  Trees are exempt: they break exact
    split ties by feature index."""

    @settings(max_examples=30, deadline=None)
    @given(m=st.integers(30, 120), s=st.integers(2, 5),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_permuted_columns_permute_zhat(self, m, s, seed, data):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10.0, size=m)
        shared = np.tanh(rng.normal(size=m))
        counts = (np.sin(x)[:, None] * rng.uniform(-1, 1, size=s)
                  + shared[:, None] * rng.uniform(0.5, 2.0, size=s)
                  + 0.1 * rng.normal(size=(m, s)))
        perm = data.draw(st.permutations(range(s)))
        n_aux = data.draw(st.none() | st.integers(1, s - 1))
        names = [f"sp{i}" for i in range(s)]
        groups = ["g"] * m

        def z_hat(cols):
            table = ObservationTable(x[:, None], counts[:, cols],
                                     [names[i] for i in cols], groups)
            return tqs_multi_species(table, RegressorConfig("spline_gam"),
                                     RegressorConfig("kernel_ridge"),
                                     n_aux=n_aux).z_hat

        base = z_hat(list(range(s)))
        np.testing.assert_allclose(z_hat(list(perm)), base[:, perm],
                                   rtol=0, atol=1e-9 * np.abs(counts).max())


class TestPerSpeciesReference:
    """Both multi-species denoisers equal, bit for bit, per-species loops
    written out here: one fit per species, seeded by (seed, species)."""

    BACKENDS = (RegressorConfig("kernel_ridge"),
                RegressorConfig("boosted_trees", {"n_stages": 5}),
                RegressorConfig("boosted_trees", {"n_stages": 5, "subsample": 0.7}))

    @staticmethod
    def _aux(y, i, n_aux):
        totals = y.sum(axis=0)
        others = [j for j in range(y.shape[1]) if j != i]
        if n_aux is None:
            return others
        return sorted(others, key=lambda j: (-totals[j], j))[:n_aux]

    def _hs(self, y, cfg_res, n_aux):
        z = np.empty_like(y)
        for i in range(y.shape[1]):
            cfg = cfg_res.with_seed(species_seed(cfg_res.seed, i))
            aux = self._aux(y, i, n_aux)
            z[:, i] = hs_estimate(y[:, i], y[:, aux], cfg) + y[:, i].mean()
        return z

    def _tqs(self, x, y, cfg_x, cfg_res, n_aux):
        r = np.empty_like(y)
        for i in range(y.shape[1]):
            cfg = cfg_x.with_seed(species_seed(cfg_x.seed, i))
            r[:, i] = y[:, i] - regress.fit(cfg, x, y[:, i]).fitted
        z = np.empty_like(y)
        for i in range(y.shape[1]):
            cfg = cfg_res.with_seed(species_seed(cfg_res.seed, i))
            aux = self._aux(y, i, n_aux)
            z[:, i] = y[:, i] - regress.fit(cfg, r[:, aux], r[:, i]).fitted
        return z

    @settings(max_examples=12, deadline=None)
    @given(m=st.integers(30, 80), s=st.integers(2, 5), backend=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_bit_identical(self, m, s, backend, seed, data):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10.0, size=m)
        counts = (np.sin(x)[:, None] * rng.uniform(-1, 1, size=s)
                  + np.tanh(rng.normal(size=m))[:, None] * rng.uniform(0.5, 2.0, size=s)
                  + 0.1 * rng.normal(size=(m, s)))
        n_aux = data.draw(st.none() | st.integers(1, s - 1))
        table = ObservationTable(x[:, None], counts, [f"sp{i}" for i in range(s)],
                                 ["g"] * m)
        cfg_x, cfg_res = RegressorConfig("spline_gam"), self.BACKENDS[backend]
        assert (hs_multi_species(table, cfg_res, n_aux=n_aux).tobytes()
                == self._hs(counts, cfg_res, n_aux).tobytes())
        assert (tqs_multi_species(table, cfg_x, cfg_res, n_aux=n_aux).z_hat.tobytes()
                == self._tqs(x[:, None], counts, cfg_x, cfg_res, n_aux).tobytes())


class TestSharedDesignsInStages:
    """A stage fits kernel ridge once per design: one per run of species
    with equal auxiliary columns, and no m x m array outlives it."""

    def test_one_factorization_per_run_of_equal_aux_columns(self, spline_cfg, krr_cfg,
                                                            rng, monkeypatch):
        factored, fitted = [], []
        real_design, real_fit = regress._kernel_design, estimators.fit

        def design_spy(*args):  # one factorization per design
            factored.append(1)
            return real_design(*args)

        def fit_spy(cfg, x, y):
            fitted.append(cfg.kind)
            return real_fit(cfg, x, y)

        monkeypatch.setattr(regress, "_kernel_design", design_spy)
        monkeypatch.setattr(estimators, "fit", fit_spy)
        table, _ = make_table(rng, s=6, m=80)
        res = tqs_multi_species(table, spline_cfg, krr_cfg, n_aux=1)
        runs = len(list(itertools.groupby(res.aux_columns)))
        assert runs < 6  # the 5 species besides the most abundant share its column
        assert len(factored) == runs
        assert fitted == ["spline_gam"] * 6 + ["kernel_ridge"] * 6
        # every covariate model shares the covariates: one design for the stage
        factored.clear()
        fitted.clear()
        assert tqs_multi_species(table, krr_cfg, krr_cfg, n_aux=1).aux_columns \
            == res.aux_columns
        assert len(factored) == 1 + runs
        assert fitted == ["kernel_ridge"] * 12

    def test_stage_holds_at_most_two_kernel_arrays(self, krr_cfg, rng):
        m = 300
        feats = rng.normal(size=(m, 3))
        targets = rng.normal(size=(m, 6))
        # misses and hits in turn: every new design replaces the last one
        columns = [[0], [0], [1], [0, 1], [0, 1], [2]]
        estimators._fit_species("residual", [krr_cfg], feats, targets,
                                columns[:1])  # loading the routines is not the stage's
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            models = estimators._fit_species("residual", [krr_cfg] * 6, feats,
                                             targets, columns)
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kernel = 8 * m * m
        # besides two kernels: the models so far and the vectors of one fit,
        # about 8 m (6 (d + 2) + 6) bytes, under a quarter kernel at m = 300
        assert peak - start <= 2 * kernel + kernel // 4
        # the models (x, alpha, fitted) remain; no kernel does
        assert now - start < kernel // 2
        assert len(models) == 6


class TestStagesOnAPool:
    """A stage fits one task per run of consecutive species with equal
    columns, and gives the same models in species order on any pool or
    with none."""

    @staticmethod
    def _outputs(table, cfg_x, cfg_res, pool):
        res = tqs_multi_species(table, cfg_x, cfg_res, pool=pool)
        return [res.z_hat, res.residuals, hs_multi_species(table, cfg_res, pool=pool),
                *(m.fitted for m in res.covariate_models + res.residual_models)]

    @pytest.mark.parametrize("kinds", [("spline_gam", "boosted_trees"),
                                       ("kernel_ridge", "kernel_ridge")])
    def test_a_worker_pool_gives_the_serial_bytes(self, rng, kinds):
        table, _ = make_table(rng, m=120, s=4)
        cfg_x, cfg_res = (RegressorConfig(kind, seed=5) for kind in kinds)
        # the pool holds this process at its workers' one BLAS thread
        with synthgen.worker_pool(2) as pool:
            serial = self._outputs(table, cfg_x, cfg_res, None)
            pooled = self._outputs(table, cfg_x, cfg_res, pool)
        assert len(pooled) == 3 + 2 * table.n_species
        assert [a.tobytes() for a in pooled] == [a.tobytes() for a in serial]

    @pytest.mark.parametrize("n_aux", [None, 1])
    def test_tasks_and_factorizations(self, krr_cfg, rng, monkeypatch, n_aux):
        factored, sizes = [], []
        real_design = regress._kernel_design

        def design_spy(*args):  # one factorization per design
            factored.append(1)
            return real_design(*args)

        def here(fn, tasks):  # a pool that runs its tasks in this process
            results = [fn(t) for t in tasks]
            sizes.append([len(models) for models in results])
            return results

        monkeypatch.setattr(regress, "_kernel_design", design_spy)
        table, _ = make_table(rng, s=6, m=80)
        serial = tqs_multi_species(table, krr_cfg, krr_cfg, n_aux=n_aux)
        serial_factored = len(factored)
        factored.clear()
        pooled = tqs_multi_species(table, krr_cfg, krr_cfg, n_aux=n_aux, pool=here)
        assert pooled.z_hat.tobytes() == serial.z_hat.tobytes()
        assert len(factored) == serial_factored
        runs = [len(list(run)) for _, run in itertools.groupby(serial.aux_columns)]
        # every species shares the covariates: one covariate task
        assert sizes == [[6], runs]
        if n_aux is None:  # each species has its own auxiliary columns
            assert runs == [1] * 6
        else:  # the species besides the most abundant share its column
            assert len(runs) < 6
        sizes.clear()
        hs_multi_species(table, krr_cfg, n_aux=n_aux, pool=here)
        assert sizes == [runs]

    def test_tasks_share_the_features(self, rng):
        # the default residual stage: a task per species, on all the others
        m, s = 2000, 16
        feats = rng.normal(size=(m, s))
        columns = [estimators._aux_species(feats, i, None) for i in range(s)]
        cfgs = [RegressorConfig("boosted_trees", {"n_stages": 2, "max_depth": 1}, seed=i)
                for i in range(s)]
        held = []
        with synthgen.worker_pool(2) as pool:
            def watched(fn, tasks):  # what this process holds as the tasks start
                held.append(tracemalloc.get_traced_memory()[0])
                return pool(fn, tasks)

            # the workers start before the trace
            estimators._fit_species("residual", cfgs, feats, feats, columns, pool)
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                models = estimators._fit_species("residual", cfgs, feats, feats,
                                                 columns, watched)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        copies = feats.nbytes * (s - 1)  # every task's columns copied: 3.8 MB
        assert held[0] - start < feats.nbytes // 8  # measured 3 kB
        # the tasks in the pool's call queue and the models: measured 0.87 MB
        assert peak - start < copies // 2
        assert len(models) == s
