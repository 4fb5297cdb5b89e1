import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline
from scipy.linalg import lapack
from scipy.linalg.blas import dgemv
from scipy.spatial.distance import cdist, pdist

from tqsreg import blas, cli, regress
from tqsreg.regress import (
    RegressionError,
    RegressorConfig,
    SingularModelError,
    fit,
    predict,
)


def toy_1d(rng, m=200, noise=0.1):
    x = rng.uniform(-2, 2, size=(m, 1))
    y = np.sin(2 * x[:, 0]) + noise * rng.normal(size=m)
    return x, y


class TestConfig:
    def test_unknown_kind(self):
        with pytest.raises(RegressionError, match="unknown regressor kind"):
            RegressorConfig("forest").resolved()

    def test_unknown_hyperparameter(self):
        cfg = RegressorConfig("kernel_ridge", {"lambda": 1.0})
        with pytest.raises(RegressionError, match="unknown hyperparameters"):
            cfg.resolved()

    def test_defaults_match_contract(self):
        p = RegressorConfig("boosted_trees").resolved()
        assert p["n_stages"] == 100
        assert p["learning_rate"] == 0.1
        assert p["max_depth"] == 3
        p = RegressorConfig("kernel_ridge").resolved()
        assert p["penalty"] == 1.0
        p = RegressorConfig("spline_gam").resolved()
        assert p["n_knots"] == 20
        np.testing.assert_allclose(regress._PENALTY_GRID, np.logspace(-3, 3, 13))

    def test_invalid_values(self):
        cases = [
            ("kernel_ridge", {"penalty": 0.0}),
            ("kernel_ridge", {"bandwidth": -1.0}),
            ("boosted_trees", {"learning_rate": 0.0}),
            ("boosted_trees", {"max_depth": 0}),
            ("boosted_trees", {"subsample": 0.0}),
            ("spline_gam", {"n_knots": 0}),
            ("spline_gam", {"penalty": -2.0}),
            # integer counts: a fractional max_depth never reaches depth 0
            # and a fractional n_stages fails inside range()
            ("boosted_trees", {"max_depth": 2.5}),
            ("boosted_trees", {"max_depth": True}),
            ("boosted_trees", {"n_stages": 2.5}),
            ("boosted_trees", {"n_stages": 1e3}),
            ("boosted_trees", {"min_leaf": 0}),
            ("boosted_trees", {"min_leaf": 1.0}),
            ("spline_gam", {"n_knots": 2.5}),
            ("spline_gam", {"n_knots": False}),
            # real-valued knobs: strings and bools are not numbers, and the
            # grid is fixed
            ("boosted_trees", {"learning_rate": "fast"}),
            ("boosted_trees", {"learning_rate": True}),
            ("boosted_trees", {"subsample": True}),
            ("boosted_trees", {"subsample": float("nan")}),
            ("kernel_ridge", {"penalty": "none"}),
            ("kernel_ridge", {"penalty": None}),
            ("kernel_ridge", {"bandwidth": "auto"}),
            ("kernel_ridge", {"bandwidth": float("inf")}),
            ("spline_gam", {"penalty": "none"}),
            ("spline_gam", {"penalty": False}),
            ("spline_gam", {"penalty_grid": 1}),
        ]
        for kind, hyper in cases:
            with pytest.raises(RegressionError):
                RegressorConfig(kind, hyper).resolved()

    def test_with_seed(self):
        cfg = RegressorConfig("boosted_trees", seed=0)
        assert cfg.with_seed(7).seed == 7
        assert cfg.seed == 0  # original unchanged


class TestFitValidation:
    @pytest.mark.parametrize("kind", ["kernel_ridge", "boosted_trees", "spline_gam"])
    def test_too_few_rows(self, kind):
        with pytest.raises(RegressionError):
            fit(RegressorConfig(kind), np.array([[1.0]]), np.array([1.0]))

    def test_shape_mismatch(self, krr_cfg):
        with pytest.raises(RegressionError):
            fit(krr_cfg, np.ones((3, 1)), np.ones(4))

    def test_non_finite(self, krr_cfg):
        with pytest.raises(RegressionError, match="non-finite"):
            fit(krr_cfg, np.array([[1.0], [np.inf]]), np.ones(2))

    @pytest.mark.parametrize("kind", ["kernel_ridge", "boosted_trees", "spline_gam"])
    def test_overflowing_targets_refused_without_warnings(self, kind, rng):
        x = rng.uniform(size=(60, 1))
        y = rng.uniform(1.0, 2.0, size=60)
        scale = np.sqrt(np.finfo(float).max / 60)  # about 1.7e153
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(RegressorConfig(kind), x, y * (scale / 100))
            with pytest.raises(RegressionError, match="sum of squares overflows"):
                fit(RegressorConfig(kind), x, y * scale)

    def test_spline_multifeature_rejected(self, spline_cfg):
        with pytest.raises(RegressionError, match="exactly 1 feature"):
            fit(spline_cfg, np.ones((5, 2)) + np.arange(5)[:, None], np.ones(5))

    def test_predict_feature_mismatch(self, krr_cfg, rng):
        model = fit(krr_cfg, rng.normal(size=(10, 2)), rng.normal(size=10))
        with pytest.raises(RegressionError, match="expected 2 features"):
            model.predict(np.ones((3, 1)))


class TestKernelRidge:
    def test_closed_form_oracle(self):
        # 3-point problem solved by hand: alpha = (K + lam I)^-1 (y - ybar)
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1.0, 3.0, 2.0])
        lam, bw = 0.5, 1.0
        model = fit(
            RegressorConfig("kernel_ridge", {"penalty": lam, "bandwidth": bw}), x, y
        )
        gamma = 1.0 / (2.0 * bw * bw)
        k = np.exp(-gamma * cdist(x, x, "sqeuclidean"))
        alpha = np.linalg.solve(k + lam * np.eye(3), y - y.mean())
        np.testing.assert_allclose(model.alpha, alpha, atol=1e-12)
        xq = np.array([[0.5], [3.0]])
        kq = np.exp(-gamma * cdist(xq, x, "sqeuclidean"))
        np.testing.assert_allclose(
            model.predict(xq), kq @ alpha + y.mean(), atol=1e-12
        )

    def test_median_bandwidth_heuristic(self):
        x = np.array([[0.0], [1.0], [3.0]])
        # pairwise distances 1, 3, 2 -> median 2
        model = fit(RegressorConfig("kernel_ridge"), x, np.array([0.0, 1.0, 0.0]))
        assert model.gamma == pytest.approx(1.0 / (2.0 * 2.0 ** 2))

    def test_translation_equivariance(self, krr_cfg, rng):
        x, y = toy_1d(rng)
        shift = 17.3
        a = fit(krr_cfg, x, y).predict(x)
        b = fit(krr_cfg, x, y + shift).predict(x)
        np.testing.assert_allclose(b, a + shift, atol=1e-9)

    def test_interpolation_small_penalty(self, rng):
        x = np.linspace(-1, 1, 15)[:, None]
        y = np.cos(3 * x[:, 0])
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-10})
        np.testing.assert_allclose(fit(cfg, x, y).predict(x), y, atol=1e-4)

    def test_huge_penalty_returns_mean(self, rng):
        x, y = toy_1d(rng, m=60)
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e12})
        np.testing.assert_allclose(fit(cfg, x, y).predict(x), y.mean(), atol=1e-6)

    def test_constant_features_fall_back_to_unit_bandwidth(self):
        x = np.zeros((4, 1))
        model = fit(RegressorConfig("kernel_ridge"), x, np.arange(4.0))
        assert model.gamma == pytest.approx(0.5)
        np.testing.assert_allclose(model.predict(x), 1.5, atol=1e-9)

    def test_singular_system_raises(self):
        # two equal rows make K singular; a penalty of 1e-300 does not lift it
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-300})
        with pytest.raises(SingularModelError):
            fit(cfg, np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 2.0, 3.0]))

    def test_row_limit_from_byte_budget(self, monkeypatch, krr_cfg, rng):
        # 2 arrays of 10 x 10 float64 fit in 1600 bytes, 2 of 11 x 11 do not
        monkeypatch.setattr(regress, "FIT_BYTES", 1600)
        assert regress.kernel_ridge_max_rows() == 10
        fit(krr_cfg, rng.normal(size=(10, 2)), rng.normal(size=10))

        def no_design(*a, **k):
            raise AssertionError("an m x m array was allocated")

        # every m x m array of a fit is its design's
        monkeypatch.setattr(regress, "_kernel_design", no_design)
        with pytest.raises(RegressionError, match="at most 10 training rows.*get 11"):
            fit(krr_cfg, rng.normal(size=(11, 2)), rng.normal(size=11))

    def test_default_budget_allows_the_default_simulation(self):
        assert regress.kernel_ridge_max_rows() >= 5 * 180


class TestFitCheck:
    """``check_fit`` is ``fit``'s refusal rule; ``fit_bytes`` bounds a fit's peak."""

    BACKENDS = ("_kernel_design", "_spline_basis", "_fit_boosted_trees")

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["kernel_ridge", "spline_gam", "boosted_trees"]),
           m=st.integers(2, 40), d=st.integers(1, 3), n_knots=st.integers(1, 60),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_fit_refuses_what_check_fit_refuses(self, kind, m, d, n_knots, seed, data):
        hyper = {"spline_gam": {"n_knots": n_knots}, "boosted_trees": {"n_stages": 3},
                 "kernel_ridge": {}}[kind]
        cfg = RegressorConfig(kind, hyper)
        # a budget from nothing to twice the fit's arrays
        budget = data.draw(st.integers(0, 2 * regress.fit_bytes(cfg, m, d) + 1))
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(m, d)), rng.normal(size=m)
        ran = []

        def spy(name, real):
            def called(*a, **k):
                ran.append(name)
                return real(*a, **k)
            return called

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regress, "FIT_BYTES", budget)
            for name in self.BACKENDS:
                mp.setattr(regress, name, spy(name, getattr(regress, name)))
            try:
                regress.check_fit(cfg, m, d)
            except RegressionError as refusal:
                with pytest.raises(RegressionError) as e:
                    fit(cfg, x, y)
                assert str(e.value) == str(refusal)
                assert ran == []
                return
            try:
                fit(cfg, x, y)
            except SingularModelError:
                pass  # the data's fault, after a backend ran: never a refusal
            assert ran

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(regress._DEFAULTS)), m=st.integers(0, 3),
           d=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
    def test_check_fit_is_the_only_shape_gate(self, kind, m, d, seed):
        """On finite data of any small shape, ``check_fit`` refuses exactly
        when ``fit`` refuses before its backend runs, in the same words."""
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(m, d)), rng.normal(size=m)
        cfg = RegressorConfig(kind)
        backend, ran, refused = f"_fit_{kind}", [], None
        real = getattr(regress, backend)

        def spy(*a, **k):
            ran.append(kind)
            return real(*a, **k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regress, backend, spy)
            try:
                fit(cfg, x, y)
            except RegressionError as e:
                refused = None if ran else str(e)
        try:
            regress.check_fit(cfg, m, d)
        except RegressionError as e:
            assert refused == str(e)
        else:
            assert refused is None

    @pytest.mark.parametrize("kind,hyper,m,d,warm", [
        ("spline_gam", {"n_knots": 1}, 1000, 1, False),  # GCV's columns outnumber nb
        ("spline_gam", {"n_knots": 20}, 300, 1, False),
        ("spline_gam", {"n_knots": 200}, 1000, 1, False),
        # the spline's design cache full of other x's designs
        ("spline_gam", {"n_knots": 1}, 1000, 1, True),
        ("spline_gam", {"n_knots": 200}, 1000, 1, True),
        ("kernel_ridge", {}, 50, 3, False),
        ("kernel_ridge", {}, 200, 2, False),
        ("kernel_ridge", {}, 1000, 1, False),
    ])
    def test_fit_bytes_bound_the_peak(self, kind, hyper, m, d, warm):
        # beyond its largest arrays a fit holds copies of its input and
        # vectors of its rows: 128 bytes a row and feature covers them
        cfg = RegressorConfig(kind, hyper)
        rng = np.random.default_rng(0)
        x, y = rng.uniform(size=(m, d)), rng.normal(size=m)
        regress.load_kernel_ridge()
        regress._spline_basis.cache_clear()
        warm_up = regress._spline_basis.cache_info().maxsize + 2 if warm else 0
        tracemalloc.start()
        try:
            for _ in range(warm_up):  # fits on distinct x, each leaving its design
                fit(cfg, rng.uniform(size=(m, d)), y)
            fit(cfg, x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= regress.fit_bytes(cfg, m, d) + 128 * m * d


class TestSplineGAM:
    def test_knot_layout(self, spline_cfg, rng):
        x = np.linspace(0.0, 21.0, 100)[:, None]
        model = fit(spline_cfg, x, rng.normal(size=100))
        # 20 interior knots equally spaced on (0, 21) plus cubic padding
        np.testing.assert_allclose(model.knots, np.arange(-3.0, 25.0), atol=1e-12)

    def test_de_boor_oracle_design_row(self):
        # independent de Boor recursion for cubic B-spline basis values
        def bspline_basis(t, knots, j, k):
            if k == 0:
                last = j + 1 == len(knots) - 1
                inside = (knots[j] <= t < knots[j + 1]) or (
                    last and t == knots[j + 1]
                )
                return 1.0 if inside else 0.0
            out = 0.0
            d1 = knots[j + k] - knots[j]
            if d1 > 0:
                out += (t - knots[j]) / d1 * bspline_basis(t, knots, j, k - 1)
            d2 = knots[j + k + 1] - knots[j + 1]
            if d2 > 0:
                out += (knots[j + k + 1] - t) / d2 * bspline_basis(
                    t, knots, j + 1, k - 1
                )
            return out

        x = np.linspace(0.0, 6.0, 40)
        knots, b, lo, hi = regress._spline_design(x, 5)
        for i in (0, 7, 23, 39):
            row = [
                bspline_basis(x[i], knots, j, 3) for j in range(b.shape[1])
            ]
            np.testing.assert_allclose(b[i], row, atol=1e-12)

    def test_huge_penalty_gives_straight_line(self, rng):
        # second-difference penalty leaves a linear null space
        x = np.linspace(0, 10, 120)
        y = 2.0 * x - 1.0 + 0.05 * rng.normal(size=120)
        cfg = RegressorConfig("spline_gam", {"penalty": 1e8})
        model = fit(cfg, x[:, None], y)
        fitvals = model.predict(x[:, None])
        a, b = np.polyfit(x, y, 1)
        np.testing.assert_allclose(fitvals, a * x + b, atol=1e-3)

    def test_recovers_smooth_function(self, spline_cfg, rng):
        x = np.linspace(0, 1, 400)
        truth = np.sin(2 * np.pi * x)
        y = truth + 0.1 * rng.normal(size=400)
        model = fit(spline_cfg, x[:, None], y)
        assert np.mean((model.predict(x[:, None]) - truth) ** 2) < 5e-4

    def test_linear_extrapolation(self, rng):
        x = np.linspace(0, 1, 100)
        y = 3.0 * x + 0.01 * rng.normal(size=100)
        model = fit(RegressorConfig("spline_gam", {"penalty": 100.0}), x[:, None], y)
        outside = np.array([[-0.5], [1.5], [-2.0]])
        preds = model.predict(outside)
        # outside the data span the curve continues linearly
        slope_lo = (model.predict([[0.0]]) - model.predict([[-1.0]]))[0]
        expected = model.predict([[0.0]])[0] + slope_lo * outside[0, 0]
        assert preds[0] == pytest.approx(expected, abs=1e-9)
        assert abs(preds[1] - 4.5) < 0.2  # roughly follows the line
        diffs = np.diff(model.predict(np.linspace(-3, -2, 5)[:, None]))
        np.testing.assert_allclose(diffs, diffs[0], atol=1e-12)  # exactly linear

    def test_fixed_penalty_matches_normal_equations(self, rng):
        x = np.sort(rng.uniform(0, 1, size=80))
        y = rng.normal(size=80)
        lam = 3.7
        model = fit(RegressorConfig("spline_gam", {"penalty": lam}), x[:, None], y)
        knots, b, lo, hi = regress._spline_design(x, 20)
        d2 = np.diff(np.eye(b.shape[1]), n=2, axis=0)
        coef = np.linalg.solve(b.T @ b + lam * d2.T @ d2, b.T @ y)
        np.testing.assert_allclose(model.coef, coef, atol=1e-8)

    def test_identical_x_rejected(self, spline_cfg):
        with pytest.raises(SingularModelError):
            fit(spline_cfg, np.zeros((10, 1)), np.arange(10.0))

    def test_gcv_prefers_smooth_fit_for_pure_noise(self, rng):
        x = np.linspace(0, 1, 200)
        y = rng.normal(size=200)
        model = fit(RegressorConfig("spline_gam"), x[:, None], y)
        rough = fit(
            RegressorConfig("spline_gam", {"penalty": 1e-3}), x[:, None], y
        )
        assert np.std(model.predict(x[:, None])) < np.std(rough.predict(x[:, None]))


class TestBoostedTrees:
    def test_single_stage_single_split_oracle(self):
        # depth 1, 1 stage: prediction = mean + lr * (leaf mean of residual)
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        cfg = RegressorConfig(
            "boosted_trees", {"n_stages": 1, "max_depth": 1, "learning_rate": 1.0}
        )
        model = fit(cfg, x, y)
        np.testing.assert_allclose(model.predict(x), y, atol=1e-12)
        # split threshold is the midpoint of the best gap
        feat, thr, left, right, value = model.trees[0]
        assert thr[0] == pytest.approx(1.5)

    def test_init_is_target_mean(self, trees_cfg, rng):
        x, y = toy_1d(rng)
        assert fit(trees_cfg, x, y).init == pytest.approx(float(y.mean()))

    def test_training_mse_monotone_in_stages(self, rng):
        x, y = toy_1d(rng, m=300)
        prev = np.inf
        for n in (1, 5, 20, 100):
            cfg = RegressorConfig("boosted_trees", {"n_stages": n})
            mse = float(np.mean((fit(cfg, x, y).predict(x) - y) ** 2))
            assert mse <= prev + 1e-12
            prev = mse

    def test_translation_equivariance(self, trees_cfg, rng):
        x, y = toy_1d(rng)
        a = fit(trees_cfg, x, y).predict(x)
        b = fit(trees_cfg, x, y - 4.25).predict(x)
        np.testing.assert_allclose(b, a - 4.25, atol=1e-9)

    def test_deterministic_bitwise(self, trees_cfg, rng):
        x, y = toy_1d(rng)
        p1 = fit(trees_cfg, x, y).predict(x)
        p2 = fit(trees_cfg, x, y).predict(x)
        assert np.array_equal(p1, p2)

    def test_subsample_seeded(self, rng):
        x, y = toy_1d(rng)
        cfg = RegressorConfig("boosted_trees", {"subsample": 0.5}, seed=3)
        p1 = fit(cfg, x, y).predict(x)
        p2 = fit(cfg, x, y).predict(x)
        p3 = fit(cfg.with_seed(4), x, y).predict(x)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, p3)

    def test_tie_break_lowest_feature(self):
        # two identical features; the split must use feature 0
        col = np.array([0.0, 0.0, 1.0, 1.0])
        x = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        cfg = RegressorConfig("boosted_trees", {"n_stages": 1, "max_depth": 1})
        feat, thr, left, right, value = fit(cfg, x, y).trees[0]
        assert feat[0] == 0

    def test_constant_target_predicts_constant(self, trees_cfg):
        x = np.arange(10.0)[:, None]
        model = fit(trees_cfg, x, np.full(10, 2.5))
        np.testing.assert_allclose(model.predict(x), 2.5, atol=1e-12)

    def test_min_leaf_respected(self, rng):
        x = rng.uniform(size=(20, 1))
        y = rng.normal(size=20)
        cfg = RegressorConfig(
            "boosted_trees", {"n_stages": 1, "max_depth": 10, "min_leaf": 5}
        )
        feat, thr, left, right, value = fit(cfg, x, y).trees[0]
        for node in range(len(feat)):
            if feat[node] < 0:
                continue
            # count rows reaching each child by replaying the tree
        pred = fit(cfg, x, y).predict(x)
        leaf_vals, counts = np.unique(np.round(pred, 12), return_counts=True)
        assert counts.min() >= 5

    def test_pickle_carries_only_the_stacked_arrays(self, rng):
        x, y = toy_1d(rng, m=60)
        cfg = RegressorConfig("boosted_trees", {"n_stages": 20, "subsample": 0.6})
        model = fit(cfg, x, y)
        loaded = pickle.loads(pickle.dumps(model))
        state = vars(loaded)
        assert "trees" not in vars(model) and "trees" not in state
        assert {k for k, v in state.items() if isinstance(v, np.ndarray)} == {
            "feature", "threshold", "left", "right", "value", "sizes", "fitted"}
        assert not any(isinstance(v, (tuple, list, dict)) for v in state.values())
        assert loaded.predict(x).tobytes() == model.predict(x).tobytes()


class TestGoldenTrees:
    """Boosted-tree fits must reproduce the trees in ``data/golden_trees.npz``.

    The file holds the fits of the depth-first split search on the data
    below, so a rewrite of tree growth has to build the same trees.  Each
    config's trees are stored concatenated (``<name>_feature`` etc.) with
    the node count of every tree in ``<name>_sizes``, plus ``init`` and the
    training-set predictions.  The structure must match exactly; leaf
    values and predictions may differ only by summation order.  Near-tie
    splits make the structure sensitive to the order in which the split
    SSE is accumulated, not only to the split rule.
    """

    CONFIGS = {
        "default": RegressorConfig("boosted_trees"),
        "subsample": RegressorConfig(
            "boosted_trees", {"subsample": 0.6, "max_depth": 5, "min_leaf": 3}, seed=7
        ),
    }

    @pytest.fixture(scope="class")
    def golden(self):
        path = os.path.join(os.path.dirname(__file__), "data", "golden_trees.npz")
        with np.load(path, allow_pickle=False) as data:
            return dict(data)

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=(150, 3))
        y = np.sin(3 * x[:, 0]) - x[:, 1] ** 2 + 0.2 * rng.normal(size=150)
        return x, y

    def test_matches_golden(self, golden, data):
        x, y = data
        for name, cfg in self.CONFIGS.items():
            model = fit(cfg, x, y)
            np.testing.assert_array_equal(
                [len(t[0]) for t in model.trees], golden[f"{name}_sizes"], err_msg=name
            )
            for k, field in enumerate(("feature", "threshold", "left", "right", "value")):
                got = np.concatenate([t[k] for t in model.trees])
                want = golden[f"{name}_{field}"]
                msg = f"{name} {field}"
                if field == "value":
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=msg)
                else:
                    assert got.dtype == want.dtype, msg
                    np.testing.assert_array_equal(got, want, err_msg=msg)
            np.testing.assert_allclose(model.init, golden[f"{name}_init"][0],
                                       rtol=1e-12, err_msg=name)
            np.testing.assert_allclose(model.predict(x), golden[f"{name}_predict"],
                                       rtol=1e-12, atol=0, err_msg=name)


# Reference split search: the per-node, per-feature search that the
# presorted engine replaced, with numpy's stable sort so that rows in a
# run of equal feature values keep their input order.


def _ref_best_split(x, y, min_leaf):
    m, d = x.shape
    best_sse, best_f, best_thr = np.inf, -1, 0.0
    for f in range(d):
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        ys = y[order]
        c1 = np.cumsum(ys)
        c2 = np.cumsum(ys * ys)
        tot1, tot2 = c1[-1], c2[-1]
        cut = np.nonzero(xs[:-1] < xs[1:])[0]
        nl = cut + 1.0
        nr = m - nl
        ok = (nl >= min_leaf) & (nr >= min_leaf)
        if not np.any(ok):
            continue
        cut, nl, nr = cut[ok], nl[ok], nr[ok]
        sl, s2l = c1[cut], c2[cut]
        sse = (s2l - sl * sl / nl) + ((tot2 - s2l) - (tot1 - sl) ** 2 / nr)
        j = int(np.argmin(sse))
        if sse[j] < best_sse:
            i = int(cut[j])
            thr = 0.5 * (xs[i] + xs[i + 1])
            if thr >= xs[i + 1]:
                thr = xs[i]
            best_sse, best_f, best_thr = float(sse[j]), f, float(thr)
    return best_sse, best_f, best_thr


def _ref_grow_tree(x, r, max_depth, min_leaf):
    nodes = []  # [feature, threshold, left, right, value]

    def build(idx, depth):
        sub = r[idx]
        node = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(np.mean(sub))])
        if depth == 0 or idx.size < 2 * min_leaf or idx.size < 2:
            return node
        parent_sse = float(np.sum((sub - np.mean(sub)) ** 2))
        sse, f, thr = _ref_best_split(x[idx], sub, min_leaf)
        if f < 0 or not sse < parent_sse:
            return node
        go_left = x[idx, f] <= thr
        nodes[node] = [f, thr, -1, -1, 0.0]
        nodes[node][2] = build(idx[go_left], depth - 1)
        nodes[node][3] = build(idx[~go_left], depth - 1)
        return node

    build(np.arange(x.shape[0]), max_depth)
    cols = list(zip(*nodes))
    dtypes = (np.int64, np.float64, np.int64, np.int64, np.float64)
    return tuple(np.asarray(c, dtype=t) for c, t in zip(cols, dtypes))


def _ref_fit_trees(params, x, y, seed):
    m = x.shape[0]
    pred = np.full(m, float(np.mean(y)))
    trees = []
    rng = None
    if params["subsample"] < 1.0:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF]))
    for _ in range(params["n_stages"]):
        resid = y - pred
        idx = np.arange(m)
        if rng is not None:
            n_sub = max(2, int(round(params["subsample"] * m)))
            idx = np.sort(rng.choice(m, size=n_sub, replace=False))
        tree = _ref_grow_tree(x[idx], resid[idx], params["max_depth"], params["min_leaf"])
        trees.append(tree)
        pred = pred + params["learning_rate"] * regress._tree_predict(*tree, x)
    return trees


@st.composite
def tied_problems(draw):
    m = draw(st.integers(2, 60))
    d = draw(st.integers(1, 3))
    grid = draw(st.sampled_from([0.5, 1.0, 0.1]))
    levels = draw(st.integers(1, 5))
    x = np.array(draw(st.lists(st.integers(0, levels), min_size=m * d,
                               max_size=m * d)), dtype=float).reshape(m, d) * grid
    y = np.array(draw(st.lists(
        st.integers(-3, 3).map(float)
        | st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        min_size=m, max_size=m)))
    hyper = {
        "n_stages": draw(st.integers(1, 4)),
        "max_depth": draw(st.integers(1, 4)),
        "min_leaf": draw(st.integers(1, 4)),
        "subsample": draw(st.sampled_from([1.0, 0.6])),
    }
    return x, y, hyper, draw(st.integers(0, 3))


class TestPresortedEngine:
    """The presorted engine grows the per-node search's trees bit for bit,
    including the order in which tied feature values are summed."""

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(tied_problems())
    def test_matches_reference_search_on_ties(self, problem):
        x, y, hyper, seed = problem
        cfg = RegressorConfig("boosted_trees", hyper, seed=seed)
        got = fit(cfg, x, y).trees
        want = _ref_fit_trees(cfg.resolved(), x, y, seed)
        assert len(got) == len(want)
        for t_got, t_want in zip(got, want):
            for a, b in zip(t_got, t_want):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)


def _ref_tree_predict(tree, x):
    """One tree's leaf values at ``x``, row by row, node by node."""
    feature, threshold, left, right, value = tree
    out = np.empty(x.shape[0])
    for i, row in enumerate(x):
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] <= threshold[node] else right[node]
        out[i] = value[node]
    return out


class TestStackedWalk:
    """``predict`` walks every tree of the stacked node arrays at once and
    gives, bit for bit, the sum a walk of each tree on its own gives."""

    @settings(max_examples=150, deadline=None)
    @given(tied_problems(), st.integers(1, 6), st.integers(1, 12), st.booleans())
    def test_matches_a_per_row_walk(self, problem, max_depth, n_stages, constant):
        x, y, hyper, seed = problem
        if constant:  # every tree a single leaf
            y = np.full_like(y, y[0])
        hyper = dict(hyper, max_depth=max_depth, n_stages=n_stages)
        cfg = RegressorConfig("boosted_trees", hyper, seed=seed)
        model = fit(cfg, x, y)
        # the training rows, and points on and between their grid values
        probe = np.vstack([x, x[::-1] + 0.25, np.round(x * 0.5, 1)])
        want = np.full(probe.shape[0], model.init)
        for tree in model.trees:
            step = _ref_tree_predict(tree, probe)
            assert regress._tree_predict(*tree, probe).tobytes() == step.tobytes()
            want += model.learning_rate * step
        assert model.predict(probe).tobytes() == want.tobytes()
        assert sum(a.nbytes for a in model._nodes) <= regress.fit_bytes(cfg, *x.shape)


# Reference spline fit: the per-penalty solve loop that the one-factorization
# fit replaced, two dense solves per penalty (coefficients and trace).


def _ref_spline_system(x, n_knots):
    knots, b, lo, hi = regress._spline_design(x, n_knots)
    d2 = np.diff(np.eye(b.shape[1]), n=2, axis=0)
    return b, b.T @ b, d2.T @ d2


def _ref_spline_solve(system, y, lam):
    """Coefficients, edf and GCV score of one penalty."""
    b, btb, pen = system
    a = btb + lam * pen
    coef = np.linalg.solve(a, b.T @ y)
    rss = float(np.sum((y - b @ coef) ** 2))
    edf = float(np.trace(np.linalg.solve(a, btb)))
    m = len(y)
    denom = m - edf
    gcv = m * rss / (denom * denom) if denom > 1e-9 else np.inf
    return coef, edf, gcv


def _ref_spline_penalty(system, y):
    best = (np.inf, None)
    for lam in regress._PENALTY_GRID:
        gcv = _ref_spline_solve(system, y, lam)[2]
        if gcv < best[0]:
            best = (gcv, lam)
    return best[1]


def _assert_same_penalty_or_tie(system, y, got, want):
    """A different penalty is allowed only where the reference GCV scores
    of the two tie to rounding."""
    if got != want:
        g_got = _ref_spline_solve(system, y, got)[2]
        g_want = _ref_spline_solve(system, y, want)[2]
        assert g_got == pytest.approx(g_want, rel=1e-9), (got, want)


@st.composite
def spline_x(draw, m):
    """Continuous x, or x on a coarse grid with ties (1 to 7 distinct values)."""
    levels = draw(st.sampled_from([None, 1, 2, 3, 4, 7]))
    if levels is None:
        u = draw(st.lists(st.integers(0, 10**6), min_size=m, max_size=m))
        x = np.array(u) / 10**6
    else:
        x = np.array(draw(st.lists(st.integers(0, levels - 1), min_size=m,
                                   max_size=m)), dtype=float)
    return draw(st.sampled_from([1e-3, 1.0, 250.0])) * x + draw(
        st.sampled_from([0.0, -7.5, 2013.0]))


@st.composite
def spline_problems(draw):
    m = draw(st.integers(8, 150))
    x = draw(spline_x(m))
    y = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=m)
    if draw(st.booleans()):  # coarse targets, with ties
        y = np.round(y)
    y = y * 10.0 ** draw(st.integers(-100, 100)) + draw(st.sampled_from([0.0, 3.0]))
    hyper = {"n_knots": draw(st.integers(3, 25)),
             "penalty": draw(st.none() | st.sampled_from([1e-3, 0.37, 1.0, 4e3]))}
    return x, y, hyper


class TestSplineAgainstReference:
    """One eigendecomposition per fit selects the penalty the per-penalty
    solves select and gives their coefficients and edf."""

    @pytest.mark.slow
    @settings(max_examples=300, deadline=None)
    @given(spline_problems())
    def test_matches_per_penalty_solves(self, problem):
        x, y, hyper = problem
        cfg = RegressorConfig("spline_gam", hyper)
        if np.unique(x).size < 2:
            with pytest.raises(SingularModelError):
                fit(cfg, x[:, None], y)
            return
        system = _ref_spline_system(x, hyper["n_knots"])
        want = hyper["penalty"]
        if want is None:
            want = _ref_spline_penalty(system, y)
        model = fit(cfg, x[:, None], y)
        _assert_same_penalty_or_tie(system, y, model.penalty, want)
        coef, edf, _ = _ref_spline_solve(system, y, model.penalty)
        # relative to the largest coefficient or target: a coefficient near
        # zero carries the rounding of the others
        np.testing.assert_allclose(model.coef, coef, rtol=1e-8, atol=1e-8 * max(
            np.abs(coef).max(), np.abs(y).max()))
        assert abs(model.edf - edf) <= 1e-9


class TestTranslationEquivariance:
    """fit(x, y + c).predict(x) == fit(x, y).predict(x) + c up to rounding.

    Targets are drawn from a continuous distribution: a tree whose best two
    splits tie exactly may pick either once the shift rounds the residuals.
    """

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["kernel_ridge", "spline_gam", "boosted_trees"]),
           m=st.integers(8, 80), d=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           shift=st.floats(-1e4, 1e4, allow_nan=False), data=st.data())
    def test_shift_moves_predictions(self, kind, m, d, seed, scale, shift, data):
        if kind == "spline_gam":
            d = 1
        x = np.column_stack([data.draw(spline_x(m)) for _ in range(d)])
        if kind == "spline_gam" and np.unique(x).size < 2:
            return
        y = scale * np.random.default_rng(seed).normal(size=m)
        cfg = RegressorConfig(kind, {"n_stages": 20} if kind == "boosted_trees" else {})
        base, moved = fit(cfg, x, y), fit(cfg, x, y + shift)
        if kind == "spline_gam":
            system = _ref_spline_system(x[:, 0], 20)
            _assert_same_penalty_or_tie(system, y, moved.penalty, base.penalty)
            if moved.penalty != base.penalty:
                base = fit(RegressorConfig(kind, {"penalty": moved.penalty}), x, y)
        atol = 1e-9 * (abs(shift) + np.abs(y).max())
        np.testing.assert_allclose(moved.predict(x), base.predict(x) + shift,
                                   rtol=0, atol=atol)


class TestRowPermutationEquivariance:
    """Refitting on the same rows in another order predicts alike, up to rounding.

    A spline λ may differ only where its two GCV scores tie.  Trees are
    exempt: they break exact split ties by feature index and sum tied
    feature values in row order, so a reordering may pick another cut.
    """

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(["kernel_ridge", "spline_gam"]),
           m=st.integers(8, 80), d=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           data=st.data())
    def test_permuted_rows_predict_alike(self, kind, m, d, seed, scale, data):
        if kind == "spline_gam":
            d = 1
        x = np.column_stack([data.draw(spline_x(m)) for _ in range(d)])
        if kind == "spline_gam" and np.unique(x).size < 2:
            return
        rng = np.random.default_rng(seed)
        y = scale * rng.normal(size=m)
        perm = rng.permutation(m)
        cfg = RegressorConfig(kind)
        base, moved = fit(cfg, x, y), fit(cfg, x[perm], y[perm])
        if kind == "spline_gam":
            system = _ref_spline_system(x[:, 0], 20)
            _assert_same_penalty_or_tie(system, y, moved.penalty, base.penalty)
            if moved.penalty != base.penalty:
                base = fit(RegressorConfig(kind, {"penalty": moved.penalty}), x, y)
        np.testing.assert_allclose(moved.predict(x), base.predict(x),
                                   rtol=0, atol=1e-9 * np.abs(y).max())


class TestDesignReuse:
    """Spline fits on one design share its factorization, bit for bit."""

    @staticmethod
    def _facts(model, xq):
        return (model.coef, model.penalty, model.edf, model.predict(xq[:, None]))

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(4, 120), seed=st.integers(0, 2**32 - 1),
           n_knots=st.integers(3, 25), penalty=st.none() | st.sampled_from([1e-3, 2.5]),
           data=st.data())
    def test_warm_fit_equals_cold_fit(self, m, seed, n_knots, penalty, data):
        x = data.draw(spline_x(m))
        if np.unique(x).size < 2:
            return
        rng = np.random.default_rng(seed)
        y = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        cfg = RegressorConfig("spline_gam", {"n_knots": n_knots, "penalty": penalty})
        span = x.max() - x.min()
        # inside the span, at both ends and outside it on either side
        xq = np.concatenate([x, [x.min(), x.max(), x.min() - 0.3 * span - 1.0,
                                 x.max() + 2.0 * span + 1.0]])
        fit(cfg, x[:, None], rng.normal(size=m))  # another target on the same design
        warm = fit(cfg, x[:, None], y)
        regress._spline_basis.cache_clear()
        cold = fit(cfg, x[:, None], y)
        for a, b in zip(self._facts(warm, xq), self._facts(cold, xq)):
            assert np.array_equal(a, b)
        # the lazy boundary extension keeps the eager formula
        spl = BSpline.construct_fast(cold.knots, cold.coef, 3, extrapolate=False)
        der = spl.derivative()
        lo, hi = cold._span_lo, cold._span_hi
        want = [float(spl(lo)) + float(der(lo)) * (xq[-2] - cold.lo),
                float(spl(hi)) + float(der(hi)) * (xq[-1] - cold.hi)]
        assert cold.predict(xq[-2:, None]).tolist() == want

    def test_refit_on_a_seen_design_is_a_cache_hit(self, spline_cfg, rng):
        regress._spline_basis.cache_clear()
        x = rng.uniform(0, 10, size=(50, 1))
        for _ in range(3):
            fit(spline_cfg, x, rng.normal(size=50))
        info = regress._spline_basis.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)

    def test_constant_x_raises_every_time(self, spline_cfg):
        regress._spline_basis.cache_clear()
        x = np.full((6, 1), 3.0)
        for _ in range(3):
            with pytest.raises(SingularModelError, match="2 distinct x values"):
                fit(spline_cfg, x, np.arange(6.0))
        assert regress._spline_basis.cache_info().currsize == 0

    def test_collapsed_knot_grid_raises_every_time(self, spline_cfg):
        # a span of 4 at 1e16 rounds the 20-knot grid onto repeated knots
        x = np.array([[1e16], [1e16 + 2.0], [1e16 + 4.0]])
        for _ in range(2):
            with pytest.raises(SingularModelError, match="spans too little"):
                fit(spline_cfg, x, np.arange(3.0))

    def test_cached_arrays_are_read_only(self, spline_cfg, rng):
        x = rng.uniform(0, 10, size=(30, 1))
        model = fit(spline_cfg, x, rng.normal(size=30))
        basis = regress._spline_basis(20, x[:, 0].tobytes())
        for a in (model.knots, basis.knots, basis.mu, basis.v, basis.bv,
                  basis.bv_norms):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_cache_stays_bounded(self, spline_cfg, rng):
        maxsize = regress._spline_basis.cache_info().maxsize
        assert 1 <= maxsize <= 8
        for _ in range(3 * maxsize):
            fit(spline_cfg, rng.uniform(0, 10, size=(20, 1)), rng.normal(size=20))
            assert regress._spline_basis.cache_info().currsize <= maxsize


@st.composite
def spline_designs(draw):
    """x (ties, and every knot of the span added) with its design, or None
    when the x cannot carry a spline.  At 2**52 the knot grid of a short
    span rounds onto repeated knots."""
    m = draw(st.integers(2, 120))
    n_knots = draw(st.integers(1, 25))
    x = draw(spline_x(m)) + draw(st.sampled_from([0.0, 2.0**52]))
    try:
        knots, _, lo, hi = regress._spline_design(x, n_knots)
    except SingularModelError:
        return None
    # knots inside [lo, hi] leave lo, hi and so the knots unchanged
    on_knots = knots[(knots >= lo) & (knots <= hi)]
    x = np.concatenate([x, draw(st.permutations(on_knots))])
    return x, n_knots, regress._spline_design(x, n_knots)


class TestBasisAgainstScipy:
    """The numpy de Boor basis gives scipy's ``BSpline`` bits: the design,
    in-span values (signs of zero included) and the boundary slopes."""

    @settings(max_examples=300, deadline=None)
    @given(spline_designs())
    def test_design_matrix(self, drawn):
        if drawn is None:
            return
        x, n_knots, (knots, b, _, _) = drawn
        want = BSpline.design_matrix(np.clip(x, knots[3], knots[n_knots + 4]),
                                     knots, 3).toarray()
        assert b.shape == want.shape and b.tobytes() == want.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(spline_designs(), st.integers(0, 2**32 - 1),
           st.sampled_from(["normal", "signed zeros", "tiny"]))
    def test_values_and_boundary_slopes(self, drawn, seed, coef_kind):
        if drawn is None:
            return
        x, _, (knots, b, lo, hi) = drawn
        rng = np.random.default_rng(seed)
        coef = rng.normal(size=b.shape[1]) * 10.0 ** rng.integers(-3, 4)
        if coef_kind == "signed zeros":  # the sum's starting zero decides the sign
            coef = np.copysign(0.0, coef)
        elif coef_kind == "tiny":  # subnormal products round to zeros of either sign
            coef = np.where(rng.random(coef.size) < 0.5, coef * 1e-320, -0.0)
        model = regress.FittedSplineGAM(knots, coef, lo, hi, 1.0, 1.0, np.zeros(1))
        xq = np.concatenate([x, [lo, hi], rng.uniform(lo, hi, size=20)])
        got = model.predict(xq[:, None])
        spl = BSpline(knots, coef, 3)
        want = spl(np.clip(xq, knots[3], knots[-4]))
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        der = spl.derivative()
        ends = (knots[3], knots[-4])
        want = (spl(ends[0]), der(ends[0]), spl(ends[1]), der(ends[1]))
        assert np.array(model._extension).tobytes() == np.array(want).tobytes()


class TestInSampleFit:
    """``fitted`` is ``predict`` on the training rows: bit for bit for kernel
    ridge and trees, and up to rounding for the spline, which takes it from
    the GCV step's (B V) z rather than B (V z)."""

    @settings(max_examples=150, deadline=None)
    @given(m=st.integers(2, 80), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans(), penalty=st.sampled_from([1e-6, 1.0, 50.0]))
    def test_kernel_ridge_bit_for_bit(self, m, d, seed, ties, penalty):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, d))
        if ties:
            x = np.round(x)
        y = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        model = fit(RegressorConfig("kernel_ridge", {"penalty": penalty}), x, y)
        assert np.array_equal(model.fitted, model.predict(x))

    @settings(max_examples=150, deadline=None)
    @given(tied_problems())
    def test_trees_bit_for_bit(self, problem):
        x, y, hyper, seed = problem
        model = fit(RegressorConfig("boosted_trees", hyper, seed=seed), x, y)
        assert np.array_equal(model.fitted, model.predict(x))

    @settings(max_examples=150, deadline=None)
    @given(spline_problems())
    def test_spline_within_rounding(self, problem):
        x, y, hyper = problem
        if np.unique(x).size < 2:
            return
        try:
            model = fit(RegressorConfig("spline_gam", hyper), x[:, None], y)
        except SingularModelError:
            return
        np.testing.assert_allclose(model.fitted, model.predict(x[:, None]),
                                   rtol=0, atol=1e-12 * np.abs(y).max())

    def test_read_only_and_checked(self, krr_cfg, rng):
        model = fit(krr_cfg, rng.normal(size=(5, 1)), rng.normal(size=5))
        with pytest.raises(ValueError, match="read-only"):
            model.fitted[0] = 1.0
        # a non-finite fit is refused when it is built, never kept
        with pytest.raises(RegressionError, match="non-finite prediction"):
            regress.FittedRegressor(1, np.array([0.0, np.inf]))


class TestMedianBandwidth:
    """The condensed-distance median is the full-matrix median, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(2, 120), d=st.integers(1, 11), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    def test_matches_full_matrix_formula(self, m, d, seed, ties):
        x = np.random.default_rng(seed).normal(size=(m, d))
        if ties:
            x = np.round(x)
        full = cdist(x, x)
        med = float(np.median(full[np.triu_indices(m, k=1)]))
        assert regress._median_bandwidth(x) == (med if med > 0 else 1.0)


class TestSplineGcvTerms:
    def test_grid_terms_are_kept_read_only_on_the_basis(self, rng):
        x = rng.uniform(0, 10, size=(40, 1))
        basis = regress._spline_basis(20, x[:, 0].tobytes())
        assert basis.scale.shape == (24, len(regress._PENALTY_GRID))
        for a in (basis.scale, basis.edf):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        # a fixed penalty on the grid gets the grid's edf up to the order of
        # the sum (one column against thirteen), through the same helper
        for j in (0, 6, 12):
            cfg = RegressorConfig("spline_gam", {"penalty": regress._PENALTY_GRID[j]})
            edf = fit(cfg, x, rng.normal(size=40)).edf
            assert edf == pytest.approx(basis.edf[j], rel=1e-14)


class TestSharedKernelDesigns:
    """Kernel ridge fits inside ``shared_designs()`` reuse the last design
    (K and its Cholesky factor) when x's bytes, bandwidth and penalty
    match, and give the bits of fits made alone."""

    @staticmethod
    def _factor_spy(calls):
        real = regress._kernel_design  # one factorization per design

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return spy

    @staticmethod
    def _facts(model, xq):
        return model.alpha, model.gamma, model.fitted, model.predict(xq)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(2, 30), d=st.integers(1, 3), constant=st.booleans(),
           seed=st.integers(0, 2**32 - 1),
           species=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([1.0, 0.25]),
                                      st.sampled_from([None, 0.7])),
                            min_size=1, max_size=6))
    def test_reused_design_gives_the_bits_of_a_fresh_one(self, m, d, constant, seed,
                                                          species):
        rng = np.random.default_rng(seed)
        x = np.full((m, d), 0.5) if constant else rng.normal(size=(m, d)).round(1)
        # the second x differs from the first in one bit of one value
        xs = (x, x.copy())
        xs[1][0, 0] = np.nextafter(x[0, 0], np.inf)
        xq = rng.normal(size=(5, d))
        fits = [(xs[v], RegressorConfig("kernel_ridge", {"penalty": lam, "bandwidth": bw}),
                 rng.normal(size=m) * 10.0 ** rng.integers(-3, 4))
                for v, lam, bw in species]
        # a key that differs from the one before refactors; nothing else does
        designs = 1 + sum(a != b for a, b in zip(species, species[1:]))
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regress, "_kernel_design", self._factor_spy(calls))
            with regress.shared_designs():
                shared = [fit(cfg, xv, y) for xv, cfg, y in fits]
            assert len(calls) == designs
            fresh = [fit(cfg, xv, y) for xv, cfg, y in fits]
            assert len(calls) == designs + len(fits)  # alone, each fit factors
        for a, b in zip(shared, fresh):
            for u, v in zip(self._facts(a, xq), self._facts(b, xq)):
                assert np.asarray(u).tobytes() == np.asarray(v).tobytes()

    def test_singular_design_raises_for_every_fit_and_is_not_kept(self, monkeypatch,
                                                                   krr_cfg, rng):
        # the data of TestKernelRidge.test_singular_system_raises
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-300})
        x_bad = np.array([[0.0], [0.0], [1.0]])
        x_good = rng.normal(size=(3, 1))
        calls = []
        monkeypatch.setattr(regress, "_kernel_design", self._factor_spy(calls))
        with regress.shared_designs():
            fit(krr_cfg, x_good, rng.normal(size=3))
            for _ in range(3):
                with pytest.raises(SingularModelError, match="not positive definite"):
                    fit(cfg, x_bad, rng.normal(size=3))
            # the failed design dropped the good one and kept nothing
            fit(krr_cfg, x_good, rng.normal(size=3))
        assert len(calls) == 5

    def test_block_end_drops_the_design(self, monkeypatch, krr_cfg, rng):
        x = rng.normal(size=(20, 2))
        calls = []
        monkeypatch.setattr(regress, "_kernel_design", self._factor_spy(calls))
        with regress.shared_designs():
            for _ in range(3):
                fit(krr_cfg, x, rng.normal(size=20))
        assert len(calls) == 1
        with regress.shared_designs():
            fit(krr_cfg, x, rng.normal(size=20))
        assert len(calls) == 2


def _scipy_kernel_ridge(x, y, penalty, bandwidth, xq):
    """alpha, gamma, fitted and predict(xq) of a kernel ridge fit through
    scipy's wrappers, the way kernel ridge called them before it bound the
    compiled routines itself; None where the factorization fails."""
    m = x.shape[0]
    if bandwidth is None:
        med = float(np.median(pdist(x)))
        bandwidth = med if med > 0 else 1.0
    gamma = 1.0 / (2.0 * bandwidth * bandwidth)
    k = np.exp(-gamma * cdist(x, x, "sqeuclidean"))
    a = k.copy()
    a.flat[::m + 1] += penalty
    c, info = lapack.dpotrf(a.T, overwrite_a=True, clean=False)
    if info != 0:
        return None
    intercept = float(np.mean(y))
    alpha, _ = lapack.dpotrs(c, y - intercept, overwrite_b=True)

    def dot(k):
        return k @ alpha if k.shape[0] < 2 else dgemv(1.0, k.T, alpha, trans=1)

    kq = np.exp(-gamma * cdist(xq, x, "sqeuclidean"))
    return alpha, gamma, dot(k) + intercept, dot(kq) + intercept


def _kernel_ridge_facts(model, xq):
    return [np.asarray(v).tobytes()
            for v in (model.alpha, model.gamma, model.fitted, model.predict(xq))]


class TestCompiledKernelRoutines:
    """Kernel ridge calls scipy's compiled routines without scipy's wrappers,
    builds a design in the arrays of the one it replaces, and keeps the
    wrappers' bits."""

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(2, 300), d=st.integers(1, 10), decimals=st.integers(0, 2),
           seed=st.integers(0, 2**32 - 1), penalty=st.sampled_from([1.0, 0.25, 1e-3]),
           bandwidth=st.sampled_from([None, 0.7]), q=st.integers(1, 5))
    def test_bits_of_scipys_wrappers(self, m, d, decimals, seed, penalty, bandwidth, q):
        rng = np.random.default_rng(seed)
        cfg = RegressorConfig("kernel_ridge", {"penalty": penalty, "bandwidth": bandwidth})
        xq = rng.normal(size=(q, d)).round(decimals)
        # rounded features tie; the second design is built in the first's arrays
        with regress.shared_designs():
            for _ in range(2):
                x, y = rng.normal(size=(m, d)).round(decimals), rng.normal(size=m)
                ref = _scipy_kernel_ridge(x, y, penalty, bandwidth, xq)
                if ref is None:
                    with pytest.raises(SingularModelError):
                        fit(cfg, x, y)
                    continue
                assert _kernel_ridge_facts(fit(cfg, x, y), xq) == [
                    np.asarray(v).tobytes() for v in ref]

    def test_design_of_the_same_size_reuses_the_arrays(self, krr_cfg, rng):
        m = 200
        xq, y = rng.normal(size=(7, 2)), rng.normal(size=m)
        regress.load_kernel_ridge()
        with regress.shared_designs():
            first = fit(krr_cfg, rng.normal(size=(m, 2)), y)
            before = _kernel_ridge_facts(first, xq)
            tracemalloc.start()
            try:
                fit(krr_cfg, rng.normal(size=(m, 2)), y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # no m x m array, and the median's m (m - 1) / 2 distances in the old ones
        assert peak < m * m * 8 // 4
        assert _kernel_ridge_facts(first, xq) == before


@pytest.fixture
def reloaded_routines():
    """Kernel ridge loads its routines afresh, and again after the test."""
    regress.load_kernel_ridge.cache_clear()
    yield
    regress.load_kernel_ridge.cache_clear()


def _broken_lapack():
    dpotrf, dpotrs, dgemv = blas.lapack.__wrapped__()
    return (lambda a: 0), dpotrs, dgemv  # a factorization that leaves a as it is


class _BrokenDistances:
    def __init__(self, module):
        self.pdist_euclidean = module.pdist_euclidean

    @staticmethod
    def cdist_sqeuclidean(x, y, out=None):
        return np.zeros((len(x), len(y)))  # ignores out


@pytest.mark.skipif(blas.lapack() is None, reason="no LAPACK symbols in scipy's OpenBLAS")
class TestScipyFallback:
    """Without the bindings or the distance extension, or when either fails
    its check at load, kernel ridge runs on scipy's wrappers, with the bits
    of the compiled routines it would have called."""

    @staticmethod
    def _outputs(tmp_path, name):
        rng = np.random.default_rng(5)
        x, y, xq = rng.normal(size=(60, 2)).round(1), rng.normal(size=60), rng.normal(
            size=(9, 2))
        facts = _kernel_ridge_facts(fit(RegressorConfig("kernel_ridge"), x, y), xq)
        out = tmp_path / name
        assert cli.main(["denoise", "--input", str(tmp_path / "sim" / "survey.csv"),
                         "--config", str(tmp_path / "krr.cfg"),
                         "--out", str(out)]) == cli.EXIT_OK
        return facts, (out / "zhat.csv").read_bytes()

    @pytest.mark.parametrize("force", ["no extension", "no bindings",
                                       "bindings fail", "extension fails"])
    def test_fallback_has_the_bits_of_the_compiled_routines(
            self, monkeypatch, tmp_path, reloaded_routines, force):
        assert cli.main(["simulate", "--out", str(tmp_path / "sim"), "--seed", "3",
                         "--years", "3", "--days-per-year", "40",
                         "--n-species", "3"]) == cli.EXIT_OK
        (tmp_path / "krr.cfg").write_text("regressor.res.kind = kernel_ridge\n")
        fast = self._outputs(tmp_path, "fast")
        assert regress.load_kernel_ridge().pdist is not pdist
        regress.load_kernel_ridge.cache_clear()
        extension = regress._distance_module()
        monkeypatch.setattr(*{
            "no extension": (regress, "_distance_module", lambda: None),
            "no bindings": (blas, "lapack", lambda: None),
            "bindings fail": (blas, "lapack", _broken_lapack),
            "extension fails": (regress, "_distance_module",
                                lambda: _BrokenDistances(extension)),
        }[force])
        assert self._outputs(tmp_path, "fallback") == fast
        assert regress.load_kernel_ridge().pdist is pdist  # scipy's wrapper


class TestReadOnlyModels:
    """A fit scope hands one model to several callers, and a worker pool
    hands models back pickled: no caller can write into a model's arrays."""

    @staticmethod
    def _model(cfg, rng, how):
        x, y = toy_1d(rng, m=30)
        model = fit(cfg, x, y)
        if how == "as fit":
            return model
        loaded = pickle.loads(pickle.dumps(model))
        probe = rng.uniform(-2, 2, size=(17, 1))
        assert loaded.predict(probe).tobytes() == model.predict(probe).tobytes()
        return loaded

    @pytest.mark.parametrize("how", ["as fit", "after a pickle round trip"])
    def test_kernel_ridge(self, krr_cfg, rng, how):
        model = self._model(krr_cfg, rng, how)
        for a in (model.x_train, model.alpha, model.fitted):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    @pytest.mark.parametrize("how", ["as fit", "after a pickle round trip"])
    def test_boosted_trees(self, rng, how):
        model = self._model(RegressorConfig("boosted_trees", {"n_stages": 3}), rng, how)
        for a in (model.fitted, *(a for tree in model.trees for a in tree)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @pytest.mark.parametrize("how", ["as fit", "after a pickle round trip"])
    def test_spline_gam(self, spline_cfg, rng, how):
        model = self._model(spline_cfg, rng, how)
        for a in (model.coef, model.knots, model.fitted):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestFitScope:
    """Inside ``shared_designs()``, ``fit`` returns the model it already fit
    for the same kind, resolved hyperparameters, seed, x and y, whatever
    the backend; nothing is kept outside a scope."""

    BACKENDS = {"kernel_ridge": RegressorConfig("kernel_ridge"),
                "boosted_trees": RegressorConfig("boosted_trees", {"n_stages": 4}, 7),
                "spline_gam": RegressorConfig("spline_gam")}

    @staticmethod
    def _backend_spy(monkeypatch, calls):
        for kind in TestFitScope.BACKENDS:
            real = getattr(regress, f"_fit_{kind}")

            def spy(*args, real=real, kind=kind):
                calls.append(kind)
                return real(*args)
            monkeypatch.setattr(regress, f"_fit_{kind}", spy)

    def test_repeats_hit_until_the_scope_closes(self, monkeypatch, rng):
        calls = []
        self._backend_spy(monkeypatch, calls)
        x, y = toy_1d(rng, m=30)
        for kind, cfg in self.BACKENDS.items():
            with regress.shared_designs():
                first = fit(cfg, x, y)
                with regress.shared_designs():  # a nested block reuses the models
                    again = fit(cfg, x.copy(), y.copy())
                assert again is first
                assert fit(cfg, x, y) is first
            assert regress._scope is None
            assert fit(cfg, x, y) is not first  # nothing kept after the scope
        assert calls == ["kernel_ridge"] * 2 + ["boosted_trees"] * 2 + ["spline_gam"] * 2

    def test_any_difference_of_key_fits_again(self, monkeypatch, rng):
        calls = []
        self._backend_spy(monkeypatch, calls)
        x, y = toy_1d(rng, m=30)
        x2 = x.copy()
        x2[0, 0] = np.nextafter(x[0, 0], np.inf)
        cfg = self.BACKENDS["boosted_trees"]
        with regress.shared_designs():
            for args in ((cfg, x, y), (cfg.with_seed(8), x, y), (cfg, x2, y),
                         (cfg, x, y + 1.0), (cfg, x.reshape(15, 2), y[:15]),
                         (RegressorConfig("boosted_trees", {"n_stages": 5}, 7), x, y),
                         (RegressorConfig("kernel_ridge", {}, 7), x, y)):
                fit(*args)
                fit(*args)
        assert len(calls) == 7

    def test_resolved_hyperparameters_are_the_key(self, monkeypatch, rng):
        calls = []
        self._backend_spy(monkeypatch, calls)
        x, y = toy_1d(rng, m=30)
        with regress.shared_designs():
            a = fit(RegressorConfig("kernel_ridge"), x, y)
            b = fit(RegressorConfig("kernel_ridge", {"penalty": 1.0}), x, y)
        assert a is b and calls == ["kernel_ridge"]

    def test_failed_fit_is_not_kept(self, monkeypatch):
        calls = []
        self._backend_spy(monkeypatch, calls)
        # the data of TestKernelRidge.test_singular_system_raises
        cfg = RegressorConfig("kernel_ridge", {"penalty": 1e-300})
        x_bad, y = np.array([[0.0], [0.0], [1.0]]), np.array([1.0, 2.0, 3.0])
        messages = []
        with regress.shared_designs():
            for _ in range(2):
                with pytest.raises(SingularModelError) as err:
                    fit(cfg, x_bad, y)
                messages.append(str(err.value))
            assert regress._scope.models == {}
        assert calls == ["kernel_ridge"] * 2
        assert messages[0] == messages[1]

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["kernel_ridge", "boosted_trees", "spline_gam"]),
           m=st.integers(2, 25), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           subsample=st.sampled_from([1.0, 0.7]))
    def test_hit_gives_the_bits_of_a_fresh_fit(self, kind, m, d, seed, subsample):
        rng = np.random.default_rng(seed)
        if kind == "spline_gam":  # one feature, and rows enough for GCV
            m, d = max(m, 5), 1
        x = rng.normal(size=(m, d)).round(1)
        if kind == "spline_gam":
            x[-1] = x[0] + 1.0  # a spline needs 2 distinct x
        y = rng.normal(size=m) * 10.0 ** rng.integers(-3, 4)
        xq = rng.normal(size=(5, d))
        hyper = {"n_stages": 6, "subsample": subsample} if kind == "boosted_trees" else {}
        cfg = RegressorConfig(kind, hyper, seed % 1000)
        with regress.shared_designs():
            fit(cfg, x, y)
            hit = fit(cfg, x.copy(), y.copy())
        fresh = fit(cfg, x, y)
        assert hit is not fresh
        for a, b in ((hit.fitted, fresh.fitted), (hit.predict(xq), fresh.predict(xq))):
            assert a.tobytes() == b.tobytes()
