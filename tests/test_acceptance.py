"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each test exercises the full pipeline at the scale stated in its
docstring and records a ``CRITERION k: PASS|FAIL - summary`` line that
the terminal-summary hook in conftest prints after the run, so the
acceptance status is always visible in the pytest output.
"""

import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import conftest
from tqsreg import evalharness as ev
from tqsreg import oracle, regress, synthgen
from tqsreg.cli import main as cli_main
from tqsreg.estimators import tqs_eq1
from tqsreg.regress import RegressorConfig
from tqsreg.synthgen import reconstruction_mse


def report(num, ok, detail):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def krr_sweeps():
    """Full-grid species and noise sweeps, kernel-ridge backend, 20 seeds."""
    cfg = RegressorConfig("kernel_ridge")
    species = synthgen.run_species_sweep(
        synthgen.SPECIES_GRID, trials=20, cfg=cfg, master_seed=0)
    noise = synthgen.run_noise_sweep(
        synthgen.SIGMA_GRID, trials=20, cfg=cfg, master_seed=1)
    return species, noise


@pytest.fixture(scope="module")
def simulations():
    """The ten seeded survey simulations used by criteria 8-10."""
    return [ev.simulate_moth_survey(seed=s) for s in range(10)]


@pytest.fixture(scope="module")
def eval_cfgs():
    return (
        RegressorConfig("spline_gam"),      # covariate models
        RegressorConfig("kernel_ridge"),    # residual models
        RegressorConfig("spline_gam"),      # per-year smoother
    )


def _bz(table):
    return ev.brightness_zero_subset(table, "moon_brightness")


# ---------------------------------------------------------------------------


def test_criterion_1_lemma_equivalence():
    """Eq.(1)/Eq.(2) agreement within 1e-12 on 100 random joints, < 5 s."""
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        joint = oracle.random_joint(rng)
        outs = joint.outcomes()
        e_y1_x = oracle.exact_cond_expectation(
            joint, lambda o: o.y1, [lambda o: o.x])
        resid = lambda o: o.y1 - e_y1_x[(o.x,)]
        e_r = oracle.exact_cond_expectation(
            joint, resid, [lambda o: o.x, lambda o: o.y2])
        e_y1_xy2 = oracle.exact_cond_expectation(
            joint, lambda o: o.y1, [lambda o: o.x, lambda o: o.y2])
        eq1 = np.array([o.y1 - e_r[(o.x, o.y2)] for o in outs])
        eq2 = np.array(
            [o.y1 - e_y1_xy2[(o.x, o.y2)] + e_y1_x[(o.x,)] for o in outs])
        worst = max(worst, float(np.max(np.abs(eq1 - eq2))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 5.0
    report(1, ok, f"max |eq1-eq2| = {worst:.2e} over 100 joints "
                  f"(tol 1e-12), {elapsed:.2f}s (< 5s)")


def test_criterion_2_theorem1_bound():
    """3QS MSE <= raw MSE + 1e-12 on 100 zero-mean-f additive joints, < 5 s."""
    rng = np.random.default_rng(200)
    t0 = time.perf_counter()
    worst_slack = np.inf
    for _ in range(100):
        joint = oracle.random_joint(rng, additive=True, zero_mean_f=True)
        rep = oracle.verify_theorem1(joint, oracle.exact_tqs(joint))
        worst_slack = min(worst_slack, rep.slack)
    elapsed = time.perf_counter() - t0
    ok = worst_slack >= -1e-12 and elapsed < 5.0
    report(2, ok, f"min slack (rhs-lhs) = {worst_slack:.2e} over 100 joints "
                  f"(>= -1e-12), {elapsed:.2f}s (< 5s)")


def test_criterion_3_theorem2_identity():
    """|offset-corrected MSE - E[Var(f|X,Y2)]| <= 1e-12 on the same joints."""
    rng = np.random.default_rng(200)  # same stream as criterion 2
    worst = 0.0
    for _ in range(100):
        joint = oracle.random_joint(rng, additive=True, zero_mean_f=True)
        rep = oracle.verify_theorem2(joint, oracle.exact_tqs(joint))
        worst = max(worst, abs(rep.lhs - rep.rhs))
    ok = worst <= 1e-12
    report(3, ok, f"max |lhs-rhs| = {worst:.2e} over 100 joints (tol 1e-12)")


def test_criterion_4_corollary_finite_sample():
    """Linear instance Y_i = w_i X + N, m = 500, kernel ridge: centered
    reconstruction MSE <= 1e-3 (worst case over 10 seeds)."""
    cfg_x = RegressorConfig("kernel_ridge", {"penalty": 1e-4, "bandwidth": 20.0})
    cfg_j = RegressorConfig("kernel_ridge", {"penalty": 1e-6})
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = 500
        x = rng.uniform(-1, 1, size=m)
        n = rng.uniform(-0.5, 0.5, size=m)
        z1 = 1.0 * x
        y1 = z1 + n
        y2 = -0.7 * x + n
        z_hat = tqs_eq1(y1, x, y2, cfg_x, cfg_j)
        worst = max(worst, reconstruction_mse(z_hat, z1))
    ok = worst <= 1e-3
    report(4, ok, f"worst centered MSE = {worst:.2e} over 10 seeds (<= 1e-3)")


@pytest.mark.slow
def test_criterion_5_species_trend_both_backends(krr_sweeps):
    """Mean 3QS MSE at n = 10 strictly below n = 2 (sigma = 0, 20 paired
    seeds) for both boosted-trees and kernel-ridge backends, < 2 min."""
    t0 = time.perf_counter()
    species_rows, _ = krr_sweeps
    krr = {r.sweep_value: r.mean_mse for r in species_rows if r.method == "3qs"}
    trees_rows = synthgen.run_species_sweep(
        [2, 10], trials=20, cfg=RegressorConfig("boosted_trees"), master_seed=0)
    trees = {r.sweep_value: r.mean_mse for r in trees_rows if r.method == "3qs"}
    elapsed = time.perf_counter() - t0
    ok = krr[10] < krr[2] and trees[10] < trees[2] and elapsed < 120.0
    report(5, ok, f"3QS MSE n=10 vs n=2: kernel_ridge {krr[10]:.2e} < "
                  f"{krr[2]:.2e}, boosted_trees {trees[10]:.2e} < "
                  f"{trees[2]:.2e}, {elapsed:.1f}s (< 120s)")


@pytest.mark.slow
def test_criterion_6_noise_trend_spearman(krr_sweeps):
    """Spearman >= 0.9 between sigma grid and mean 3QS MSE (n=2, tied f)."""
    _, noise_rows = krr_sweeps
    tqs = [(r.sweep_value, r.mean_mse) for r in noise_rows if r.method == "3qs"]
    sigmas = [t[0] for t in tqs]
    mses = [t[1] for t in tqs]
    rho = float(spearmanr(sigmas, mses).statistic)
    ok = rho >= 0.9
    report(6, ok, f"Spearman(sigma, mean 3QS MSE) = {rho:.3f} (>= 0.9) "
                  f"over grid {sigmas}")


@pytest.mark.slow
def test_criterion_7_hs_worse_everywhere(krr_sweeps):
    """Mean HS MSE > mean 3QS MSE at every grid point of both sweeps."""
    species_rows, noise_rows = krr_sweeps
    violations = []
    for rows in (species_rows, noise_rows):
        by = {}
        for r in rows:
            by.setdefault(r.sweep_value, {})[r.method] = r.mean_mse
        for gv, d in by.items():
            if not d["hs"] > d["3qs"]:
                violations.append((gv, d))
    ok = not violations
    report(7, ok, "HS mean MSE > 3QS mean MSE at all "
                  f"{len(synthgen.SPECIES_GRID) + len(synthgen.SIGMA_GRID)} "
                  f"grid points (violations: {violations})")


@pytest.mark.slow
def test_criterion_8_table1_diagnostics(simulations, eval_cfgs):
    """10-seed simulation: mean |corr with brightness| drops >= 25% under
    3QS, and 3QS retains more per-species std than HS in the mean."""
    cfg_x, cfg_res, _ = eval_cfgs
    reductions, ret_3qs, ret_hs = [], [], []
    for sim in simulations:
        d = ev.compute_diagnostics(sim.table, cfg_x, cfg_res, "moon_brightness")
        before = np.mean(np.abs(d["3qs"]["correlation_before"]))
        after = np.mean(np.abs(d["3qs"]["correlation_after"]))
        reductions.append(100.0 * (before - after) / before)
        ret_3qs.append(np.mean(d["3qs"]["retained_std"]))
        ret_hs.append(np.mean(d["hs"]["retained_std"]))
    red = float(np.mean(reductions))
    r3, rh = float(np.mean(ret_3qs)), float(np.mean(ret_hs))
    ok = red >= 25.0 and r3 > rh
    report(8, ok, f"mean |corr| reduction {red:.1f}% (>= 25%), retained std "
                  f"3QS {r3:.3f} > HS {rh:.3f}, 10 seeds")


@pytest.mark.slow
def test_criterion_9_improvement_ordering(simulations, eval_cfgs):
    """Brightness-zero subset, 10 seeds: mean percent-improvement ordering
    global > 3QS > {MB, raw} > HS, < 10 min."""
    cfg_x, cfg_res, smooth_cfg = eval_cfgs
    t0 = time.perf_counter()
    per_seed = []
    for sim in simulations:
        rep = ev.loyo_evaluate(
            sim.table, ["hs", "3qs", "mb", "global"], cfg_x, cfg_res,
            smooth_cfg, test_filter=_bz, brightness_column="moon_brightness")
        per_seed.append(rep.improvements)
    elapsed = time.perf_counter() - t0
    mean = {k: float(np.mean([d[k] for d in per_seed])) for k in per_seed[0]}
    mean["raw"] = 0.0
    ok = (mean["global"] > mean["3qs"]
          and mean["3qs"] > mean["mb"] and mean["3qs"] > mean["raw"]
          and mean["mb"] > mean["hs"] and mean["raw"] > mean["hs"]
          and elapsed < 600.0)
    report(9, ok, "mean improvement %: global "
                  f"{mean['global']:.1f} > 3qs {mean['3qs']:.1f} > "
                  f"{{mb {mean['mb']:.1f}, raw 0.0}} > hs {mean['hs']:.1f}, "
                  f"10 seeds, {elapsed:.0f}s (< 600s)")


@pytest.mark.slow
def test_criterion_10_aux_species_monotonicity(simulations, eval_cfgs):
    """Mean 3QS predictive MSE non-increasing over n_aux in {1,3,5,9} on
    the full and brightness-zero test subsets, 10 seeds."""
    cfg_x, cfg_res, smooth_cfg = eval_cfgs
    filters = (("full", None), ("brightness-zero", _bz))
    n_auxes = (1, 3, 5, 9)
    vals = {(label, n_aux): [] for label, _ in filters for n_aux in n_auxes}
    for sim in simulations:
        # one fit scope per seed: the filter touches only test rows, so both
        # halves share every fit, and the scope's models go with the seed
        with regress.shared_designs():
            for label, filt in filters:
                for n_aux in n_auxes:
                    vals[label, n_aux].append(
                        ev.loyo_evaluate(sim.table, ["3qs"], cfg_x, cfg_res,
                                         smooth_cfg, test_filter=filt,
                                         n_aux=n_aux).mean_mse("3qs"))
    grids = {}
    ok = True
    for label, _ in filters:
        means = [float(np.mean(vals[label, n_aux])) for n_aux in n_auxes]
        grids[label] = [round(v, 4) for v in means]
        ok = ok and all(b <= a + 1e-12 for a, b in zip(means, means[1:]))
    report(10, ok, f"mean 3QS MSE over n_aux {{1,3,5,9}}: full "
                   f"{grids['full']}, brightness-zero "
                   f"{grids['brightness-zero']} (both non-increasing)")


def test_criterion_11_protocol_arithmetic(eval_cfgs):
    """A 5-year input yields exactly 20 train/test pairs per species per
    method."""
    cfg_x, cfg_res, smooth_cfg = eval_cfgs
    sim = ev.simulate_moth_survey(years=5, days_per_year=40, n_species=3,
                                  seed=0)
    rep = ev.loyo_evaluate(sim.table, ["raw", "3qs"], cfg_x, cfg_res,
                           smooth_cfg)
    counts = {}
    for c in rep.cells:
        counts[(c.species, c.method)] = counts.get((c.species, c.method), 0) + 1
    ok = set(counts.values()) == {20}
    report(11, ok, f"pairs per (species, method): {sorted(set(counts.values()))}"
                   " (expected exactly {20})")


def test_criterion_12_cli_determinism(tmp_path):
    """Repeated CLI runs with identical config and seed are byte-identical,
    including under --jobs > 1."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("synth.species_grid = 2,3\nsynth.sigma_grid = 0,0.1\n"
                   "synth.n_obs = 100\n")
    blobs = {}
    for name, jobs in (("a", "1"), ("b", "2"), ("c", "2")):
        out = tmp_path / name
        code = cli_main(["synth", "--out", str(out), "--seed", "0",
                         "--trials", "3", "--jobs", jobs,
                         "--config", str(cfg)])
        assert code == 0
        blobs[name] = ((out / "species_sweep.csv").read_bytes()
                       + (out / "noise_sweep.csv").read_bytes())
    sim_out = tmp_path / "sim"
    cli_main(["simulate", "--out", str(sim_out), "--seed", "1",
              "--years", "2", "--days-per-year", "30", "--n-species", "2"])
    dn = {}
    for name in ("d", "e"):
        out = tmp_path / name
        code = cli_main(["denoise", "--input", str(sim_out / "survey.csv"),
                         "--out", str(out), "--seed", "1"])
        assert code == 0
        dn[name] = ((out / "zhat.csv").read_bytes()
                    + (out / "diagnostics.json").read_bytes())
    ok = (blobs["a"] == blobs["b"] == blobs["c"] and dn["d"] == dn["e"])
    report(12, ok, "synth byte-identical across reruns and --jobs {1,2}; "
                   "denoise byte-identical across reruns")
