import os
import time

import numpy as np
import pytest

from tqsreg import cli, synthgen
from tqsreg.regress import RegressorConfig
from tqsreg.synthgen import (
    SynthConfig,
    generate,
    reconstruction_mse,
    run_noise_sweep,
    run_species_sweep,
    trial_seed,
)


def _task(args):
    """Task ``(i, fail, parent_pid)`` of the worker-pool tests: (i, where it ran)
    after 20 ms, or a ValueError naming i when i is in ``fail``."""
    i, fail, parent_pid = args
    if i in fail:
        raise ValueError(f"task {i} failed")
    time.sleep(0.02)
    return i, "here" if os.getpid() == parent_pid else "worker"


def _marked_task(args):
    """Task ``(i, directory)``: task 0 raises; any other leaves a marker file
    in ``directory``, then sleeps 50 ms."""
    i, directory = args
    if i == 0:
        raise ValueError("task 0 failed")
    open(os.path.join(directory, str(i)), "w").close()
    time.sleep(0.05)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_results_in_task_order(self, jobs):
        tasks = [(i, (), os.getpid()) for i in range(7)]
        with synthgen.worker_pool(jobs) as run:
            results = run(_task, tasks)
        assert [r[0] for r in results] == list(range(7))
        # only workers compute when there are any
        assert {r[1] for r in results} == ({"here"} if jobs == 1 else {"worker"})

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_first_failing_task_raises(self, jobs):
        # task 1 fails as fast as task 0 and its error may be known first
        tasks = [(i, (0, 1, 5), os.getpid()) for i in range(7)]
        with synthgen.worker_pool(jobs) as run:
            with pytest.raises(ValueError, match="task 0 failed"):
                run(_task, tasks)
            # the pool serves the next run
            assert [r[0] for r in run(_task, [(i, (), os.getpid()) for i in range(3)])] \
                == [0, 1, 2]

    @pytest.mark.parametrize("jobs", [2, 3])
    def test_failure_stops_the_queue(self, jobs, tmp_path):
        tasks = [(i, str(tmp_path)) for i in range(30)]
        with synthgen.worker_pool(jobs) as run:
            with pytest.raises(ValueError, match="task 0 failed"):
                run(_marked_task, tasks)
            assert run(abs, [-1, -2]) == [1, 2]
        # task 0, the tasks running beside it and those already in the
        # executor's call queue start; the rest are cancelled
        assert 1 + len(os.listdir(tmp_path)) < 2 * jobs + 3


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n_species=1)
        with pytest.raises(ValueError):
            SynthConfig(n_obs=10)
        with pytest.raises(ValueError):
            SynthConfig(sigma_eps=-0.1)


class TestGenerate:
    def test_shapes(self):
        inst = generate(SynthConfig(n_species=4, n_obs=100))
        assert inst.y.shape == (100, 4)
        assert inst.z.shape == (100, 4)
        assert inst.x.shape == (100,)

    def test_decomposition_identity(self):
        inst = generate(SynthConfig(n_species=3, n_obs=120, sigma_eps=0.1, seed=2))
        np.testing.assert_allclose(
            inst.y, inst.z + inst.noise_term() + inst.eps, atol=1e-12
        )

    def test_latent_is_linear_in_x(self):
        inst = generate(SynthConfig(seed=5))
        np.testing.assert_allclose(
            inst.z, inst.x[:, None] * inst.w_x[None, :], atol=1e-12
        )

    def test_sigma_zero_means_no_eps(self):
        inst = generate(SynthConfig(sigma_eps=0.0))
        assert np.all(inst.eps == 0.0)

    def test_tied_noise_functions(self):
        inst = generate(SynthConfig(n_species=5, tie_noise_functions=True, seed=1))
        nt = inst.noise_term()
        for j in range(1, 5):
            np.testing.assert_allclose(nt[:, j], nt[:, 0], atol=1e-12)

    def test_sigmoid_params_within_ranges(self):
        cfg = SynthConfig(n_species=10, seed=9)
        inst = generate(cfg)
        a, b, c = inst.sigmoid_params.T
        assert np.all((a >= 0.5) & (a <= 2.0))
        assert np.all((b >= 1.0) & (b <= 5.0))
        assert np.all((c >= -0.5) & (c <= 0.5))

    def test_seed_determinism(self):
        a = generate(SynthConfig(seed=7))
        b = generate(SynthConfig(seed=7))
        assert np.array_equal(a.y, b.y)
        assert not np.array_equal(a.y, generate(SynthConfig(seed=8)).y)

    def test_noise_term_matches_scalar_sigmoid(self):
        inst = generate(SynthConfig(n_species=2, n_obs=60, seed=3))
        a, b, c = inst.sigmoid_params[1]
        t = inst.noise[10] * inst.w_n[1]
        expected = a / (1.0 + np.exp(-b * (t - c)))
        assert inst.noise_term()[10, 1] == pytest.approx(expected, abs=1e-12)


class TestReconstructionMse:
    def test_offset_invariance(self, rng):
        z = rng.normal(size=100)
        assert reconstruction_mse(z + 3.7, z) == pytest.approx(0.0, abs=1e-12)

    def test_known_value(self):
        # z_hat differs from truth by +-1 after centering -> MSE 1
        z_true = np.zeros(4)
        z_hat = np.array([1.0, -1.0, 1.0, -1.0])
        assert reconstruction_mse(z_hat, z_true) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reconstruction_mse(np.zeros(3), np.zeros(4))


class TestTrialSeed:
    def test_paired_across_methods_distinct_across_cells(self):
        s = {trial_seed(0, g, t) for g in range(5) for t in range(20)}
        assert len(s) == 100  # no collisions
        assert trial_seed(0, 2, 3) == trial_seed(0, 2, 3)


class TestSweeps:
    def test_species_sweep_rows(self):
        cfg = RegressorConfig("kernel_ridge")
        rows = run_species_sweep([2, 3], trials=2, cfg=cfg, n_obs=100)
        assert len(rows) == 4  # 2 grid points x 2 methods
        assert {r.method for r in rows} == {"3qs", "hs"}
        for r in rows:
            assert r.trials == 2
            assert np.isfinite(r.stderr_mse)

    @pytest.mark.parametrize("sweep,grid,message", [
        (run_species_sweep, [2.5], r"species counts must be integers \(got 2.5\)"),
        (run_species_sweep, [2, float("inf")], "species counts must be integers"),
        (run_species_sweep, [], "the species sweep has no grid value"),
        (run_noise_sweep, [], "the noise sweep has no grid value"),
        (run_noise_sweep, [0.0, -0.1], "sigma_eps must be >= 0"),
        (run_noise_sweep, [0.0, float("inf")], r"sigma_eps must be finite \(got inf\)"),
        (run_noise_sweep, [float("nan")], r"sigma_eps must be finite \(got nan\)"),
    ])
    def test_bad_grid_raises_before_any_trial(self, monkeypatch, sweep, grid, message):
        def no_trial(*a, **k):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(synthgen, "generate", no_trial)
        with pytest.raises(ValueError, match=message):
            sweep(grid, trials=1, cfg=RegressorConfig("kernel_ridge"), n_obs=100)

    def test_single_trial_stderr_nan(self):
        cfg = RegressorConfig("kernel_ridge")
        rows = run_noise_sweep([0.0], trials=1, cfg=cfg, n_obs=100)
        assert all(np.isnan(r.stderr_mse) for r in rows)

    def test_parallel_equals_serial(self):
        cfg = RegressorConfig("kernel_ridge")
        serial = run_species_sweep([2, 3], trials=2, cfg=cfg, n_obs=100)
        with synthgen.worker_pool(2) as run:
            parallel = run_species_sweep([2, 3], trials=2, cfg=cfg, n_obs=100, pool=run)
        assert serial == parallel

    def test_spawned_workers_pin_their_blas(self, monkeypatch):
        # spawned workers start a fresh OpenBLAS, here at 2 threads; they
        # must pin themselves to match the serial sweep at 500 rows
        import concurrent.futures
        import multiprocessing

        real = concurrent.futures.ProcessPoolExecutor
        spawn = multiprocessing.get_context("spawn")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: real(*a, mp_context=spawn, **k))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        cfg = RegressorConfig("kernel_ridge")
        serial = run_noise_sweep([0.0, 0.2], trials=2, cfg=cfg, n_obs=500)
        with synthgen.worker_pool(2) as run:
            parallel = run_noise_sweep([0.0, 0.2], trials=2, cfg=cfg, n_obs=500, pool=run)
        assert serial == parallel

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            run_species_sweep([2], trials=0, cfg=RegressorConfig("kernel_ridge"))

    def test_csv_output(self, tmp_path):
        # the synth subcommand is the one writer of sweep rows; it seeds
        # the noise sweep with master seed + 1
        cfg = RegressorConfig("kernel_ridge")
        rows = run_noise_sweep([0.0, 0.1], trials=1, cfg=cfg, master_seed=1,
                               n_obs=100)
        cfg_p = tmp_path / "s.cfg"
        cfg_p.write_text("synth.species_grid = 2\nsynth.sigma_grid = 0,0.1\n"
                         "synth.n_obs = 100\n")
        out = tmp_path / "s"
        assert cli.main(["synth", "--out", str(out), "--seed", "0",
                         "--trials", "1", "--config", str(cfg_p)]) == cli.EXIT_OK
        lines = (out / "noise_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# tqsreg_version=")
        assert lines[1] == "# seed=0"
        assert lines[2].startswith("# config_hash=")
        assert lines[3] == "sweep_value,method,mean_mse,stderr_mse,trials"
        assert len(lines) == 4 + len(rows)
        # stderr column empty for single-trial rows
        assert all(ln.split(",")[3] == "" for ln in lines[4:])
        # values round-trip through float()
        for ln, row in zip(lines[4:], rows):
            parts = ln.split(",")
            assert float(parts[0]) == row.sweep_value
            assert float(parts[2]) == row.mean_mse


class TestTrends:
    """Small-scale versions of the benchmark patterns (fast smoke checks;
    the full-scale versions run in the acceptance suite)."""

    def test_tqs_beats_hs_small(self):
        cfg = RegressorConfig("kernel_ridge")
        rows = run_species_sweep([3], trials=5, cfg=cfg, n_obs=200)
        by = {r.method: r.mean_mse for r in rows}
        assert by["3qs"] < by["hs"]

    def test_noise_sweep_increases_mse(self):
        cfg = RegressorConfig("kernel_ridge")
        rows = run_noise_sweep([0.0, 0.4], trials=5, cfg=cfg, n_obs=200)
        tqs = {r.sweep_value: r.mean_mse for r in rows if r.method == "3qs"}
        assert tqs[0.4] > tqs[0.0]
