import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import child_env
from tqsreg import __version__, blas, cli, regress
from tqsreg.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    config_hash,
    main,
    read_config,
    validate_keys,
)
from tqsreg.data_model import load_table
from tqsreg.estimators import tqs_multi_species
from tqsreg.regress import RegressorConfig


def run(argv):
    return main(argv)


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--out", str(out), "--seed", "0",
                "--years", "3", "--days-per-year", "40",
                "--n-species", "3"]) == EXIT_OK
    return out


class TestConfigParsing:
    def test_read_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nseed = 7\nmethod= hs\n\n"
                     "regressor.res.penalty = 0.5\n")
        cfg = read_config(str(p))
        assert cfg == {"seed": "7", "method": "hs",
                       "regressor.res.penalty": "0.5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(cli.UsageError, match="unknown config key"):
            validate_keys({"sede": "7"})

    def test_known_prefixes_accepted(self):
        validate_keys({"regressor.x.kind": "spline_gam",
                       "schema.day": "covariate", "seed": "1"})

    def test_config_hash_stable_and_sensitive(self):
        a = config_hash({"seed": "1", "method": "3qs"})
        b = config_hash({"method": "3qs", "seed": "1"})  # order-free
        c = config_hash({"seed": "2", "method": "3qs"})
        assert a == b
        assert a != c


class TestSimulate:
    def test_outputs(self, sim_dir):
        survey = (sim_dir / "survey.csv").read_text().splitlines()
        assert survey[0].split(",")[0] == "day_of_year"
        assert len(survey) == 1 + 3 * 40
        truth = (sim_dir / "truth.csv").read_text().splitlines()
        assert len(truth) == 1 + 3 * 40

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(["simulate", "--out", str(out), "--seed", "3",
                        "--years", "2", "--days-per-year", "30",
                        "--n-species", "2"]) == EXIT_OK
            outs.append((out / "survey.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_flag_beats_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("simulate.years = 3\nsimulate.days_per_year = 10\n"
                       "simulate.n_species = 2\n")
        out = tmp_path / "flags"
        assert run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--years", "2", "--days-per-year", "7"]) == EXIT_OK
        survey = (out / "survey.csv").read_text().splitlines()
        assert len(survey) == 1 + 2 * 7
        # a key without its flag still applies
        assert survey[0].split(",")[1:3] == ["species_00", "species_01"]
        assert survey[0].split(",")[3] == "year"
        out = tmp_path / "keys"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        assert len((out / "survey.csv").read_text().splitlines()) == 1 + 3 * 10

    @pytest.mark.parametrize("days", ["0", "-3"])
    def test_no_nights_is_usage_error(self, tmp_path, capsys, days):
        assert run(["simulate", "--out", str(tmp_path / "o"), "--years", "2",
                    "--days-per-year", days]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: need >= 1 night per year (got {days})\n"
        assert not (tmp_path / "o").exists()

    def test_seed_changes_output(self, tmp_path):
        blobs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            run(["simulate", "--out", str(out), "--seed", seed,
                 "--years", "2", "--days-per-year", "30", "--n-species", "2"])
            blobs.append((out / "survey.csv").read_bytes())
        assert blobs[0] != blobs[1]


class TestDenoise:
    def test_3qs_runs_and_writes(self, sim_dir, tmp_path):
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(sim_dir / "survey.csv"),
                    "--out", str(out), "--seed", "0"]) == EXIT_OK
        lines = (out / "zhat.csv").read_text().splitlines()
        assert lines[0].startswith("# tqsreg_version=")
        assert lines[1] == "# seed=0"
        assert lines[2].startswith("# config_hash=")
        assert lines[3] == "# method=3qs"
        assert lines[4] == "species_00,species_01,species_02"
        assert len(lines) == 5 + 3 * 40
        got = np.array([[float(v) for v in ln.split(",")] for ln in lines[5:]])
        schema = {"day_of_year": "covariate", "year": "group",
                  "moon_brightness": "diagnostic",
                  **{f"species_0{i}": "count" for i in range(3)}}
        table = load_table(str(sim_dir / "survey.csv"), schema)
        want = tqs_multi_species(table, RegressorConfig("spline_gam"),
                                 RegressorConfig("boosted_trees")).z_hat
        np.testing.assert_array_equal(got, want)
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["method"] == "3qs"
        assert len(diag["per_species"]) == 3
        assert diag["meta"] == {"version": __version__, "seed": 0,
                                "config_hash": config_hash({"seed": "0"})}

    def test_hs_method(self, sim_dir, tmp_path):
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(sim_dir / "survey.csv"),
                    "--method", "hs", "--out", str(out)]) == EXIT_OK
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["method"] == "hs"
        assert diag["meta"] == {"version": __version__, "seed": 0,
                                "config_hash": config_hash({"method": "hs"})}

    def test_missing_input_is_usage_error(self, tmp_path):
        assert run(["denoise", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_unreadable_input_is_usage_error(self, tmp_path):
        assert run(["denoise", "--input", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path)]) == EXIT_USAGE

    def test_empty_input_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert run(["denoise", "--input", str(empty),
                    "--out", str(tmp_path)]) == EXIT_USAGE

    def test_ragged_row_is_usage_error(self, tmp_path, capsys):
        csv_p = tmp_path / "ragged.csv"
        csv_p.write_text("day,speciesA,speciesB,year\n1,3,4,2013\n2,4,5\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema.day = covariate\nschema.speciesA = count\n"
                       "schema.speciesB = count\nschema.year = group\n")
        assert run(["denoise", "--input", str(csv_p), "--config", str(cfg),
                    "--out", str(tmp_path)]) == EXIT_USAGE
        assert "row 3 has 3 cells, the header has 4" in capsys.readouterr().err

    def test_non_numeric_hyperparameter_is_usage_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.learning_rate = fast\n")
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(sim_dir / "survey.csv"),
                    "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "learning_rate must be a finite real number" in capsys.readouterr().err
        assert not (out / "zhat.csv").exists()

    def test_fractional_tree_stages_is_usage_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.n_stages = 2.5\n")
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(sim_dir / "survey.csv"),
                    "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "n_stages must be an integer >= 1" in capsys.readouterr().err
        assert not (out / "zhat.csv").exists()

    def test_guessed_diagnostic_columns_named_on_stderr(self, tmp_path, capsys):
        csv_p = tmp_path / "typo.csv"
        rng = np.random.default_rng(0)
        lines = ["day_of_year,species_01,Species_02,species_03,year,moon_brightness"]
        for i in range(40):
            counts = ",".join(f"{v:.6f}" for v in rng.normal(size=3))
            lines.append(f"{i % 20},{counts},y{2000 + i // 20},{rng.uniform():.6f}")
        csv_p.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.x.kind = kernel_ridge\n"
                       "regressor.res.kind = kernel_ridge\n")
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(csv_p), "--out", str(out),
                    "--config", str(cfg)]) == EXIT_OK
        captured = capsys.readouterr()
        err = [ln for ln in captured.err.splitlines() if ln]
        assert err == ["note: no schema.* keys; reading ['Species_02', "
                       "'moon_brightness'] as diagnostic columns"]
        assert "Species_02" not in captured.out
        header = [ln for ln in (out / "zhat.csv").read_text().splitlines()
                  if not ln.startswith("#")][0]
        assert "Species_02" not in header.split(",")
        assert {"species_01", "species_03"} <= set(header.split(","))

    def test_byte_identical_reruns(self, sim_dir, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["denoise", "--input", str(sim_dir / "survey.csv"),
                 "--out", str(out), "--seed", "5"])
            blobs.append((out / "zhat.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_custom_schema_from_config(self, tmp_path):
        csv_p = tmp_path / "odd.csv"
        rng = np.random.default_rng(0)
        lines = ["t,a,b,yr"]
        for i in range(60):
            lines.append(f"{i},{rng.normal():.6f},{rng.normal():.6f},"
                         f"{2000 + i % 2}")
        csv_p.write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("schema.t = covariate\nschema.a = count\n"
                       "schema.b = count\nschema.yr = group\n")
        out = tmp_path / "dn"
        assert run(["denoise", "--input", str(csv_p), "--config", str(cfg),
                    "--out", str(out)]) == EXIT_OK


class TestVerify:
    def test_ok_run(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "--out", str(out), "--seed", "0",
                    "--joints", "25"]) == EXIT_OK
        doc = json.loads((out / "theorems.json").read_text())
        assert doc["failures"] == []
        assert len(doc["reports"]) == 25
        for entry in doc["reports"]:
            assert entry["satisfied"]
            assert entry["theorem1"]["slack"] >= -1e-12
            assert abs(entry["theorem2"]["lhs"] - entry["theorem2"]["rhs"]) <= 1e-12

    def test_negative_control_exits_1(self, tmp_path):
        out = tmp_path / "v"
        assert run(["verify", "--out", str(out), "--seed", "0",
                    "--joints", "5", "--corrupt-for-testing"]) == EXIT_VERIFY_FAIL
        doc = json.loads((out / "theorems.json").read_text())
        assert doc["failures"]  # corrupted estimates must fail the bound

    @pytest.mark.parametrize("joints", ["0", "-3"])
    def test_no_joints_is_usage_error(self, tmp_path, joints):
        assert run(["verify", "--out", str(tmp_path / "v"),
                    "--joints", joints]) == EXIT_USAGE
        assert not (tmp_path / "v" / "theorems.json").exists()

    def test_deterministic(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["verify", "--out", str(out), "--seed", "9", "--joints", "10"])
            blobs.append((out / "theorems.json").read_bytes())
        assert blobs[0] == blobs[1]


class TestSynth:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "s"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("synth.species_grid = 2,3\nsynth.sigma_grid = 0,0.1\n"
                       "synth.n_obs = 100\n")
        assert run(["synth", "--out", str(out), "--seed", "0",
                    "--trials", "2", "--config", str(cfg)]) == EXIT_OK
        for name in ("species_sweep.csv", "noise_sweep.csv"):
            lines = (out / name).read_text().splitlines()
            data = [ln for ln in lines if not ln.startswith("#")]
            assert data[0] == "sweep_value,method,mean_mse,stderr_mse,trials"
            assert len(data) == 1 + 2 * 2  # 2 grid points x 2 methods

    def test_jobs_parallel_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("synth.species_grid = 2,3\nsynth.sigma_grid = 0\n"
                       "synth.n_obs = 100\n")
        blobs = []
        for name, jobs in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            assert run(["synth", "--out", str(out), "--seed", "4",
                        "--trials", "2", "--jobs", jobs,
                        "--config", str(cfg)]) == EXIT_OK
            blobs.append((out / "species_sweep.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_one_pool_serves_both_sweeps(self, tmp_path, monkeypatch):
        import concurrent.futures

        real = concurrent.futures.ProcessPoolExecutor
        pools = []

        def counting_pool(*a, **k):
            pools.append(k.get("max_workers"))
            return real(*a, **k)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("synth.species_grid = 2,3\nsynth.sigma_grid = 0,0.1\n"
                       "synth.n_obs = 100\n")
        blobs = []
        for name, jobs in (("a", "1"), ("b", "2")):
            out = tmp_path / name
            assert run(["synth", "--out", str(out), "--seed", "4", "--trials", "2",
                        "--jobs", jobs, "--config", str(cfg)]) == EXIT_OK
            blobs.append([(out / f).read_bytes()
                          for f in ("species_sweep.csv", "noise_sweep.csv")])
        # none for --jobs 1; for --jobs 2 one pool of two workers, serving
        # both sweeps
        assert pools == [2]
        assert blobs[0] == blobs[1]


@pytest.fixture
def pools(monkeypatch):
    """``max_workers`` of every worker pool started (``ProcessPoolExecutor``)."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    started = []

    def counting_pool(*a, **k):
        started.append(k.get("max_workers"))
        return real(*a, **k)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
    return started


SMALL_SYNTH = "synth.species_grid = 2,3\nsynth.sigma_grid = 0,0.1\nsynth.n_obs = 100\n"


class TestJobs:
    """``--jobs`` and the ``jobs`` key: a flag beats its key, bad values exit 2."""

    def test_config_key_starts_pool(self, tmp_path, pools):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_SYNTH + "jobs = 2\n")
        assert run(["synth", "--config", str(cfg), "--trials", "2",
                    "--out", str(tmp_path / "key")]) == EXIT_OK
        assert pools == [2]
        # the flag beats the key
        assert run(["synth", "--config", str(cfg), "--trials", "2", "--jobs", "1",
                    "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert pools == [2]
        for name in ("species_sweep.csv", "noise_sweep.csv"):
            assert ((tmp_path / "key" / name).read_bytes()
                    == (tmp_path / "flag" / name).read_bytes())

    @pytest.mark.parametrize("flag,line", [
        (["--jobs", "0"], ""), (["--jobs", "-3"], ""), ([], "jobs = 0\n"),
        ([], "jobs = 2.5\n"), ([], "jobs = two\n"), (["--jobs", "0"], "jobs = 2\n"),
    ])
    @pytest.mark.parametrize("command", ["eval", "denoise"])
    def test_bad_jobs_is_usage_error(self, sim_dir, tmp_path, capsys, early_calls,
                                     command, flag, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line)
        assert run([command, "--input", str(sim_dir / "survey.csv"), "--config",
                    str(cfg), "--out", str(tmp_path / "o")] + flag) == EXIT_USAGE
        assert "jobs must be an integer >= 1" in capsys.readouterr().err
        assert early_calls == {"load": 0, "fit": 0}

    def test_bad_synth_jobs_starts_no_pool(self, tmp_path, pools, early_calls):
        assert run(["synth", "--trials", "1", "--jobs", "-3",
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert pools == [] and early_calls["fit"] == 0

    def test_one_job_or_one_task_starts_no_pool(self, sim_dir, tmp_path, pools):
        assert run(["eval", "--input", str(sim_dir / "survey.csv"), "--jobs", "1",
                    "--methods", "raw,global", "--out", str(tmp_path / "e")]) == EXIT_OK
        cfg = tmp_path / "c.cfg"
        cfg.write_text("synth.species_grid = 2\nsynth.sigma_grid = 0\n"
                       "synth.n_obs = 100\n")
        assert run(["synth", "--config", str(cfg), "--trials", "1", "--jobs", "4",
                    "--out", str(tmp_path / "s")]) == EXIT_OK
        assert pools == []

    def test_eval_pool_gets_a_process_per_task(self, sim_dir, tmp_path, monkeypatch):
        from tqsreg import synthgen

        real_pool = synthgen.worker_pool
        sizes = []

        def serial_pool(jobs):  # record the size, run the tasks here
            sizes.append(jobs)
            return real_pool(1)

        monkeypatch.setattr(synthgen, "worker_pool", serial_pool)
        assert run(["eval", "--input", str(sim_dir / "survey.csv"), "--jobs", "16",
                    "--out", str(tmp_path / "e")]) == EXIT_OK
        # 3 folds and 3 training years; the 2 halves of the diagnostics fit
        assert sizes == [6]

    @pytest.mark.parametrize("method", ["3qs", "hs"])
    def test_denoise_fits_only_in_workers(self, sim_dir, tmp_path, monkeypatch, method):
        from tqsreg import estimators

        made = []
        real_fit = regress.fit

        def recording(config, features, targets):  # a worker's calls stay there
            made.append((config, np.asarray(features).tobytes(),
                         np.asarray(targets).tobytes()))
            return real_fit(config, features, targets)

        for mod in (regress, estimators):
            monkeypatch.setattr(mod, "fit", recording)
        survey = str(sim_dir / "survey.csv")
        here = {}
        for jobs in ("1", "2"):
            made.clear()
            assert run(["denoise", "--input", survey, "--method", method, "--jobs", jobs,
                        "--out", str(tmp_path / jobs)]) == EXIT_OK
            here[jobs] = list(made)
        made.clear()
        table = cli._load_input({"input": survey}, "denoise")
        cfg_x, cfg_res = (cli.regressor_from_config({}, use) for use in ("x", "res"))
        if method == "3qs":
            tqs_multi_species(table, cfg_x, cfg_res)
        else:
            estimators.hs_multi_species(table, cfg_res)
        # at one job the library's serial calls, in the same order; at two, none
        assert made and here == {"1": made, "2": []}
        for name in ("zhat.csv", "diagnostics.json"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_no_worker_outlives_a_command(self, sim_dir, tmp_path, pools):
        import multiprocessing

        assert run(["eval", "--input", str(sim_dir / "survey.csv"), "--jobs", "2",
                    "--methods", "raw,global", "--out", str(tmp_path / "e")]) == EXIT_OK
        assert multiprocessing.active_children() == []
        survey = TestExitCodes._constant_covariate_survey(tmp_path)
        assert run(["eval", "--input", str(survey), "--jobs", "2", "--methods", "raw",
                    "--out", str(tmp_path / "f")]) == cli.EXIT_MODEL
        assert multiprocessing.active_children() == []
        cfg = tmp_path / "c.cfg"
        cfg.write_text(SMALL_SYNTH)
        assert run(["synth", "--config", str(cfg), "--trials", "2", "--jobs", "2",
                    "--out", str(tmp_path / "s")]) == EXIT_OK
        assert multiprocessing.active_children() == []
        assert pools == [2, 2, 2]


class TestEval:
    def test_small_eval(self, sim_dir, tmp_path):
        out = tmp_path / "e"
        assert run(["eval", "--input", str(sim_dir / "survey.csv"),
                    "--out", str(out), "--seed", "0",
                    "--methods", "raw,global"]) == EXIT_OK
        doc = json.loads((out / "eval_report.json").read_text())
        assert set(doc["improvements"]) == {"raw", "global"}
        assert doc["improvements"]["raw"] == pytest.approx(0.0, abs=1e-12)
        lines = (out / "eval_cells.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")]
        # 3 species x 3 test years x 2 train years x 2 methods + header
        assert len(data) == 1 + 3 * 3 * 2 * 2

    def test_brightness_zero_filter(self, sim_dir, tmp_path):
        out = tmp_path / "e"
        assert run(["eval", "--input", str(sim_dir / "survey.csv"),
                    "--out", str(out), "--methods", "raw",
                    "--test-filter", "brightness-zero"]) == EXIT_OK

    def test_brightness_zero_without_diagnostic_column(self, tmp_path):
        survey = tmp_path / "survey.csv"
        rows = ["day_of_year,species_00,species_01,year"]
        rows += [f"{d},{d % 5},{d % 3},y{2013 + d % 2}" for d in range(40)]
        survey.write_text("\n".join(rows) + "\n")
        assert run(["eval", "--input", str(survey), "--out", str(tmp_path / "e"),
                    "--methods", "raw",
                    "--test-filter", "brightness-zero"]) == EXIT_USAGE

    def test_negative_n_aux_is_usage_error(self, sim_dir, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eval.n_aux = -1\nregressor.res.kind = kernel_ridge\n")
        assert run(["eval", "--input", str(sim_dir / "survey.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "e"),
                    "--methods", "raw,3qs"]) == EXIT_USAGE

    def test_unknown_method_is_usage_error(self, sim_dir, tmp_path):
        assert run(["eval", "--input", str(sim_dir / "survey.csv"),
                    "--out", str(tmp_path), "--methods", "bogus"]) == EXIT_USAGE

    def test_empty_test_subset_fails_before_any_fit(self, sim_dir, tmp_path, capsys,
                                                    early_calls):
        # only the last year has no dark night
        lines = (sim_dir / "survey.csv").read_text().splitlines()
        header = lines[0].split(",")
        year, bright = header.index("year"), header.index("moon_brightness")
        last = lines[-1].split(",")[year]
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            cells[bright] = "1.0" if cells[year] == last else "0.0"
            rows.append(",".join(cells))
        survey = tmp_path / "survey.csv"
        survey.write_text("\n".join([lines[0]] + rows) + "\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eval.threshold = 0.5\n")
        assert run(["eval", "--input", str(survey), "--config", str(cfg),
                    "--test-filter", "brightness-zero", "--jobs", "1",
                    "--out", str(tmp_path / "e")]) == EXIT_USAGE
        assert f"empty test subset for group {last!r}" in capsys.readouterr().err
        assert early_calls == {"load": 1, "fit": 0}

    def test_constant_species_fails_before_any_fit(self, tmp_path, capsys,
                                                   early_calls, pools):
        # the diagnostics would divide by species_c's zero std
        rng = np.random.default_rng(0)
        rows = ["day_of_year,species_a,species_b,species_c,moon_brightness,year"]
        rows += [f"{100 + d % 20},{rng.poisson(5.0)},{rng.poisson(5.0)},3,"
                 f"{rng.uniform():.4f},{2013 + d // 20}" for d in range(60)]
        survey = tmp_path / "survey.csv"
        survey.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for jobs in ("1", "2"):
                assert run(["eval", "--input", str(survey), "--jobs", jobs,
                            "--out", str(tmp_path / jobs)]) == EXIT_USAGE
                assert ("zero-variance species column 'species_c'"
                        in capsys.readouterr().err)
        assert early_calls["fit"] == 0 and pools == []
        assert run(["denoise", "--input", str(survey),
                    "--out", str(tmp_path / "d")]) == EXIT_OK

    def test_constant_brightness_fails_before_any_fit(self, tmp_path, capsys,
                                                      early_calls, pools):
        # the diagnostics would correlate with a brightness of zero std
        rng = np.random.default_rng(0)
        rows = ["day_of_year,species_a,species_b,species_c,moon_brightness,year"]
        rows += [f"{100 + d % 20},{rng.poisson(5.0)},{rng.poisson(5.0)},"
                 f"{rng.poisson(5.0)},0.5,{2013 + d // 20}" for d in range(60)]
        survey = tmp_path / "survey.csv"
        survey.write_text("\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for jobs in ("1", "2"):
                assert run(["eval", "--input", str(survey), "--jobs", jobs,
                            "--out", str(tmp_path / jobs)]) == EXIT_USAGE
                assert ("diagnostic column 'moon_brightness' has zero variance"
                        in capsys.readouterr().err)
        assert early_calls["fit"] == 0 and pools == []

    def test_result_csvs_quote_names_and_labels(self, tmp_path):
        # names and labels with commas are legal in a quoted input CSV
        rng = np.random.default_rng(0)
        names = ["species,a", "species_b", "species_c"]
        survey = tmp_path / "survey.csv"
        with open(survey, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["day_of_year", *names, "year"])
            writer.writerows([d % 20, *rng.normal(size=3), ("y,1", "y2", "y3")[d // 20]]
                             for d in range(60))
        out = tmp_path / "o"
        for command in (["denoise"], ["eval", "--methods", "raw,global"]):
            assert run(command + ["--input", str(survey), "--out", str(out)]) == EXIT_OK
        with open(out / "zhat.csv", newline="") as fh:
            zhat = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert zhat[0] == names and {len(row) for row in zhat} == {3}
        with open(out / "eval_cells.csv", newline="") as fh:
            cells = [row for row in csv.reader(fh) if not row[0].startswith("#")]
        assert {len(row) for row in cells} == {5}
        assert {row[0] for row in cells[1:]} == set(names)
        assert {row[1] for row in cells[1:]} == {"y,1", "y2", "y3"}

    def test_byte_identical_reruns(self, sim_dir, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["eval", "--input", str(sim_dir / "survey.csv"),
                 "--out", str(out), "--seed", "2", "--methods", "raw,3qs"])
            blobs.append((out / "eval_report.json").read_bytes()
                         + (out / "eval_cells.csv").read_bytes())
        assert blobs[0] == blobs[1]


@pytest.fixture
def early_calls(monkeypatch):
    """Count input loads and model fits (``fit`` through every module binding it)."""
    from tqsreg import data_model, estimators, regress

    calls = {"load": 0, "fit": 0}
    real_fit, real_load = regress.fit, data_model.load_table

    def counting_fit(*a, **k):
        calls["fit"] += 1
        return real_fit(*a, **k)

    def counting_load(*a, **k):
        calls["load"] += 1
        return real_load(*a, **k)

    for mod in (regress, estimators):
        monkeypatch.setattr(mod, "fit", counting_fit)
    monkeypatch.setattr(data_model, "load_table", counting_load)
    return calls


@pytest.fixture
def two_covariate_csv(tmp_path):
    """A survey with covariates day and temp, and its schema.* config lines."""
    rng = np.random.default_rng(0)
    lines = ["day,temp,sp1,sp2,sp3,year"]
    for i in range(60):
        counts = ",".join(f"{v:.6f}" for v in rng.normal(size=3))
        lines.append(f"{i % 30},{rng.uniform():.6f},{counts},{2000 + i // 30}")
    path = tmp_path / "two_cov.csv"
    path.write_text("\n".join(lines) + "\n")
    schema = ("schema.day = covariate\nschema.temp = covariate\n"
              "schema.sp1 = count\nschema.sp2 = count\nschema.sp3 = count\n"
              "schema.year = group\n")
    return path, schema


class TestConfigFailsEarly:
    """Regressor configs are checked when read: exit 2 before loading or fitting."""

    @pytest.mark.parametrize("command,line,message", [
        ("denoise", "regressor.x.n_knots = 2.5", "n_knots must be an integer"),
        ("denoise", "regressor.res.kind = forest", "unknown regressor kind"),
        ("eval", "regressor.smooth.bogus = 1", "unknown hyperparameters for spline_gam"),
        ("eval", "regressor.res.learning_rate = fast",
         "learning_rate must be a finite real number"),
        # the message names the model whose key failed
        ("denoise", "regressor.x.n_knots = abc",
         "error: regressor.x: n_knots must be an integer >= 1 (got 'abc')"),
    ])
    def test_bad_regressor_key(self, sim_dir, tmp_path, capsys, early_calls,
                               command, line, message):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--input", str(sim_dir / "survey.csv"),
                    "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert early_calls == {"load": 0, "fit": 0}

    @pytest.mark.parametrize("command,line,message", [
        ("denoise", "method = foo", "unknown method 'foo' (expected 3qs or hs)"),
        ("eval", "methods = raw,foo", "unknown methods: ['foo']"),
        ("eval", "eval.test_filter = bogus", "unknown test filter 'bogus'"),
        ("eval", "eval.n_aux = 0", "eval.n_aux must be >= 1 (got 0)"),
        ("eval", "eval.n_aux = abc", "eval.n_aux must be an integer (got 'abc')"),
        ("eval", "methods = ,", "methods names no method (expected a comma-separated "
                                "subset of raw,hs,3qs,mb,global)"),
        ("eval", "methods = raw,hs,raw", "methods names 'raw' twice"),
        ("denoise", "seed = 1.5", "seed must be an integer (got '1.5')"),
        # refused before any draw, not by numpy or the table
        ("simulate", "simulate.idio_sigma = -1",
         "error: idio_sigma must be finite and >= 0 (got -1.0)"),
        ("simulate", "simulate.idio_sigma = inf",
         "error: idio_sigma must be finite and >= 0 (got inf)"),
        ("simulate", "simulate.beta = nan", "error: beta must be finite (got nan)"),
        ("simulate", "simulate.n_species = 0", "error: need >= 1 species (got 0)"),
        # a negative threshold stays legal: a diagnostic column may be signed
        ("eval", "eval.test_filter = brightness-zero\neval.threshold = nan",
         "error: eval.threshold must be a finite number (got 'nan')"),
        ("eval", "eval.test_filter = brightness-zero\neval.threshold = inf",
         "error: eval.threshold must be a finite number (got 'inf')"),
    ])
    def test_bad_method_or_filter(self, sim_dir, tmp_path, capsys, early_calls,
                                  command, line, message):
        # the key is named even when the input file is missing
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        for survey in (sim_dir / "survey.csv", tmp_path / "missing.csv"):
            given = [] if command == "simulate" else ["--input", str(survey)]
            assert run([command, *given, "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == EXIT_USAGE
            assert message in capsys.readouterr().err
        assert early_calls == {"load": 0, "fit": 0}

    # each key whose text can fail to parse, with each command that reads it:
    # a key with a flag, its flag's commands; a command's own key, that command
    @pytest.mark.parametrize("key,command", [
        (key, command) for key, spec in cli.KEYS.items() if spec.read in cli._EXPECTED
        for command in (spec.commands if spec.flag else (key.split(".")[0],))])
    def test_unparsable_key_fails_before_loading(self, sim_dir, tmp_path, capsys,
                                                 early_calls, key, command):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = abc\n")  # read even where unused (eval's default filter)
        given = (["--input", str(sim_dir / "survey.csv")]
                 if command in cli.KEYS["input"].commands else [])
        assert run([command, *given, "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        read = cli.KEYS[key].read
        assert (f"error: {key} must be {cli._EXPECTED[read]} (got 'abc')"
                in capsys.readouterr().err)
        assert early_calls == {"load": 0, "fit": 0}

    @pytest.mark.parametrize("line,message", [
        ("regressor.synth.penalty = -1", "kernel_ridge penalty must be > 0"),
        ("synth.species_grid = 2.5", "species counts must be integers (got 2.5)"),
        ("synth.species_grid = ,", "the species sweep has no grid value"),
        ("synth.sigma_grid = ,", "the noise sweep has no grid value"),
        ("synth.n_obs = 10", "need at least 50 observations"),
        ("synth.species_grid = 2,1", "need at least 2 species"),
        ("synth.sigma_grid = 0,-0.1", "sigma_eps must be >= 0"),
        ("synth.sigma_grid = 0,inf", "sigma_eps must be finite (got inf)"),
        ("synth.sigma_grid = nan", "sigma_eps must be finite (got nan)"),
        # a trial's joint model gets x and the other species
        ("regressor.synth.kind = spline_gam",
         "regressor.synth.kind = spline_gam needs exactly 1 feature, but would get "),
        ("synth.sigma_grid = 0,abc",
         "synth.sigma_grid must be comma-separated numbers (got '0,abc')"),
        ("trials = abc", "trials must be an integer (got 'abc')"),
    ])
    def test_bad_synth_key_starts_no_pool(self, tmp_path, capsys, monkeypatch,
                                          early_calls, line, message):
        import concurrent.futures

        def no_pool(*a, **k):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 1\n" + line + "\n")  # the later line wins
        assert run(["synth", "--config", str(cfg), "--jobs", "2",
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert early_calls["fit"] == 0

    @pytest.mark.parametrize("command,line,prefix", [
        ("denoise", "", "x"),
        ("eval", "regressor.x.kind = kernel_ridge\n", "smooth"),
        ("eval", "regressor.smooth.kind = kernel_ridge\n", "x"),
    ])
    def test_spline_on_two_covariates(self, tmp_path, capsys, early_calls,
                                      two_covariate_csv, command, line, prefix):
        path, schema = two_covariate_csv
        cfg = tmp_path / "c.cfg"
        cfg.write_text(schema + line)
        assert run([command, "--input", str(path), "--config", str(cfg),
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"regressor.{prefix}.kind = spline_gam needs exactly 1 feature, "
                "but would get 2 for ") in err
        assert "on the table's covariates (day, temp)" in err
        assert early_calls == {"load": 1, "fit": 0}

    @pytest.mark.parametrize("command,extra,config,uses", [
        ("denoise", [], "", "2 for the other species"),
        ("denoise", ["--method", "hs"], "", "2 for the other species"),
        ("eval", ["--methods", "raw,3qs"], "", "2 for the auxiliary species"),
        ("eval", ["--methods", "raw,mb"], "eval.n_aux = 1\n",
         "2 for mb (covariate and brightness)"),
        ("eval", ["--methods", "raw"], "", "2 for the diagnostics"),
    ])
    def test_spline_residual_on_several_features(self, sim_dir, tmp_path, capsys,
                                                 early_calls, command, extra, config,
                                                 uses):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.kind = spline_gam\n" + config)
        assert run([command, "--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                    "--out", str(tmp_path / "o")] + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "regressor.res.kind = spline_gam needs exactly 1 feature" in err
        assert uses in err
        assert early_calls == {"load": 1, "fit": 0}

    @pytest.mark.parametrize("command,extra,n_species,config", [
        ("denoise", [], 2, ""),
        ("denoise", ["--method", "hs"], 2, ""),
        ("eval", ["--methods", "raw,hs,3qs,global"], 2, ""),
        # without the diagnostic column nothing fits on all other species
        ("eval", ["--methods", "raw,hs,3qs"], 3,
         "eval.n_aux = 1\nschema.day_of_year = covariate\nschema.year = group\n"
         "schema.moon_brightness = ignore\nschema.species_00 = count\n"
         "schema.species_01 = count\nschema.species_02 = count\n"),
        # the diagnostics cap their auxiliary species at eval.n_aux too
        ("eval", ["--methods", "raw,hs"], 3, "eval.n_aux = 1\n"),
    ])
    def test_spline_residual_on_one_feature_runs(self, tmp_path, early_calls, command,
                                                 extra, n_species, config):
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", str(sim), "--years", "3", "--days-per-year",
                    "30", "--n-species", str(n_species)]) == EXIT_OK
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.kind = spline_gam\n" + config)
        assert run([command, "--input", str(sim / "survey.csv"), "--config", str(cfg),
                    "--jobs", "1", "--out", str(tmp_path / "o")] + extra) == EXIT_OK
        assert early_calls["fit"] > 0

    def test_hs_denoise_ignores_the_covariate_model(self, tmp_path, early_calls,
                                                    two_covariate_csv):
        path, schema = two_covariate_csv
        cfg = tmp_path / "c.cfg"
        cfg.write_text(schema + "regressor.res.kind = kernel_ridge\n")
        assert run(["denoise", "--input", str(path), "--config", str(cfg), "--method",
                    "hs", "--jobs", "1", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert early_calls == {"load": 1, "fit": 3}


class TestFitsListCoversFits:
    """A command's fits list (``cli._check_fits``) covers every fit it makes:
    for each ``regress.fit`` call, an entry of the same kind and
    hyperparameters (the per-species seed aside) on at least as many rows,
    and for a spline on as many features.  Each use has its own
    hyperparameters, so a fit matches only its own model's entries."""

    HYPER = ("regressor.x.n_knots = 8\nregressor.smooth.n_knots = 10\n"
             "regressor.res.n_stages = 4\nregressor.synth.penalty = 0.5\n")

    @pytest.mark.parametrize("argv", [
        ["denoise", "--input", None, "--jobs", "1"],
        ["denoise", "--input", None, "--jobs", "1", "--method", "hs"],
        ["eval", "--input", None, "--jobs", "1", "--methods", "raw,hs,3qs,mb,global"],
        ["synth", "--jobs", "1", "--trials", "1"],
    ])
    def test_every_fit_is_listed(self, sim_dir, tmp_path, monkeypatch, argv):
        from tqsreg import estimators

        listed, made = [], []
        real_check, real_fit = cli._check_fits, regress.fit

        def listing(fits):
            listed.extend(fits)
            return real_check(fits)

        def fitting(config, features, targets):
            x = np.asarray(features, dtype=float)
            made.append((config, *(x[:, None] if x.ndim == 1 else x).shape))
            return real_fit(config, features, targets)

        monkeypatch.setattr(cli, "_check_fits", listing)
        for mod in (regress, estimators):
            monkeypatch.setattr(mod, "fit", fitting)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(self.HYPER + "synth.species_grid = 2,3\nsynth.sigma_grid = 0\n"
                       "synth.n_obs = 60\n")
        argv = [str(sim_dir / "survey.csv") if a is None else a for a in argv]
        assert run(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert made
        for config, rows, features in made:
            assert any(
                entry.kind == config.kind
                and entry.hyperparameters == config.hyperparameters
                and listed_rows >= rows
                and (config.kind != "spline_gam" or listed_features == features)
                for _, entry, listed_rows, listed_features, _ in listed), \
                (config, rows, features, listed)


class TestKernelRidgeRowLimit:
    """A kernel ridge model over its row limit exits 2 before any fit.

    The byte budget is patched low: sim_dir has 3 groups of 40 rows.
    """

    @staticmethod
    def _keep_no_spline_design(monkeypatch):
        """On sim_dir's few rows the spline's 8 kept designs outweigh a kernel's
        two arrays; counting none leaves kernel ridge the largest fit of every
        command here, as these budgets need."""
        monkeypatch.setattr(regress, "_KEPT_DESIGNS", 0)

    @classmethod
    def _limit(cls, monkeypatch, rows):
        cls._keep_no_spline_design(monkeypatch)
        monkeypatch.setattr(regress, "FIT_BYTES", 2 * 8 * rows * rows)

    @pytest.mark.parametrize("command,extra,config,prefix,rows", [
        ("denoise", [], "regressor.res.kind = kernel_ridge\n", "res", 120),
        ("denoise", [], "regressor.x.kind = kernel_ridge\n", "x", 120),
        ("denoise", ["--method", "hs"], "regressor.res.kind = kernel_ridge\n", "res",
         120),
        # the diagnostics fit on the whole table
        ("eval", ["--methods", "raw"], "regressor.smooth.kind = kernel_ridge\n",
         "smooth", 120),
        # without them the largest training set leaves one group out
        ("eval", ["--methods", "raw,hs"],
         "regressor.res.kind = kernel_ridge\nschema.day_of_year = covariate\n"
         "schema.year = group\nschema.moon_brightness = ignore\n"
         "schema.species_00 = count\nschema.species_01 = count\n"
         "schema.species_02 = count\n", "res", 80),
    ])
    def test_refused_after_loading(self, sim_dir, tmp_path, capsys, early_calls,
                                   monkeypatch, command, extra, config, prefix, rows):
        self._limit(monkeypatch, rows - 1)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        assert run([command, "--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                    "--out", str(tmp_path / "o")] + extra) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (f"regressor.{prefix}.kind = kernel_ridge fits at most {rows - 1} "
                f"training rows") in err
        assert f"would get {rows}" in err
        assert early_calls == {"load": 1, "fit": 0}

    def test_denoise_runs_at_the_limit(self, sim_dir, tmp_path, early_calls,
                                       monkeypatch):
        self._limit(monkeypatch, 120)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.kind = kernel_ridge\n")
        assert run(["denoise", "--input", str(sim_dir / "survey.csv"), "--config",
                    str(cfg), "--out", str(tmp_path / "o")]) == EXIT_OK
        assert early_calls["fit"] == 6

    @pytest.mark.parametrize("command,extra,config,rows", [
        ("synth", ["--trials", "2"], SMALL_SYNTH, 100),
        # the diagnostics fit on the whole table
        ("eval", ["--input", None, "--methods", "raw,hs"],
         "regressor.res.kind = kernel_ridge\n", 120),
    ])
    def test_processes_share_the_budget(self, sim_dir, tmp_path, capsys, monkeypatch,
                                        pools, command, extra, config, rows):
        # room for the fits of two processes, not three
        self._keep_no_spline_design(monkeypatch)
        monkeypatch.setattr(regress, "FIT_BYTES", 2 * 2 * 8 * rows * rows)
        extra = [str(sim_dir / "survey.csv") if a is None else a for a in extra]
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config)
        blobs = []
        for jobs in ("1", "3"):
            out = tmp_path / jobs
            assert run([command, "--config", str(cfg), "--jobs", jobs,
                        "--out", str(out)] + extra) == EXIT_OK
            blobs.append([(out / f).read_bytes() for f in sorted(os.listdir(out))])
        err = [ln for ln in capsys.readouterr().err.splitlines()
               if ln.startswith("note: running")]
        assert err == [f"note: running 2 processes, not 3: kernel ridge fits on {rows} "
                       "rows in 3 processes would exceed the byte budget"]
        assert pools == [2]
        assert blobs[0] == blobs[1]

    def test_synth_refused_before_any_worker(self, tmp_path, capsys, early_calls,
                                             monkeypatch):
        import concurrent.futures

        def no_pool(*a, **k):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        self._limit(monkeypatch, 59)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("synth.n_obs = 60\n")
        assert run(["synth", "--config", str(cfg), "--trials", "1", "--jobs", "2",
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert ("regressor.synth.kind = kernel_ridge fits at most 59 training rows"
                in capsys.readouterr().err)
        assert early_calls["fit"] == 0


class TestFlagEqualsKey:
    """A value given as a flag writes the same files as given as its config key."""

    # each command's config lines and settings, on a 2-year 20-night survey
    # of 3 species; the first command with a key's setting tests that key
    COMMANDS = {
        "verify": ("", {"joints": "5", "seed": "3"}),
        "denoise": ("", {"input": "survey.csv", "method": "hs"}),
        "eval": ("eval.threshold = 0.5\n",
                 {"input": "survey.csv", "methods": "raw", "jobs": "2",
                  "eval.test_filter": "brightness-zero"}),
        "synth": ("synth.species_grid = 2\nsynth.sigma_grid = 0\nsynth.n_obs = 60\n",
                  {"trials": "1"}),
        "simulate": ("", {"simulate.years": "2", "simulate.days_per_year": "20",
                          "simulate.n_species": "3"}),
    }

    @pytest.mark.parametrize("key", [k for k, spec in cli.KEYS.items() if spec.flag])
    def test_same_files(self, tmp_path, monkeypatch, key):
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--years", "2", "--days-per-year", "20",
                    "--n-species", "3"]) == EXIT_OK
        command, lines, settings = next(
            (command, lines, {"out": "o", **settings})
            for command, (lines, settings) in self.COMMANDS.items()
            if key in {"out": "o", **settings})
        written = []
        for given in ("key", "flag"):
            (tmp_path / "c.cfg").write_text(
                lines + (f"{key} = {settings[key]}\n" if given == "key" else ""))
            argv = [command, "--config", "c.cfg"]
            for k, value in settings.items():
                if k != key or given == "flag":
                    argv += [cli.KEYS[k].flag, value]
            assert run(argv) == EXIT_OK
            out = tmp_path / "o"
            written.append({p.name: p.read_bytes() for p in out.glob("*")})
            for p in out.glob("*"):
                p.unlink()
        assert written[0] and written[0] == written[1]


class TestExitCodes:
    def test_bad_config_key(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("sede = 1\n")
        assert run(["verify", "--config", str(cfg),
                    "--out", str(tmp_path)]) == EXIT_USAGE

    def test_values(self):
        assert EXIT_OK == 0
        assert EXIT_VERIFY_FAIL == 1
        assert EXIT_USAGE == 2

    @staticmethod
    def _constant_covariate_survey(tmp_path):
        """A well-formed 3-year x 20-day x 3-species survey whose one
        covariate never changes, so a spline fit on it is singular."""
        rng = np.random.default_rng(0)
        lines = ["day_of_year,species_a,species_b,species_c,year"]
        for year in (2013, 2014, 2015):
            for _ in range(20):
                a, b, c = rng.poisson(5.0, size=3)
                lines.append(f"100,{a},{b},{c},{year}")
        path = tmp_path / "constant.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("argv", [["denoise"], ["eval", "--methods", "raw"]])
    def test_singular_model_exits_3(self, tmp_path, capsys, argv):
        survey = self._constant_covariate_survey(tmp_path)
        out = tmp_path / "o"
        assert run(argv + ["--input", str(survey), "--out", str(out)]) == cli.EXIT_MODEL
        assert cli.EXIT_MODEL == 3
        assert "spline_gam needs at least 2 distinct x values" in capsys.readouterr().err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("argv", [["eval", "--methods", "raw"], ["denoise"]])
    def test_singular_model_in_a_worker_exits_3(self, tmp_path, capsys, argv):
        # the first task goes to a worker: eval's first fold, in which every
        # model is singular, or denoise's covariate stage, one task
        survey = self._constant_covariate_survey(tmp_path)
        errors = []
        for jobs in ("1", "2"):
            assert run(argv + ["--input", str(survey), "--jobs", jobs,
                               "--out", str(tmp_path / jobs)]) == cli.EXIT_MODEL
            errors.append(capsys.readouterr().err)
        assert " model failed for species 0: " in errors[0]
        assert "spline_gam needs at least 2 distinct x values" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("argv,stage", [
        (["denoise", "--jobs", "1"], "covariate"),
        (["denoise", "--method", "hs", "--jobs", "1"], "residual"),
        *((["eval", "--methods", methods, "--jobs", jobs], stage)
          for methods, stage in (("raw", "smoother"), ("raw,global", "global"))
          for jobs in ("1", "2")),
        (["denoise", "--jobs", "2"], "covariate"),
        (["denoise", "--method", "hs", "--jobs", "2"], "residual"),
    ])
    def test_overflowing_fit_exits_3_and_names_species(self, tmp_path, capsys, argv,
                                                       stage):
        # finite counts near the float64 limit: each model's sums overflow,
        # so every command's first fit is refused
        counts = np.random.default_rng(0).uniform(1.0, 2.0, size=(3, 20, 3)) * 1e307
        lines = ["day_of_year,species_a,species_b,species_c,year"]
        for year, block in zip((2013, 2014, 2015), counts):
            for day, row in enumerate(block.tolist()):
                lines.append(",".join([str(100 + day), *map(repr, row), str(year)]))
        survey = tmp_path / "huge.csv"
        survey.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        with warnings.catch_warnings():  # refused before any sum overflows
            warnings.simplefilter("error")
            assert run(argv + ["--input", str(survey), "--out", str(out)]) == cli.EXIT_MODEL
        err = capsys.readouterr().err
        assert f"{stage} model failed for species 0: " in err
        assert "targets too large: their sum of squares overflows" in err
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("argv", [["denoise"], ["eval", "--methods", "raw,3qs"]])
    def test_table_without_covariate_is_usage_error(self, tmp_path, capsys, argv):
        survey = tmp_path / "nocov.csv"
        survey.write_text("species_a,species_b,year\n1,2,2013\n3,4,2013\n"
                          "2,2,2014\n5,1,2014\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.x.kind = boosted_trees\n"
                       "regressor.smooth.kind = boosted_trees\n")
        assert run(argv + ["--input", str(survey), "--config", str(cfg),
                           "--out", str(tmp_path / "o")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "needs at least 1 feature, but would get 0 for " in err
        assert "on the table's covariates (none)" in err

    def test_nonpositive_n_aux_is_usage_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eval.n_aux = 0\n")
        assert run(["eval", "--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                    "--methods", "raw,3qs", "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "eval.n_aux must be >= 1 (got 0)" in capsys.readouterr().err


    def test_out_of_memory_is_usage_error(self, tmp_path):
        # a billion nights ask numpy for 7.45 GiB arrays; the child's
        # address space is capped, so the request fails at once
        out = tmp_path / "o"
        proc = _capped_cli(["simulate", "--years", "2", "--days-per-year", "1000000000",
                            "--out", str(out)])
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: out of memory: Unable to allocate")
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("command,prefix", [("denoise", "x"), ("eval", "smooth")])
    def test_spline_over_the_budget_is_refused_before_any_fit(
            self, sim_dir, tmp_path, capsys, early_calls, monkeypatch, command, prefix):
        # 200 000 knots would ask numpy for a 298 GiB spline penalty matrix
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"regressor.{prefix}.n_knots = 200000\n")
        out = tmp_path / "o"
        argv = [command, "--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                "--out", str(out)]
        proc = _capped_cli(argv)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"error: regressor.{prefix}.kind = spline_gam with "
                                    "n_knots = 200000 needs ")
        assert not out.exists() or not os.listdir(out)

        def no_design(*a, **k):
            raise AssertionError("a spline design was allocated")

        # in this process, where the fits are counted, nothing may allocate
        monkeypatch.setattr(regress, "_spline_design", no_design)
        assert run(argv) == EXIT_USAGE
        assert errors[0] in capsys.readouterr().err.splitlines()
        assert early_calls == {"load": 1, "fit": 0}

    @pytest.mark.parametrize("argv", [["denoise"], ["denoise", "--method", "hs"],
                                      ["eval", "--methods", "raw,3qs"]])
    def test_trees_over_the_budget_are_refused_before_any_fit(
            self, sim_dir, tmp_path, capsys, early_calls, monkeypatch, argv):
        # 10^8 stages of up to 15 nodes each would be 60 GB of node arrays
        grown = []
        real = regress._fit_boosted_trees
        monkeypatch.setattr(regress, "_fit_boosted_trees",
                            lambda *a: grown.append(a) or real(*a))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.res.n_stages = 100000000\n")
        out = tmp_path / "o"
        assert run(argv + ["--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                           "--jobs", "1", "--out", str(out)]) == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: regressor.res.kind = boosted_trees with "
                                    "n_stages = 100000000 and max_depth = 3 needs "
                                    "60000000000 bytes (its budget is ")
        assert grown == [] and early_calls == {"load": 1, "fit": 0}
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("argv,survey,message", [
        (["denoise"], "", "need >= 2 rows for multi-species denoising (got 0)"),
        (["denoise"], "100,1,2,2013\n", "need >= 2 rows for multi-species denoising "
         "(got 1)"),
        (["denoise", "--method", "hs"], "100,1,2,2013\n",
         "need >= 2 rows for multi-species denoising (got 1)"),
        (["eval", "--methods", "raw"], "100,1,2,y1\n101,3,1,y1\n102,2,2,y2\n",
         "group 'y2' has 1 row (every group needs >= 2)"),
        # named as such, not as a smoother on 1 row
        (["eval", "--methods", "raw"], "100,1,2,y1\n101,3,1,y2\n",
         "group 'y1' has 1 row (every group needs >= 2)"),
    ])
    def test_too_few_rows_are_refused_before_any_fit(self, tmp_path, capsys,
                                                     early_calls, argv, survey,
                                                     message):
        path = tmp_path / "survey.csv"
        path.write_text("day_of_year,species_a,species_b,year\n" + survey)
        assert run(argv + ["--input", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert early_calls["fit"] == 0

    @pytest.mark.parametrize("argv", [["denoise"], ["eval", "--methods", "raw,hs"]])
    def test_one_species_is_refused_before_any_fit(self, tmp_path, capsys,
                                                   early_calls, argv):
        path = tmp_path / "survey.csv"
        path.write_text("day_of_year,species_a,year\n100,1,y1\n101,3,y1\n"
                        "102,2,y2\n103,4,y2\n")
        assert run(argv + ["--input", str(path), "--out", str(tmp_path / "o")]) \
            == EXIT_USAGE
        assert (capsys.readouterr().err
                == "error: need >= 2 species for multi-species denoising\n")
        assert early_calls["fit"] == 0

    def test_bare_memory_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.oracle, "random_joints", exhausted)
        assert run(["verify", "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: out of memory\n"


# each plain key's values but "out" (the test's), valid then invalid; small
# where valid, so a command stays cheap, and "jobs" never starts a pool
_KEY_VALUES = {
    "seed": ("0", "7", "-1", "x", "1.5"),
    "jobs": ("1", "0", "-2", "two"),
    "input": ("missing.csv",),
    "method": ("3qs", "hs", "qs"),
    "methods": ("raw", "raw,3qs", "hs,mb,global", "raw,raw", "", "foo"),
    "eval.test_filter": ("none", "brightness-zero", "dark"),
    "trials": ("1", "2", "0", "x"),
    "joints": ("1", "3", "0", "x"),
    "simulate.years": ("2", "3", "1", "x"),
    "simulate.days_per_year": ("1", "4", "0", "-3"),
    "simulate.n_species": ("1", "2", "0", "-1"),
    "simulate.beta": ("0.5", "0", "nan", "x"),
    "simulate.idio_sigma": ("0.1", "0", "-1", "inf"),
    "synth.species_grid": ("2", "2,3", "1", "", "x"),
    "synth.sigma_grid": ("0", "0,0.1", "-1", "inf", ""),
    "synth.n_obs": ("50", "60", "49", "0"),
    "eval.brightness_column": ("moon_brightness", "species_0", "nope"),
    "eval.threshold": ("0.5", "0", "nan", "x"),
    "eval.n_aux": ("1", "2", "0", "x"),
}
# each regressor hyperparameter's values, valid then invalid
_HYPER_VALUES = {
    "kind": ("spline_gam", "boosted_trees", "kernel_ridge", "ridge"),
    "n_knots": ("1", "3", "0", "2.5"),
    "n_stages": ("2", "0", "true"),
    "max_depth": ("1", "0"),
    "min_leaf": ("2", "-1"),
    "learning_rate": ("0.5", "0", "inf"),
    "subsample": ("0.5", "1", "2"),
    "penalty": ("0.5", "0", "nan"),
    "bandwidth": ("1", "-1"),
    "bogus": ("1",),
}
# the base config of every run: small sweeps and few joints and trees
_SMALL = {"jobs": "1", "trials": "1", "joints": "2", "synth.species_grid": "2",
          "synth.sigma_grid": "0", "synth.n_obs": "50", "simulate.days_per_year": "3",
          "regressor.res.n_stages": "3"}


@st.composite
def _surveys(draw):
    """A small survey CSV and its groups' sizes: 2-4 species, maybe one
    constant, repeated days, up to 3 groups of one row or more, and maybe a
    brightness column."""
    s = draw(st.integers(2, 4))
    n_groups = draw(st.sampled_from([3, 2, 3, 1, 0]))
    sizes = [draw(st.sampled_from([5, 8, 3, 1])) for _ in range(n_groups)]
    constant = draw(st.sampled_from([(), (), (s - 1,)]))
    bright = draw(st.sampled_from(["varying", "varying", "varying", None, "constant"]))
    header = ["day_of_year", *(f"species_{i}" for i in range(s)), "year"]
    header += ["moon_brightness"] if bright else []
    lines = [",".join(header)]
    for year, size in enumerate(sizes):
        for _ in range(size):
            day = draw(st.sampled_from([100, 101, 150]))
            counts = [0 if i in constant else draw(st.integers(0, 5)) for i in range(s)]
            row = [day, *counts, f"y{year}"]
            row += ([] if bright is None else
                    [0.5 if bright == "constant" else draw(st.sampled_from([0, 0.3, 1]))])
            lines.append(",".join(map(str, row)))
    return "\n".join(lines) + "\n", sizes


@st.composite
def _configs(draw):
    """A config of the small base, then a few keys drawn from their valid and
    invalid values, and a few regressor keys."""
    cfg = dict(_SMALL)
    for key in draw(st.lists(st.sampled_from(sorted(set(cli.KEYS) - {"out"})),
                             max_size=3)):
        cfg[key] = draw(st.sampled_from(_KEY_VALUES[key]))
    for _ in range(draw(st.integers(0, 2))):
        use = draw(st.sampled_from(sorted(cli.REGRESSOR_USES)))
        name = draw(st.sampled_from(sorted(_HYPER_VALUES)))
        cfg[f"regressor.{use}.{name}"] = draw(st.sampled_from(_HYPER_VALUES[name]))
    return cfg


class TestExitCodeContract:
    """Whatever the survey and config, ``main`` returns 0, 2 or 3 (1 only from
    ``verify``), raises nothing, warns nothing and prints at most one
    ``error:`` line; a table too small to train on is a usage error, not a
    failed fit."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["denoise", "eval", "simulate", "synth", "verify"]),
           survey=_surveys(), cfg=_configs())
    def test_exit_code_contract(self, command, survey, cfg):
        survey, sizes = survey
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "survey.csv"), "w") as fh:
                fh.write(survey)
            cfg["input"] = os.path.join(tmp, cfg.get("input", "survey.csv"))
            config = os.path.join(tmp, "c.cfg")
            with open(config, "w") as fh:
                fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main([command, "--config", config,
                             "--out", os.path.join(tmp, "out")])
        assert code in (0, 2, 3) or (code == 1 and command == "verify"), err.getvalue()
        # eval trains on each group alone, denoise on the whole table
        trains_on = min(sizes, default=0) if command == "eval" else sum(sizes)
        assert code != 3 or trains_on >= 2, err.getvalue()
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        assert len(errors) <= 1, err.getvalue()


def _capped_cli(argv):
    """``tqsreg argv`` in a child process whose address space is capped at 3 GiB."""
    return subprocess.run(
        [sys.executable, "-m", "tqsreg.cli"] + argv, env=child_env(),
        capture_output=True, text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)))


class TestBlasThreadIndependence:
    """Output bytes do not depend on the host's BLAS thread count.

    Each command runs in a child process with OPENBLAS_NUM_THREADS unset,
    1 and 2 (and synth with --jobs 1 and 2); every run writes the same
    bytes.  The sizes are large enough that OpenBLAS at 2 threads splits
    its work and changes the last digits: kernel ridge at 500 rows in
    synth, and kernel-ridge residual models on a 3-year x 150-day x
    4-species survey.
    """

    THREADS = (None, "1", "2")

    @staticmethod
    def _child(argv, threads):
        env = child_env(OPENBLAS_NUM_THREADS=threads, GOTO_NUM_THREADS=None,
                        OMP_NUM_THREADS=None)
        proc = subprocess.run([sys.executable, "-m", "tqsreg.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr

    @staticmethod
    def _bytes(out, names):
        return b"".join((out / name).read_bytes() for name in names)

    def test_synth(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("synth.species_grid = 2,5\nsynth.sigma_grid = 0,0.2\n"
                       "synth.n_obs = 500\n")
        blobs = set()
        for threads in self.THREADS:
            for jobs in ("1", "2"):
                out = tmp_path / f"s-{threads}-{jobs}"
                self._child(["synth", "--config", str(cfg), "--trials", "1",
                             "--jobs", jobs, "--out", str(out)], threads)
                blobs.add(self._bytes(out, ("species_sweep.csv", "noise_sweep.csv")))
        assert len(blobs) == 1

    def test_denoise_and_eval(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", str(sim), "--seed", "3", "--years", "3",
                    "--days-per-year", "150", "--n-species", "4"]) == EXIT_OK
        cfg = tmp_path / "krr.cfg"
        cfg.write_text("regressor.res.kind = kernel_ridge\n")
        blobs = {"denoise": set(), "eval": set()}
        for threads in self.THREADS:
            out = tmp_path / f"dn-{threads}"
            self._child(["denoise", "--input", str(sim / "survey.csv"),
                         "--config", str(cfg), "--out", str(out)], threads)
            blobs["denoise"].add(self._bytes(out, ("zhat.csv", "diagnostics.json")))
            out = tmp_path / f"ev-{threads}"
            self._child(["eval", "--input", str(sim / "survey.csv"),
                         "--config", str(cfg), "--out", str(out)], threads)
            blobs["eval"].add(self._bytes(out, ("eval_report.json", "eval_cells.csv")))
        assert {k: len(v) for k, v in blobs.items()} == {"denoise": 1, "eval": 1}

    def test_eval_across_jobs(self, tmp_path):
        """``eval`` writes the same bytes at ``--jobs`` 1, 2 and the default
        (the usable CPUs), and with 2 BLAS threads in the environment."""
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", str(sim), "--seed", "3", "--years", "3",
                    "--days-per-year", "150", "--n-species", "4"]) == EXIT_OK
        cfg = tmp_path / "krr.cfg"
        cfg.write_text("regressor.res.kind = kernel_ridge\n")
        blobs = set()
        for threads, jobs in ((None, ["--jobs", "1"]), (None, ["--jobs", "2"]),
                              (None, []), ("2", ["--jobs", "2"])):
            out = tmp_path / f"ev-{threads}-{len(jobs) and jobs[1]}"
            self._child(["eval", "--input", str(sim / "survey.csv"), "--config",
                         str(cfg), "--test-filter", "brightness-zero",
                         "--out", str(out)] + jobs, threads)
            blobs.add(self._bytes(out, ("eval_report.json", "eval_cells.csv")))
        assert len(blobs) == 1


def _python(args):
    """Run a fresh interpreter on this checkout's tqsreg; return its stdout."""
    proc = subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Each step records the scipy modules loaded so far in one fresh interpreter,
# and each worker pool those of its workers, asked by tasks before it shuts down.
_FOOTPRINT = """
import concurrent.futures, json, sys

def scipy_modules(_=None):
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

class SpyPool(concurrent.futures.ProcessPoolExecutor):
    def shutdown(self, *args, **kwargs):
        workers.append(sorted(set().union(*self.map(scipy_modules, range(4)))))
        super().shutdown(*args, **kwargs)

workers, steps = [], {}
concurrent.futures.ProcessPoolExecutor = SpyPool
from tqsreg import cli

out = sys.argv[1]
survey, krr, sweeps = out + "/sim/survey.csv", out + "/krr.cfg", out + "/sweeps.cfg"
with open(krr, "w") as fh:
    fh.write("regressor.res.kind = kernel_ridge\\n")
with open(sweeps, "w") as fh:
    fh.write("synth.species_grid = 2,3\\nsynth.sigma_grid = 0,0.1\\nsynth.n_obs = 100\\n")

def step(name, *argv, dest=None):
    rc = cli.main([*argv, "--out", dest or f"{out}/{len(steps)}"])
    steps[name] = [rc, scipy_modules()]

step("simulate", "simulate", "--years", "3", "--days-per-year", "40",
     "--n-species", "3", dest=out + "/sim")
step("denoise --jobs 2", "denoise", "--config", krr, "--input", survey, "--jobs", "2")
step("denoise --method hs --jobs 2", "denoise", "--method", "hs", "--config", krr,
     "--input", survey, "--jobs", "2")
step("eval --jobs 2", "eval", "--config", krr, "--input", survey, "--jobs", "2")
step("synth --jobs 2", "synth", "--config", sweeps, "--trials", "2", "--jobs", "2")
print(json.dumps({"steps": steps, "workers": workers}))
"""


class TestImportFootprint:
    def test_cli_does_not_import_scipy_interpolate(self):
        # scipy.interpolate pulls in scipy.optimize; the spline basis is numpy's
        code = ("import sys, tqsreg.cli; print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.interpolate')))")
        assert _python(["-c", code]).strip() == "[]"

    @pytest.mark.skipif(blas.lapack() is None,
                        reason="no LAPACK symbols in scipy's OpenBLAS")
    def test_kernel_ridge_loads_no_scipy_module(self, tmp_path):
        """Kernel ridge calls scipy's compiled routines without importing
        scipy: no command loads a scipy module, in its own process or in a
        worker of its pool."""
        run = json.loads(_python(["-c", _FOOTPRINT, str(tmp_path)]).splitlines()[-1])
        assert run["steps"] == {name: [EXIT_OK, []] for name in (
            "simulate", "denoise --jobs 2", "denoise --method hs --jobs 2",
            "eval --jobs 2", "synth --jobs 2")}
        assert run["workers"] == [[], [], [], []]  # both denoise pools, eval's, synth's
