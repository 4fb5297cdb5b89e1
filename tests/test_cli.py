import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from tqsreg import __version__, cli, regress
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
        # none for --jobs 1; for --jobs 2 one worker, as this process computes
        # too, serving both sweeps
        assert pools == [1]
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
        assert pools == [1]
        # the flag beats the key
        assert run(["synth", "--config", str(cfg), "--trials", "2", "--jobs", "1",
                    "--out", str(tmp_path / "flag")]) == EXIT_OK
        assert pools == [1]
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
        assert pools == [1, 1, 1]


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
    from tqsreg import data_model, estimators, evalharness, regress

    calls = {"load": 0, "fit": 0}
    real_fit, real_load = regress.fit, data_model.load_table

    def counting_fit(*a, **k):
        calls["fit"] += 1
        return real_fit(*a, **k)

    def counting_load(*a, **k):
        calls["load"] += 1
        return real_load(*a, **k)

    for mod in (regress, estimators, evalharness):
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
    ])
    def test_bad_method_or_filter(self, sim_dir, tmp_path, capsys, early_calls,
                                  command, line, message):
        # the key is named even when the input file is missing
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        for survey in (sim_dir / "survey.csv", tmp_path / "missing.csv"):
            assert run([command, "--input", str(survey), "--config", str(cfg),
                        "--out", str(tmp_path / "o")]) == EXIT_USAGE
            assert message in capsys.readouterr().err
        assert early_calls == {"load": 0, "fit": 0}

    def test_bad_synth_key_starts_no_pool(self, tmp_path, capsys, monkeypatch,
                                          early_calls):
        import concurrent.futures

        def no_pool(*a, **k):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.synth.penalty = -1\n")
        assert run(["synth", "--config", str(cfg), "--trials", "1", "--jobs", "2",
                    "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "kernel_ridge penalty must be > 0" in capsys.readouterr().err
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
        assert f"regressor.{prefix}.kind = spline_gam needs exactly 1 covariate" in err
        assert "has 2 (day, temp)" in err
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
                    "--out", str(tmp_path / "o")] + extra) == EXIT_OK
        assert early_calls["fit"] > 0

    def test_hs_denoise_ignores_the_covariate_model(self, tmp_path, early_calls,
                                                    two_covariate_csv):
        path, schema = two_covariate_csv
        cfg = tmp_path / "c.cfg"
        cfg.write_text(schema + "regressor.res.kind = kernel_ridge\n")
        assert run(["denoise", "--input", str(path), "--config", str(cfg),
                    "--method", "hs", "--out", str(tmp_path / "o")]) == EXIT_OK
        assert early_calls == {"load": 1, "fit": 3}


class TestKernelRidgeRowLimit:
    """A kernel ridge model over its row limit exits 2 before any fit.

    The byte budget is patched low: sim_dir has 3 groups of 40 rows.
    """

    @staticmethod
    def _limit(monkeypatch, rows):
        monkeypatch.setattr(regress, "KERNEL_RIDGE_BYTES", 2 * 8 * rows * rows)

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
        monkeypatch.setattr(regress, "KERNEL_RIDGE_BYTES", 2 * 2 * 8 * rows * rows)
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
        assert pools == [1]
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

    def test_singular_model_in_a_worker_exits_3(self, tmp_path, capsys):
        # the first task goes to the worker, and every fold is singular
        survey = self._constant_covariate_survey(tmp_path)
        errors = []
        for jobs in ("1", "2"):
            assert run(["eval", "--input", str(survey), "--methods", "raw", "--jobs",
                        jobs, "--out", str(tmp_path / jobs)]) == cli.EXIT_MODEL
            errors.append(capsys.readouterr().err)
        assert "spline_gam needs at least 2 distinct x values" in errors[0]
        assert errors[0] == errors[1]

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
        assert "needs a covariate, but the table has none" in capsys.readouterr().err

    def test_nonpositive_n_aux_is_usage_error(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("eval.n_aux = 0\n")
        assert run(["eval", "--input", str(sim_dir / "survey.csv"), "--config", str(cfg),
                    "--methods", "raw,3qs", "--out", str(tmp_path / "o")]) == EXIT_USAGE
        assert "eval.n_aux must be >= 1 (got 0)" in capsys.readouterr().err


    def test_out_of_memory_is_usage_error(self, tmp_path):
        # 200 000 knots ask numpy for a 298 GiB spline penalty matrix; the
        # child's address space is capped, so the request fails at once
        sim = tmp_path / "sim"
        assert run(["simulate", "--out", str(sim), "--years", "2",
                    "--days-per-year", "10", "--n-species", "3"]) == EXIT_OK
        cfg = tmp_path / "c.cfg"
        cfg.write_text("regressor.x.n_knots = 200000\n")
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "tqsreg.cli", "denoise", "--input",
             str(sim / "survey.csv"), "--config", str(cfg), "--out", str(out)],
            env=_child_env(), capture_output=True, text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)))
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        assert errors[0].startswith("error: out of memory: Unable to allocate")
        assert not out.exists() or not os.listdir(out)

    def test_bare_memory_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.oracle, "random_joint", exhausted)
        assert run(["verify", "--out", str(tmp_path / "v")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: out of memory\n"


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
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                            "OMP_NUM_THREADS")}
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
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


def _child_env():
    """The environment of a fresh interpreter on this checkout's tqsreg."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _python(args):
    """Run a fresh interpreter on this checkout's tqsreg; return its stdout."""
    proc = subprocess.run([sys.executable, *args], env=_child_env(), capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Each step records the scipy modules loaded so far in one fresh interpreter.
_FOOTPRINT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = {}
import tqsreg
steps["import tqsreg"] = [0, scipy_modules()]
import tqsreg.cli
steps["import tqsreg.cli"] = [0, scipy_modules()]
from tqsreg import cli, regress

out = sys.argv[1]
survey, krr = out + "/sim/survey.csv", out + "/krr.cfg"
with open(krr, "w") as fh:
    fh.write("regressor.res.kind = kernel_ridge\\n")

def step(name, *argv, dest=None):
    rc = cli.main([*argv, "--out", dest or f"{out}/{len(steps)}"])
    steps[name] = [rc, scipy_modules()]

step("simulate", "simulate", "--years", "3", "--days-per-year", "40",
     "--n-species", "3", dest=out + "/sim")
step("denoise", "denoise", "--input", survey)
step("denoise --method hs", "denoise", "--method", "hs", "--input", survey)
step("eval", "eval", "--input", survey)
step("verify", "verify")
budget, regress.KERNEL_RIDGE_BYTES = regress.KERNEL_RIDGE_BYTES, 1600
step("oversized kernel ridge", "denoise", "--config", krr, "--input", survey)
try:
    regress.fit(regress.RegressorConfig("kernel_ridge"), [[0.0]] * 11, [0.0] * 11)
except regress.RegressionError as e:
    steps["oversized kernel ridge fit"] = [type(e).__name__, scipy_modules()]
regress.KERNEL_RIDGE_BYTES = budget
step("kernel ridge residuals", "denoise", "--config", krr, "--input", survey)
print(json.dumps(steps))
"""


class TestImportFootprint:
    def test_cli_does_not_import_scipy_interpolate(self):
        # scipy.interpolate pulls in scipy.optimize; the spline basis is numpy's
        code = ("import sys, tqsreg.cli; print(sorted(m for m in sys.modules "
                "if m.startswith('scipy.interpolate')))")
        assert _python(["-c", code]).strip() == "[]"

    def test_scipy_loads_with_kernel_ridge_only(self, tmp_path):
        """Only kernel ridge uses scipy; it imports it on first use, after
        refusing a fit over its row limit.  The BLAS pin loads none either."""
        steps = json.loads(_python(["-c", _FOOTPRINT, str(tmp_path)]).splitlines()[-1])
        last = steps.pop("kernel ridge residuals")
        assert steps == {
            **{name: [EXIT_OK, []] for name in (
                "import tqsreg", "import tqsreg.cli", "simulate", "denoise",
                "denoise --method hs", "eval", "verify")},
            "oversized kernel ridge": [EXIT_USAGE, []],
            "oversized kernel ridge fit": ["RegressionError", []],
        }
        assert last[0] == EXIT_OK
        assert {"scipy.linalg.blas", "scipy.linalg.lapack",
                "scipy.spatial.distance"} <= set(last[1])
