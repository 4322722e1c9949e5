import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from satmimo.cli import COLUMNS, PRESETS, SCHEMA_LINE, main

TINY = {
    "L": 4, "K": 2, "N": 8, "M": 4, "S": 2,
    "power_cap_dbw_grid": [0.0, 10.0],
    "mc_trials": 50,
    "rng_seed": 3,
    "max_iters": 10,
    "association_seeds": 2,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
        assert first == SCHEMA_LINE
        return list(csv.DictReader(fh))


class TestRun:
    def test_joint_vs_streamwise_preset(self, tiny_config, tmp_path):
        out = str(tmp_path / "res.csv")
        code = main(["run", "--preset", "joint-vs-streamwise-orthogonal",
                     "--config", tiny_config, "--out", out, "--quiet"])
        assert code == 0
        rows = read_rows(out)
        # 2 modes x 2 sweep points
        assert len(rows) == 4
        assert list(rows[0].keys()) == COLUMNS
        assert {r["mode"] for r in rows} == {"joint", "streamwise"}
        for r in rows:
            assert float(r["sum_se"]) > 0
            parts = [float(x) for x in r["per_user_se"].split(";")]
            assert sum(parts) == pytest.approx(float(r["sum_se"]), rel=1e-9)
        with open(out + ".json") as fh:
            sidecar = json.load(fh)
        assert sidecar["preset"] == "joint-vs-streamwise-orthogonal"
        assert sidecar["config"]["N"] == 8

    def test_deterministic_rerun(self, tiny_config, tmp_path):
        def run(name):
            out = str(tmp_path / name)
            assert main(["run", "--preset", "approx-gap", "--config", tiny_config,
                         "--out", out, "--quiet", "--trials", "30"]) == 0
            rows = read_rows(out)
            for r in rows:
                r["wall_time_ms"] = "0"  # timing is the one non-deterministic column
            return rows

        assert run("a.csv") == run("b.csv")

    def test_association_preset_seeds(self, tiny_config, tmp_path):
        out = str(tmp_path / "assoc.csv")
        assert main(["run", "--preset", "association", "--config", tiny_config,
                     "--out", out, "--quiet", "--trials", "20"]) == 0
        rows = read_rows(out)
        # 2 N values x 2 seeds x 2 points x 2 modes
        assert len(rows) == 16
        assert {r["scenario_id"] for r in rows} == {"N16", "N64"}
        assert {r["seed"] for r in rows} == {"3", "4"}

    def test_unknown_preset_exits_2(self, tiny_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--preset", "no-such-figure", "--config", tiny_config,
                  "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_missing_config_exits_1(self, tmp_path):
        code = main(["run", "--preset", "approx-gap",
                     "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1

    @pytest.mark.parametrize("out, bad", [
        ("missing/x.csv", "missing/x.csv"), ("x.csv", "x.csv.json")],
        ids=["missing-directory", "sidecar-is-a-directory"])
    def test_unwritable_output_exits_1_before_any_row(
            self, out, bad, tiny_config, tmp_path, monkeypatch, capsys):
        # reported before the sweep, instead of a traceback after every row ran
        from satmimo import cli
        ran = []
        run_job = cli.run_job
        monkeypatch.setattr(cli, "run_job", lambda job: ran.append(job) or run_job(job))
        (tmp_path / "x.csv.json").mkdir()
        assert main(["run", "--preset", "approx-gap", "--config", tiny_config,
                     "--out", str(tmp_path / out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot write {tmp_path / bad}: ")
        assert ran == []

    def test_failing_point_keeps_sweep_alive(self, tiny_config, tmp_path,
                                             monkeypatch):
        # a solver error at one sweep point annotates that row only
        from satmimo import NumericsError, cli, streamwise
        solve = streamwise.solve_streamwise

        def flaky(effective, constraints, *args, **kwargs):
            if constraints.caps[0][0] > 5.0:
                raise NumericsError("MSE matrix of user 0 is not positive definite")
            return solve(effective, constraints, *args, **kwargs)

        monkeypatch.setattr(cli.streamwise, "solve_streamwise", flaky)
        out = str(tmp_path / "flaky.csv")
        assert main(["run", "--preset", "joint-vs-streamwise-orthogonal",
                     "--config", tiny_config, "--out", out, "--quiet",
                     "--trials", "20"]) == 0
        rows = read_rows(out)
        assert len(rows) == 4
        failed = [r for r in rows if r["sum_se"] == "nan"]
        assert [(r["mode"], r["power_cap_dbw"]) for r in failed] == [
            ("streamwise", "10.0")]
        assert failed[0]["per_user_se"] == (
            "error=MSE matrix of user 0 is not positive definite")
        assert all(float(r["sum_se"]) > 0 for r in rows if r not in failed)

    def test_unconverged_rows_in_sidecar(self, tmp_path, capsys):
        # one WMMSE iteration cannot meet the tolerance: every joint row
        # stops at max_iters, while TDMA rows run no solver
        path = tmp_path / "short.json"
        path.write_text(json.dumps(dict(TINY, max_iters=1)))
        out = str(tmp_path / "short.csv")
        assert main(["run", "--preset", "user-loading", "--config", str(path),
                     "--out", out, "--quiet", "--trials", "20"]) == 0
        rows = read_rows(out)
        assert list(rows[0].keys()) == COLUMNS
        with open(out + ".json") as fh:
            unconverged = json.load(fh)["unconverged"]
        joint = [i for i, r in enumerate(rows) if r["mode"] == "joint"]
        assert [u["row"] for u in unconverged] == joint
        for u in unconverged:
            row = rows[u["row"]]
            assert u["mode"] == "joint"
            assert u["scenario_id"] == row["scenario_id"]
            assert u["power_cap_dbw"] == float(row["power_cap_dbw"])
            assert u["iterations"] == int(row["iterations"]) == 1
        err = capsys.readouterr().err
        assert err.count("without converging") == len(joint) == 6

    def test_converged_rows_not_listed(self, tiny_config, tmp_path, capsys):
        out = str(tmp_path / "ok.csv")
        assert main(["run", "--preset", "joint-vs-streamwise-orthogonal",
                     "--config", tiny_config, "--out", out, "--quiet",
                     "--trials", "20"]) == 0
        assert all(0 < int(r["iterations"]) < TINY["max_iters"]
                   for r in read_rows(out))
        with open(out + ".json") as fh:
            assert json.load(fh)["unconverged"] == []
        assert "without converging" not in capsys.readouterr().err

    @staticmethod
    def _strict_sidecar(out):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with open(out + ".json") as fh:
            return json.loads(fh.read(), parse_constant=reject)

    def test_stderr_in_rows_and_sidecar(self, tiny_config, tmp_path):
        from dataclasses import replace
        from satmimo import load_scenario
        from satmimo.cli import PRESETS, run_job
        out = str(tmp_path / "gap.csv")
        assert main(["run", "--preset", "approx-gap", "--config", tiny_config,
                     "--out", out, "--quiet", "--trials", "30"]) == 0
        rows = read_rows(out)
        assert list(rows[0].keys()) == COLUMNS
        stderrs = self._strict_sidecar(out)["sum_se_stderr"]
        assert [s["row"] for s in stderrs] == list(range(len(rows)))
        with open(tiny_config) as fh:
            cfg = replace(load_scenario(fh.read()), mc_trials=30)
        jobs = PRESETS["approx-gap"](cfg)
        for s, row, job in zip(stderrs, rows, jobs):
            assert s["scenario_id"] == row["scenario_id"]
            assert s["mode"] == row["mode"]
            assert s["power_cap_dbw"] == float(row["power_cap_dbw"])
            assert s["stderr"] == run_job(job)["sum_se_stderr"]
            if row["mode"] == "mmse-approx":
                assert s["stderr"] == 0.0
            else:
                assert 0 < s["stderr"] < float(row["sum_se"])

    def test_multiplier_evals_in_rows_not_in_csv(self, tiny_config, monkeypatch):
        from satmimo import joint_wmmse, load_scenario
        from satmimo.cli import PRESETS, run_job
        with open(tiny_config) as fh:
            cfg = load_scenario(fh.read())
        traces = []
        original = joint_wmmse.solve

        def spy(*args, **kwargs):
            result = original(*args, **kwargs)
            traces.append(result[1])
            return result

        monkeypatch.setattr(joint_wmmse, "solve", spy)
        rows = [run_job(job) for job in PRESETS["baselines"](cfg)]
        assert "multiplier_evals" not in COLUMNS
        assert [r["multiplier_evals"] for r in rows if r["mode"] == "joint"] == \
            [t.multiplier_evals for t in traces]
        assert all(t.multiplier_evals >= t.multiplier_searches > 0 for t in traces)
        assert all(r["multiplier_evals"] == 0 for r in rows
                   if r["mode"] in ("mmse", "zf"))

    def test_baseline_rows_meet_per_antenna_caps(self, monkeypatch):
        # mmse and zf are designed on per-satellite totals; under per-antenna
        # caps every antenna of the evaluated precoders must be within the
        # solver's tolerance of its cap, as the joint row it is compared with
        from satmimo import cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(TINY, constraint_kind="per-antenna")))
        evaluated = []
        original = cli.exact_se_mc

        def spy(W, *args):
            evaluated.append(W)
            return original(W, *args)

        monkeypatch.setattr(cli, "exact_se_mc", spy)
        jobs = [job for job in PRESETS["baselines"](cfg)
                if job.mode in ("mmse", "zf")]
        for job in jobs:
            evaluated.clear()
            row = cli.run_job(job)
            assert np.isfinite(float(row["sum_se"]))
            cons = cli._constraints_for(cfg, 10 ** (job.power_dbw / 10))
            for l, caps in enumerate(cons.caps):
                g = residuals(evaluated[0][l], cons, l)
                assert np.all(g <= cfg.ellipsoid_tol_rel * caps + 1e-12), \
                    (job.mode, job.power_dbw, l, (g / caps).max())

    def test_approx_gap_rows_meet_per_antenna_caps(self, monkeypatch):
        # both approximation-study designs, the Monte-Carlo and the
        # approximate row, are fitted to per-antenna caps like mmse and zf
        from satmimo import cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(TINY, constraint_kind="per-antenna")))
        evaluated = []
        for name in ("exact_se_mc", "approx_se"):
            original = getattr(cli, name)

            def spy(W, *args, original=original):
                evaluated.append(W)
                return original(W, *args)

            monkeypatch.setattr(cli, name, spy)
        jobs = PRESETS["approx-gap"](cfg)
        assert {job.mode for job in jobs} == {"mmse-exact-mc", "mmse-approx"}
        for job in jobs:
            evaluated.clear()
            row = cli.run_job(job)
            assert np.isfinite(float(row["sum_se"]))
            cons = cli._constraints_for(cfg, 10 ** (job.power_dbw / 10))
            for l, caps in enumerate(cons.caps):
                g = residuals(evaluated[0][l], cons, l)
                assert np.all(g <= cfg.ellipsoid_tol_rel * caps + 1e-12), \
                    (job.mode, job.power_dbw, l, (g / caps).max())

    def test_pinned_angles_discarded_with_one_warning(self, tmp_path, capsys):
        # every preset sets its own angles: a pinned list in the config
        # leaves the rows as they are and is named once on stderr
        def run(extra):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(dict(TINY, **extra)))
            out = str(tmp_path / "res.csv")
            assert main(["run", "--preset", "stream-count", "--config",
                         str(path), "--out", out, "--quiet",
                         "--trials", "20"]) == 0
            rows = read_rows(out)
            for r in rows:
                r["wall_time_ms"] = "0"
            return rows, capsys.readouterr().err

        plain, err = run({})
        assert "ignores" not in err
        pinned, err = run({"ue_sin_theta": [0.5] * 4,
                           "elevation_deg": [60.0] * 4})
        assert pinned == plain
        warnings = [line for line in err.splitlines() if "ignores" in line]
        assert warnings == ["warning: preset stream-count sets its own angles "
                            "and ignores ue_sin_theta, elevation_deg from the "
                            "config"]

    def test_nan_stderr_written_as_null(self, tiny_config, tmp_path,
                                        monkeypatch):
        # one trial has no sample variance, and an error row no estimate
        from satmimo import NumericsError, cli, streamwise
        solve = streamwise.solve_streamwise

        def flaky(effective, constraints, *args, **kwargs):
            if constraints.caps[0][0] > 5.0:
                raise NumericsError("forced failure")
            return solve(effective, constraints, *args, **kwargs)

        monkeypatch.setattr(cli.streamwise, "solve_streamwise", flaky)
        out = str(tmp_path / "one.csv")
        assert main(["run", "--preset", "joint-vs-streamwise-orthogonal",
                     "--config", tiny_config, "--out", out, "--quiet",
                     "--trials", "1"]) == 0
        rows = read_rows(out)
        assert sum(r["sum_se"] == "nan" for r in rows) == 1
        stderrs = self._strict_sidecar(out)["sum_se_stderr"]
        assert len(stderrs) == len(rows) == 4
        assert all(s["stderr"] is None for s in stderrs)

    def test_non_integer_workers_exit_1(self, tiny_config, tmp_path,
                                        monkeypatch, capsys):
        monkeypatch.setenv("SATMIMO_WORKERS", "two")
        out = tmp_path / "w.csv"
        assert main(["run", "--preset", "approx-gap", "--config", tiny_config,
                     "--out", str(out), "--quiet"]) == 1
        assert ("error: SATMIMO_WORKERS must be an integer"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_seed_override(self, tiny_config, tmp_path):
        out = str(tmp_path / "seeded.csv")
        assert main(["run", "--preset", "joint-vs-streamwise-orthogonal",
                     "--config", tiny_config, "--out", out, "--quiet",
                     "--seed", "11", "--trials", "20"]) == 0
        rows = read_rows(out)
        assert all(r["seed"] == "11" for r in rows)


    def test_bad_seed_override_exits_1(self, tiny_config, tmp_path, capsys):
        out = tmp_path / "res.csv"
        code = main(["run", "--preset", "approx-gap", "--config", tiny_config,
                     "--out", str(out), "--quiet", "--seed", "-3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "rng_seed" in err
        assert not out.exists()

    def test_more_streams_than_satellites_gives_error_rows(self, tmp_path):
        # S = 10 > L = 8: both association modes are infeasible at every
        # point, and the sweep still writes one error row per job
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "M": 12, "S": 10, "N": 4, "K": 2, "mc_trials": 20,
            "power_cap_dbw_grid": [0.0], "association_seeds": 1}))
        out = str(tmp_path / "res.csv")
        assert main(["run", "--preset", "association", "--config", str(path),
                     "--out", out, "--quiet"]) == 0
        rows = read_rows(out)
        assert sorted(r["mode"] for r in rows) == [
            "streamwise", "streamwise", "streamwise-random",
            "streamwise-random"]
        for r in rows:
            assert r["sum_se"] == "nan"
            assert r["per_user_se"].startswith("error=")

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_every_preset_runs(self, preset, tiny_config, tmp_path):
        # under the default per-satellite totals and under per-antenna caps,
        # which take the general multiplier search in every solving mode
        per_antenna = tmp_path / "per-antenna.json"
        per_antenna.write_text(json.dumps(dict(TINY, constraint_kind="per-antenna")))
        for config in (tiny_config, str(per_antenna)):
            out = str(tmp_path / "res.csv")
            assert main(["run", "--preset", preset, "--config", config,
                         "--out", out, "--quiet", "--trials", "20"]) == 0
            rows = read_rows(out)
            assert rows
            for r in rows:
                assert not r["per_user_se"].startswith("error="), r
                assert np.isfinite(float(r["sum_se"]))


class TestCustomConstraints:
    def test_config_roundtrip_and_solve(self, tmp_path):
        # dense Hermitian weight matrices from the config drive the general
        # multiplier search end to end
        config = dict(TINY, N=3, constraint_kind="custom", custom_constraints=[
            [{"A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]], "rho": 0.6},
             {"A": {"re": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 2.0]],
                    "im": [[0.0] * 3] * 3}, "rho": 0.5}]] * 4)
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(config))
        from satmimo import load_scenario
        from satmimo.cli import _constraints_for
        cfg = load_scenario(path.read_text())
        cons = _constraints_for(cfg, 2.0)  # caps scale with the sweep point
        assert cons.num_constraints(0) == 2
        assert cons.caps[0][0] == pytest.approx(1.2)
        from satmimo import effective_channels, sample_geometry, solve_joint
        import numpy as np
        geo = sample_geometry(cfg, np.random.default_rng(0))
        eff = effective_channels(geo, cfg)
        W, trace = solve_joint(eff, cons, num_streams=cfg.S)
        from satmimo.power import residuals
        assert max(residuals(W[l], cons, l).max()
                   for l in range(cons.num_sats)) <= 1e-5 * 1.2 + 1e-12

    @pytest.mark.parametrize("family, preset", [
        ({}, "baselines"),
        ({"custom_constraints": [[{"A": np.eye(8).tolist(), "rho": 1.0}]] * 4},
         "user-loading"),
        ({"custom_constraints": [[{"A": np.eye(4).tolist(), "rho": 1.0}]] * 4},
         "joint-vs-streamwise-nonorthogonal")],
        ids=["no-list", "list-for-4-of-8-satellites", "matrices-not-N-by-N"])
    def test_unusable_family_rejected_before_any_row(self, family, preset,
                                                     tmp_path, capsys):
        # the config (or the preset's L = 8 variant) is refused as a whole,
        # instead of a crash or an error row per point when the rows run
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(dict(TINY, constraint_kind="custom", **family)))
        out = tmp_path / "res.csv"
        assert main(["run", "--preset", preset, "--config", str(path),
                     "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: custom_constraints:")
        assert not out.exists()

    def test_tdma_slots_meet_custom_caps(self, monkeypatch):
        # A_l = 2I at a 1 W reference allows half the sweep point's power:
        # each full-power MRT slot is scaled onto that cap, as the joint row
        # it is compared with meets it
        from satmimo import baselines, cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(
            TINY, constraint_kind="custom",
            custom_constraints=[[{"A": (2 * np.eye(8)).tolist(), "rho": 1.0}]] * 4)))
        evaluated = []
        original = baselines.exact_se_trials

        def spy(W, *args):
            evaluated.append(W.copy())
            return original(W, *args)

        monkeypatch.setattr(baselines, "exact_se_trials", spy)
        row = cli.run_job(cli.Job("custom", "tdma-mrt", cfg, 10.0, 0, 3))
        assert np.isfinite(float(row["sum_se"]))
        assert len(evaluated) == cfg.K
        cons = cli._constraints_for(cfg, 10.0)
        for W in evaluated:
            ratios = [residuals(W[l], cons, l) / caps
                      for l, caps in enumerate(cons.caps)]
            assert max(r.max() for r in ratios) == pytest.approx(0.0, abs=1e-12)


class TestValidate:
    def test_ok(self, tiny_config, capsys):
        assert main(["validate", tiny_config]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")
        assert '"N": 8' in out

    def test_violation_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"S": 9, "M": 4}')
        assert main(["validate", str(path)]) == 1
        assert "S" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("key, value", [
        ("rng_seed", -1), ("association_seeds", 0), ("association_seeds", -2)])
    def test_unusable_value_named(self, key, value, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert key in captured.err

    _CUSTOM = ('{"L": 1, "N": 2, "constraint_kind": "custom", '
               '"custom_constraints": [[{"A": [[1, 0], [0, 1]], "rho": %s}]]}')

    @pytest.mark.parametrize("text, message", [
        ('{"power_cap_dbw_grid": ["a"]}', "power_cap_dbw_grid: expected a number"),
        ('{"power_cap_dbw_grid": [null]}', "power_cap_dbw_grid: expected a number"),
        ('{"power_cap_dbw_grid": [true]}', "power_cap_dbw_grid: expected a number"),
        ('{"power_cap_dbw_grid": ["nan"]}', "power_cap_dbw_grid: expected a number"),
        (_CUSTOM % '"a"', "custom_constraints[0][0].rho: expected a number"),
        (_CUSTOM % "false", "custom_constraints[0][0].rho: expected a number"),
        ('{"power_cap_dbw_grid": [1e400]}', "power_cap_dbw_grid: must be finite"),
        ('{"rician_factor_db": Infinity}', "rician_factor_db: must be finite"),
        (_CUSTOM % "NaN", "custom_constraints[0][0].rho: must be finite")],
        ids=["string-in-list", "null-in-list", "bool-in-list", "nan-string-in-list",
             "string-rho", "bool-rho", "overflow-in-list", "infinite-scalar",
             "nan-rho"])
    def test_bad_number_named(self, text, message, tmp_path, capsys):
        # refused at load with the key, instead of a traceback or a sweep of
        # error rows
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err.startswith(f"invalid: {message}")

    @pytest.mark.parametrize("key, value", [
        ("rician_factor_db", 1e300), ("power_cap_dbw_grid", [4000]),
        ("noise_psd_dbm_hz", 1e300), ("gain_user_dbi", 1e300),
        ("noise_psd_dbm_hz", -1e300), ("gain_sat_dbi", -1e300)],
        ids=["huge-rician", "huge-cap", "huge-noise", "huge-user-gain",
             "tiny-noise", "tiny-sat-gain"])
    def test_db_value_without_a_linear_float_named(self, key, value, tmp_path,
                                                   capsys):
        # a finite dB value whose linear value overflows or vanishes would
        # crash the sweep or turn every row into an error row
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({key: value}))
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err.startswith(f"invalid: {key}: ")


class TestEntryPoint:
    def test_module_invocation(self, tiny_config, tmp_path):
        out = tmp_path / "cli.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "satmimo.cli", "run", "--preset",
             "joint-vs-streamwise-nonorthogonal", "--config", tiny_config,
             "--out", str(out), "--quiet", "--trials", "20"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_worker_pool_matches_serial(self, tiny_config, tmp_path):
        import os
        env = dict(os.environ, SATMIMO_WORKERS="2")
        out_par = tmp_path / "par.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "satmimo.cli", "run", "--preset",
             "approx-gap", "--config", tiny_config, "--out", str(out_par),
             "--quiet", "--trials", "30"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        out_ser = str(tmp_path / "ser.csv")
        assert main(["run", "--preset", "approx-gap", "--config", tiny_config,
                     "--out", out_ser, "--quiet", "--trials", "30"]) == 0
        rows_p = read_rows(str(out_par))
        rows_s = read_rows(out_ser)
        for r in rows_p + rows_s:
            r["wall_time_ms"] = "0"
        assert rows_p == rows_s


class TestImportCost:
    def test_import_loads_no_scipy(self):
        # scipy stays out of the package's import, so start-up time does not
        # grow with it; a solver that needs it must import it lazily
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, satmimo; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_cli_import_loads_no_process_pool(self):
        # a single-worker run never uses the process pool, so importing the
        # CLI must not pay for concurrent.futures.process and multiprocessing
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, satmimo.cli; print(sorted(m for m in sys.modules "
             "if m == 'concurrent.futures.process' "
             "or m.split('.')[0] == 'multiprocessing'))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
