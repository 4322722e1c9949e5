import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from satmimo.cli import COLUMNS, PRESETS, SCHEMA_LINE, _points, main

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


def child_env(**extra):
    """The environment with `extra` set, and this checkout's src first on
    PYTHONPATH, so a child interpreter imports the package under test
    whether or not it is installed."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


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
        run_point = cli.run_point
        monkeypatch.setattr(cli, "run_point",
                            lambda jobs: ran.append(jobs) or run_point(jobs))
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
        from dataclasses import replace
        from satmimo import cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(TINY, constraint_kind="per-antenna")))
        evaluated = []
        original = cli.plan_users

        def spy(W, *args):
            evaluated.append(W)
            return original(W, *args)

        monkeypatch.setattr(cli, "plan_users", spy)
        # one-mode points: the only precoders planned are the job's own
        jobs = [replace(job, modes=()) for job in PRESETS["baselines"](cfg)
                if job.mode in ("mmse", "zf")]
        for job in jobs:
            evaluated.clear()
            row = cli.run_job(job)
            assert len(evaluated) == 1
            assert np.isfinite(float(row["sum_se"]))
            cons = cli._constraints_for(job.config, 10 ** (job.power_dbw / 10))
            caps = np.concatenate(cons.caps)
            g = residuals(evaluated[0], cons)
            assert np.all(g <= cfg.power_tol_rel * caps + 1e-12), \
                (job.mode, job.power_dbw, (g / caps).max())

    def test_approx_gap_rows_meet_per_antenna_caps(self, monkeypatch):
        # both approximation-study designs, the Monte-Carlo and the
        # approximate row, are fitted to per-antenna caps like mmse and zf
        from dataclasses import replace
        from satmimo import cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(TINY, constraint_kind="per-antenna")))
        evaluated = []
        for name in ("plan_users", "approx_se"):
            original = getattr(cli, name)

            def spy(W, *args, original=original):
                evaluated.append(W)
                return original(W, *args)

            monkeypatch.setattr(cli, name, spy)
        jobs = [replace(job, modes=()) for job in PRESETS["approx-gap"](cfg)]
        assert {job.mode for job in jobs} == {"mmse-exact-mc", "mmse-approx"}
        for job in jobs:
            evaluated.clear()
            row = cli.run_job(job)
            assert len(evaluated) == 1
            assert np.isfinite(float(row["sum_se"]))
            cons = cli._constraints_for(job.config, 10 ** (job.power_dbw / 10))
            caps = np.concatenate(cons.caps)
            g = residuals(evaluated[0], cons)
            assert np.all(g <= cfg.power_tol_rel * caps + 1e-12), \
                (job.mode, job.power_dbw, (g / caps).max())

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
        # zero and negative counts are rejected like a non-integer, before
        # any output file is opened
        out = tmp_path / "w.csv"
        for value in ("two", "0", "-2"):
            monkeypatch.setenv("SATMIMO_WORKERS", value)
            assert main(["run", "--preset", "approx-gap", "--config",
                         tiny_config, "--out", str(out), "--quiet"]) == 1
            assert ("error: SATMIMO_WORKERS must be a positive integer"
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


def _reference_row(job):
    """The row of one mode evaluated alone, as one job per row did: its own
    geometry, constraint set and design, and exact_se_mc (tdma-mrt: its K
    slot walks; mmse-approx: approx_se) on a fresh mc_rng. Returns
    (report, trace, precoders or None)."""
    from satmimo import baselines, joint_wmmse
    from satmimo.channel import effective_channels
    from satmimo.power import scale_to_caps
    from satmimo.scenario import sample_geometry
    from satmimo.se_eval import approx_se, exact_se_mc, mc_rng
    from satmimo.cli import _DESIGNS, _constraints_for
    cfg = job.config
    rho_w = 10 ** (job.power_dbw / 10)
    rho = np.full(cfg.L, rho_w)
    eff = effective_channels(
        sample_geometry(cfg, np.random.default_rng(cfg.rng_seed)), cfg)
    params = joint_wmmse.SolverParams.from_config(cfg)
    cons = _constraints_for(cfg, rho_w)
    rng = mc_rng(cfg.rng_seed, job.point_index)
    if job.mode == "tdma-mrt":
        return (baselines.tdma_mrt_baseline(eff, rho, cons, params.power_tol_rel,
                                            cfg.mc_trials, rng), None, None)
    W, trace = _DESIGNS[job.mode](eff, cons, rho, cfg, params)
    if trace is None:
        scale_to_caps(W, cons, params.power_tol_rel)
    if job.mode == "mmse-approx":
        return approx_se(W, eff), trace, W
    return exact_se_mc(W, eff, cfg.mc_trials, rng), trace, W


class TestPointPipeline:
    """run_point: one geometry, constraint set and Monte-Carlo walk for
    every mode of a sweep point, against each mode evaluated alone."""

    @staticmethod
    def _config(kind="per-sat-total", **extra):
        from satmimo import load_scenario
        return load_scenario(json.dumps(dict(TINY, constraint_kind=kind, **extra)))

    @pytest.mark.parametrize("kind", ["per-sat-total", "per-antenna"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_rows_match_modes_evaluated_alone(self, preset, kind):
        from satmimo.cli import run_point
        for point in _points(PRESETS[preset](self._config(kind))):
            rows = run_point(point)
            assert [r["mode"] for r in rows] == [j.mode for j in point]
            for row, job in zip(rows, point):
                ref, trace, _ = _reference_row(job)
                got = [float(v) for v in row["per_user_se"].split(";")]
                assert float(row["sum_se"]) == pytest.approx(ref.sum_se,
                                                             rel=1e-12)
                # a user's SE near 0 carries the rounding of log(d / noise)
                np.testing.assert_allclose(got, ref.per_user_se, rtol=1e-12,
                                           atol=1e-12 * ref.sum_se)
                assert row["sum_se_stderr"] == pytest.approx(
                    ref.sum_se_stderr, rel=1e-12)
                assert row["iterations"] == (trace.iterations if trace else 0)
                assert row["converged"] == (trace.converged if trace else True)
                assert row["multiplier_evals"] == (
                    trace.multiplier_evals if trace else 0)

    @staticmethod
    def _count_walks(monkeypatch):
        from satmimo import se_eval
        walks = []
        original = se_eval.sample_pair_gains

        def spy(beta, kappa, rng, trials, pairs):
            walks.append(len(pairs))
            return original(beta, kappa, rng, trials, pairs)

        monkeypatch.setattr(se_eval, "sample_pair_gains", spy)
        return walks

    @pytest.mark.parametrize("preset, walks_per_point", [
        ("association", lambda cfg: 1), ("user-loading", lambda cfg: cfg.K),
        ("baselines", lambda cfg: 1), ("approx-gap", lambda cfg: 1)])
    def test_walks_per_point(self, preset, walks_per_point, monkeypatch):
        # every Monte-Carlo mode of a point rides one walk; tdma-mrt's slot
        # 0 rides it too and its K - 1 later slots walk on
        from satmimo.cli import run_point
        walks = self._count_walks(monkeypatch)
        for point in _points(PRESETS[preset](self._config())):
            walks.clear()
            run_point(point)
            assert len(walks) == walks_per_point(point[0].config)

    def test_tdma_alone_walks_once_per_slot(self, monkeypatch):
        from satmimo import baselines, effective_channels, sample_geometry
        from satmimo.power import per_sat_total
        cfg = self._config(K=3)
        eff = effective_channels(sample_geometry(cfg, np.random.default_rng(0)), cfg)
        rho = np.full(cfg.L, 2.0)
        walks = self._count_walks(monkeypatch)
        baselines.tdma_mrt_baseline(eff, rho, per_sat_total(rho, cfg.N), 1e-5,
                                    20, np.random.default_rng(0))
        assert walks == [1, 1, 1]

    @pytest.mark.parametrize("preset, draws", [
        ("association", lambda cfg: 1), ("user-loading", lambda cfg: cfg.K)])
    def test_generator_ends_where_modes_alone_leave_it(self, preset, draws,
                                                       monkeypatch):
        # one full draw for the shared walk, K - 1 more for TDMA's later
        # slots: as many as the mode with the most walks took alone
        from satmimo import cli
        from satmimo.channel import sample_gamma
        from satmimo.se_eval import mc_rng
        made = []
        monkeypatch.setattr(cli, "mc_rng", lambda *a: made.append(mc_rng(*a))
                            or made[-1])
        point = _points(PRESETS[preset](self._config()))[1]
        cli.run_point(point)
        cfg = point[0].config
        ref = mc_rng(cfg.rng_seed, point[0].point_index)
        beta = np.ones((cfg.L, cfg.K))
        for _ in range(draws(cfg)):
            sample_gamma(beta, beta, ref, trials=cfg.mc_trials)
        assert len(made) == 1
        assert made[0].bit_generator.state == ref.bit_generator.state

    def _user_loading_point(self, K=4):
        return next(point for point in _points(PRESETS["user-loading"](
            self._config())) if point[0].config.K == K)

    def test_walk_s_carries_the_sets_s_of_every_mode(self, monkeypatch):
        # walk 0: joint's pairs, then TDMA slot 0's; walk k >= 1: only slot
        # k's; and the generator ends K full draws past mc_rng
        from satmimo import baselines, cli, effective_channels, sample_geometry
        from satmimo.channel import sample_gamma
        from satmimo.power import scale_to_caps
        from satmimo.se_eval import mc_rng, plan_users
        point = self._user_loading_point()
        job = point[0]
        cfg = job.config
        walks = []
        original = cli.sample_plan_gains

        def spy(effective, trials, rng, plans):
            walks.append(([p for plan in plans for p in plan.pairs], rng))
            return original(effective, trials, rng, plans)

        monkeypatch.setattr(cli, "sample_plan_gains", spy)
        cli.run_point(point)
        eff = effective_channels(
            sample_geometry(cfg, np.random.default_rng(cfg.rng_seed)), cfg)
        rho_w = 10 ** (job.power_dbw / 10)
        cons = cli._constraints_for(cfg, rho_w)
        slots = [scale_to_caps(W, cons, cfg.power_tol_rel) for _, W in
                 baselines.tdma_mrt_precoders(eff, np.full(cfg.L, rho_w))]

        def pairs(W, users):
            return [p for plan in plan_users(W, eff, users) for p in plan.pairs]

        joint = pairs(_reference_row(job)[2], range(cfg.K))
        assert [w[0] for w in walks] == (
            [joint + pairs(slots[0], [0])]
            + [pairs(slots[k], [k]) for k in range(1, cfg.K)])
        assert len(walks) == cfg.K == 4
        rng = walks[0][1]
        assert all(w[1] is rng for w in walks)
        twin = mc_rng(cfg.rng_seed, job.point_index)
        beta = np.ones((cfg.L, cfg.K))
        for _ in range(cfg.K):
            sample_gamma(beta, beta, twin, trials=cfg.mc_trials)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("where", ["design", "evaluation"])
    def test_failing_tdma_rides_no_later_walk(self, where, monkeypatch):
        # TDMA fails in its design, or on walk 0 (the second evaluation
        # there): the joint row is unchanged and no later walk is drawn
        from satmimo import NumericsError, baselines, cli
        point = self._user_loading_point()
        clean = cli.run_point(point)

        def refuse(*args):
            raise NumericsError("no slots today")

        if where == "design":
            monkeypatch.setattr(baselines, "tdma_mrt_precoders", refuse)
        else:
            evaluated = []
            original = cli.evaluate_users

            def second_refused(*args):
                evaluated.append(args)
                return (refuse if len(evaluated) == 2 else original)(*args)

            monkeypatch.setattr(cli, "evaluate_users", second_refused)
        walks = self._count_walks(monkeypatch)
        rows = cli.run_point(point)
        assert len(walks) == 1
        assert rows[1]["per_user_se"] == "error=no slots today"
        assert rows[1]["sum_se"] == "nan"
        for row in (rows[0], clean[0]):
            row.pop("wall_time_ms")
        assert rows[0] == clean[0]

    def test_run_job_hands_each_row_out_once(self, monkeypatch):
        from satmimo import cli
        calls = []
        run_point = cli.run_point
        monkeypatch.setattr(cli, "run_point",
                            lambda jobs: calls.append(jobs) or run_point(jobs))
        first, second = PRESETS["association"](self._config())[:2]
        assert first.modes == second.modes == ("streamwise", "streamwise-random")
        row_a = cli.run_job(first)
        row_b = cli.run_job(second)
        assert len(calls) == 1
        assert [r["mode"] for r in (row_a, row_b)] == list(first.modes)
        # the held row is gone: asking again computes the point again
        again = cli.run_job(second)
        assert len(calls) == 2
        for row in (row_b, again):
            row.pop("wall_time_ms")
        assert again == row_b
        # that computation held first's row, handed out once
        cli.run_job(first)
        assert len(calls) == 2
        # calling run_job twice on one job computes the point twice
        cli.run_job(first)
        cli.run_job(first)
        assert len(calls) == 4

    def test_run_job_drops_held_rows_on_another_point(self, monkeypatch):
        from satmimo import cli
        calls = []
        run_point = cli.run_point
        monkeypatch.setattr(cli, "run_point",
                            lambda jobs: calls.append(jobs) or run_point(jobs))
        jobs = PRESETS["association"](self._config())
        cli.run_job(jobs[0])           # holds jobs[1]'s row
        cli.run_job(jobs[2])           # another point: computed, drops it
        cli.run_job(jobs[1])
        assert len(calls) == 3

    def test_failing_design_leaves_other_rows(self, monkeypatch):
        from satmimo import InfeasibleError, baselines, cli
        point = _points(PRESETS["association"](self._config()))[0]
        clean = cli.run_point(point)

        def refuse(*args):
            raise InfeasibleError("no random map today")

        monkeypatch.setattr(baselines, "random_association", refuse)
        rows = cli.run_point(point)
        assert rows[1]["per_user_se"] == "error=no random map today"
        assert rows[1]["sum_se"] == "nan"
        for row in (rows[0], clean[0]):
            row.pop("wall_time_ms")
            row.pop("paired_stderr")
        assert rows[0] == clean[0]

    def test_rejects_jobs_of_different_points(self):
        from dataclasses import replace
        from satmimo.cli import run_point
        jobs = PRESETS["association"](self._config())
        with pytest.raises(ValueError):
            run_point([jobs[0], jobs[2]])
        with pytest.raises(ValueError):
            run_point([jobs[0], jobs[0]])
        with pytest.raises(ValueError):
            run_point([replace(jobs[0], mode="no-such-mode")])

    def test_row_seed_is_the_seed_of_its_draws(self, monkeypatch):
        # the seed column is the config's: the point's geometry and its
        # Monte-Carlo walks are drawn from it, whatever built the job
        from satmimo import cli
        from satmimo.se_eval import mc_rng
        cfg = self._config(rng_seed=7)
        states = {"geometry": [], "walk": []}
        sample_geometry, sample_plan_gains = cli.sample_geometry, cli.sample_plan_gains

        def geometry_spy(config, rng):
            states["geometry"].append(rng.bit_generator.state)
            return sample_geometry(config, rng)

        def walk_spy(effective, trials, rng, plans):
            states["walk"].append(rng.bit_generator.state)
            return sample_plan_gains(effective, trials, rng, plans)

        monkeypatch.setattr(cli, "sample_geometry", geometry_spy)
        monkeypatch.setattr(cli, "sample_plan_gains", walk_spy)
        row = cli.run_job(cli.Job("custom", "joint", cfg, 10.0, 0))
        assert row["seed"] == 7
        assert states == {
            "geometry": [np.random.default_rng(row["seed"]).bit_generator.state],
            "walk": [mc_rng(row["seed"], 0).bit_generator.state]}

    def test_paired_stderr_in_sidecar(self, tiny_config, tmp_path):
        # each entry against the two modes' per-trial sum SE, recomputed
        # from their designs on fresh generators
        from satmimo.se_eval import exact_se_trials, mc_rng
        from satmimo import effective_channels, sample_geometry
        out = str(tmp_path / "assoc.csv")
        assert main(["run", "--preset", "association", "--config", tiny_config,
                     "--out", out, "--quiet"]) == 0
        rows = read_rows(out)
        with open(out + ".json") as fh:
            paired = json.load(fh)["paired_stderr"]
        assert [p["rows"] for p in paired] == [[i, i + 1]
                                               for i in range(0, len(rows), 2)]
        jobs = PRESETS["association"](self._config())
        for entry in paired:
            a, b = entry["rows"]
            assert entry["modes"] == [rows[a]["mode"], rows[b]["mode"]]
            assert entry["scenario_id"] == rows[a]["scenario_id"]
            assert entry["power_cap_dbw"] == float(rows[a]["power_cap_dbw"])
            sums = []
            for job in (jobs[a], jobs[b]):
                cfg = job.config
                eff = effective_channels(
                    sample_geometry(cfg, np.random.default_rng(cfg.rng_seed)), cfg)
                W = _reference_row(job)[2]
                sums.append(exact_se_trials(
                    W, eff, cfg.mc_trials, mc_rng(cfg.rng_seed, job.point_index),
                    range(cfg.K)).sum(axis=0))
            diff = sums[0] - sums[1]
            scale = abs(sums[0].mean()) + abs(sums[1].mean())
            assert abs(entry["mean_diff"] - diff.mean()) <= 1e-12 * scale
            assert entry["stderr"] == pytest.approx(
                np.std(diff, ddof=1) / np.sqrt(diff.size), rel=1e-12)
            # common random numbers: the pair's spread is below the
            # unpaired one
            unpaired = np.hypot(np.std(sums[0], ddof=1), np.std(sums[1], ddof=1))
            assert entry["stderr"] < unpaired / np.sqrt(diff.size)

    def test_paired_only_for_modes_wholly_on_the_walk(self, tmp_path,
                                                      tiny_config):
        # tdma-mrt has K Monte-Carlo sets, one per walk, mmse-approx none:
        # neither is paired; the three baselines pairs are
        for preset, expect in (("user-loading", []), ("approx-gap", []),
                               ("baselines", [["joint", "mmse"],
                                              ["joint", "zf"],
                                              ["mmse", "zf"]])):
            out = str(tmp_path / f"{preset}.csv")
            assert main(["run", "--preset", preset, "--config", tiny_config,
                         "--out", out, "--quiet", "--trials", "20"]) == 0
            with open(out + ".json") as fh:
                paired = json.load(fh)["paired_stderr"]
            points = len(read_rows(out)) // len(PRESETS[preset](
                self._config())[0].modes)
            assert [p["modes"] for p in paired] == expect * points


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
        assert residuals(W, cons).max() <= 1e-5 * 1.2 + 1e-12

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
        from satmimo import cli, load_scenario
        from satmimo.power import residuals
        cfg = load_scenario(json.dumps(dict(
            TINY, constraint_kind="custom",
            custom_constraints=[[{"A": (2 * np.eye(8)).tolist(), "rho": 1.0}]] * 4)))
        evaluated = []
        # every slot is planned for a walk of the point
        original = cli.plan_users

        def spy(W, *args):
            evaluated.append(W.copy())
            return original(W, *args)

        monkeypatch.setattr(cli, "plan_users", spy)
        row = cli.run_job(cli.Job("custom", "tdma-mrt", cfg, 10.0, 0))
        assert np.isfinite(float(row["sum_se"]))
        assert len(evaluated) == cfg.K
        cons = cli._constraints_for(cfg, 10.0)
        caps = np.concatenate(cons.caps)
        for W in evaluated:
            assert (residuals(W, cons) / caps).max() == pytest.approx(0.0, abs=1e-12)


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
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert out.exists()

    def test_worker_pool_matches_serial(self, tiny_config, tmp_path):
        # the pool maps run_point over whole points: association's points
        # have two modes, approx-gap's one Monte-Carlo and one approximate
        env = child_env(SATMIMO_WORKERS="2")
        for preset in ("approx-gap", "association"):
            out_par = tmp_path / f"par-{preset}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "satmimo.cli", "run", "--preset",
                 preset, "--config", tiny_config, "--out", str(out_par),
                 "--quiet", "--trials", "30"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            out_ser = str(tmp_path / f"ser-{preset}.csv")
            assert main(["run", "--preset", preset, "--config", tiny_config,
                         "--out", out_ser, "--quiet", "--trials", "30"]) == 0
            rows_p = read_rows(str(out_par))
            rows_s = read_rows(out_ser)
            for r in rows_p + rows_s:
                r["wall_time_ms"] = "0"
            assert rows_p == rows_s
            with open(str(out_par) + ".json") as fp, open(out_ser + ".json") as fs:
                assert json.load(fp) == json.load(fs)


class TestImportCost:
    def test_import_loads_no_scipy(self):
        # scipy stays out of the package's import, so start-up time does not
        # grow with it; a solver that needs it must import it lazily
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, satmimo; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=child_env())
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
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
