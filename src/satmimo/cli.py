"""Experiment runner: power-cap sweeps with Monte-Carlo SE evaluation.

Subcommands:
  run       execute a figure preset and write a CSV (plus a JSON sidecar
            with the resolved configuration)
  validate  check a config file against the schema and invariants

The CSV is deterministic for a fixed seed apart from the wall_time_ms
column. Sweep points can be evaluated by worker processes (environment
variable SATMIMO_WORKERS); row order never depends on scheduling.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, joint_wmmse, streamwise
from .channel import effective_channels
from .errors import ConfigError, InfeasibleError, NumericsError, ValidationError
from .power import (per_antenna, per_sat_total, make_constraint_set,
                    scale_to_caps)
from .scenario import ScenarioConfig, load_scenario, sample_geometry
from .se_eval import approx_se, exact_se_mc, mc_rng

SCHEMA_LINE = "# satmimo-results schema=1"
COLUMNS = ["scenario_id", "mode", "L", "K", "N", "M", "S", "power_cap_dbw",
           "sum_se", "per_user_se", "iterations", "wall_time_ms", "seed"]

ORTHOGONAL_SINES = (-0.9, -0.4, 0.1, 0.6)
# every preset sets these itself and discards any list from the config
_ANGLE_KEYS = ("ue_sin_theta", "sat_sin_phi", "elevation_deg")


@dataclass(frozen=True)
class Job:
    scenario_id: str
    mode: str
    config: ScenarioConfig
    power_dbw: float
    point_index: int
    seed: int


def _clear_fixed_angles(cfg: ScenarioConfig) -> ScenarioConfig:
    return replace(cfg, **dict.fromkeys(_ANGLE_KEYS))


def _sweep(variants, modes) -> list:
    """Jobs for (scenario id, config) variants: per variant, every power
    point in grid order, and per point every mode in the given order."""
    return [Job(sid, mode, sub, dbw, p, sub.rng_seed)
            for sid, sub in variants
            for p, dbw in enumerate(sub.power_cap_dbw_grid)
            for mode in modes]


def _preset_joint_vs_streamwise(cfg, orthogonal: bool):
    if orthogonal:
        # one stream per eigenmode per satellite: the regime where the
        # streamwise mode matches joint transmission
        variant = ("orthogonal",
                   replace(cfg, L=4, M=4, S=4, ue_sin_theta=ORTHOGONAL_SINES,
                           sat_sin_phi=None, elevation_deg=None))
    else:
        variant = ("non-orthogonal", _clear_fixed_angles(cfg))
    return _sweep([variant], ("joint", "streamwise"))


def _preset_association(cfg):
    # association gains require angularly separated users; the reference
    # drift co-locates them and the map then only decides how many
    # satellites stay idle
    variants = []
    for N in (16, 64):
        base = replace(_clear_fixed_angles(cfg), L=8, N=N,
                       azimuth_drift_deg=60.0, elevation_drift_deg=20.0)
        variants += [(f"N{N}", replace(base, rng_seed=cfg.rng_seed + j))
                     for j in range(cfg.association_seeds)]
    return _sweep(variants, ("streamwise", "streamwise-random"))


PRESETS = {
    "approx-gap": lambda c: _sweep(
        [(f"L{L}", replace(_clear_fixed_angles(c), L=L, S=c.M)) for L in (4, 8)],
        ("mmse-exact-mc", "mmse-approx")),
    "joint-vs-streamwise-orthogonal": lambda c: _preset_joint_vs_streamwise(c, True),
    "joint-vs-streamwise-nonorthogonal": lambda c: _preset_joint_vs_streamwise(c, False),
    "stream-count": lambda c: _sweep(
        [("main", replace(_clear_fixed_angles(c), S=S)) for S in (1, 2, 3)],
        ("joint", "streamwise")),
    "baselines": lambda c: _sweep(
        [(f"L{L}", replace(_clear_fixed_angles(c), L=L)) for L in (4, 8)],
        ("joint", "mmse", "zf")),
    "user-loading": lambda c: _sweep(
        [(f"K{K}", replace(_clear_fixed_angles(c), L=8, K=K)) for K in (2, 4, 6)],
        ("joint", "tdma-mrt")),
    "association": _preset_association,
}


def _constraints_for(cfg: ScenarioConfig, rho_w: float):
    if cfg.constraint_kind == "per-sat-total":
        return per_sat_total(np.full(cfg.L, rho_w), cfg.N)
    if cfg.constraint_kind == "per-antenna":
        return per_antenna(np.full((cfg.L, cfg.N), rho_w / cfg.N))
    # custom caps are specified at a 1 W reference and scale with the sweep
    return make_constraint_set(cfg.custom_constraints).scaled(rho_w)


def run_job(job: Job) -> dict:
    """Evaluate one (scenario, mode, sweep point) row. Pure given the job.

    Besides the CSV columns the row carries "converged", False when the
    WMMSE loop stopped at max_iters before meeting its tolerance;
    "sum_se_stderr", the Monte-Carlo standard error of sum_se (0.0 for the
    approximation, nan for an error row or a single trial); and
    "multiplier_evals", the evaluations made by every multiplier search of
    the solver, secular or dual (0 for modes that run no solver)."""
    cfg = job.config
    t0 = time.perf_counter()
    rho_w = 10 ** (job.power_dbw / 10)
    geometry = sample_geometry(cfg, np.random.default_rng(cfg.rng_seed))
    effective = effective_channels(geometry, cfg)
    params = joint_wmmse.SolverParams.from_config(cfg)
    rng = mc_rng(cfg.rng_seed, job.point_index)
    rho_vec = np.full(cfg.L, rho_w)
    trace = None
    error = ""

    try:
        if job.mode in ("mmse-exact-mc", "mmse-approx"):
            # approximation study: aggregated stream basis so all S streams
            # carry power (the per-link basis degenerates to one stream)
            cons = per_sat_total(rho_vec, cfg.N)
            W = joint_wmmse.init_precoders(effective, cons, cfg.S,
                                           stream_basis="aggregated")
        elif job.mode in ("mmse", "zf"):
            # designed on per-satellite totals, then fitted to the row's caps
            build = (baselines.mmse_baseline if job.mode == "mmse"
                     else baselines.zf_baseline)
            W = scale_to_caps(build(effective, rho_vec, cfg.S),
                              _constraints_for(cfg, rho_w), params.power_tol_rel)
        elif job.mode == "joint":
            W, trace = joint_wmmse.solve(effective, _constraints_for(cfg, rho_w),
                                         params, num_streams=cfg.S)
        elif job.mode == "streamwise":
            W, _, trace = streamwise.solve_streamwise(
                effective, _constraints_for(cfg, rho_w), params, num_streams=cfg.S)
        elif job.mode == "streamwise-random":
            assoc = baselines.random_association(
                np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 1])),
                cfg.S, cfg.L, cfg.K)
            W, _, trace = streamwise.solve_streamwise(
                effective, _constraints_for(cfg, rho_w), params, num_streams=cfg.S,
                assignment=assoc)
        elif job.mode == "tdma-mrt":
            report = baselines.tdma_mrt_baseline(effective, rho_vec,
                                                 cfg.mc_trials, rng)
            return _row(job, report, None, t0)
        else:
            raise ValueError(f"unhandled mode {job.mode}")

        if job.mode == "mmse-approx":
            report = approx_se(W, effective)
        else:
            report = exact_se_mc(W, effective, cfg.mc_trials, rng)
    except (InfeasibleError, NumericsError, ValidationError) as exc:
        error = str(exc)
        report = None
    if report is None:
        row = _row(job, None, trace, t0)
        row["per_user_se"] = f"error={error}"
        return row
    return _row(job, report, trace, t0)


def _row(job, report, trace, t0):
    cfg = job.config
    return {
        "scenario_id": job.scenario_id,
        "mode": job.mode,
        "L": cfg.L, "K": cfg.K, "N": cfg.N, "M": cfg.M, "S": cfg.S,
        "power_cap_dbw": repr(float(job.power_dbw)),
        "sum_se": repr(float(report.sum_se)) if report else "nan",
        "per_user_se": ";".join(repr(float(v)) for v in report.per_user_se)
                       if report else "",
        "iterations": trace.iterations if trace else 0,
        "wall_time_ms": int(round(1000 * (time.perf_counter() - t0))),
        "seed": job.seed,
        "converged": trace.converged if trace else True,
        "sum_se_stderr": float(report.sum_se_stderr) if report else float("nan"),
        "multiplier_evals": trace.multiplier_evals if trace else 0,
    }


def _write_outputs(rows, unconverged, out_path, cfg, args):
    with open(out_path, "w", newline="") as fh:
        fh.write(SCHEMA_LINE + "\n")
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    sidecar = {
        "schema": 1,
        "preset": args.preset,
        "config": _jsonable(cfg.as_dict()),
        "unconverged": unconverged,
        "sum_se_stderr": _stderrs(rows),
    }
    with open(out_path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def _unconverged(rows):
    """Rows whose solver stopped at max_iters, for the sidecar."""
    return [{"row": i, "scenario_id": r["scenario_id"], "mode": r["mode"],
             "power_cap_dbw": float(r["power_cap_dbw"]),
             "iterations": r["iterations"]}
            for i, r in enumerate(rows) if not r["converged"]]


def _stderrs(rows):
    """Every row's Monte-Carlo standard error for the sidecar; null where it
    is nan (an error row or a single trial), so the file stays strict JSON."""
    return [{"row": i, "scenario_id": r["scenario_id"], "mode": r["mode"],
             "power_cap_dbw": float(r["power_cap_dbw"]),
             "stderr": (r["sum_se_stderr"] if np.isfinite(r["sum_se_stderr"])
                        else None)}
            for i, r in enumerate(rows)]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def _load_config(args, parser):
    if args.config is None:
        cfg = ScenarioConfig()
    else:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        cfg = load_scenario(text)
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides["mc_trials"] = args.trials
    return replace(cfg, **overrides) if overrides else cfg


def cmd_run(args, parser) -> int:
    if args.preset not in PRESETS:
        parser.error(f"unknown preset {args.preset!r}; choose from "
                     + ", ".join(sorted(PRESETS)))
    try:
        cfg = _load_config(args, parser)
        jobs = PRESETS[args.preset](cfg)
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pinned = [key for key in _ANGLE_KEYS if getattr(cfg, key) is not None]
    if pinned:
        print(f"warning: preset {args.preset} sets its own angles and ignores "
              f"{', '.join(pinned)} from the config", file=sys.stderr)
    try:
        workers = int(os.environ.get("SATMIMO_WORKERS", "1"))
    except ValueError:
        print("error: SATMIMO_WORKERS must be an integer", file=sys.stderr)
        return 1
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_job, jobs))
    else:
        rows = [run_job(job) for job in jobs]
    unconverged = _unconverged(rows)
    _write_outputs(rows, unconverged, args.out, cfg, args)
    failures = [r for r in rows if r["sum_se"] == "nan"]
    if not args.quiet:
        print(f"wrote {len(rows)} rows to {args.out}"
              + (f" ({len(failures)} rows failed)" if failures else ""))
    for r in failures:
        print(f"warning: {r['scenario_id']}/{r['mode']} at "
              f"{r['power_cap_dbw']} dBW: {r['per_user_se']}", file=sys.stderr)
    for r in unconverged:
        print(f"warning: {r['scenario_id']}/{r['mode']} at "
              f"{r['power_cap_dbw']!r} dBW: solver stopped at "
              f"{r['iterations']} iterations without converging",
              file=sys.stderr)
    return 0


def cmd_validate(args, parser) -> int:
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = load_scenario(text)
    except (ConfigError, ValidationError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print("OK")
    print(json.dumps(_jsonable(cfg.as_dict()), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmimo",
        description="Multi-satellite MIMO downlink precoding experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a figure preset and emit CSV")
    run_p.add_argument("--config", help="JSON scenario config (defaults apply)")
    run_p.add_argument("--preset", required=True,
                       help="one of: " + ", ".join(sorted(PRESETS)))
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--out", default="results.csv", help="output CSV path")
    run_p.add_argument("--trials", type=int, help="override Monte-Carlo trials")
    run_p.add_argument("--quiet", action="store_true")

    val_p = sub.add_parser("validate", help="check a config file")
    val_p.add_argument("config", help="JSON scenario config path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, parser)
    return cmd_validate(args, parser)


if __name__ == "__main__":
    sys.exit(main())
