"""Experiment runner: power-cap sweeps with Monte-Carlo SE evaluation.

Subcommands:
  run       execute a figure preset and write a CSV (plus a JSON sidecar
            with the resolved configuration)
  validate  check a config file against the schema and invariants

The CSV is deterministic for a fixed seed apart from the wall_time_ms
column. Each sweep point runs as one pipeline (run_point) that gives the
rows of all its modes; points can be evaluated by worker processes
(environment variable SATMIMO_WORKERS), and row order never depends on
scheduling.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from . import baselines, joint_wmmse, streamwise
from .channel import effective_channels
from .errors import ConfigError, InfeasibleError, NumericsError, ValidationError
from .power import (per_antenna, per_sat_total, make_constraint_set,
                    scale_to_caps)
from .scenario import ScenarioConfig, load_scenario, sample_geometry
from .se_eval import (approx_se, evaluate_users, exact_se_trials, mc_report,
                      mc_rng, plan_users, sample_plan_gains)

SCHEMA_LINE = "# satmimo-results schema=1"
COLUMNS = ["scenario_id", "mode", "L", "K", "N", "M", "S", "power_cap_dbw",
           "sum_se", "per_user_se", "iterations", "wall_time_ms", "seed"]

ORTHOGONAL_SINES = (-0.9, -0.4, 0.1, 0.6)
# every preset sets these itself and discards any list from the config
_ANGLE_KEYS = ("ue_sin_theta", "sat_sin_phi", "elevation_deg")
# errors that make an error row for the mode they hit
_ROW_ERRORS = (InfeasibleError, NumericsError, ValidationError)


@dataclass(frozen=True)
class Job:
    scenario_id: str
    mode: str
    config: ScenarioConfig
    power_dbw: float
    point_index: int
    seed: int
    # the point's modes in preset order, computed together by run_job;
    # empty for a one-mode point
    modes: tuple = ()


def _clear_fixed_angles(cfg: ScenarioConfig) -> ScenarioConfig:
    return replace(cfg, **dict.fromkeys(_ANGLE_KEYS))


def _sweep(variants, modes) -> list:
    """Jobs for (scenario id, config) variants: per variant, every power
    point in grid order, and per point every mode in the given order. The
    jobs of one point share its config object."""
    return [Job(sid, mode, sub, dbw, p, sub.rng_seed, tuple(modes))
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


def _aggregated_mmse(eff, cons, rho, cfg, params):
    # approximation study: aggregated stream basis so all S streams carry
    # power (the per-link basis degenerates to one stream)
    return joint_wmmse.init_precoders(eff, per_sat_total(rho, cfg.N), cfg.S,
                                      stream_basis="aggregated"), None


def _streamwise(eff, cons, cfg, params, assignment):
    W, _, trace = streamwise.solve_streamwise(
        eff, cons, params, num_streams=cfg.S, assignment=assignment)
    return W, trace


# mode -> design(effective, constraints, rho per satellite, cfg, params).
# A solver returns (W, SolveTrace) with W within the constraints; a closed
# form returns (W, None) spending the per-satellite totals rho, and run_job
# fits it to the constraints. Entries look their functions up on the modules
# when the row runs, so a wrapper set on a module attribute sees the call.
_DESIGNS = {
    "joint": lambda eff, cons, rho, cfg, params: joint_wmmse.solve(
        eff, cons, params, num_streams=cfg.S),
    "streamwise": lambda eff, cons, rho, cfg, params: _streamwise(
        eff, cons, cfg, params, None),
    # the random map has its own generator, disjoint from the Monte-Carlo one
    "streamwise-random": lambda eff, cons, rho, cfg, params: _streamwise(
        eff, cons, cfg, params, baselines.random_association(
            np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 1])),
            cfg.S, cfg.L, cfg.K)),
    "mmse": lambda eff, cons, rho, cfg, params: (
        baselines.mmse_baseline(eff, rho, cfg.S), None),
    "zf": lambda eff, cons, rho, cfg, params: (
        baselines.zf_baseline(eff, rho, cfg.S), None),
    "mmse-exact-mc": _aggregated_mmse,
    "mmse-approx": _aggregated_mmse,
}


def _point_key(job: Job):
    """Jobs of one sweep point share this key; the config is compared by
    identity, as the jobs of a point share one config object."""
    return (id(job.config), job.scenario_id, job.power_dbw, job.point_index,
            job.seed)


def run_point(jobs) -> list:
    """Evaluate the rows of one sweep point, one per job (each a mode of the
    point), in the given order. Pure given the jobs.

    The shared work runs once: geometry and channels, the solver
    parameters and the constraint set. Then each mode's design from
    `_DESIGNS`, a closed form fitted to the constraints
    (`power.scale_to_caps`); mmse-approx is estimated by `approx_se`, every
    other mode is planned for Monte Carlo (`se_eval.plan_users`; tdma-mrt
    plans its slot 0, `baselines.tdma_mrt_slots`). One walk from
    `mc_rng(seed, point)` over the union of the plans' pairs
    (`se_eval.sample_plan_gains`) serves every plan (`evaluate_users`) and
    is released; tdma-mrt's slots 1..K-1 then walk on from where it left
    the generator. Each gain is bitwise the one a separate walk per mode
    gives, so the modes compare on common random numbers. A design or
    estimator error gives an error row for that mode only.

    Besides the CSV columns each row carries "converged", False when the
    WMMSE loop stopped at max_iters before meeting its tolerance;
    "sum_se_stderr", the Monte-Carlo standard error of sum_se (0.0 for the
    approximation, nan for an error row or a single trial);
    "multiplier_evals", the evaluations made by every multiplier search of
    the solver, secular or dual (0 for modes that run no solver); and
    "paired_stderr", one entry per later mode of the point evaluated
    wholly on the shared walk, as this one is (neither tdma-mrt nor
    mmse-approx): {"mode", "mean_diff" (this row's mean per-trial sum SE
    minus that mode's), "stderr" (the standard error of that difference,
    nan from a single trial)}. wall_time_ms is the mode's own design and
    estimate plus an equal share of the point's shared stages."""
    job = jobs[0]
    modes = [j.mode for j in jobs]
    for mode in modes:
        if mode not in (*_DESIGNS, "tdma-mrt"):
            raise ValueError(f"unhandled mode {mode}")
    if len(set(modes)) < len(modes) or any(
            _point_key(j) != _point_key(job) for j in jobs):
        raise ValueError("run_point takes distinct modes of one sweep point")
    cfg = job.config
    t0 = time.perf_counter()
    rho_w = 10 ** (job.power_dbw / 10)
    rho = np.full(cfg.L, rho_w)
    geometry = sample_geometry(cfg, np.random.default_rng(cfg.rng_seed))
    effective = effective_channels(geometry, cfg)
    params = joint_wmmse.SolverParams.from_config(cfg)
    errors, own = {}, dict.fromkeys(modes, 0.0)
    try:
        constraints = _constraints_for(cfg, rho_w)
    except _ROW_ERRORS as exc:
        errors = dict.fromkeys(modes, str(exc))
    shared = time.perf_counter() - t0

    def each(stage, which):
        """stage(mode) for every listed mode still without an error, timed
        on the mode's own clock; an error a row reports ends the mode."""
        for mode in which:
            if mode not in errors:
                t = time.perf_counter()
                try:
                    stage(mode)
                except _ROW_ERRORS as exc:
                    errors[mode] = str(exc)
                own[mode] += time.perf_counter() - t

    designs, plans, reports = {}, {}, {}

    def design(mode):
        # designs[mode]: (precoders, or TDMA's fitted slots; SolveTrace)
        if mode == "tdma-mrt":
            designs[mode] = baselines.tdma_mrt_slots(
                effective, rho, constraints, params.power_tol_rel), None
            plans[mode] = plan_users(designs[mode][0][0], effective, [0])
            return
        W, trace = designs[mode] = _DESIGNS[mode](effective, constraints, rho,
                                                  cfg, params)
        if trace is None:
            scale_to_caps(W, constraints, params.power_tol_rel)
        if mode == "mmse-approx":
            reports[mode] = approx_se(W, effective)
        else:
            plans[mode] = plan_users(W, effective, range(cfg.K))

    each(design, modes)
    t = time.perf_counter()
    rng = mc_rng(cfg.rng_seed, job.point_index)
    walk = (sample_plan_gains(effective, cfg.mc_trials, rng,
                              [p for m in plans for p in plans[m]])
            if plans else None)
    shared += time.perf_counter() - t

    per_trial = {}      # per mode, its sum SE per trial (tdma-mrt: slot 0's)

    def evaluate(mode):
        se_t = evaluate_users(plans[mode], *walk)
        per_trial[mode] = se_t.sum(axis=0)
        if mode != "tdma-mrt":
            reports[mode] = mc_report(se_t)

    each(evaluate, plans)
    del walk

    def later_slots(mode):
        slots = designs[mode][0]
        reports[mode] = baselines.tdma_mrt_report([per_trial[mode], *(
            exact_se_trials(W, effective, cfg.mc_trials, rng, [k])[0]
            for k, W in enumerate(slots[1:], 1))])

    each(later_slots, [m for m in plans if m == "tdma-mrt"])
    paired = [m for m in plans if m in reports and m != "tdma-mrt"]
    rows = []
    for j in jobs:
        row = _row(j, reports.get(j.mode), designs.get(j.mode, (None, None))[1],
                   own[j.mode] + shared / len(jobs), errors.get(j.mode))
        later = paired[paired.index(j.mode) + 1:] if j.mode in paired else []
        row["paired_stderr"] = []
        for m in later:
            # the mean and standard error of the per-trial difference
            diff = mc_report((per_trial[j.mode] - per_trial[m])[None])
            row["paired_stderr"].append({"mode": m, "mean_diff": diff.sum_se,
                                         "stderr": diff.sum_se_stderr})
        rows.append(row)
    return rows


# rows of the last point run_job computed that it has not handed out yet:
# at most one (job of that point, {mode: row})
_held = []


def run_job(job: Job) -> dict:
    """Evaluate one (scenario, mode, sweep point) row: the one-row view of
    run_point. The first call for a point computes every mode in
    job.modes (only job.mode when it is empty) and returns its own row; the
    point's other rows are held, and each is handed out once, to the next
    run_job call for that mode of the same point. Any other call drops
    them. So a preset's jobs called in order compute each point once."""
    held = _held.pop() if _held else None
    if held is not None:
        point, rows = held
        if (_point_key(point) == _point_key(job) and point.modes == job.modes
                and job.mode in rows):
            row = rows.pop(job.mode)
            if rows:
                _held.append(held)
            return row
    modes = job.modes or (job.mode,)
    if job.mode not in modes:
        raise ValueError(f"mode {job.mode} is not among the point's modes "
                         f"{modes}")
    rows = run_point([replace(job, mode=m) for m in modes])
    own = rows.pop(modes.index(job.mode))
    if rows:
        _held.append((job, {r["mode"]: r for r in rows}))
    return own


def _row(job, report, trace, seconds, error):
    cfg = job.config
    return {
        "scenario_id": job.scenario_id,
        "mode": job.mode,
        "L": cfg.L, "K": cfg.K, "N": cfg.N, "M": cfg.M, "S": cfg.S,
        "power_cap_dbw": repr(float(job.power_dbw)),
        "sum_se": repr(float(report.sum_se)) if report else "nan",
        "per_user_se": ";".join(repr(float(v)) for v in report.per_user_se)
                       if report else f"error={error}",
        "iterations": trace.iterations if trace else 0,
        "wall_time_ms": int(round(1000 * seconds)),
        "seed": job.seed,
        "converged": trace.converged if trace else True,
        "sum_se_stderr": float(report.sum_se_stderr) if report else float("nan"),
        "multiplier_evals": trace.multiplier_evals if trace else 0,
    }


def _points(jobs) -> list:
    """The preset's jobs as one list per sweep point, in order."""
    return [list(point) for _, point in itertools.groupby(jobs, _point_key)]


def _write_outputs(rows, unconverged, paired, out_path, cfg, args):
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
        "paired_stderr": paired,
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


def _paired(points):
    """For the sidecar: per point and pair of modes evaluated on its shared
    walk, both row indices, the mean per-trial sum-SE difference (first
    row minus second) and its standard error; null where it is nan."""
    out, start = [], 0
    for rows in points:
        modes = [r["mode"] for r in rows]
        for i, r in enumerate(rows):
            for pair in r["paired_stderr"]:
                out.append({
                    "rows": [start + i, start + modes.index(pair["mode"])],
                    "scenario_id": r["scenario_id"],
                    "modes": [r["mode"], pair["mode"]],
                    "power_cap_dbw": float(r["power_cap_dbw"]),
                    "mean_diff": pair["mean_diff"],
                    "stderr": (pair["stderr"] if np.isfinite(pair["stderr"])
                               else None)})
        start += len(rows)
    return out


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
    # open both outputs before the sweep, so a bad path costs no rows; append
    # mode leaves an existing file as it is until the rows are written
    for path in (args.out, args.out + ".json"):
        try:
            open(path, "a").close()
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 1
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            points = list(pool.map(run_point, _points(jobs)))
    else:
        points = [run_point(point) for point in _points(jobs)]
    rows = [row for point in points for row in point]
    unconverged = _unconverged(rows)
    _write_outputs(rows, unconverged, _paired(points), args.out, cfg, args)
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
