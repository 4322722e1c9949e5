"""Experiment runner: power-cap sweeps with Monte-Carlo SE evaluation.

Subcommands:
  run       execute a figure preset and write a CSV (plus a JSON sidecar
            with the resolved configuration)
  validate  check a config file against the schema and invariants

The CSV is deterministic for a fixed seed apart from the wall_time_ms
column. Each variant of a preset (the jobs that share one config: one
geometry, every power point and mode) runs as one pipeline (run_point)
that gives the rows of all its points and modes: the geometry, channels,
stream maps and starts are built once per variant, every solver row of the
variant (all of its points and solver modes) is designed by one WMMSE
engine call, and the Monte-Carlo walks and evaluation stay per point.
Variants can be evaluated by worker processes (environment variable
SATMIMO_WORKERS; a preset with fewer variants than workers has its points
evaluated apart), and row order never depends on scheduling.
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
from .se_eval import (approx_se, evaluate_users, mc_report, mc_rng,
                      plan_users, sample_plan_gains)

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
    # the point's modes in preset order, computed together by run_job;
    # empty for a one-mode point
    modes: tuple = ()


def _clear_fixed_angles(cfg: ScenarioConfig) -> ScenarioConfig:
    return replace(cfg, **dict.fromkeys(_ANGLE_KEYS))


def _sweep(variants, modes) -> list:
    """Jobs for (scenario id, config) variants: per variant, every power
    point in grid order, and per point every mode in the given order. The
    jobs of one variant share its config object."""
    return [Job(sid, mode, sub, dbw, p, tuple(modes))
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


# mode -> design(effective, rho per satellite, cfg) of one point's closed
# form: one precoder set spending the per-satellite totals rho, which
# serves every user, or a list of K sets that time-share the users, set k
# serving user k alone; run_point fits each set to the constraints. A mode
# in _APPROXIMATED is estimated by approx_se, every other one by Monte
# Carlo. Entries look their functions up on the modules when the row runs,
# so a wrapper set on a module attribute sees the call.
_DESIGNS = {
    "mmse": lambda eff, rho, cfg: baselines.mmse_baseline(eff, rho, cfg.S),
    "zf": lambda eff, rho, cfg: baselines.zf_baseline(eff, rho, cfg.S),
    "tdma-mrt": lambda eff, rho, cfg: [
        W for _, W in baselines.tdma_mrt_precoders(eff, rho)],
    # approximation study: aggregated stream basis so all S streams carry
    # power (the per-link basis degenerates to one stream)
    "mmse-exact-mc": lambda eff, rho, cfg: joint_wmmse.init_precoders(
        eff, per_sat_total(rho, cfg.N), cfg.S, stream_basis="aggregated"),
}
_DESIGNS["mmse-approx"] = _DESIGNS["mmse-exact-mc"]
_APPROXIMATED = frozenset({"mmse-approx"})

# solver mode -> starts(effective, constraints, cfg) of a variant's points:
# the (B, L, K, N, S) starts of the WMMSE engine, one per constraint set,
# and the StreamAssignment whose support every design must keep, or None
_STARTS = {
    "joint": lambda eff, cons, cfg: (
        joint_wmmse.joint_starts(eff, cons, cfg.S), None),
    "streamwise": lambda eff, cons, cfg: streamwise.streamwise_starts(
        eff, cons, cfg.S),
    # the random map has its own generator, disjoint from the Monte-Carlo one
    "streamwise-random": lambda eff, cons, cfg: streamwise.streamwise_starts(
        eff, cons, cfg.S, baselines.random_association(
            np.random.default_rng(np.random.SeedSequence([cfg.rng_seed, 1])),
            cfg.S, cfg.L, cfg.K)),
}


def _point_key(job: Job):
    """Jobs of one sweep point share this key; the config is compared by
    identity, as the jobs of a variant share one config object."""
    return (id(job.config), job.scenario_id, job.power_dbw, job.point_index,
            job.config.rng_seed)


def _variant_key(job: Job):
    """Jobs of one variant (one config object) share this key."""
    return (id(job.config), job.scenario_id, job.config.rng_seed)


class _Ledger:
    """Each row's seconds and error. lap(rows) books the time since the
    previous lap (the first: since the ledger was made) to the rows in
    equal shares; each(stage, rows) runs stage(row) for every row still
    without an error, makes a _ROW_ERRORS exception that row's error and
    laps to the row."""

    def __init__(self):
        self.seconds, self.errors = {}, {}
        self.t = time.perf_counter()

    def lap(self, rows):
        t, self.t = self.t, time.perf_counter()
        share = (self.t - t) / len(rows)
        for key in rows:
            self.seconds[key] = self.seconds.get(key, 0.0) + share

    def each(self, stage, rows):
        for key in rows:
            if key not in self.errors:
                try:
                    stage(key)
                except _ROW_ERRORS as exc:
                    self.errors[key] = str(exc)
                self.lap([key])


def run_point(jobs) -> list:
    """Evaluate the rows of one variant's jobs, one row per job, in the
    given order: any distinct (point, mode) jobs of one variant, a single
    sweep point's modes among them. Pure given the jobs.

    The shared work runs once per variant: geometry and channels and the
    solver parameters; then each point's constraint set. The solver modes
    (`_STARTS`) build the starts of all of their points, and every solver
    row of the variant, whatever its mode, is designed by one
    `joint_wmmse.solve_sweep` call, each instance on its own live-stream
    map; when that call raises, each (point, mode) is designed again
    alone, so an error stays on its own row. Then each row in mode order
    is finished: a closed form (`_DESIGNS`) is designed, a streamwise
    design must pass the off-support certificate of its assignment
    (`streamwise.check_support`), a closed form's sets are fitted to the
    constraints (`power.scale_to_caps`), and a mode in `_APPROXIMATED` is
    estimated by `approx_se`, every other one has each of its sets planned
    for Monte Carlo (`se_eval.plan_users`: every user, or user s alone for
    set s of several); the precoders are released once planned. Then
    each point in turn runs one walk rule for every mode: walk s, the s-th
    full draw from `mc_rng(seed, point)`, covers the union of the pairs of
    every mode's set s at that point (`se_eval.sample_plan_gains`), serves
    those plans (`evaluate_users`) and is released before walk s + 1 is
    drawn. A mode rides walks 0..len(sets) - 1 unless its design or an
    evaluation fails; a walk without riders is not drawn. Each gain is
    bitwise the one a separate walk per mode gives, so the modes compare on
    common random numbers. Several sets give the time-shared report of
    `baselines.tdma_mrt_report`, one set that of `mc_report`. A design or
    estimator error gives an error row for that point and mode only.

    Besides the CSV columns each row carries "converged", False when the
    WMMSE loop stopped at max_iters before meeting its tolerance;
    "sum_se_stderr", the Monte-Carlo standard error of sum_se (0.0 for the
    approximation, nan for an error row or a single trial);
    "multiplier_evals", the evaluations made by every multiplier search of
    the solver, secular or dual (0 for modes that run no solver); and
    "paired_stderr", one entry per later mode of the point that, as this
    one, has a single Monte-Carlo set: {"mode", "mean_diff" (this row's
    mean per-trial sum SE minus that mode's), "stderr" (the standard error
    of that difference, nan from a single trial)}. wall_time_ms books each
    stage's time in equal shares to the rows it serves."""
    ledger = _Ledger()
    job = jobs[0]
    for j in jobs:
        if j.mode not in _DESIGNS and j.mode not in _STARTS:
            raise ValueError(f"unhandled mode {j.mode}")
    keys = [(j.point_index, j.power_dbw, j.mode) for j in jobs]
    job_of = dict(zip(keys, jobs))
    if len(job_of) < len(keys) or any(
            _variant_key(j) != _variant_key(job) for j in jobs):
        raise ValueError("run_point takes distinct (point, mode) jobs of one "
                         "variant")
    cfg = job.config
    geometry = sample_geometry(cfg, np.random.default_rng(cfg.rng_seed))
    effective = effective_channels(geometry, cfg)
    params = joint_wmmse.SolverParams.from_config(cfg)
    ledger.lap(keys)
    points = list(dict.fromkeys(k[:2] for k in keys))
    modes = list(dict.fromkeys(j.mode for j in jobs))
    at = {p: [k for k in keys if k[:2] == p] for p in points}
    errors, constraints = ledger.errors, {}
    for p in points:
        try:
            constraints[p] = _constraints_for(cfg, 10 ** (p[1] / 10))
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(at[p], str(exc)))
        ledger.lap(at[p])

    # per row: precoders until planned; SolveTrace and stream map of a
    # solver row; its plans and per-trial SE, per set
    made, traces, maps, plans, se, reports = {}, {}, {}, {}, {}, {}

    def solve(batch, initial):
        W, found = joint_wmmse.solve_sweep(
            effective, [constraints[k[:2]] for k in batch], params, initial,
            cfg.S)
        made.update(zip(batch, W))
        traces.update(zip(batch, found))

    def finish(key):
        # design a closed form, check or fit, then plan or estimate; the
        # precoders are not kept
        W = made.pop(key) if key[2] in _STARTS else _DESIGNS[key[2]](
            effective, np.full(cfg.L, 10 ** (key[1] / 10)), cfg)
        sets = W if isinstance(W, list) else [W]
        if key in maps:
            streamwise.check_support(W, maps[key])
        elif key not in traces:
            for W_s in sets:
                scale_to_caps(W_s, constraints[key[:2]], params.power_tol_rel)
        if key[2] in _APPROXIMATED:
            reports[key] = approx_se(W, effective)
            return
        # several sets time-share the users, set s serving user s alone
        plans[key] = [plan_users(W_s, effective,
                                 [s] if len(sets) > 1 else range(cfg.K))
                      for s, W_s in enumerate(sets)]
        se[key] = []

    solved, starts = [], []
    for mode in modes:
        batch = [k for k in keys if k[2] == mode and k not in errors]
        if mode not in _STARTS or not batch:
            continue
        try:
            initial, assignment = _STARTS[mode](
                effective, [constraints[k[:2]] for k in batch], cfg)
        except _ROW_ERRORS as exc:
            errors.update(dict.fromkeys(batch, str(exc)))
        else:
            solved += batch
            starts.append(initial)
            if assignment is not None:
                maps.update(dict.fromkeys(batch, assignment))
        ledger.lap(batch)
    if solved:
        starts = np.concatenate(starts)
        try:
            solve(solved, starts)
        except _ROW_ERRORS:
            # each instance alone, its error its own
            ledger.lap(solved)
            start = dict(zip(solved, starts[:, None]))
            ledger.each(lambda key: solve([key], start[key]), solved)
        ledger.lap(solved)
        del starts
    ledger.each(finish, sorted(keys, key=lambda k: modes.index(k[2])))

    def evaluate(key):
        # the row's next set on the current walk
        se[key].append(evaluate_users(plans[key][len(se[key])], *walk))
        if len(se[key]) == len(plans[key]):
            reports[key] = (mc_report(se[key][0]) if len(se[key]) == 1 else
                            baselines.tdma_mrt_report([t[0] for t in se[key]]))

    rows = {}
    for p in points:
        rng = mc_rng(cfg.rng_seed, p[0])
        for s in itertools.count():
            riders = [k for k in at[p] if k in plans and k not in errors
                      and s < len(plans[k])]
            if not riders:
                break
            walk = sample_plan_gains(effective, cfg.mc_trials, rng,
                                     [pair for k in riders for pair in plans[k][s]])
            ledger.lap(riders)
            ledger.each(evaluate, riders)
            del walk
        ledger.lap(at[p])
        paired = [k for k in at[p] if k in reports and k in plans
                  and len(plans[k]) == 1]
        for key in at[p]:
            row = _row(job_of[key], reports.get(key), traces.get(key),
                       ledger.seconds[key], errors.get(key))
            later = paired[paired.index(key) + 1:] if key in paired else []
            row["paired_stderr"] = []
            for k in later:
                # the mean and standard error of the per-trial difference
                diff = mc_report((se[key][0].sum(0) - se[k][0].sum(0))[None])
                row["paired_stderr"].append({"mode": k[2], "mean_diff": diff.sum_se,
                                             "stderr": diff.sum_se_stderr})
            rows[key] = row
        for key in at[p]:
            se.pop(key, None)
            plans.pop(key, None)
    return [rows[key] for key in keys]


# rows of the last variant run_job computed that it has not handed out yet:
# at most one {job key: row}
_held = []


def _job_key(job: Job):
    return _point_key(job), job.mode, job.modes


def run_job(job: Job) -> dict:
    """Evaluate one (scenario, mode, sweep point) row: the one-row view of
    run_point. The first call for a variant computes every point of its
    config's power grid and every mode in job.modes (only job.mode when it
    is empty) and returns its own row; the variant's other rows are held,
    and each is handed out once, to the next run_job call for that job. Any
    other call drops them. So a preset's jobs called in order compute each
    variant once. A job whose point is not on the grid is rejected."""
    held = _held.pop() if _held else {}
    row = held.pop(_job_key(job), None)
    if row is None:
        modes = job.modes or (job.mode,)
        if job.mode not in modes:
            raise ValueError(f"mode {job.mode} is not among the point's modes "
                             f"{modes}")
        points = list(enumerate(job.config.power_cap_dbw_grid))
        if (job.point_index, job.power_dbw) not in points:
            raise ValueError(f"point {job.point_index} at {job.power_dbw} dBW is "
                             f"not on the grid {job.config.power_cap_dbw_grid}")
        jobs = [replace(job, mode=m, point_index=p, power_dbw=dbw)
                for p, dbw in points for m in modes]
        held = dict(zip(map(_job_key, jobs), run_point(jobs)))
        row = held.pop(_job_key(job))
    if held:
        _held.append(held)
    return row


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
        "seed": cfg.rng_seed,
        "converged": trace.converged if trace else True,
        "sum_se_stderr": float(report.sum_se_stderr) if report else float("nan"),
        "multiplier_evals": trace.multiplier_evals if trace else 0,
    }


def _points(jobs) -> list:
    """The preset's jobs as one list per sweep point, in order."""
    return [list(point) for _, point in itertools.groupby(jobs, _point_key)]


def _variants(jobs) -> list:
    """The preset's jobs as one list per variant, in order."""
    return [list(variant) for _, variant in itertools.groupby(jobs, _variant_key)]


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
        workers = 0         # rejected with the counts below one
    if workers < 1:
        print("error: SATMIMO_WORKERS must be a positive integer",
              file=sys.stderr)
        return 1
    # open both outputs before the sweep, so a bad path costs no rows; append
    # mode leaves an existing file as it is until the rows are written
    for path in (args.out, args.out + ".json"):
        try:
            open(path, "a").close()
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 1
    units = _variants(jobs)
    if workers > 1:
        # imported here: it loads multiprocessing, which a serial run never uses
        from concurrent.futures import ProcessPoolExecutor
        if len(units) < workers:
            # too few variants to keep the workers busy: run their points
            # apart, which give the same rows
            units = _points(jobs)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            units = list(pool.map(run_point, units))
    else:
        units = [run_point(unit) for unit in units]
    rows = [row for unit in units for row in unit]
    points = list(itertools.accumulate(map(len, _points(jobs)), initial=0))
    points = [rows[a:b] for a, b in zip(points, points[1:])]
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
