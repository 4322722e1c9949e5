"""satmimo benchmark: one CLI preset sweep per workload, run in one process.

Usage (from the repository root):
    python3 perfbench/run.py --workload user-loading --seed 0 --seconds 45 --trace 0

--trace 0 repeats the sweep until --seconds have passed and at least two
sweeps are whole, timing every row and, between rows, a fixed calibration
kernel, and reports the end-to-end metrics: run_s (the sweep's time at a
reference host speed: every row's fastest repeat, each scaled by the
calibration around it, summed), setup_s (median of several fresh processes
that import satmimo, load the config and build the job list, each scaled
the same way), peak_rss_mb and sum_se_mean.
--trace 1 does the same untraced sweeps, then one more with every module
call wrapped by tracer.py, and reports the per-layer metrics.

Every row is checked outside the timed region: a row fails if it raises,
returns nan or an error annotation, differs between sweeps, or misses its
stored reference sum_se. The last line of standard output is the result as
JSON; the line before it records the environment.
"""

import os

# "one worker": single-process sweep and one BLAS thread. Set before numpy
# is first imported, here and in the set-up probes that inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SATMIMO_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import select  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_PROBES = 11
MIN_SWEEPS = 2
# calibrate() takes about this long on a 2-vCPU x86-64 virtual machine
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread) when it is not slowed
CALIBRATION_REF_S = 0.015
CALIBRATE_EVERY_S = 0.5
PROBE_TIMEOUT_S = 60
HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_satmimo():
    """Import satmimo from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(workloads.SRC))
    try:
        import satmimo
        from satmimo import cli, scenario
    except ModuleNotFoundError as exc:
        raise SystemExit(f"cannot import satmimo from {workloads.SRC}: {exc}")
    origin = Path(satmimo.__file__).resolve()
    if workloads.SRC.resolve() not in origin.parents:
        raise SystemExit(f"satmimo imported from {origin}, not from "
                         f"{workloads.SRC}")
    return satmimo, cli, scenario


def measure_setup(workload, seed):
    """Seconds from process start to the job list, one per probe process,
    each scaled like run_s by the calibrations either side of it."""
    times = []
    before = calibrate()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or not line.startswith("ready "):
            raise SystemExit(f"set-up probe failed (exit {code}): {line!r}")
        after = calibrate()
        times.append(elapsed * CALIBRATION_REF_S / ((before + after) / 2))
        before = after
    return times


def calibrate():
    """Seconds for a fixed piece of work shaped like the program's: small
    complex linear algebra, gamma draws with vectorised log2, and a plain
    Python loop. It uses no satmimo code, so it measures only how fast the
    host runs this process at the moment; run_s is scaled by it."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 8)) + 1j * rng.standard_normal((64, 8))
    eye = np.eye(8)
    for _ in range(160):
        a = a @ np.linalg.solve(a.conj().T @ a + eye, eye) * 2.0
    x = rng.gamma(1.5, size=(8000, 8, 4)).sum(axis=1)
    np.log2(1.0 + x / (1.0 + x.mean())).mean()
    s = 0
    for i in range(80000):
        s += i % 7
    return time.perf_counter() - t0


def run_row(cli, job, tracer=None):
    """One cli.run_job call: the row, or, if the job raises, a message in
    its place (a failed row must not end the sweep)."""
    try:
        if tracer is None:
            return cli.run_job(job)
        return tracer.timed("cli.run_job", cli.run_job, job)
    except Exception as exc:
        return (f"{job.scenario_id}/{job.mode} at {job.power_dbw} dBW raised "
                f"{type(exc).__name__}: {exc}")


def run_sweep(cli, jobs, deadline=None, tracer=None):
    """One sweep, one cli.run_job call per job, with calibrate() run before
    the first job and after every CALIBRATE_EVERY_S of jobs: (rows, per-job
    seconds, per-job calibration seconds), a job's being the mean of the two
    calibrations around it. With a deadline (a perf_counter reading) the
    sweep stops before the first job that would start after it."""
    rows, times, calibration = [], [], []
    before, pending, since = calibrate(), 0, 0.0
    for job in jobs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        rows.append(run_row(cli, job, tracer))
        times.append(time.perf_counter() - t0)
        pending, since = pending + 1, since + times[-1]
        if since >= CALIBRATE_EVERY_S or len(times) == len(jobs):
            after = calibrate()
            calibration += [(before + after) / 2] * pending
            before, pending, since = after, 0, 0.0
    if pending:
        calibration += [(before + calibrate()) / 2] * pending
    return rows, times, calibration


def row_problem(row, first, reference):
    """Why a row is wrong, or None. first: the same row of the first sweep;
    reference: [key, sum_se] stored for this row."""
    if isinstance(row, str):
        return row
    where = f"{row['scenario_id']}/{row['mode']} at {row['power_cap_dbw']} dBW"
    if row["per_user_se"].startswith("error="):
        return f"{where}: {row['per_user_se']}"
    se = float(row["sum_se"])
    if not math.isfinite(se):
        return f"{where}: sum_se is {row['sum_se']}"
    if isinstance(first, dict) and row["sum_se"] != first["sum_se"]:
        return f"{where}: sum_se {row['sum_se']} differs from the first sweep's"
    key, ref = reference
    if workloads.row_key(row) != key:
        return f"{where}: the reference row is {key}"
    if abs(se - ref) > workloads.ABS_TOL + workloads.REL_TOL * abs(ref):
        return f"{where}: sum_se {se!r} misses the reference {ref!r}"
    return None


def check_sweeps(sweeps, references):
    """(rows attempted, one message per failed row) over every sweep."""
    first = sweeps[0][0]
    if len(references) != len(first):
        raise SystemExit(f"{len(first)} rows, the reference has {len(references)}")
    attempted, failures = 0, []
    for rows, *_ in sweeps:
        for i, row in enumerate(rows):
            attempted += 1
            problem = row_problem(row, first[i], references[i])
            if problem is not None:
                failures.append(problem)
    return attempted, failures


def sweeps_for(cli, jobs, seconds):
    """Calibrated sweeps until `seconds` have passed and at least MIN_SWEEPS
    are whole; the sweep under way at the deadline stops there, and one
    that the deadline stopped before its first row is dropped."""
    sweeps = []
    deadline = time.perf_counter() + seconds
    while len(sweeps) < MIN_SWEEPS or time.perf_counter() < deadline:
        whole = len(sweeps) < MIN_SWEEPS
        sweep = run_sweep(cli, jobs, None if whole else deadline)
        if sweep[0]:
            sweeps.append(sweep)
    return sweeps


def sweep_seconds(sweeps, count, scaled):
    """The sweep's time: the sum over its `count` jobs of each job's fastest
    repeat. scaled: each repeat is first multiplied by CALIBRATION_REF_S over
    the calibration time around it, which gives run_s in seconds on a host
    where calibrate() takes CALIBRATION_REF_S. The host's speed for
    identical work drifts by 15-25% over seconds to minutes, and the
    calibration drifts with it; a job's repeats lie a sweep apart, so the
    fastest one also rarely falls in a dip."""
    def repeats(i):
        for _, times, calibration in sweeps:
            if i < len(times):
                yield times[i] * (CALIBRATION_REF_S / calibration[i]
                                  if scaled else 1.0)
    return sum(min(repeats(i)) for i in range(count))


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")},
        "satmimo_workers": os.environ.get("SATMIMO_WORKERS", "unset"),
    }


def blas_threads():
    """OpenBLAS's run-time thread count, read from the loaded library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({p for p in fh.read().split() if "openblas" in p})
        lib = ctypes.CDLL(paths[0])
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def main(argv=None):
    args = parse_args(argv)
    satmimo, cli, scenario = import_satmimo()

    jobs = workloads.build_jobs(cli, scenario, args.workload, args.seed)
    references = workloads.load_references(args.workload, args.seed)
    for _ in range(3):  # warm-up
        calibrate()
    setup = None if args.trace else measure_setup(args.workload, args.seed)

    sweeps = sweeps_for(cli, jobs, args.seconds)
    run_s = sweep_seconds(sweeps, len(jobs), scaled=True)
    if args.trace:
        import tracer
        with tracer.traced(satmimo) as tr:
            sweeps.append(run_sweep(cli, jobs, tracer=tr))
        # the traced sweep against the untraced whole sweeps, all scaled
        whole = [sweep_seconds([sweep], len(jobs), scaled=True)
                 for sweep in sweeps[:-1] if len(sweep[1]) == len(jobs)]
        overhead = (sweep_seconds(sweeps[-1:], len(jobs), scaled=True)
                    / statistics.median(whole) - 1.0)
        metrics = tracer.layer_metrics(tr, sum(sweeps[-1][1]), overhead)
        metrics["bench.sweep_wall_s"] = (
            sweep_seconds(sweeps[:-1], len(jobs), scaled=False), "s")
        metrics["bench.calibration_ms"] = (
            1000.0 * statistics.median(c for *_, calibration in sweeps[:-1]
                                       for c in calibration), "ms")
        if tr.unwrapped:
            print("not traced (absent from satmimo): " + ", ".join(tr.unwrapped),
                  file=sys.stderr)
    else:
        se = [float(r["sum_se"]) for r in sweeps[0][0] if isinstance(r, dict)]
        se = [v for v in se if math.isfinite(v)]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "sum_se_mean": (statistics.fmean(se) if se else 0.0, "bit/s/Hz"),
        }

    attempted, failures = check_sweeps(sweeps, references)
    for msg in failures[:20]:
        print(f"row failed: {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} (scenario seed "
          f"{workloads.scenario_seed(args.seed)}): {len(jobs)} rows, sweeps of "
          + ", ".join(f"{sum(times):.2f}" + ("" if len(times) == len(jobs)
                                               else f" ({len(times)} rows)")
                     for _, times, *_ in sweeps)
          + f" s, rows_failed {len(failures)} of {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"env": environment(np)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
