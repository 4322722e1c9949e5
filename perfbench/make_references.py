"""Write references.jsonl: per-row sum_se of every workload at every
scenario seed, as the current satmimo computes them. One line per
(workload, scenario seed).

Run only when the stored numbers are meant to change, from the repository
root (about 40 s per seed on one core):
    python3 perfbench/make_references.py
"""

import json
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    _, cli, scenario = run.import_satmimo()
    with open(workloads.REFERENCES, "w") as fh:
        for workload in workloads.WORKLOADS:
            for seed in range(workloads.NUM_SCENARIO_SEEDS):
                jobs = workloads.build_jobs(cli, scenario, workload, seed)
                rows, *_ = run.run_sweep(cli, jobs)
                record = {"workload": workload, "seed": seed, "rows": [
                    [workloads.row_key(r), float(r["sum_se"])] for r in rows]}
                fh.write(json.dumps(record) + "\n")
                print(f"{workload} seed {seed}: {len(rows)} rows", flush=True)


if __name__ == "__main__":
    main()
