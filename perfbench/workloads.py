"""Benchmark workloads: which CLI preset sweep each one runs, and on what.

Each workload is the `satmimo run` preset of the same name at the reference
scale (the default config). The benchmark's --seed picks the scenario seed
(``rng_seed``) from ten, for each of which references.jsonl stores the
per-row sum_se of the sweep; every run can so be checked row by row.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.jsonl"

NUM_SCENARIO_SEEDS = 10

WORKLOADS = (
    # 30 rows: joint WMMSE (single total-power cap) vs TDMA-MRT, K = 2, 4, 6
    "user-loading",
    # 200 rows: proposed vs random stream-satellite map over 10 geometries
    "association",
)

# A row matches its reference when |sum_se - ref| <= ABS_TOL + REL_TOL*|ref|.
# ABS_TOL is the solver's own stopping tolerance on the weighted-MSE
# objective (1e-4, in bit/s/Hz): a change below it cannot be told apart from
# the solver stopping one iteration earlier or later. REL_TOL admits a
# different floating-point reduction order (last-bit differences).
ABS_TOL = 1e-4
REL_TOL = 1e-9


def scenario_seed(seed: int) -> int:
    return seed % NUM_SCENARIO_SEEDS


def build_jobs(satmimo_cli, satmimo_scenario, workload: str, seed: int):
    """Load the config and build the job list, as `satmimo run --preset
    <workload> --seed <scenario seed>` does."""
    text = json.dumps({"rng_seed": scenario_seed(seed)})
    config = satmimo_scenario.load_scenario(text)
    return satmimo_cli.PRESETS[workload](config)


def row_key(row) -> list:
    return [row["scenario_id"], row["mode"], row["power_cap_dbw"]]


def load_references(workload: str, seed: int):
    """[[row key, sum_se], ...] stored for the workload at the seed."""
    with open(REFERENCES) as fh:
        for line in fh:
            record = json.loads(line)
            if (record["workload"], record["seed"]) == (workload,
                                                        scenario_seed(seed)):
                return record["rows"]
    raise SystemExit(f"{REFERENCES} has no rows for {workload} at scenario "
                     f"seed {scenario_seed(seed)}")
