"""Compare the three controllers over many noise seeds and print the result
as markdown tables.

    PYTHONPATH=src python scripts/seed_summary.py [configs/default.yaml]

At each noise level of LEVELS, numerical DCEE, the gradient law
(grad_dcee) and extremum seeking (esc) run the configuration with noise
seeds (the configured seed) + i, through seed_table.seed_config and
seed_table.run_seed.  The first table gives each controller's median
regret, iae_v and e_v_tail, and on how many seeds numerical DCEE reads
strictly lower than each baseline.  The second gives each controller's
change-test alarms and GN solve fallbacks.  The 144 runs take about 70 s
on one core of a 2-vCPU VM.
"""
from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from dcee.config import CONTROLLER_TYPES, load_config

# seed_table.py sits beside this script
sys.path.insert(0, str(Path(__file__).resolve().parent))
from seed_table import DEFAULT_CONFIG, run_seed, seed_config

# (reward noise sigma, number of seeds)
LEVELS = ((0.01, 32), (0.05, 16))
METRICS = ("regret", "iae_v", "e_v_tail")


def _number(x: float) -> str:
    """x to four significant digits, or to a whole number from 10,000 up."""
    return f"{x:.4g}" if abs(x) < 1e4 else f"{x:,.0f}"


def run_level(raw: dict, sigma: float, seeds: int, horizon=None) -> dict:
    """{controller: [run_seed row per seed]} at reward noise sigma."""
    first = raw["noise"]["seed"]
    return {c: [run_seed(seed_config(raw, first + i, sigma, horizon, c)) for i in range(seeds)]
            for c in CONTROLLER_TYPES}


def summary(raw: dict, levels=LEVELS, horizon=None) -> str:
    """The two markdown tables over levels, each (sigma, seeds)."""
    metric_rows = ["| σ, seeds | metric | median numerical / grad / ESC | numerical wins vs grad "
                   "| numerical wins vs ESC |", "|---|---|---|---|---|"]
    health_rows = ["| σ, seeds | controller | alarms | seeds without an alarm | fallbacks |",
                   "|---|---|---|---|---|"]
    for sigma, seeds in levels:
        runs = run_level(raw, sigma, seeds, horizon)
        level = f"{sigma:g}, {seeds}"
        for metric in METRICS:
            values = {c: [row[metric] for row in runs[c]] for c in CONTROLLER_TYPES}
            medians = " / ".join(_number(statistics.median(values[c])) for c in CONTROLLER_TYPES)
            wins = [sum(a < b for a, b in zip(values["numerical_dcee"], values[c]))
                    for c in CONTROLLER_TYPES[1:]]
            metric_rows.append(f"| {level} | `{metric}` | {medians} | {wins[0]} | {wins[1]} |")
        for c in CONTROLLER_TYPES:
            alarms = [len(row["alarm_steps"]) for row in runs[c]]
            fallbacks = sum(row["fallbacks"] for row in runs[c])
            health_rows.append(f"| {level} | `{c}` | {sum(alarms)} | {alarms.count(0)} | {fallbacks} |")
    return "\n".join(metric_rows) + "\n\n" + "\n".join(health_rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", nargs="?", default=str(DEFAULT_CONFIG))
    args = parser.parse_args(argv)
    print(summary(load_config(args.config).raw))


if __name__ == "__main__":
    main()
