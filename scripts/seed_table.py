"""Run one scenario over many noise seeds and print each run's closed-loop
metrics as one JSON line.

    PYTHONPATH=src python scripts/seed_table.py [configs/default.yaml]
        [--seeds 32] [--sigma 0.01] [--horizon 900] [--controller numerical_dcee]

Seed i runs the configuration with noise seed (the configured seed) + i,
and with --sigma, --horizon and --controller, where given, in place of the
configured reward noise, horizon and controller type.  Each run is
harness.run_closed_loop, which steps harness.drive as `dcee run` does and
returns, as alarm_steps, the steps at which the bank's change test fired.
A line reads

    {"seed", "regret", "iae_v", "e_v", "e_v_tail", "alarm_steps", "fallbacks"}

so two checkouts' lines can be compared seed by seed.  fallbacks counts the
GN solves that held their start, and is 0 for the baseline controllers.
"""
from __future__ import annotations

import argparse
import copy
import json
from pathlib import Path

from dcee.config import CONTROLLER_TYPES, load_config, scenario_from_dict
from dcee.harness import run_closed_loop

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def seed_config(raw: dict, seed: int, sigma=None, horizon=None, controller=None):
    """The scenario of raw with noise seed seed and the given overrides."""
    raw = copy.deepcopy(raw)
    raw["noise"]["seed"] = seed
    if sigma is not None:
        raw["noise"]["sigma_reward"] = sigma
    if horizon is not None:
        raw["horizon_s"] = horizon
    if controller is not None:
        raw["controller"]["type"] = controller
    return scenario_from_dict(raw)


def run_seed(cfg) -> dict:
    """cfg's closed-loop metrics, alarm steps and fallbacks."""
    result = run_closed_loop(cfg)
    row = {"seed": cfg.noise.seed}
    row.update({key: result.metrics[key] for key in ("regret", "iae_v", "e_v", "e_v_tail")})
    row["alarm_steps"] = list(result.alarm_steps)
    row["fallbacks"] = result.solver.fallbacks
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", nargs="?", default=str(DEFAULT_CONFIG))
    parser.add_argument("--seeds", type=int, default=32)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--horizon", type=float)
    parser.add_argument("--controller", choices=CONTROLLER_TYPES)
    args = parser.parse_args(argv)
    base = load_config(args.config)
    for i in range(args.seeds):
        cfg = seed_config(base.raw, base.noise.seed + i, args.sigma, args.horizon, args.controller)
        print(json.dumps(run_seed(cfg)), flush=True)


if __name__ == "__main__":
    main()
