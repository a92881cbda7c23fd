"""Benchmark workloads: the scenario configs each one runs, made from a
workload seed.

Seed 0 reproduces the repository configs: its first noise seed is the one in
the config file (20260811 for configs/default.yaml).  Every workload is a
closed loop: each control step waits for the previous one.
"""
from __future__ import annotations

import copy
from pathlib import Path

import numpy as np

import dcee.config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

SWEEP_SEEDS = 32
SWEEP_HORIZON_S = 30.0
BASELINE_SEEDS = 2

# BENCHMARK.json and README.md say why each workload exists
WORKLOADS = ("noisy_default", "noise_free", "baselines", "seed_sweep")


def _variant(base, noise_seed: int, controller: str, horizon_s: float | None = None):
    raw = copy.deepcopy(base.raw)
    raw["noise"]["seed"] = int(noise_seed)
    raw["controller"]["type"] = controller
    if horizon_s is not None:
        raw["horizon_s"] = horizon_s
    return dcee.config.scenario_from_dict(raw)


def scenarios(workload: str, seed: int, horizon_s: float | None = None) -> list:
    """The validated ScenarioConfigs one pass of the workload runs, in order.

    horizon_s, when given, shortens every scenario (used by the self-test).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError("workload seed must be nonnegative")
    config_file = "noise_free.yaml" if workload == "noise_free" else "default.yaml"
    base = dcee.config.load_config(CONFIGS / config_file)
    first = base.noise.seed
    if workload in ("noisy_default", "noise_free"):
        return [_variant(base, first + seed, "numerical_dcee", horizon_s)]
    if workload == "baselines":
        seeds = [first + BASELINE_SEEDS * seed + i for i in range(BASELINE_SEEDS)]
        return [_variant(base, s, c, horizon_s) for s in seeds for c in ("grad_dcee", "esc")]
    seeds = np.random.default_rng([first, seed]).integers(0, 2**31 - 1, size=SWEEP_SEEDS)
    horizon = SWEEP_HORIZON_S if horizon_s is None else min(horizon_s, SWEEP_HORIZON_S)
    return [_variant(base, s, "numerical_dcee", horizon) for s in seeds]
