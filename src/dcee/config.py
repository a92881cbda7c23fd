"""Scenario configuration: defaults, YAML loading, and validation.

A scenario file is a YAML mapping with the sections vehicle, reward, noise,
schedule, controller, ensemble plus the scalars horizon_s and v0.  Missing
keys fall back to the built-in defaults; unknown keys are rejected.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import yaml

from .baselines import EscConfig, GradDceeConfig
from .ensemble import EnsembleSettings
from .errors import ConfigurationError
from .plant import EnvSegment, NoiseSpec, VehicleParams
from .reward import QuadraticRewardSpec, make_true_params
from .solver import GnConfig

CONTROLLER_TYPES = ("numerical_dcee", "grad_dcee", "esc")

DEFAULTS: dict = {
    "vehicle": {
        "mass": 1500.0,
        "dt": 0.1,
        "c0": 100.0,
        "c1": 5.0,
        "c2": 0.4,
        "u_min": -5000.0,
        "u_max": 5000.0,
    },
    "reward": {
        "v_scale": 30.0,
        "w_z": 1.0,
        "c_r": 1.0,
        "curvature_floor": 0.05,
    },
    "noise": {
        "sigma_reward": 0.01,
        "seed": 20260811,
    },
    "schedule": [
        {"t_start": 0.0, "v_star": 25.0, "w_z": 1.0, "disturbance_force": 0.0},
        {"t_start": 300.0, "v_star": 20.0, "w_z": 1.0, "disturbance_force": 200.0},
        {"t_start": 600.0, "v_star": 30.0, "w_z": 1.0, "disturbance_force": -200.0},
    ],
    "horizon_s": 900.0,
    "v0": 5.0,
    "controller": {
        "type": "numerical_dcee",
        "solver": {"max_iters": 10, "tol": 1.0e-6, "damping": 1.0e-8},
        "grad": {"gain": 2.1e8},
        "esc": {
            "dither_amp": 1.0,
            "dither_freq": 0.8,
            "integrator_gain": 60.0,
            "highpass_cutoff": 0.1,
            "speed_loop_gain": 800.0,
        },
    },
    "ensemble": {
        "N": 10,
        "eta_lo": 0.005,
        "eta_hi": 0.05,
        "prior": {"w_z": 0.8, "v_star": 15.0, "c_r": 0.5},
        "spread": [0.3, 0.3, 0.3],
        "seed": 924,
    },
}


@dataclass(frozen=True)
class ControllerSettings:
    type: str
    solver: GnConfig
    grad: GradDceeConfig
    esc: EscConfig


@dataclass(frozen=True)
class ScenarioConfig:
    vehicle: VehicleParams
    reward: QuadraticRewardSpec
    noise: NoiseSpec
    schedule: tuple[EnvSegment, ...]
    horizon_s: float
    v0: float
    controller: ControllerSettings
    ensemble: EnsembleSettings
    raw: dict = field(repr=False, default_factory=dict)

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_s / self.vehicle.dt))


def default_config() -> dict:
    """Fresh copy of the built-in default scenario dictionary."""
    return copy.deepcopy(DEFAULTS)


def _number(value, where: str):
    """value, or the float that a string reads as, if that is a finite number."""
    try:
        value = value if isinstance(value, (int, float)) else float(value)
        if math.isfinite(value):
            return value
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigurationError(f"config key {where} must be a finite number, got {value!r}")


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {where} must be a mapping")
            out[key] = _merge(base[key], value, where)
        elif isinstance(base[key], (int, float)):
            out[key] = _number(value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path) -> ScenarioConfig:
    """Read a YAML scenario file, merge it over the defaults, validate."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"cannot parse config file {path}: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigurationError(f"config file {path} must contain a mapping")
    return scenario_from_dict(data)


def scenario_from_dict(overrides: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a (possibly partial) dict."""
    raw = _merge(DEFAULTS, overrides)

    vehicle = VehicleParams(**{k: float(v) for k, v in raw["vehicle"].items()})
    rw = raw["reward"]
    reward = QuadraticRewardSpec(
        v_scale=float(rw["v_scale"]), curvature_floor=float(rw["curvature_floor"])
    )
    default_w_z = float(rw["w_z"])
    c_r = float(rw["c_r"])
    noise = NoiseSpec(
        sigma_reward=float(raw["noise"]["sigma_reward"]), seed=int(raw["noise"]["seed"])
    )

    entries = raw["schedule"]
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("schedule must be a nonempty list")
    segments = []
    prev_start = -math.inf
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(f"schedule entry {idx} must be a mapping")
        extra = set(entry) - {"t_start", "v_star", "w_z", "disturbance_force"}
        if extra:
            raise ConfigurationError(f"unknown schedule keys in entry {idx}: {sorted(extra)}")
        if "t_start" not in entry or "v_star" not in entry:
            raise ConfigurationError(f"schedule entry {idx} needs t_start and v_star")
        num = {key: float(_number(value, f"schedule[{idx}].{key}")) for key, value in entry.items()}
        t_start = num["t_start"]
        if idx == 0 and t_start != 0.0:
            raise ConfigurationError("first schedule entry must start at t = 0")
        if t_start <= prev_start:
            raise ConfigurationError("schedule t_start values must be strictly increasing")
        prev_start = t_start
        theta = make_true_params(reward, num.get("w_z", default_w_z), num["v_star"], c_r)
        force = num.get("disturbance_force", 0.0)
        segments.append(EnvSegment(t_start=t_start, theta_true=theta, disturbance_force=force))

    horizon_s = float(raw["horizon_s"])
    if not (horizon_s > 0.0):
        raise ConfigurationError("horizon_s must be positive")
    steps = horizon_s / vehicle.dt
    if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
        raise ConfigurationError("vehicle dt must divide horizon_s into whole steps")

    v0 = float(raw["v0"])
    if not (v0 >= 0.0):
        raise ConfigurationError("v0 must be a nonnegative speed")

    ctrl = raw["controller"]
    ctype = str(ctrl["type"])
    if ctype not in CONTROLLER_TYPES:
        raise ConfigurationError(
            f"controller type must be one of {CONTROLLER_TYPES}, got {ctype!r}"
        )
    controller = ControllerSettings(
        type=ctype,
        solver=GnConfig(
            max_iters=int(ctrl["solver"]["max_iters"]),
            tol=float(ctrl["solver"]["tol"]),
            damping=float(ctrl["solver"]["damping"]),
            u_min=vehicle.u_min,
            u_max=vehicle.u_max,
        ),
        grad=GradDceeConfig(gain=float(ctrl["grad"]["gain"])),
        esc=EscConfig(**{k: float(v) for k, v in ctrl["esc"].items()}),
    )

    ens = raw["ensemble"]
    ensemble = EnsembleSettings(
        n_members=int(ens["N"]),
        eta_lo=float(ens["eta_lo"]),
        eta_hi=float(ens["eta_hi"]),
        prior=make_true_params(
            reward, float(ens["prior"]["w_z"]), float(ens["prior"]["v_star"]), float(ens["prior"]["c_r"])
        ),
        spread=ens["spread"],
        seed=int(ens["seed"]),
    )

    return ScenarioConfig(
        vehicle=vehicle,
        reward=reward,
        noise=noise,
        schedule=tuple(segments),
        horizon_s=horizon_s,
        v0=v0,
        controller=controller,
        ensemble=ensemble,
        raw=raw,
    )
