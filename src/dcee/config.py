"""Scenario configuration: defaults, YAML loading, and validation.

A scenario file is a YAML mapping with the sections vehicle, reward, noise,
schedule, controller, ensemble plus the scalars horizon_s and v0.  Missing
keys fall back to the built-in defaults; unknown keys are rejected.
"""
from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import yaml

from .baselines import EscConfig, GradDceeConfig
from .ensemble import EnsembleSettings
from .errors import ConfigurationError, CurvatureViolationError, InvalidInputError, reject_bools
from .plant import EnvSegment, NoiseSpec, VehicleParams
from .reward import QuadraticRewardSpec, make_true_params
from .solver import GnConfig

CONTROLLER_TYPES = ("numerical_dcee", "grad_dcee", "esc")

# Each section with a settings type takes its defaults from that type; the
# solver box is the vehicle's input range, so it is not a solver key.
DEFAULTS: dict = {
    "vehicle": asdict(VehicleParams()),
    "reward": {**asdict(QuadraticRewardSpec()), "w_z": 1.0, "c_r": 1.0},
    "noise": asdict(NoiseSpec()),
    "schedule": [
        {"t_start": 0.0, "v_star": 25.0, "w_z": 1.0, "disturbance_force": 0.0},
        {"t_start": 300.0, "v_star": 20.0, "w_z": 1.0, "disturbance_force": 200.0},
        {"t_start": 600.0, "v_star": 30.0, "w_z": 1.0, "disturbance_force": -200.0},
    ],
    "horizon_s": 900.0,
    "v0": 5.0,
    "controller": {
        "type": "numerical_dcee",
        "solver": {k: v for k, v in asdict(GnConfig()).items() if k not in ("u_min", "u_max")},
        "grad": asdict(GradDceeConfig()),
        "esc": asdict(EscConfig()),
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

    def __post_init__(self):
        if self.type not in CONTROLLER_TYPES:
            raise ConfigurationError(f"controller type must be one of {CONTROLLER_TYPES}, got {self.type!r}")


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

    def __post_init__(self):
        reject_bools(self)
        if not (0.0 < self.horizon_s < math.inf):
            raise ConfigurationError(f"horizon_s must be positive and finite, got {self.horizon_s!r}")
        steps = self.horizon_s / self.vehicle.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps) or round(steps) < 1:
            raise ConfigurationError("vehicle dt must divide horizon_s into whole steps")
        if not (0.0 <= self.v0 < math.inf):
            raise ConfigurationError(f"v0 must be a nonnegative speed and finite, got {self.v0!r}")
        # the solver searches the box the plant clamps to, and no other
        solver, vehicle = self.controller.solver, self.vehicle
        if (solver.u_min, solver.u_max) != (vehicle.u_min, vehicle.u_max):
            raise ConfigurationError(
                f"solver box [{solver.u_min}, {solver.u_max}] differs from the vehicle's "
                f"input box [{vehicle.u_min}, {vehicle.u_max}]")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon_s / self.vehicle.dt))


def default_config() -> dict:
    """Fresh copy of the built-in default scenario dictionary."""
    return copy.deepcopy(DEFAULTS)


def _number(value, default, where: str):
    """value as a number of default's type: a finite float, or for an int
    default a whole number, kept exact.  A string counts as the number it
    reads as; a bool is not a number."""
    try:
        if isinstance(value, bool):
            raise TypeError
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                value = float(value)
        if isinstance(default, float):
            value = float(value)
            if math.isfinite(value):
                return value
        elif value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "finite number" if isinstance(default, float) else "whole number"
    raise ConfigurationError(f"config key {where} must be a {kind}, got {value!r}")


def _peak_params(reward: QuadraticRewardSpec, where: str, w_z, v_star, c_r):
    """make_true_params, with a value it rejects reported as a
    ConfigurationError that names where it came from."""
    try:
        return make_true_params(reward, w_z, v_star, c_r)
    except (InvalidInputError, CurvatureViolationError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _merge(base: dict, override, path: str = "") -> dict:
    """override merged over base: unknown keys are rejected, and a value whose
    default is a number is loaded as that number's type."""
    if not isinstance(override, dict):
        raise ConfigurationError(f"config key {path or 'root'} must be a mapping")
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in base:
            raise ConfigurationError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, where)
        elif isinstance(base[key], (int, float)):
            out[key] = _number(value, base[key], where)
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
    rw = raw["reward"]
    vehicle = VehicleParams(**raw["vehicle"])
    reward = QuadraticRewardSpec(v_scale=rw["v_scale"], curvature_floor=rw["curvature_floor"])
    noise = NoiseSpec(**raw["noise"])

    entries = raw["schedule"]
    if not isinstance(entries, list) or not entries:
        raise ConfigurationError("schedule must be a nonempty list")
    entry_default = {"t_start": 0.0, "v_star": 0.0, "w_z": rw["w_z"], "disturbance_force": 0.0}
    segments = []
    prev_start = -math.inf
    for idx, entry in enumerate(entries):
        where = f"schedule[{idx}]"
        if isinstance(entry, dict) and not {"t_start", "v_star"} <= set(entry):
            raise ConfigurationError(f"{where} needs t_start and v_star")
        entry = _merge(entry_default, entry, where)
        t_start = entry["t_start"]
        if idx == 0 and t_start != 0.0:
            raise ConfigurationError("first schedule entry must start at t = 0")
        if t_start <= prev_start:
            raise ConfigurationError("schedule t_start values must be strictly increasing")
        prev_start = t_start
        theta = _peak_params(reward, where, entry["w_z"], entry["v_star"], rw["c_r"])
        segments.append(EnvSegment(t_start, theta, entry["disturbance_force"]))

    ctrl = raw["controller"]
    controller = ControllerSettings(
        type=ctrl["type"],
        solver=GnConfig(**ctrl["solver"], u_min=vehicle.u_min, u_max=vehicle.u_max),
        grad=GradDceeConfig(**ctrl["grad"]),
        esc=EscConfig(**ctrl["esc"]),
    )

    ens = raw["ensemble"]
    ensemble = EnsembleSettings(
        n_members=ens["N"],
        eta_lo=ens["eta_lo"],
        eta_hi=ens["eta_hi"],
        prior=_peak_params(reward, "ensemble.prior", **ens["prior"]),
        spread=ens["spread"],
        seed=ens["seed"],
    )

    return ScenarioConfig(
        vehicle=vehicle,
        reward=reward,
        noise=noise,
        schedule=tuple(segments),
        horizon_s=raw["horizon_s"],
        v0=raw["v0"],
        controller=controller,
        ensemble=ensemble,
        raw=raw,
    )
