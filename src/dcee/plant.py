"""Discrete-time longitudinal vehicle model, piecewise-constant environment
schedule, and noisy reward measurement.

Forward-Euler point mass with affine-plus-quadratic drag:
v+ = max(0, v + (dt/mass) * (u - c0 - c1*v - c2*v**2 - disturbance)).
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .reward import QuadraticRewardSpec, eval_reward


@dataclass(frozen=True)
class VehicleParams:
    mass: float = 1500.0    # kg
    dt: float = 0.1         # s
    c0: float = 100.0       # N
    c1: float = 5.0         # N s / m
    c2: float = 0.4         # N s^2 / m^2
    u_min: float = -5000.0  # N
    u_max: float = 5000.0   # N

    def __post_init__(self):
        if not (self.mass > 0.0 and self.dt > 0.0):
            raise ConfigurationError("mass and dt must be positive")
        if not (self.u_min < self.u_max):
            raise ConfigurationError("u_min must be below u_max")
        if not (self.c0 >= 0.0 and self.c1 >= 0.0 and self.c2 >= 0.0):
            raise ConfigurationError("drag coefficients must be nonnegative")


@dataclass(frozen=True)
class EnvSegment:
    """One piece of the unknown environment: active from t_start onward
    (left-closed), with its own true reward parameters and road-load force."""

    t_start: float
    theta_true: np.ndarray
    disturbance_force: float


@dataclass(frozen=True)
class NoiseSpec:
    sigma_reward: float = 0.01
    seed: int = 20260811

    def __post_init__(self):
        if not (self.sigma_reward >= 0.0):
            raise ConfigurationError("sigma_reward must be nonnegative")
        if self.seed < 0:
            raise ConfigurationError("seed must be a nonnegative integer")


def drag_force(params: VehicleParams, v: float) -> float:
    """Road-load force c0 + c1*v + c2*v**2 at speed v."""
    return params.c0 + v * (params.c1 + params.c2 * v)


def plant_step(params: VehicleParams, v: float, u: float, segment: EnvSegment) -> float:
    """Advance the speed one sample; u is clamped to actuator bounds first."""
    v = float(v)
    u = float(u)
    if not (math.isfinite(v) and math.isfinite(u)):
        raise InvalidInputError(f"non-finite plant input: v={v}, u={u}")
    u = min(max(u, params.u_min), params.u_max)
    accel = (u - drag_force(params, v) - segment.disturbance_force) / params.mass
    return max(0.0, v + params.dt * accel)


def measure(
    spec: QuadraticRewardSpec,
    v: float,
    segment: EnvSegment,
    noise: NoiseSpec,
    k: int,
) -> tuple[float, float]:
    """Output and noisy reward at step k.

    The noise draw is a pure function of (seed, k), so replays are
    bit-identical and independent scenario runs can share nothing.
    """
    y = float(v)
    r = eval_reward(spec, segment.theta_true, y)
    if noise.sigma_reward > 0.0:
        r += noise.sigma_reward * _standard_normal(noise.seed, k)
    return y, r


def _standard_normal(seed: int, k: int) -> float:
    """default_rng([seed, k]).standard_normal(), bit for bit.

    SeedSequence reads each integer of a list as its little-endian 32-bit
    words (0 as [0]) and pools them in order.  Handed that pool as a uint32
    array, it skips coercing the list one integer at a time.
    """
    words = []
    for n in (seed, k):
        n = operator.index(n)
        if n < 0:
            raise ValueError("expected non-negative integer")
        words.append(n & 0xFFFFFFFF)
        n >>= 32
        while n:
            words.append(n & 0xFFFFFFFF)
            n >>= 32
    entropy = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return float(np.random.Generator(np.random.PCG64(entropy)).standard_normal())


def active_segment(schedule, t: float) -> EnvSegment:
    """Segment with the largest t_start <= t (intervals are left-closed)."""
    if not schedule:
        raise ConfigurationError("environment schedule is empty")
    current = schedule[0]
    for seg in schedule[1:]:
        if seg.t_start <= t:
            current = seg
        else:
            break
    return current
