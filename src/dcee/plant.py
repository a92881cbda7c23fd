"""Discrete-time longitudinal vehicle model, piecewise-constant environment
schedule, and noisy reward measurement.

Forward-Euler point mass with affine-plus-quadratic drag:
v+ = max(0, v + (dt/mass) * (u - c0 - c1*v - c2*v**2 - disturbance)).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, integer_at_least, reject_bools
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
        reject_bools(self)
        if not all(-math.inf < x < math.inf for x in astuple(self)):
            raise ConfigurationError(f"vehicle parameters must be finite, got {self}")
        if not (self.mass > 0.0 and self.dt > 0.0):
            raise ConfigurationError("mass and dt must be positive")
        if not (self.u_min < self.u_max):
            raise ConfigurationError("u_min must be below u_max")
        if not (self.c0 >= 0.0 and self.c1 >= 0.0 and self.c2 >= 0.0):
            raise ConfigurationError("drag coefficients must be nonnegative")


@dataclass(frozen=True)
class EnvSegment:
    """One piece of the unknown environment: active from t_start onward
    (left-closed), with its own true reward parameters, three floats as
    make_true_params returns them, and road-load force."""

    t_start: float
    theta_true: tuple[float, float, float]
    disturbance_force: float


@dataclass(frozen=True)
class NoiseSpec:
    sigma_reward: float = 0.01
    seed: int = 20260811

    def __post_init__(self):
        reject_bools(self)
        if not (0.0 <= self.sigma_reward < math.inf):
            raise ConfigurationError("sigma_reward must be nonnegative and finite")
        if not integer_at_least(self.seed, 0):
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


def measure(spec: QuadraticRewardSpec, v: float, segment: EnvSegment, noise: float) -> tuple[float, float]:
    """Output and noisy reward at speed v: the segment's reward plus noise,
    the step's entry of reward_noise."""
    y = float(v)
    return y, eval_reward(spec, segment.theta_true, y) + noise


def reward_noise(noise: NoiseSpec, n_steps: int) -> tuple:
    """A run's reward noise, one float for each step k < n_steps:
    sigma_reward * default_rng([seed, k]).standard_normal(), bit for bit.

    Each draw is a pure function of (seed, k), so replays are bit-identical
    and independent runs share nothing.  For each row of the run's seed
    table a new PCG64 seeds itself from the row, and a new Generator draws
    one standard normal from it.  Without noise the draws are zeros, and no
    generator is built.
    """
    if not integer_at_least(n_steps, 0) or n_steps > 2**32:
        # a step must fit the one 32-bit word _seed_table gives it
        raise InvalidInputError(f"n_steps must be an integer in [0, 2**32], got {n_steps!r}")
    sigma = noise.sigma_reward
    if sigma == 0.0:
        return (0.0,) * n_steps
    row_seed = _row_seed()
    return tuple(sigma * float(np.random.Generator(np.random.PCG64(row_seed(row))).standard_normal())
                 for row in _seed_table(operator.index(noise.seed), n_steps))


def _words(n: int) -> list:
    """SeedSequence's little-endian 32-bit words of an integer (0 as [0])."""
    return [n >> shift & 0xFFFFFFFF for shift in range(0, max(n.bit_length(), 1), 32)]


@functools.cache
def _row_seed():
    # defined on the first draw: importing dcee loads no numpy.random
    class RowSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self, row):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            return self.row  # PCG64 asks for (4, uint64) and reads the buffer raw

    return RowSeed


def _seed_table(seed: int, n_steps: int) -> np.ndarray:
    """SeedSequence([seed, k]).generate_state(4, uint64) for the steps
    k < n_steps, one 32-byte row each, where k is one 32-bit word: the hash
    constants do not depend on the data, so mix_entropy and generate_state
    run on uint32 arrays, one lane per step."""
    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * mult & 0xFFFFFFFF
        value = value * const
        return value ^ value >> 16

    words = _words(seed)
    entropy = np.zeros((max(len(words) + 1, 4), n_steps), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = np.arange(n_steps, dtype=np.uint32)
    const, mult = 0x43B0D7E5, 0x931E8875
    pool = [hashmix(row) for row in entropy[:4]]
    # each pool word into every other, then each further word into all four
    for src, row in enumerate(entropy):
        for dst in range(4):
            if dst != src:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src] if src < 4 else row)
                pool[dst] = mixed ^ mixed >> 16
    const, mult = 0x8B51F9DD, 0x58F38DED
    out = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    return out.astype("<u4").view("<u8").astype(np.uint64)  # generate_state's layout


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
