"""Linear-in-parameters cruising reward and its optimal-speed map.

The reward for cruising at speed v is psi(v) . theta with basis
psi(v) = [z**2, z, 1] and z = v / v_scale.  A parameter vector theta is
three Python floats (t0, t1, t2).  Concave ones (t0 <= -curvature_floor)
admit a unique maximizing speed v_scale * (-t1 / (2 * t0)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError, CurvatureViolationError, InvalidInputError, reject_bools


@dataclass(frozen=True)
class QuadraticRewardSpec:
    """Normalization speed and admissibility floor for the quadratic reward.

    v_scale is in m/s; curvature_floor is the minimum magnitude of the
    (negative) quadratic coefficient, keeping the optimal-speed map away
    from its singularity at theta[0] = 0.
    """

    v_scale: float = 30.0
    curvature_floor: float = 0.05

    def __post_init__(self):
        reject_bools(self)
        if not (math.isfinite(self.v_scale) and self.v_scale > 0.0):
            raise ConfigurationError(f"v_scale must be positive and finite, got {self.v_scale}")
        if not (math.isfinite(self.curvature_floor) and self.curvature_floor > 0.0):
            raise ConfigurationError(
                f"curvature_floor must be positive and finite, got {self.curvature_floor}"
            )


def _check_speed(v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise InvalidInputError(f"speed must be finite, got {v}")
    return v


def _check_theta(theta) -> tuple[float, float, float]:
    """theta, any three finite numbers, as a tuple of Python floats;
    anything else, a string of three digits too, raises InvalidInputError."""
    try:
        # unpacked from the iterator: tuple(map(...)) allocates 10 slots and
        # shrinks them to 3, and until the 3-tuple free list is full each
        # call adds one to the collector's count that no free takes back
        t0, t1, t2 = map(float, theta)
        if math.isfinite(t0) and math.isfinite(t1) and math.isfinite(t2) and not isinstance(theta, str):
            return t0, t1, t2
    except (TypeError, ValueError):
        pass
    raise InvalidInputError(f"theta must have three entries, and entries must be finite; got {theta!r}")


def basis(spec: QuadraticRewardSpec, v: float) -> tuple[float, float, float]:
    """Feature vector (z**2, z, 1) at speed v, with z = v / spec.v_scale,
    as Python floats."""
    v = _check_speed(v)
    z = v / spec.v_scale
    return z * z, z, 1.0


def eval_reward(spec: QuadraticRewardSpec, theta, v: float) -> float:
    """Reward psi(v) . theta, summed left to right on Python floats."""
    t0, t1, t2 = _check_theta(theta)
    psi0, z, _ = basis(spec, v)
    return psi0 * t0 + z * t1 + t2


def optimal_condition(spec: QuadraticRewardSpec, theta) -> float:
    """Speed maximizing the reward: v_scale * (-theta[1] / (2 * theta[0])).
    theta must be admissible, theta[0] <= -curvature_floor (a strictly
    concave reward)."""
    t0, t1, _ = _check_theta(theta)
    if not t0 <= -spec.curvature_floor:
        raise CurvatureViolationError(f"theta[0] = {t0} violates theta[0] <= {-spec.curvature_floor}")
    return spec.v_scale * (-t1 / (2.0 * t0))


def make_true_params(spec: QuadraticRewardSpec, w_z: float, v_star: float,
                     c_r: float) -> tuple[float, float, float]:
    """Parameter vector of the peak-form reward c_r - w_z * (z - z_star)**2.

    Expansion gives theta = [-w_z, 2*w_z*z_star, c_r - w_z*z_star**2] with
    z_star = v_star / v_scale, so the optimal speed of the result is v_star.
    """
    w_z = float(w_z)
    v_star = _check_speed(v_star)
    c_r = float(c_r)
    if not math.isfinite(w_z) or w_z < spec.curvature_floor:
        raise CurvatureViolationError(
            f"w_z = {w_z} is below the curvature floor {spec.curvature_floor}"
        )
    if not math.isfinite(c_r):
        raise InvalidInputError(f"c_r must be finite, got {c_r}")
    if not (0.0 <= v_star <= 2.0 * spec.v_scale):
        raise InvalidInputError(
            f"v_star = {v_star} outside [0, {2.0 * spec.v_scale}]"
        )
    z_star = v_star / spec.v_scale
    return -w_z, 2.0 * w_z * z_star, c_r - w_z * z_star * z_star
