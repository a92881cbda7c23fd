"""Multi-estimator belief over the reward parameters.

The bank learns from measured rewards by recursive least squares with one
covariance shared by its members, a change test that re-opens it after the
environment switches, and an admissibility projection.  The predicted
update inside the control objective, at each member's own staggered rate,
is in core.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CurvatureViolationError, InvalidInputError, integer_at_least
from .reward import QuadraticRewardSpec, basis


# Two-sided CUSUM change test on the normalized innovation of the mean
# member: per-step allowance and alarm level, in standard deviations.  A
# 2.8-sigma shift in the mean raises the statistic by about 1.8 per step and
# trips the alarm within a handful of steps; pure noise practically never
# reaches the level (the statistic drifts down by 1 per step on average).
CHANGE_DRIFT = 1.0
CHANGE_LIMIT = 8.0

# Measurement-noise variance used in place of a configured sigma of zero, so
# that the gain stays bounded and the normalized innovation is defined on
# exact measurements.  Its square root, 1e-3, is a tenth of the default
# reward noise.
NOISE_VAR_FLOOR = 1e-6


@dataclass(frozen=True)
class Ensemble:
    """Immutable estimator bank: one parameter row per member.

    All members see the same regressor at every step, so one 3x3
    covariance serves the whole bank in measured_update, which needs it;
    prior is both the initial covariance and what a detected environment
    change adds back, noise_var is the measurement variance R,
    cusum_hi/cusum_lo are the change-test statistics and resets counts the
    alarms so far.  A bank built from members and rates alone only predicts.
    """

    members: np.ndarray  # (n, 3)
    rates: np.ndarray    # (n,) positive rates of the predicted update
    covariance: np.ndarray | None = None  # (3, 3) P
    prior: np.ndarray | None = None       # (3, 3)
    noise_var: float = NOISE_VAR_FLOOR
    cusum_hi: float = 0.0
    cusum_lo: float = 0.0
    resets: int = 0


@dataclass(frozen=True)
class EnsembleSettings:
    """The initial bank: n_members drawn uniformly in prior +/- spread with
    the given seed, predicted-update rates log-spaced on [eta_lo, eta_hi]."""

    n_members: int
    eta_lo: float
    eta_hi: float
    prior: np.ndarray   # (3,)
    spread: np.ndarray  # (3,)
    seed: int

    def __post_init__(self):
        try:
            prior = np.asarray(self.prior, dtype=float)
            spread = np.asarray(self.spread, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"ensemble prior and spread must be numbers: {exc}") from exc
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "spread", spread)
        if not integer_at_least(self.n_members, 1):
            raise ConfigurationError("ensemble N must be an integer of at least 1")
        if prior.shape != (3,) or spread.shape != (3,):
            raise ConfigurationError("ensemble prior and spread must have shape (3,)")
        if not np.all(np.isfinite(prior)):
            raise ConfigurationError("ensemble prior must be finite")
        if not np.all(np.isfinite(spread) & (spread >= 0.0)):
            raise ConfigurationError("ensemble spread must be three nonnegative numbers")
        if not (0.0 < self.eta_lo <= self.eta_hi < math.inf):
            raise ConfigurationError("need 0 < eta_lo <= eta_hi < inf")
        if not integer_at_least(self.seed, 0):
            raise ConfigurationError("ensemble seed must be a nonnegative integer")


def init_ensemble(spec: QuadraticRewardSpec, settings: EnsembleSettings, noise_sigma: float) -> Ensemble:
    """Draw the members of settings and project each to admissibility.

    The bank's covariance and prior are diag(spread**2), and its
    measurement variance is max(noise_sigma**2, NOISE_VAR_FLOOR).
    """
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ConfigurationError("noise_sigma must be a nonnegative number")
    rng = np.random.default_rng(settings.seed)
    spread = settings.spread
    members = settings.prior + rng.uniform(-1.0, 1.0, size=(settings.n_members, 3)) * spread
    members[:, 0] = np.minimum(members[:, 0], -spec.curvature_floor)
    rates = np.geomspace(settings.eta_lo, settings.eta_hi, settings.n_members)
    prior = np.diag(spread * spread)
    noise_var = max(float(noise_sigma) ** 2, NOISE_VAR_FLOOR)
    return Ensemble(members, rates, covariance=prior, prior=prior, noise_var=noise_var)


def change_test(cusum_hi: float, cusum_lo: float, nu: float) -> tuple[float, float, bool]:
    """One step of the two-sided CUSUM on a normalized innovation nu.

    Returns the updated (upper, lower) statistics and whether the alarm
    fired; both statistics restart from zero after an alarm.
    """
    hi = max(0.0, cusum_hi + nu - CHANGE_DRIFT)
    lo = max(0.0, cusum_lo - nu - CHANGE_DRIFT)
    if hi > CHANGE_LIMIT or lo > CHANGE_LIMIT:
        return 0.0, 0.0, True
    return hi, lo, False


def measured_update(e: Ensemble, spec: QuadraticRewardSpec, y: float, reward_meas: float) -> Ensemble:
    """Recursive-least-squares step of each member toward the measured
    reward, followed by the admissibility projection.  Rates are unchanged.

    Every member takes the step theta_i -= K (psi'theta_i - r), with
    K = P psi / (psi'P psi + R), and P shrinks to P - K psi'P; a bank
    without a covariance and a prior raises InvalidInputError.  Before the
    step, the mean member's innovation, normalized by its predicted
    standard deviation, feeds change_test; an alarm adds the prior
    covariance to P, so the belief can move again after the environment
    switched.  A member pushed past the curvature floor is moved back along
    P's first column, the correction closest in the P^-1 metric: a plain
    clamp of theta[0] alone would lower that member's reward at the speeds
    already measured, and the predicted update would then push it straight
    back past the floor for every candidate input.  A NaN member stays NaN.
    """
    if not math.isfinite(float(reward_meas)):
        raise InvalidInputError(f"measured reward must be finite, got {reward_meas}")
    if e.covariance is None or e.prior is None:
        raise InvalidInputError("measured update needs a bank with a covariance and a prior")
    psi = basis(spec, y)
    innovations = e.members @ psi - float(reward_meas)
    P = e.covariance
    p_psi = P @ psi
    s = float(psi @ p_psi) + e.noise_var
    nu = -sum(innovations.tolist()) / (len(innovations) * math.sqrt(s))
    hi, lo, fired = change_test(e.cusum_hi, e.cusum_lo, nu)
    if fired:
        P = P + e.prior
        p_psi = P @ psi
        s = float(psi @ p_psi) + e.noise_var
    gain = p_psi / s
    members = e.members - innovations[:, None] * gain[None, :]
    P = P - gain[:, None] * p_psi
    floor = spec.curvature_floor
    if any(t0 > -floor for t0 in members[:, 0].tolist()):
        excess = np.maximum(members[:, 0] + floor, 0.0)
        members -= excess[:, None] * (P[0] / P[0, 0])[None, :]
        members[:, 0] = np.minimum(members[:, 0], -floor)
    return Ensemble(members, e.rates, covariance=P, prior=e.prior, noise_var=e.noise_var,
                    cusum_hi=hi, cusum_lo=lo, resets=e.resets + fired)


def condition_stats(e: Ensemble, spec: QuadraticRewardSpec) -> float:
    """Mean of the members' optimal speeds: the believed optimal speed."""
    floor = spec.curvature_floor
    s = spec.v_scale
    speeds = []
    for t0, t1, _ in e.members.tolist():
        if not t0 <= -floor:
            raise CurvatureViolationError(
                "ensemble member violates the curvature floor; optimal condition undefined"
            )
        speeds.append(s * (-t1 / (2.0 * t0)))
    return sum(speeds) / len(speeds)
