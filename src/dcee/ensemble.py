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
from typing import NamedTuple

import numpy as np

from .errors import (ConfigurationError, CurvatureViolationError, InvalidInputError, integer_at_least,
                     reject_bools)
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


Row = tuple[float, float, float]
Matrix = tuple[Row, Row, Row]


_tuple_new = tuple.__new__


class _Bank(NamedTuple):
    """The fields of an Ensemble, whose constructor checks them."""

    members: tuple[Row, ...]
    rates: tuple[float, ...]  # positive rates of the predicted update
    covariance: Matrix  # P
    prior: Matrix
    noise_var: float
    cusum_hi: float
    cusum_lo: float
    resets: int


class Ensemble(_Bank):
    """Immutable estimator bank: one parameter row per member.

    The members, rates, covariance and prior are Python floats in tuples,
    so each step's update and every reader of the bank run on floats: with
    about ten members numpy's per-call cost would outweigh the arithmetic,
    and no bit of the bank depends on a BLAS kernel.  All members see the
    same regressor at every step, so one 3x3 covariance P serves the whole
    bank; prior is both the initial covariance and what a detected
    environment change adds back, noise_var is the measurement variance R,
    cusum_hi/cusum_lo are the change-test statistics and resets counts the
    alarms so far.

    A bank is a tuple record: measured_update builds one every step, and a
    tuple's fields are filled in C where a frozen dataclass sets each by
    name.  A field cannot be set, and _replace returns a changed copy
    through the constructor's check.  That check accepts one form only:
    members a nonempty tuple of float 3-tuples, rates one float per
    member, covariance and prior 3x3, noise_var and the statistics floats
    and resets an int, where a float is a Python float, not a numpy scalar.
    Any other form raises InvalidInputError; draw_bank converts its draw.
    """

    __slots__ = ()

    def __new__(cls, members, rates, covariance, prior, noise_var=NOISE_VAR_FLOOR,
                cusum_hi=0.0, cusum_lo=0.0, resets=0):
        n = len(members) if type(members) is tuple else 0
        if not (n and _rows(members, n) and _floats(rates, n) and _rows(covariance, 3) and _rows(prior, 3)
                and type(noise_var) is type(cusum_hi) is type(cusum_lo) is float and type(resets) is int):
            raise InvalidInputError(
                "a bank needs a nonempty tuple of float 3-tuples as members, one float rate per member, "
                "3x3 float tuples as covariance and prior, float noise_var, cusum_hi and cusum_lo, "
                "and an int resets")
        return _tuple_new(cls, (members, rates, covariance, prior, noise_var, cusum_hi, cusum_lo, resets))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _floats(x, n: int) -> bool:
    """Whether x is a tuple of n Python floats."""
    return type(x) is tuple and len(x) == n and all(type(c) is float for c in x)


def _rows(x, n: int) -> bool:
    """Whether x is a tuple of n tuples of three Python floats."""
    return type(x) is tuple and len(x) == n and all(_floats(row, 3) for row in x)


@dataclass(frozen=True)
class EnsembleSettings:
    """The initial bank: n_members drawn uniformly in prior +/- spread with
    the given seed, predicted-update rates log-spaced on [eta_lo, eta_hi].
    prior and spread are stored as three Python floats."""

    n_members: int
    eta_lo: float
    eta_hi: float
    prior: Row
    spread: Row
    seed: int

    def __post_init__(self):
        reject_bools(self)
        for name in ("prior", "spread"):
            raw = getattr(self, name)
            try:
                value = tuple(map(float, raw))
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(f"ensemble {name} must be numbers: {exc}") from exc
            # a bool is not a number here either, as for every numeric config key
            if (isinstance(raw, str) or len(value) != 3 or not all(map(math.isfinite, value))
                    or any(isinstance(x, bool) for x in raw)):
                raise ConfigurationError(f"ensemble {name} must be three finite numbers, got {raw!r}")
            object.__setattr__(self, name, value)
        if not integer_at_least(self.n_members, 1):
            raise ConfigurationError("ensemble N must be an integer of at least 1")
        if min(self.spread) < 0.0:
            raise ConfigurationError("ensemble spread must be three nonnegative numbers")
        if not (0.0 < self.eta_lo <= self.eta_hi < math.inf):
            raise ConfigurationError("need 0 < eta_lo <= eta_hi < inf")
        if not integer_at_least(self.seed, 0):
            raise ConfigurationError("ensemble seed must be a nonnegative integer")


def draw_bank(spec: QuadraticRewardSpec, rng: np.random.Generator, n_members: int, prior, spread,
              eta_lo: float, eta_hi: float, noise_var: float = NOISE_VAR_FLOOR) -> Ensemble:
    """A bank of n_members drawn by rng uniformly in prior +/- spread, each
    member's theta[0] clamped at -curvature_floor, with predicted-update
    rates log-spaced on [eta_lo, eta_hi] and covariance = prior =
    diag(spread**2), as the tuples of Python floats an Ensemble holds.
    One (n_members, 3) uniform draw is all it takes of rng.

    The rates are np.geomspace's arithmetic done in Python floats, ends
    exact: numpy's vectorized power can differ from libm's pow in the last
    bit, and which kernel it runs depends on the CPU."""
    members = np.asarray(prior, dtype=float) + rng.uniform(-1.0, 1.0, size=(n_members, 3)) * spread
    members[:, 0] = np.minimum(members[:, 0], -spec.curvature_floor)
    lo = math.log10(eta_lo)
    step = (math.log10(eta_hi) - lo) / max(n_members - 1, 1)
    inner = (10.0 ** (i * step + lo) for i in range(1, n_members - 1))
    rates = (float(eta_lo), *inner, float(eta_hi))[:n_members]
    P = tuple(map(tuple, np.diag(np.square(spread)).tolist()))
    return Ensemble(tuple(map(tuple, members.tolist())), rates, covariance=P, prior=P, noise_var=float(noise_var))


def init_ensemble(spec: QuadraticRewardSpec, settings: EnsembleSettings, noise_sigma: float) -> Ensemble:
    """draw_bank of settings, with rng default_rng(settings.seed) and
    measurement variance max(noise_sigma**2, NOISE_VAR_FLOOR)."""
    if not (math.isfinite(noise_sigma) and noise_sigma >= 0.0):
        raise ConfigurationError("noise_sigma must be a nonnegative number")
    return draw_bank(spec, np.random.default_rng(settings.seed), settings.n_members, settings.prior,
                     settings.spread, settings.eta_lo, settings.eta_hi,
                     noise_var=max(float(noise_sigma) ** 2, NOISE_VAR_FLOOR))


def change_test(cusum_hi: float, cusum_lo: float, nu: float) -> tuple[float, float, bool]:
    """One step of the two-sided CUSUM on a normalized innovation nu.

    Returns the updated (upper, lower) statistics and whether the alarm
    fired; both statistics restart from zero after an alarm.  A non-finite
    nu raises InvalidInputError: it would reset both statistics, or hold
    them at infinity, and the test could no longer fire.
    """
    if not math.isfinite(nu):
        raise InvalidInputError(f"change test needs a finite normalized innovation, got {nu}")
    hi = max(0.0, cusum_hi + nu - CHANGE_DRIFT)
    lo = max(0.0, cusum_lo - nu - CHANGE_DRIFT)
    if hi > CHANGE_LIMIT or lo > CHANGE_LIMIT:
        return 0.0, 0.0, True
    return hi, lo, False


def _gain_terms(P: Matrix, psi0: float, z: float, noise_var: float):
    """(P psi, psi'P psi + R) for psi = (psi0, z, 1), as four floats, each
    product summed left to right."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = P
    p0 = a0 * psi0 + b0 * z + c0
    p1 = a1 * psi0 + b1 * z + c1
    p2 = a2 * psi0 + b2 * z + c2
    return p0, p1, p2, psi0 * p0 + z * p1 + p2 + noise_var


def _add(A: Matrix, B: Matrix) -> Matrix:
    """A + B, each entry a + b, as three row tuples: built from displays,
    not generators, so no tuple is allocated at one size and shrunk, which
    would leave the collector's count higher after every alarm."""
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = A
    (d0, e0, f0), (d1, e1, f1), (d2, e2, f2) = B
    return ((a0 + d0, b0 + e0, c0 + f0), (a1 + d1, b1 + e1, c1 + f1), (a2 + d2, b2 + e2, c2 + f2))


def measured_update(e: Ensemble, spec: QuadraticRewardSpec, y: float, reward_meas: float) -> Ensemble:
    """Recursive-least-squares step of each member toward the measured
    reward, followed by the admissibility projection.  Rates are unchanged.

    Every member takes the step theta_i -= K (psi'theta_i - r), with
    K = P psi / (psi'P psi + R), and P shrinks to P - K psi'P.  Before the
    step, the mean member's innovation, normalized by its predicted
    standard deviation, feeds change_test; an alarm adds the prior
    covariance to P, so the belief can move again after the environment
    switched.  A bank with a non-finite member has a non-finite mean
    innovation, which change_test rejects.  A member pushed past the
    curvature floor is moved back along P's first column, the correction
    closest in the P^-1 metric: a plain clamp of theta[0] alone would lower
    that member's reward at the speeds already measured, and the predicted
    update would then push it straight back past the floor for every
    candidate input.

    The body runs on Python floats (see Ensemble); each product with psi
    is summed left to right.
    """
    r = float(reward_meas)
    if not math.isfinite(r):
        raise InvalidInputError(f"measured reward must be finite, got {reward_meas}")
    members, rates, P, prior, noise_var, cusum_hi, cusum_lo, resets = e
    psi0, z, _ = basis(spec, y)
    innovations = []
    append = innovations.append
    total = 0.0
    for a, b, c in members:
        inn = a * psi0 + b * z + c - r
        append(inn)
        total += inn
    p0, p1, p2, s = _gain_terms(P, psi0, z, noise_var)
    nu = -total / (len(members) * math.sqrt(s))
    hi, lo, fired = change_test(cusum_hi, cusum_lo, nu)
    if fired:
        P = _add(P, prior)
        p0, p1, p2, s = _gain_terms(P, psi0, z, noise_var)
    g0, g1, g2 = p0 / s, p1 / s, p2 / s
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2) = P
    P = ((a0 - g0 * p0, b0 - g0 * p1, c0 - g0 * p2),
         (a1 - g1 * p0, b1 - g1 * p1, c1 - g1 * p2),
         (a2 - g2 * p0, b2 - g2 * p1, c2 - g2 * p2))
    neg_floor = -spec.curvature_floor
    updated = []
    append = updated.append
    for (a, b, c), inn in zip(members, innovations):
        a -= inn * g0
        b -= inn * g1
        c -= inn * g2
        excess = a - neg_floor
        if excess > 0.0:
            # along P's first column over its first entry, whose own first
            # entry is 1; the clamp only catches the last rounding
            row = P[0]
            a = min(a - excess, neg_floor)
            b -= excess * (row[1] / row[0])
            c -= excess * (row[2] / row[0])
        append((a, b, c))
    # every field is e's own or float arithmetic on e's floats, so the
    # bank skips the constructor's check
    return _tuple_new(Ensemble, (tuple(updated), rates, P, prior, noise_var, hi, lo, resets + fired))


def condition_stats(e: Ensemble, spec: QuadraticRewardSpec) -> float:
    """Mean of the members' optimal speeds: the believed optimal speed."""
    floor = spec.curvature_floor
    s = spec.v_scale
    total = 0.0
    for t0, t1, _ in e.members:
        if not t0 <= -floor:
            raise CurvatureViolationError(
                "ensemble member violates the curvature floor; optimal condition undefined"
            )
        total += s * (-t1 / (2.0 * t0))
    return total / len(e.members)
