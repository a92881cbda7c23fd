"""Candidate-input residual objective for dual exploration-exploitation control.

For a candidate input u, the one-step predicted output feeds the predicted
ensemble update; the stacked residual collects the exploitation mismatch
(predicted output minus mean predicted optimal speed) and the scaled
deviations of the member predictions.  The control objective is the squared
norm of that residual, so its exploitation/exploration split is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble, condition_stats, predicted_update
from .errors import CurvatureViolationError, InfeasibleCandidateError, InvalidInputError
from .plant import VehicleParams, drag_force
from .reward import QuadraticRewardSpec


@dataclass(frozen=True)
class DceeProblem:
    """Immutable snapshot of one control step: plant model, reward family,
    current estimator ensemble, and current speed."""

    vehicle: VehicleParams
    reward: QuadraticRewardSpec
    ensemble: Ensemble
    v: float


@dataclass(frozen=True)
class ResidualEval:
    """Residual stack (and optionally its Jacobian) at one candidate input."""

    residual: np.ndarray          # ((n+1),)
    jacobian: np.ndarray | None   # ((n+1),), dF/du


def predict_output(p: DceeProblem, u: float) -> float:
    """One-step output prediction under the nominal (zero-disturbance) model.

    The candidate input is deliberately not clamped here; input bounds are
    the solver's job.  Smooth in u as long as the predicted speed stays
    above zero.
    """
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"candidate input must be finite, got {u}")
    veh = p.vehicle
    accel = (u - drag_force(veh, p.v)) / veh.mass
    return max(0.0, p.v + veh.dt * accel)


def standstill_input(vehicle: VehicleParams, v: float) -> float:
    """The input below which the nominal prediction from speed v clamps at
    standstill: every smaller input predicts speed 0, so the residual is
    flat there and its Jacobian is 0."""
    return drag_force(vehicle, v) - v * vehicle.mass / vehicle.dt


class _Prepared:
    """Problem-invariant quantities shared by all evaluations of one snapshot.

    The inner solver evaluates the same DceeProblem many times per control
    period; everything that does not depend on the candidate input is
    computed once here.
    """

    __slots__ = ("p", "m0", "m1", "m2", "d0", "d1", "rates", "mean",
                 "drag", "dy_du", "u_stop", "s", "floor", "n", "inv_sqrt_n")

    def __init__(self, p: DceeProblem):
        members = p.ensemble.members
        self.p = p
        self.m0 = np.ascontiguousarray(members[:, 0])
        self.m1 = np.ascontiguousarray(members[:, 1])
        self.m2 = np.ascontiguousarray(members[:, 2])
        self.rates = p.ensemble.rates
        self.mean = members.mean(axis=0)
        self.d0 = self.m0 - self.mean[0]
        self.d1 = self.m1 - self.mean[1]
        veh = p.vehicle
        self.drag = drag_force(veh, p.v)
        self.dy_du = veh.dt / veh.mass
        self.u_stop = standstill_input(veh, p.v)
        self.s = p.reward.v_scale
        self.floor = p.reward.curvature_floor
        self.n = members.shape[0]
        self.inv_sqrt_n = 1.0 / math.sqrt(self.n)


def _eval_prepared(prep: _Prepared, u: float, with_jacobian: bool) -> ResidualEval:
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"candidate input must be finite, got {u}")
    dy_du = prep.dy_du
    if u < prep.u_stop:
        # the predicted speed clamps at standstill, where it no longer
        # depends on the input
        y = 0.0
        dy_du = 0.0
    else:
        # at u_stop itself rounding can leave y a hair below 0; the
        # derivative there is the one-sided one from above
        y = max(prep.p.v + dy_du * (u - prep.drag), 0.0)
    s = prep.s
    z = y / s
    psi0 = z * z
    psi1 = z
    mean = prep.mean
    r_hat = mean[0] * psi0 + mean[1] * psi1 + mean[2]
    pred = prep.m0 * psi0
    pred += prep.m1 * psi1
    pred += prep.m2
    innov = pred
    innov -= r_hat
    gain = prep.rates * innov
    th0 = prep.m0 - gain * psi0
    th1 = prep.m1 - gain * psi1
    if th0.max() > -prep.floor:
        raise InfeasibleCandidateError(
            f"candidate u={u} drives a predicted member outside the admissible region"
        )
    gam = th1 / th0
    gam *= -0.5 * s
    gmean = gam.mean()
    if not math.isfinite(gmean):
        # overflowing members give inf/nan here; to the solver that is one
        # more candidate it must not accept
        raise InfeasibleCandidateError(
            f"candidate u={u} gives a non-finite predicted optimal speed"
        )

    residual = np.empty(prep.n + 1)
    residual[0] = y - gmean
    np.subtract(gam, gmean, out=residual[1:])
    residual[1:] *= prep.inv_sqrt_n

    jac = None
    if with_jacobian:
        dpsi0 = 2.0 * y / (s * s)
        dpsi1 = 1.0 / s
        dinnov = prep.d0 * dpsi0
        dinnov += prep.d1 * dpsi1
        dth0_dy = dpsi0 * innov
        dth0_dy += psi0 * dinnov
        dth0_dy *= prep.rates
        dth1_dy = dpsi1 * innov
        dth1_dy += psi1 * dinnov
        dth1_dy *= prep.rates
        # d(gam)/dy = -(s/2) * (dth1 * th0 - th1 * dth0) / th0^2, with the
        # minus signs of the update direction folded in
        dgam = dth1_dy * th0
        dgam -= th1 * dth0_dy
        dgam /= th0 * th0
        dgam *= 0.5 * s * dy_du
        dmean = dgam.mean()
        jac = np.empty(prep.n + 1)
        jac[0] = dy_du - dmean
        np.subtract(dgam, dmean, out=jac[1:])
        jac[1:] *= prep.inv_sqrt_n

    return ResidualEval(residual=residual, jacobian=jac)


def evaluate(p: DceeProblem, u: float, with_jacobian: bool = True) -> ResidualEval:
    """Residual stack F(u) and, when requested, its analytic Jacobian dF/du.

    The Jacobian chains the nominal plant sensitivity dy/du = dt/mass (0
    where the predicted speed clamps at standstill) through the predicted
    member update (product rule over the basis and the innovation) and the
    derivative of the optimal-speed map.

    This is the solver's per-iteration hot path, so the predicted update and
    the condition statistics are fused into one pass instead of going through
    the ensemble-module functions; objective_split keeps the unfused route,
    which is what makes the decomposition identity a genuine cross-check.
    """
    return _eval_prepared(_Prepared(p), u, with_jacobian)


def residual(p: DceeProblem, u: float) -> np.ndarray:
    return evaluate(p, u, with_jacobian=False).residual


def jacobian(p: DceeProblem, u: float) -> np.ndarray:
    return evaluate(p, u, with_jacobian=True).jacobian


def objective(p: DceeProblem, u: float) -> float:
    """Squared residual norm D(u)."""
    f = evaluate(p, u, with_jacobian=False).residual
    return float(f @ f)


def objective_split(p: DceeProblem, u: float) -> tuple[float, float]:
    """(exploitation, exploration) terms computed from the ensemble
    statistics directly, not from the stacked residual, so the identity
    objective == exploit + explore is a genuine cross-check."""
    spec = p.reward
    y = predict_output(p, u)
    e_hat = predicted_update(p.ensemble, spec, y)
    try:
        stats = condition_stats(e_hat, spec)
    except CurvatureViolationError as exc:
        raise InfeasibleCandidateError(
            f"candidate u={u} drives a predicted member outside the admissible region"
        ) from exc
    exploit = (y - stats.mean) ** 2
    explore = stats.covariance
    return float(exploit), float(explore)


def objective_grid(p: DceeProblem, us) -> np.ndarray:
    """Vectorized objective over an array of candidate inputs.

    Infeasible candidates evaluate to +inf, which is how grid-search oracles
    and line searches treat them.
    """
    us = np.asarray(us, dtype=float)
    veh = p.vehicle
    spec = p.reward
    e = p.ensemble
    y = np.maximum(0.0, p.v + veh.dt * (us - drag_force(veh, p.v)) / veh.mass)
    z = y / spec.v_scale
    psi = np.stack([z * z, z, np.ones_like(z)], axis=1)          # (G, 3)
    r_hat = psi @ e.members.mean(axis=0)                          # (G,)
    pred = psi @ e.members.T                                      # (G, n)
    innov = pred - r_hat[:, None]
    th = e.members[None, :, :] - (e.rates[None, :] * innov)[:, :, None] * psi[:, None, :]
    t0 = th[:, :, 0]
    feasible = np.all(t0 <= -spec.curvature_floor, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        gam = spec.v_scale * (-th[:, :, 1] / (2.0 * t0))
    gam_mean = gam.mean(axis=1)
    dev = gam - gam_mean[:, None]
    out = (y - gam_mean) ** 2 + (dev * dev).mean(axis=1)
    out[~feasible] = np.inf
    return out


def residual_fn(p: DceeProblem):
    """Adapter for the inner solver: u -> (F, J).

    Prepares the problem-invariant quantities once, so repeated evaluations
    inside one solve stay cheap.
    """
    prep = _Prepared(p)

    def fn(u: float):
        ev = _eval_prepared(prep, u, True)
        return ev.residual, ev.jacobian

    return fn


def _as_residual_only(target):
    """Normalize a DceeProblem or a residual callable to u -> F."""
    if isinstance(target, DceeProblem):
        prep = _Prepared(target)

        def fn(u: float):
            return _eval_prepared(prep, u, False).residual
        return fn
    if callable(target):
        def fn(u: float):
            out = target(u)
            return out[0] if isinstance(out, tuple) else out
        return fn
    raise InvalidInputError(f"expected a DceeProblem or callable, got {type(target)!r}")


def jacobian_fd(target, u: float, h: float) -> np.ndarray:
    """Central-difference Jacobian dF/du of the residual map with step h.

    Verification oracle for the analytic Jacobian; target may be a
    DceeProblem or any callable returning the residual (or (F, J)).
    """
    if not (h > 0.0):
        raise InvalidInputError(f"finite-difference step must be positive, got {h}")
    fn = _as_residual_only(target)
    return (fn(u + h) - fn(u - h)) / (2.0 * h)
