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

from .ensemble import Ensemble, _mean
from .errors import InfeasibleCandidateError, InvalidInputError
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


def standstill_input(vehicle: VehicleParams, v: float) -> float:
    """The input below which the nominal prediction from speed v clamps at
    standstill: every smaller input predicts speed 0, so the residual is
    flat there and its Jacobian is 0."""
    return drag_force(vehicle, v) - v * vehicle.mass / vehicle.dt


class _Prepared:
    """Problem-invariant quantities shared by all evaluations of one snapshot.

    The inner solver evaluates the same DceeProblem many times per control
    period; everything that does not depend on the candidate input is
    computed once here, as Python floats and lists (see evaluate).
    """

    __slots__ = ("v", "m0", "m1", "m2", "d0", "d1", "rates", "mean",
                 "drag", "dy_du", "u_stop", "s", "floor", "inv_sqrt_n")

    def __init__(self, p: DceeProblem):
        self.m0, self.m1, self.m2 = p.ensemble.members.T.tolist()
        self.rates = p.ensemble.rates.tolist()
        n = len(self.m0)
        # members.mean(axis=0) sums each column in order, starting from 0.0
        mean = []
        for col in (self.m0, self.m1, self.m2):
            acc = 0.0
            for x in col:
                acc += x
            mean.append(acc / n)
        self.mean = mean
        self.d0 = [x - mean[0] for x in self.m0]
        self.d1 = [x - mean[1] for x in self.m1]
        veh = p.vehicle
        self.v = p.v
        self.drag = drag_force(veh, p.v)
        self.dy_du = veh.dt / veh.mass
        self.u_stop = standstill_input(veh, p.v)
        self.s = p.reward.v_scale
        self.floor = p.reward.curvature_floor
        self.inv_sqrt_n = 1.0 / math.sqrt(n)


def _eval_prepared(prep: _Prepared, u: float, with_jacobian: bool):
    """(F, J) at u as arrays, with J None unless requested."""
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
        y = max(prep.v + dy_du * (u - prep.drag), 0.0)
    s = prep.s
    z = y / s
    psi0 = z * z
    mean0, mean1, mean2 = prep.mean
    r_hat = mean0 * psi0 + mean1 * z + mean2
    neg_floor = -prep.floor
    scale = -0.5 * s
    # predicted member update theta - rate * innovation * psi, and each
    # updated member's optimal speed
    innov, th0, th1, gam = [], [], [], []
    for a, b, c, rate in zip(prep.m0, prep.m1, prep.m2, prep.rates):
        e = a * psi0 + b * z + c - r_hat
        gain = rate * e
        t0 = a - gain * psi0
        if t0 > neg_floor:
            raise InfeasibleCandidateError(
                f"candidate u={u} drives a predicted member outside the admissible region"
            )
        t1 = b - gain * z
        innov.append(e)
        th0.append(t0)
        th1.append(t1)
        gam.append(t1 / t0 * scale)
    gmean = _mean(gam)
    if not math.isfinite(gmean):
        # overflowing members give inf/nan here; to the solver that is one
        # more candidate it must not accept
        raise InfeasibleCandidateError(
            f"candidate u={u} gives a non-finite predicted optimal speed"
        )
    w = prep.inv_sqrt_n
    F = np.array([y - gmean] + [(g - gmean) * w for g in gam])
    if not with_jacobian:
        return F, None

    dpsi0 = 2.0 * y / (s * s)
    dpsi1 = 1.0 / s
    k = 0.5 * s * dy_du
    # d(gam)/du = -(s/2) dy/du (dth1 th0 - th1 dth0) / th0^2, with the minus
    # signs of the update direction folded in
    dgam = []
    try:
        for e, t0, t1, d0, d1, rate in zip(innov, th0, th1, prep.d0, prep.d1, prep.rates):
            de = d0 * dpsi0 + d1 * dpsi1
            dt0 = (dpsi0 * e + psi0 * de) * rate
            dt1 = (dpsi1 * e + z * de) * rate
            dgam.append((dt1 * t0 - t1 * dt0) / (t0 * t0) * k)
    except ZeroDivisionError:  # th0**2 underflows below a floor of about 1e-154
        raise InfeasibleCandidateError(f"candidate u={u}: predicted curvature underflows") from None
    dmean = _mean(dgam)
    J = np.array([dy_du - dmean] + [(g - dmean) * w for g in dgam])
    return F, J


def evaluate(p: DceeProblem, u: float, with_jacobian: bool = True):
    """Residual stack F(u) and, when requested, its analytic Jacobian dF/du,
    as the pair (F, J) with J None otherwise.

    The Jacobian chains the nominal plant sensitivity dy/du = dt/mass (0
    where the predicted speed clamps at standstill) through the predicted
    member update (product rule over the basis and the innovation) and the
    derivative of the optimal-speed map.

    This is the solver's hot path, fused into one loop over the members on
    Python floats (with about ten members numpy's per-call cost would
    outweigh the arithmetic): one pass for F, a second for J, with means
    added in np.mean's order.  objective_split and objective_grid share the
    unfused vectorized route, _objective_terms, so the decomposition
    identity is a genuine cross-check.
    """
    return _eval_prepared(_Prepared(p), u, with_jacobian)


def objective(p: DceeProblem, u: float) -> float:
    """Squared residual norm D(u)."""
    f, _ = evaluate(p, u, with_jacobian=False)
    return float(f @ f)


def _objective_terms(p: DceeProblem, us):
    """(exploit, explore, feasible) arrays over the candidate inputs us.

    Per candidate: predict the output, update the members with the
    ensemble-mean reward in place of the measurement (unprojected, so smooth
    in u), then exploit = (output - mean optimal speed)^2 and explore = the
    variance (1/n) of the optimal speeds.  Feasible means finite, with every
    predicted member past the curvature floor; other rows are meaningless.
    """
    us = np.asarray(us, dtype=float)
    veh = p.vehicle
    spec = p.reward
    members = p.ensemble.members
    n = len(members)
    # the logged split columns keep their bytes only in this order: BLAS
    # products for innovations and variance (einsum rounds otherwise), sum/n
    with np.errstate(all="ignore"):
        y = np.maximum(0.0, p.v + veh.dt * ((us - drag_force(veh, p.v)) / veh.mass))
        z = y / spec.v_scale
        psi = np.empty((z.size, 3))                                              # (G, 3)
        psi[:, 0], psi[:, 1], psi[:, 2] = z * z, z, 1.0
        innov = psi @ members.T - (psi @ (members.sum(axis=0) / n))[:, None]     # (G, n)
        th = members - (p.ensemble.rates * innov)[:, :, None] * psi[:, None, :]  # (G, n, 3)
        t0 = th[:, :, 0]
        gam = spec.v_scale * (-th[:, :, 1] / (2.0 * t0))
        gmean = gam.sum(axis=1) / n
        dev = gam - gmean[:, None]
        explore = (dev[:, None, :] @ dev[:, :, None])[:, 0, 0] / n
        exploit = (y - gmean) ** 2
    feasible = np.isfinite(us) & (t0.max(axis=1) <= -spec.curvature_floor)
    return exploit, explore, feasible


def objective_split(p: DceeProblem, u: float) -> tuple[float, float]:
    """(exploitation, exploration) terms computed from the ensemble
    statistics directly, not from the stacked residual, so the identity
    objective == exploit + explore is a genuine cross-check."""
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"candidate input must be finite, got {u}")
    exploit, explore, feasible = _objective_terms(p, [u])
    if not feasible[0]:
        raise InfeasibleCandidateError(
            f"candidate u={u} drives a predicted member outside the admissible region"
        )
    return float(exploit[0]), float(explore[0])


def objective_grid(p: DceeProblem, us) -> np.ndarray:
    """Vectorized objective over an array of candidate inputs.

    Infeasible candidates evaluate to +inf, which is how grid-search oracles
    and line searches treat them.
    """
    exploit, explore, feasible = _objective_terms(p, us)
    return np.where(feasible, exploit + explore, np.inf)


def residual_fn(p: DceeProblem):
    """Adapter for the inner solver: u -> (F, J).

    Prepares the problem-invariant quantities once, so repeated evaluations
    inside one solve stay cheap.
    """
    prep = _Prepared(p)

    def fn(u: float):
        return _eval_prepared(prep, u, True)

    return fn


def _as_residual_only(target):
    """Normalize a DceeProblem or a residual callable to u -> F."""
    if isinstance(target, DceeProblem):
        prep = _Prepared(target)

        def fn(u: float):
            return _eval_prepared(prep, u, False)[0]
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
