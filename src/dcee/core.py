"""Candidate-input residual objective for dual exploration-exploitation control.

For a candidate input u, the one-step predicted output feeds the predicted
ensemble update; the stacked residual collects the exploitation mismatch
(predicted output minus mean predicted optimal speed) and the scaled
deviations of the member predictions.  The control objective is the squared
norm of that residual, so its exploitation/exploration split is exact.

Two routes compute it.  The first fuses F and its Jacobian into one pass
over the members on Python floats, _eval_prepared.  evaluate builds the
arrays F and J from that pass; the solver's callback, residual_fn, reduces
it to the scalars F'F, J'F, J'J and F[0]**2, all a one-input Gauss-Newton
step needs.  objective_split and objective_grid share a second, unfused
route that computes the split from the ensemble statistics, on one float
candidate or an array of them alike, and so checks the first independently.
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
    """The member pass at u: (f0, gam, gmean, j0, dgam, dmean), where gam
    are the updated members' optimal speeds, gmean their mean and
    f0 = y - gmean the exploitation residual; j0, dgam and dmean are their
    derivatives in u, all None unless with_jacobian."""
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
    gam = []
    dgam = None
    if with_jacobian:
        dgam = []
        dpsi0 = 2.0 * y / (s * s)
        dpsi1 = 1.0 / s
        k = 0.5 * s * dy_du
    # predicted member update theta - rate * innovation * psi, and each
    # updated member's optimal speed; with the Jacobian, d(gam)/du =
    # -(s/2) dy/du (dth1 th0 - th1 dth0) / th0^2, with the minus signs of
    # the update direction folded in
    try:
        for a, b, c, d0, d1, rate in zip(prep.m0, prep.m1, prep.m2, prep.d0, prep.d1,
                                         prep.rates):
            e = a * psi0 + b * z + c - r_hat
            gain = rate * e
            t0 = a - gain * psi0
            if t0 > neg_floor:
                raise InfeasibleCandidateError(
                    f"candidate u={u} drives a predicted member outside the admissible region"
                )
            t1 = b - gain * z
            gam.append(t1 / t0 * scale)
            if with_jacobian:
                de = d0 * dpsi0 + d1 * dpsi1
                dt0 = (dpsi0 * e + psi0 * de) * rate
                dt1 = (dpsi1 * e + z * de) * rate
                dgam.append((dt1 * t0 - t1 * dt0) / (t0 * t0) * k)
    except ZeroDivisionError:  # th0**2 underflows below a floor of about 1e-154
        raise InfeasibleCandidateError(f"candidate u={u}: predicted curvature underflows") from None
    gmean = _mean(gam)
    if not math.isfinite(gmean):
        # overflowing members give inf/nan here; to the solver that is one
        # more candidate it must not accept
        raise InfeasibleCandidateError(
            f"candidate u={u} gives a non-finite predicted optimal speed"
        )
    if not with_jacobian:
        return y - gmean, gam, gmean, None, None, None
    dmean = _mean(dgam)
    return y - gmean, gam, gmean, dy_du - dmean, dgam, dmean


def _residual_arrays(prep: _Prepared, u: float, with_jacobian: bool):
    """(F, J) at u as arrays, with J None unless requested."""
    f0, gam, gmean, j0, dgam, dmean = _eval_prepared(prep, u, with_jacobian)
    w = prep.inv_sqrt_n
    F = np.array([f0] + [(g - gmean) * w for g in gam])
    if not with_jacobian:
        return F, None
    return F, np.array([j0] + [(g - dmean) * w for g in dgam])


def _gn_terms(prep: _Prepared, u: float):
    """(F'F, J'F, J'J, F[0]**2) at u.  F[1:] and J[1:] are the members'
    optimal speeds and their derivatives less their means, over sqrt(n), so
    their share of each product is a sum of deviation products over n; in
    F'F that share is the variance of the optimal speeds, the explore term."""
    f0, gam, gmean, j0, dgam, dmean = _eval_prepared(prep, u, True)
    ff = jf = jj = 0.0
    for g, dg in zip(gam, dgam):
        g -= gmean
        dg -= dmean
        ff += g * g
        jf += dg * g
        jj += dg * dg
    n = len(gam)
    exploit = f0 * f0
    return exploit + ff / n, j0 * f0 + jf / n, j0 * j0 + jj / n, exploit


def evaluate(p: DceeProblem, u: float, with_jacobian: bool = True):
    """Residual stack F(u) and, when requested, its analytic Jacobian dF/du,
    as the pair (F, J) with J None otherwise.

    The Jacobian chains the nominal plant sensitivity dy/du = dt/mass (0
    where the predicted speed clamps at standstill) through the predicted
    member update (product rule over the basis and the innovation) and the
    derivative of the optimal-speed map.

    One loop over the members on Python floats (with about ten members
    numpy's per-call cost would outweigh the arithmetic) computes F and,
    when requested, J, with means added in np.mean's order, so F and J are
    bit for bit those of the same formulas on arrays.  The solver's
    callback (residual_fn) takes the same pass and reduces it to the four
    scalars of a one-input Gauss-Newton step instead of building arrays.
    objective_split and objective_grid share the unfused route,
    _objective_terms, which has no code in common with this one, so the
    decomposition identity is a genuine cross-check.
    """
    return _residual_arrays(_Prepared(p), u, with_jacobian)


def objective(p: DceeProblem, u: float) -> float:
    """Squared residual norm D(u)."""
    f, _ = evaluate(p, u, with_jacobian=False)
    return float(f @ f)


def _objective_terms(p: DceeProblem, u, feasible):
    """(exploit, explore, feasible) at the candidate input u, a float or an
    array of them, with feasible the caller's verdict on u itself.

    One loop over the members on whatever u is, so a float and an array run
    the same operations in the same order and agree bit for bit.  Per
    candidate: predict the output, update the members with the
    ensemble-mean reward in place of the measurement (unprojected, so smooth
    in u), then exploit = (output - mean optimal speed)^2 and explore = the
    variance (1/n) of the optimal speeds.  Feasible means every predicted
    member past the curvature floor; the terms of an infeasible candidate
    are meaningless.  On Python floats nothing here warns; a caller passing
    an array silences numpy's floating-point warnings, which infeasible
    candidates raise.
    """
    veh = p.vehicle
    v = float(p.v)
    s = p.reward.v_scale
    neg_half_s = -0.5 * s
    neg_floor = -p.reward.curvature_floor
    rows = p.ensemble.members.tolist()
    n = len(rows)
    sum0 = sum1 = sum2 = 0.0
    for a, b, c in rows:
        sum0 += a
        sum1 += b
        sum2 += c
    y = v + veh.dt * ((u - drag_force(veh, v)) / veh.mass)
    y = 0.5 * (y + abs(y))  # max(y, 0) for a float and an array alike
    z = y / s
    psi0 = z * z
    r_hat = sum0 / n * psi0 + sum1 / n * z + sum2 / n
    gams = []
    gsum = 0.0
    try:
        for (a, b, c), rate in zip(rows, p.ensemble.rates.tolist()):
            gain = rate * (a * psi0 + b * z + c - r_hat)
            t0 = a - gain * psi0
            feasible &= t0 <= neg_floor
            gam = (b - gain * z) / t0 * neg_half_s
            gams.append(gam)
            gsum += gam
    except ZeroDivisionError:  # only a float t0 of 0 raises, and 0 is past the floor
        return math.nan, math.nan, False
    gmean = gsum / n
    var = 0.0
    for gam in gams:
        dev = gam - gmean
        var += dev * dev
    dy = y - gmean
    return dy * dy, var / n, feasible


def objective_split(p: DceeProblem, u: float) -> tuple[float, float]:
    """(exploitation, exploration) terms computed from the ensemble
    statistics directly, not from the stacked residual, so the identity
    objective == exploit + explore is a genuine cross-check."""
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"candidate input must be finite, got {u}")
    exploit, explore, feasible = _objective_terms(p, u, True)
    if not feasible:
        raise InfeasibleCandidateError(
            f"candidate u={u} drives a predicted member outside the admissible region"
        )
    return exploit, explore


def objective_grid(p: DceeProblem, us) -> np.ndarray:
    """Vectorized objective over an array of candidate inputs.

    Infeasible candidates evaluate to +inf, which is how grid-search oracles
    and line searches treat them.
    """
    us = np.asarray(us, dtype=float)
    # infeasible candidates may divide by 0 or overflow; they end as +inf
    with np.errstate(all="ignore"):
        exploit, explore, feasible = _objective_terms(p, us, np.isfinite(us))
        return np.where(feasible, exploit + explore, np.inf)


def residual_fn(p: DceeProblem):
    """Adapter for the inner solver: u -> (F'F, J'F, J'J, F[0]**2).

    With one input these four numbers are all a Gauss-Newton step and its
    accept test need (see solver.solve), so no residual arrays are built.
    Prepares the problem-invariant quantities once, so repeated evaluations
    inside one solve stay cheap.
    """
    prep = _Prepared(p)

    def fn(u: float):
        return _gn_terms(prep, u)

    return fn


def _as_residual_only(target):
    """Normalize a DceeProblem or a residual callable to u -> F."""
    if isinstance(target, DceeProblem):
        prep = _Prepared(target)

        def fn(u: float):
            return _residual_arrays(prep, u, False)[0]
        return fn
    if callable(target):
        def fn(u: float):
            out = target(u)
            if not isinstance(out, tuple):
                return out
            if len(out) != 2:
                # a solve callback's four scalars would pass for a residual
                raise InvalidInputError("callable target must return F or (F, J)")
            return out[0]
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
