"""Candidate-input residual objective for dual exploration-exploitation control.

For a candidate input u, the one-step predicted output feeds the predicted
ensemble update; the stacked residual collects the exploitation mismatch
(predicted output minus mean predicted optimal speed) and the scaled
deviations of the member predictions.  The control objective is the squared
norm of that residual, so its exploitation/exploration split is exact.

Two routes compute it.  The first fuses F and its Jacobian into one pass
over the members on Python floats, the callable residual_fn(p) returns,
which keeps running sums of the members' values.  As the solver's
callback it takes the scalars F'F, J'F and J'J, all a one-input
Gauss-Newton step needs, from those sums, and objective is its F'F;
evaluate asks the same pass to collect the members' values too and
builds the arrays F and J about the means of the same sums.
objective_split and objective_grid share a second, unfused route that
computes the split from the ensemble statistics, on one float candidate
or an array of them alike, and so checks the first independently.
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .ensemble import Ensemble
from .errors import InfeasibleCandidateError, InvalidInputError
from .plant import VehicleParams, drag_force
from .reward import QuadraticRewardSpec

# the smallest curvature magnitude whose square is a normal float
_MIN_CURVATURE = math.sqrt(sys.float_info.min)


class DceeProblem(NamedTuple):
    """Immutable snapshot of one control step: plant model, reward family,
    current estimator ensemble, and current speed.  A tuple record, since
    drive builds one every step, with tuple.__new__, which fills the
    fields in C; _replace returns a changed copy."""

    vehicle: VehicleParams
    reward: QuadraticRewardSpec
    ensemble: Ensemble
    v: float


def standstill_input(vehicle: VehicleParams, v: float) -> float:
    """The input below which the nominal prediction from speed v clamps at
    standstill: every smaller input predicts speed 0, so the residual is
    flat there and its Jacobian is 0."""
    return drag_force(vehicle, v) - v * vehicle.mass / vehicle.dt


def warm_start(p: DceeProblem, u_prev: float) -> float:
    """The input a model-based selection starts from, clamped to
    p.vehicle's box: u_prev lifted to standstill_input, since from below it
    no step could move, or, for a non-finite u_prev, which gives no point
    to start from, the input that holds the current speed against drag."""
    veh = p.vehicle
    u = float(u_prev)
    u = max(u, standstill_input(veh, p.v)) if math.isfinite(u) else drag_force(veh, p.v)
    return min(max(u, veh.u_min), veh.u_max)


def evaluate(p: DceeProblem, u: float):
    """Residual stack F(u) and its analytic Jacobian dF/du, as the pair
    (F, J).

    The Jacobian chains the nominal plant sensitivity dy/du = dt/mass (0
    where the predicted speed clamps at standstill) through the predicted
    member update (product rule over the basis and the innovation) and the
    derivative of the optimal-speed map.

    The pass residual_fn returns, asked to collect the members' values,
    computes F and J, with the same running sums and so the same means as
    the solve callback.  objective_split and objective_grid share the
    unfused route, _objective_terms, which has no code in common with this
    one, so the decomposition identity is a genuine cross-check.
    """
    pairs = []
    f0, gmean, j0, dmean = residual_fn(p)(u, pairs)
    w = 1.0 / math.sqrt(len(pairs))
    return (np.array([f0] + [(g - gmean) * w for g, _ in pairs]),
            np.array([j0] + [(dg - dmean) * w for _, dg in pairs]))


def objective(p: DceeProblem, u: float) -> float:
    """Squared residual norm D(u) = F'F, as the solver's callback
    (residual_fn) computes and minimizes it."""
    return residual_fn(p)(u)[0]


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
    veh, spec, ens, v = p
    v = float(v)
    s = spec.v_scale
    neg_half_s = -0.5 * s
    neg_floor = -spec.curvature_floor
    rows = ens.members
    n = len(rows)
    mean0, mean1, mean2 = ens.mean
    y = v + veh.dt * ((u - drag_force(veh, v)) / veh.mass)
    y = 0.5 * (y + abs(y))  # max(y, 0) for a float and an array alike
    z = y / s
    psi0 = z * z
    r_hat = mean0 * psi0 + mean1 * z + mean2
    gams = []
    append = gams.append
    gsum = 0.0
    try:
        for (a, b, c), rate in zip(rows, ens.rates):
            gain = rate * (a * psi0 + b * z + c - r_hat)
            t0 = a - gain * psi0
            feasible &= t0 <= neg_floor
            gam = (b - gain * z) / t0 * neg_half_s
            append(gam)
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
    objective == exploit + explore is a genuine cross-check.  As in the
    solve callback, a candidate whose terms are not finite is infeasible."""
    u = float(u)
    if not math.isfinite(u):
        raise InvalidInputError(f"candidate input must be finite, got {u}")
    exploit, explore, feasible = _objective_terms(p, u, True)
    if not feasible:
        raise InfeasibleCandidateError(
            f"candidate u={u} drives a predicted member outside the admissible region"
        )
    if not (math.isfinite(exploit) and math.isfinite(explore)):
        raise InfeasibleCandidateError(f"candidate u={u} gives non-finite objective terms")
    return exploit, explore


def objective_grid(p: DceeProblem, us) -> np.ndarray:
    """Vectorized objective over an array of candidate inputs.

    Infeasible candidates, and those whose terms are not finite, evaluate
    to +inf, which is how grid-search oracles and line searches treat them.
    """
    us = np.asarray(us, dtype=float)
    # infeasible candidates may divide by 0 or overflow; they end as +inf
    with np.errstate(all="ignore"):
        exploit, explore, feasible = _objective_terms(p, us, np.isfinite(us))
        total = exploit + explore
        return np.where(feasible & np.isfinite(total), total, np.inf)


def residual_fn(p: DceeProblem):
    """The one pass over the members, fn(u, pairs=None), with everything
    that does not depend on the candidate input computed once, as Python
    floats and tuples, so repeated evaluations inside one solve stay cheap
    (with about ten members numpy's per-call cost would outweigh the
    arithmetic).

    Without a list fn(u) returns the solve callback's (F'F, J'F, J'J): with
    one input these three numbers are all a Gauss-Newton step and its
    accept test need (see solver.solve), so no arrays are built.  Given the
    list pairs it appends to it each updated member's optimal speed g and
    its derivative dg = d(g)/du, as the pair (g, dg), and returns
    (f0, gmean, j0, dmean), where gmean is the mean of g, f0 = y - gmean
    the exploitation residual, and j0 and dmean are their derivatives in u
    (see evaluate).

    Both modes keep the same running sums of g and dg, less their first
    member's values (shifted data, so the deviations from the means come
    out of the sums without cancelling digits when the members agree
    closely), and in units that leave the factors common to all members to
    the end; the means come from these sums, so evaluate's F[0] and J[0]
    are the callback's own.  F[1:] and J[1:] are the deviations over
    sqrt(n), so their share of each product is a sum of deviation products
    over n; in F'F that share is the variance of the optimal speeds, the
    explore term.  t0_max, the largest curvature a feasible member may
    have, is the negated curvature floor, and no more than -sqrt of the
    smallest normal float, so the derivative never divides by a curvature
    whose square underflows.
    """
    veh, spec, ens, v = p
    members = ens.members
    rates = ens.rates
    n = len(members)
    mean = ens.mean
    v = float(v)
    drag = drag_force(veh, v)
    dy_du_free = veh.dt / veh.mass
    # standstill_input's expression, from the drag already in hand
    u_stop = drag - v * veh.mass / veh.dt
    s = spec.v_scale
    t0_max = min(-spec.curvature_floor, -_MIN_CURVATURE)
    scale = -0.5 * s

    def fn(u: float, pairs=None):
        u = float(u)
        if not math.isfinite(u):
            raise InvalidInputError(f"candidate input must be finite, got {u}")
        if u < u_stop:
            # the predicted speed clamps at standstill, where it no longer
            # depends on the input
            y = 0.0
            dy_du = 0.0
        else:
            # at u_stop itself rounding can leave y a hair below 0; the
            # derivative there is the one-sided one from above
            dy_du = dy_du_free
            y = max(v + dy_du * (u - drag), 0.0)
        z = y / s
        z2 = 2.0 * z
        psi0 = z * z
        # the loop reads locals, not the closure's cells
        mean0, mean1, mean2 = mean
        neg_floor = t0_max
        r_hat = mean0 * psi0 + mean1 * z + mean2
        k = 0.5 * dy_du
        cq = cr = 0.0
        first = True
        sq = sr = sqq = sqr = srr = 0.0
        # predicted member update theta - rate * e * psi, with e the
        # member's reward innovation, and each updated member's optimal
        # speed g = -(s/2) q for q = t1 / t0.  psi' = (2z, 1) / s and
        # h = e + z (2z d0 + d1), with d0 and d1 the member's deviations
        # from the means of the first two parameters, give t1' = rate h / s
        # and t0' = rate z (e + h) / s, so
        # dg = -(s/2) dy/du (t1' t0 - t1 t0') / t0^2, with the minus signs
        # of the update direction folded in, is k r for
        # r = rate (h - q z (e + h)) / t0 and k = dy/du / 2.  The pass sums
        # q and r; the factors -(s/2) and k apply to the sums
        for (a, b, c), rate in zip(members, rates):
            e = a * psi0 + b * z + c - r_hat
            gain = rate * e
            t0 = a - gain * psi0
            if t0 > neg_floor:
                raise InfeasibleCandidateError(
                    f"candidate u={u} drives a predicted member outside the admissible region"
                )
            q = (b - gain * z) / t0
            h = e + z * (z2 * (a - mean0) + (b - mean1))
            r = rate * (h - q * z * (e + h)) / t0
            if pairs is not None:
                pairs.append((q * scale, k * r))
            if first:
                cq, cr = q, r
                first = False
            q -= cq
            r -= cr
            sq += q
            sr += r
            sqq += q * q
            sqr += q * r
            srr += r * r
        gmean = scale * (cq + sq / n)
        f0 = y - gmean
        dmean = k * (cr + sr / n)
        j0 = dy_du - dmean
        ftf = f0 * f0 + scale * scale * (sqq - sq * sq / n) / n
        jtf = j0 * f0 + scale * k * (sqr - sq * sr / n) / n
        jtj = j0 * j0 + k * k * (srr - sr * sr / n) / n
        if not (math.isfinite(ftf) and math.isfinite(jtf) and math.isfinite(jtj)):
            # overflowing members give inf/nan here, even where each
            # member's values are finite: one more candidate the solver
            # must not accept
            raise InfeasibleCandidateError(f"candidate u={u} gives non-finite objective terms")
        if pairs is not None:
            return f0, gmean, j0, dmean
        return ftf, jtf, jtj

    return fn
