"""Curvature diagnostics and the finite-difference oracles behind them.

The production solver only ever touches first derivatives; the exact Hessian
appears here exclusively as a finite-difference test oracle, used to split
the curvature into the Gauss-Newton part J'J and the neglected second-order
remainder, and to bound the local contraction rate of the full-step
iteration.  Every finite difference is formed here, by _central: of
evaluate's F for the Jacobian, and of the solve callback's 0.5 F'F for all
else, so the split, the audit and bench's reference fd_hessian_newton read
the numbers the solver steps with.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from .core import DceeProblem, evaluate, objective_split, residual_fn, standstill_input
from .ensemble import draw_bank
from .errors import (InfeasibleCandidateError, InvalidInputError, RateUndefinedError,
                     SolverFailureError, integer_at_least)
from .plant import VehicleParams
from .reward import QuadraticRewardSpec, make_true_params


@dataclass(frozen=True)
class HessianSplit:
    """h_exact = b_ggn + e_ggn, with b_ggn the solve callback's J'J and
    h_exact a finite-difference second derivative of its 0.5 F'F."""

    b_ggn: float
    e_ggn: float
    h_exact: float


def _half_objective(problem: DceeProblem):
    """The solve callback residual_fn(problem), prepared once, and its half
    objective L: u -> 0.5 F'F, the one function every difference of the
    objective here takes."""
    terms = residual_fn(problem)
    return terms, lambda u: 0.5 * terms(u)[0]


def _central(fn, u: float, h: float, at_u: float | None = None):
    """The central first difference (fn(u + h) - fn(u - h)) / 2h, of an
    array or a float fn alike, or given at_u = fn(u) the central second
    difference (fn(u + h) - 2 at_u + fn(u - h)) / h^2."""
    if not (h > 0.0):
        raise InvalidInputError(f"finite-difference step must be positive, got {h}")
    if at_u is None:
        return (fn(u + h) - fn(u - h)) / (2.0 * h)
    return (fn(u + h) - 2.0 * at_u + fn(u - h)) / (h * h)


def jacobian_fd(fn, u: float, h: float) -> np.ndarray:
    """Central-difference Jacobian dF/du of the residual fn: u -> F, such
    as lambda x: evaluate(p, x)[0], with step h; the verification oracle
    for the analytic Jacobian."""
    return _central(fn, u, h)


def ggn_split(p: DceeProblem, u: float) -> HessianSplit:
    """Split the exact (finite-difference, step fd_hessian_step) curvature
    of the solve callback's 0.5 F'F into its J'J and the rest.  Infeasible
    stencil points propagate as InfeasibleCandidateError."""
    u = float(u)
    terms, L = _half_objective(p)
    d0, _, b = terms(u)
    h_exact = _central(L, u, fd_hessian_step(p.vehicle, u), 0.5 * d0)
    return HessianSplit(b_ggn=b, e_ggn=h_exact - b, h_exact=h_exact)


def contraction_rate(split: HessianSplit) -> float:
    """|E| / B, the smallest alpha with -alpha*B <= E <= alpha*B.

    Below one, the full-step iteration contracts locally.  Requires B > 0.
    """
    if not (split.b_ggn > 0.0):
        raise RateUndefinedError("curvature J'J is not positive")
    return abs(split.e_ggn) / split.b_ggn


@dataclass
class AuditReport:
    """Worst-case relative errors over the sampled instances."""

    samples: int
    skipped: int
    max_jacobian_rel_err: float
    max_gradient_rel_err: float
    max_decomposition_abs_err: float
    elapsed_s: float

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def passed(self) -> bool:
        return (
            self.max_jacobian_rel_err < 1e-6
            and self.max_gradient_rel_err < 1e-6
            and self.max_decomposition_abs_err < 1e-10
        )


def fd_step(vehicle: VehicleParams, u: float) -> float:
    """Scale-aware first-derivative step: 1e-6 of (input range + |u|).

    The input is in newtons with a range of thousands while the residual's
    input sensitivity is of order dt/mass; a step tied to 1 N would leave
    central differences rounding-dominated near u = 0.
    """
    return 1e-6 * ((vehicle.u_max - vehicle.u_min) + abs(u))


def fd_hessian_step(vehicle: VehicleParams, u: float) -> float:
    """Scale-aware second-derivative step: 100 fd_step, 1e-4 of (input
    range + |u|).

    A second difference of the half objective L divides rounding of L by
    the squared step, so it needs a coarser step than a first difference;
    at the default run's first step a 1e-4 N step leaves the difference
    curvature about 640 times J'J, rounding alone.
    """
    return 100.0 * fd_step(vehicle, u)


def fd_hessian_newton(problem: DceeProblem):
    """bench's reference: the solve callback, built from a DceeProblem as
    residual_fn builds the analytic one, of a damped Newton method:
    (F'F, g, |H|), with the gradient g and curvature H of L = 0.5 F'F by
    central differences in the places of J'F and J'J; an H < 0 is used by
    magnitude, so the step still descends.  F'F is the analytic callback's
    (see _half_objective), whose J'F and J'J go unread.  Each call
    evaluates it at u, u +- fd_step and u +- fd_hessian_step.  An
    infeasible stencil point, or H = 0 where g is not, gives no step and
    raises SolverFailureError."""
    terms, L = _half_objective(problem)

    def fn(u: float):
        d0 = terms(u)[0]
        try:
            g = _central(L, u, fd_step(problem.vehicle, u))
            H = _central(L, u, fd_hessian_step(problem.vehicle, u), 0.5 * d0)
        except InfeasibleCandidateError as exc:
            raise SolverFailureError("stencil point infeasible") from exc
        if H == 0.0 and g != 0.0:
            raise SolverFailureError("newton reference has zero curvature at a slope")
        return d0, g, abs(H)

    return fn


def random_problem(rng: np.random.Generator,
                   vehicle: VehicleParams | None = None,
                   reward: QuadraticRewardSpec | None = None) -> DceeProblem:
    """Random admissible snapshot for randomized derivative checks: a bank
    of 2-12 members drawn by ensemble.draw_bank around a random peak."""
    vehicle = vehicle if vehicle is not None else VehicleParams()
    reward = reward if reward is not None else QuadraticRewardSpec()
    v = float(rng.uniform(3.0, 40.0))
    center = make_true_params(
        reward,
        w_z=float(rng.uniform(0.3, 2.0)),
        v_star=float(rng.uniform(5.0, 28.0)),
        c_r=float(rng.uniform(0.0, 2.0)),
    )
    n = int(rng.integers(2, 13))
    bank = draw_bank(reward, rng, n, center, rng.uniform(0.05, 0.4, size=3), 0.05, 0.5)
    return DceeProblem(vehicle=vehicle, reward=reward, ensemble=bank, v=v)


def random_input(rng: np.random.Generator, vehicle: VehicleParams) -> float:
    return float(rng.uniform(vehicle.u_min, vehicle.u_max))


def _audit_instance(rng: np.random.Generator, vehicle: VehicleParams,
                    reward: QuadraticRewardSpec, k: int):
    """The k-th audit instance, cycling through the edges the solver can
    reach: the speed is a cruising one or a standstill one (v in [0, 0.5],
    where low inputs clamp the predicted speed to 0), and the input is
    interior or at a bound."""
    prob = random_problem(rng, vehicle=vehicle, reward=reward)
    if k % 2:
        prob = prob._replace(v=float(rng.uniform(0.0, 0.5)))
    veh = prob.vehicle
    if k % 4 >= 2:
        u = veh.u_max if rng.random() < 0.5 else veh.u_min
    else:
        u = random_input(rng, veh)
    return prob, u


def derivative_audit(vehicle: VehicleParams, reward: QuadraticRewardSpec,
                     samples: int, seed: int) -> AuditReport:
    """Randomized check of the analytic Jacobian of evaluate, the solve
    callback's gradient identity grad(0.5 F'F) = J'F, and the
    exploitation/exploration decomposition of its F'F, on random problems
    with the given vehicle and reward.

    Three in four instances sit at an edge: a standstill speed, an input at
    a bound, or both (see _audit_instance).  Instances that hit the
    infeasible region (at the point or on the finite-difference stencil),
    or whose stencil straddles standstill_input, where the residual has a
    kink, are skipped and counted, not failed.
    """
    if not integer_at_least(samples, 1):
        raise InvalidInputError(f"samples must be a positive integer, got {samples!r}")
    if not integer_at_least(seed, 0):
        raise InvalidInputError(f"seed must be a nonnegative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    max_jac = 0.0
    max_grad = 0.0
    max_split = 0.0
    skipped = 0
    for k in range(samples):
        prob, u = _audit_instance(rng, vehicle, reward, k)
        h = fd_step(prob.vehicle, u)
        if u - h < standstill_input(prob.vehicle, prob.v) < u + h:
            skipped += 1
            continue
        try:
            _, J = evaluate(prob, u)
            J_fd = jacobian_fd(lambda x: evaluate(prob, x)[0], u, h)
            terms, L = _half_objective(prob)
            d, g, _ = terms(u)
            g_fd = _central(L, u, h)
            exploit, explore = objective_split(prob, u)
        except InfeasibleCandidateError:
            skipped += 1
            continue
        jac_scale = max(np.abs(J).max(), 1e-300)
        max_jac = max(max_jac, float(np.abs(J_fd - J).max() / jac_scale))
        g_scale = max(abs(g), abs(g_fd), 1e-10)
        max_grad = max(max_grad, abs(g_fd - g) / g_scale)
        max_split = max(max_split, abs(d - (exploit + explore)))
    return AuditReport(
        samples=samples,
        skipped=skipped,
        max_jacobian_rel_err=max_jac,
        max_gradient_rel_err=max_grad,
        max_decomposition_abs_err=max_split,
        elapsed_s=time.perf_counter() - t0,
    )
