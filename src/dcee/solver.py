"""Damped Gauss-Newton inner loop on the linearized residual.

Each iteration linearizes only the residual map and solves the resulting
convex least-squares subproblem; with a squared-norm outer loss that
subproblem *is* the Gauss-Newton step, so the curvature J'J is nonnegative
and only first derivatives are ever needed.

The input is a scalar, so J is a vector, J'J a number, and the step one
division: ``gn_step``.  A step and its accept test then need only three
numbers, F'F, J'F and J'J, so the solve callback returns those rather
than F and J; ``gn_terms`` makes them from arrays.  ``scp_step`` computes
the same step by least squares on the stacked linearized residual, an
independent cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DceeProblem, residual_fn, warm_start
from .errors import (ConfigurationError, InfeasibleCandidateError, SolverFailureError, integer_at_least,
                     reject_bools)

# Relative slack when judging whether a trial step decreased the objective;
# guards against rejecting genuinely converged steps on rounding noise.
_ACCEPT_RTOL = 1e-12
_ACCEPT_ATOL = 1e-15

_MAX_ESCALATIONS = 5

# points of the grid over the input box that an infeasible start is replaced
# from; the box is 10 kN wide by default, so they lie about 312 N apart
_START_GRID_POINTS = 33


@dataclass(frozen=True)
class GnConfig:
    """Inner-loop settings.

    damping is a dimensionless Levenberg factor relative to the curvature:
    the step is -(J'F) / (J'J (1 + damping)), so it means the same whatever
    the units of the input.  When a step is rejected (infeasible trial point
    or objective increase) it escalates to max(10 damping, 1), and the five
    retries shorten the step by about 1e4.  A solve ends as converged at an
    iterate u whose own next step du, clamped to the box, meets
    |du| <= tol (1 + |u|), before evaluating it, or when an accepted step
    leaves the objective unchanged or higher, i.e. at the rounding floor.
    max_iters, an integer, bounds the accepted steps.  The box needs
    finite u_min < u_max.
    """

    max_iters: int = 10
    tol: float = 1e-6
    damping: float = 1e-8
    u_min: float = -5000.0
    u_max: float = 5000.0

    def __post_init__(self):
        reject_bools(self)
        if not integer_at_least(self.max_iters, 1):
            raise ConfigurationError("solver max_iters must be an integer of at least 1")
        if not (-math.inf < self.u_min < self.u_max < math.inf):
            raise ConfigurationError(
                f"solver box needs finite u_min < u_max, got [{self.u_min}, {self.u_max}]")
        if not (0.0 < self.tol < math.inf):
            raise ConfigurationError("solver tol must be positive and finite")
        if not (0.0 <= self.damping < math.inf):
            raise ConfigurationError("solver damping must be nonnegative and finite")


@dataclass(slots=True)
class GnReport:
    """Per-solve counts: iterations, the accepted steps, and evaluations,
    the callback's calls, those of the grid start included."""

    iterations: int = 0
    evaluations: int = 0
    converged: bool = False
    fallback: bool = False
    damping_escalations: int = 0


@dataclass(slots=True)
class SolverHealth:
    """Running counts over the solves of one run; histogram[k] is the number
    of solves that took k iterations and evaluations sums the solves'
    callback calls."""

    solves: int = 0
    evaluations: int = 0
    converged: int = 0
    escalations: int = 0
    fallbacks: int = 0
    histogram: list = field(default_factory=list)

    def add(self, report: GnReport) -> None:
        self.solves += 1
        self.evaluations += report.evaluations
        self.converged += report.converged
        self.escalations += report.damping_escalations
        self.fallbacks += report.fallback
        k = report.iterations
        if k >= len(self.histogram):
            self.histogram.extend([0] * (k + 1 - len(self.histogram)))
        self.histogram[k] += 1

    def as_dict(self) -> dict:
        return {
            "solves": self.solves,
            "converged": self.converged,
            "converged_frac": self.converged / self.solves if self.solves else None,
            "iteration_histogram": list(self.histogram),
            "evaluations": self.evaluations,
            "escalations": self.escalations,
            "fallbacks": self.fallbacks,
        }


def gn_step(jtf: float, jtj: float, damping: float) -> float:
    """The damped Gauss-Newton step -(J'F) / (J'J (1 + damping)).

    damping is relative to the curvature J'J (see GnConfig).  J'J = 0 means
    J = 0, so the gradient J'F vanishes too and the step is 0.
    """
    return -jtf / (jtj * (1.0 + damping)) if jtj > 0.0 else 0.0


def scp_step(F, J, damping: float) -> float:
    """Minimize ||F + J du||^2 + damping du^2 by least squares on the stacked
    system [J; sqrt(damping)] du = [-F; 0].

    damping is absolute here: gn_step's relative damping lam corresponds to
    lam * J'J.  Independent of gn_step's normal-equation formula.
    """
    A = np.append(np.asarray(J, dtype=float), math.sqrt(damping))[:, None]
    b = np.append(-np.asarray(F, dtype=float), 0.0)
    sol, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return float(sol[0])


def gn_terms(F, J) -> tuple:
    """(F'F, J'F, J'J) of a residual F and Jacobian J given as arrays:
    what a solve callback returns (see solve)."""
    F = np.asarray(F, dtype=float)
    J = np.asarray(J, dtype=float)
    return float(F @ F), float(J @ F), float(J @ J)


def _feasible_start(fun, cfg: GnConfig):
    """(u, terms) at the point of least F'F among the feasible points of a
    coarse grid of _START_GRID_POINTS over the input box, or None when none
    is feasible; every point is evaluated."""
    best = None
    for u in np.linspace(cfg.u_min, cfg.u_max, _START_GRID_POINTS).tolist():
        try:
            terms = fun(u)
        except InfeasibleCandidateError:
            continue
        if best is None or terms[0] < best[1][0]:
            best = (u, terms)
    return best


def solve(fun, u_init: float, cfg: GnConfig):
    """Run the damped Gauss-Newton iteration from u_init.

    fun maps an input u to the three floats (F'F, J'F, J'J) of the residual
    F and its Jacobian J = dF/du there (residual_fn's callback, or gn_terms
    of arrays), and may raise InfeasibleCandidateError.  With one input they
    are all a step and its accept test need: F'F is the objective, and J'F
    and J'J give the step.  An infeasible u_init is replaced by the feasible
    point of least objective on a coarse grid over the input box.  Each
    trial step is gn_step's, and iterates are clamped to the input box.

    Every iterate, the start included, is judged by its own next step: when
    |clamp(u + gn_step(J'F, J'J, damping)) - u| <= tol (1 + |u|), computed
    from the terms already in hand, the solve returns u as converged
    without evaluating that step, so saturation at a bound also terminates.
    An accepted step that leaves the objective unchanged or higher also ends
    the solve as converged: the iterate sits at the rounding floor, and
    further steps only cycle there.  After max_iters accepted steps the last
    iterate is judged once more and returned either way.  So a solve makes
    at most 1 + _START_GRID_POINTS + max_iters * (_MAX_ESCALATIONS + 1)
    callback evaluations, 94 at the defaults.  A solve is deterministic, so
    one stopped at max_iters = m returns the m-th iterate of a longer one.

    Returns (u, report).  Raises SolverFailureError (carrying the partial
    report) when no start is feasible or no acceptable step exists after
    damping escalation.
    """
    u_min, u_max = cfg.u_min, cfg.u_max
    u = min(max(float(u_init), u_min), u_max)
    evaluations = 1
    iterations = escalations = 0
    try:
        obj, jtf, jtj = fun(u)
    except InfeasibleCandidateError as exc:
        evaluations += _START_GRID_POINTS
        start = _feasible_start(fun, cfg)
        if start is None:
            raise SolverFailureError("initial point infeasible", GnReport(evaluations=evaluations)) from exc
        u, (obj, jtf, jtj) = start

    converged = False
    while True:
        lam = cfg.damping
        u_new = min(max(u + gn_step(jtf, jtj, lam), u_min), u_max)
        if abs(u_new - u) <= cfg.tol * (1.0 + abs(u)):
            converged = True
            break
        if iterations == cfg.max_iters:
            break
        for _attempt in range(_MAX_ESCALATIONS + 1):
            evaluations += 1
            try:
                terms = fun(u_new)
            except InfeasibleCandidateError:
                pass
            else:
                if terms[0] <= obj * (1.0 + _ACCEPT_RTOL) + _ACCEPT_ATOL:
                    break
            lam = max(10.0 * lam, 1.0)
            escalations += 1
            u_new = min(max(u + gn_step(jtf, jtj, lam), u_min), u_max)
        else:
            raise SolverFailureError(
                "no acceptable step after damping escalation",
                GnReport(iterations=iterations, evaluations=evaluations, damping_escalations=escalations))

        iterations += 1
        stalled = terms[0] >= obj
        u = u_new
        obj, jtf, jtj = terms
        if stalled:
            converged = True
            break

    # positional: keywords cost a dataclass __init__ about 0.5 us more
    return u, GnReport(iterations, evaluations, converged, False, escalations)


def controller_step(p: DceeProblem, u_prev: float, cfg: GnConfig):
    """One control-step solve from warm_start(p, u_prev), the previously
    applied input lifted out of standstill and clamped to the box.

    Never raises: a solver failure falls back to holding that start, and
    the report is flagged, preserving the real-time contract.
    """
    u_start = warm_start(p, u_prev)
    try:
        return solve(residual_fn(p), u_start, cfg)
    except SolverFailureError as exc:
        report = exc.report or GnReport()
    report.fallback = True
    return u_start, report
