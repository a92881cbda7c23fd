"""Damped Gauss-Newton inner loop on the linearized residual.

Each iteration linearizes only the residual map and solves the resulting
convex least-squares subproblem; with a squared-norm outer loss that
subproblem *is* the Gauss-Newton step, so the curvature matrix J'J is
positive semidefinite and only first derivatives are ever needed.

The input is a scalar, so ``solve`` forms the normal equation inline on
plain floats.  Two step computations for any number of inputs are kept as a
cross-checked pair:

* ``gn_step``    solves the damped normal equations by Cholesky
                 (quadratic-model view);
* ``scp_step``   minimizes ||F + J du||^2 (+ damping) by orthogonal
                 factorization of the stacked system (linearized-residual
                 view, an independent cross-check).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DceeProblem, residual_fn, standstill_input
from .errors import (
    InfeasibleCandidateError,
    InvalidInputError,
    RankDeficiencyError,
    SolverFailureError,
)

# Relative slack when judging whether a trial step decreased the objective;
# guards against rejecting genuinely converged steps on rounding noise.
_ACCEPT_RTOL = 1e-12
_ACCEPT_ATOL = 1e-15

_MAX_ESCALATIONS = 5


@dataclass(frozen=True)
class GnConfig:
    """Inner-loop settings.

    damping is a dimensionless Levenberg factor relative to the curvature:
    the step is -(J'F) / (J'J (1 + damping)), so it means the same whatever
    the units of the input.  When a step is rejected (infeasible trial point
    or objective increase) it escalates to max(10 damping, 1), and the five
    retries shorten the step by about 1e4.  A solve ends as converged when
    the stopping measure meets tol or when an accepted step leaves the
    objective unchanged or higher, i.e. at the rounding floor.
    """

    max_iters: int = 10
    tol: float = 1e-6
    damping: float = 1e-8
    u_min: float = -5000.0
    u_max: float = 5000.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (self.tol > 0.0):
            raise ValueError("tol must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be nonnegative")


@dataclass
class GnReport:
    """Per-solve trace: one entry of step_norms per accepted step, one entry
    of objective_trace per iterate (including the initial point)."""

    iterations: int = 0
    step_norms: list = field(default_factory=list)
    objective_trace: list = field(default_factory=list)
    stop_measure: float = math.inf
    converged: bool = False
    solve_time_ns: int = 0
    fallback: bool = False
    damping_escalations: int = 0


@dataclass
class SolverHealth:
    """Running counts over the solves of one run; histogram[k] is the number
    of solves that took k iterations."""

    solves: int = 0
    converged: int = 0
    escalations: int = 0
    fallbacks: int = 0
    histogram: list = field(default_factory=list)

    def add(self, report: GnReport) -> None:
        self.solves += 1
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
            "escalations": self.escalations,
            "fallbacks": self.fallbacks,
        }


def gn_step(F, J, damping: float) -> np.ndarray:
    """Solve (J'J + damping*I) du = -J'F by Cholesky factorization.

    For damping = 0 and full-rank J this is the exact minimizer of
    ||F + J du||^2.  A singular system (possible only at zero damping)
    raises RankDeficiencyError so the caller can retry damped.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    F = np.asarray(F, dtype=float).ravel()
    n = J.shape[1]
    A = J.T @ J + damping * np.eye(n)
    b = -(J.T @ F)
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError("normal equations singular at the given damping") from exc
    return np.linalg.solve(L.T, np.linalg.solve(L, b))


def scp_step(F, J, damping: float) -> np.ndarray:
    """Minimize ||F + J du||^2 + damping ||du||^2 via least squares on the
    stacked system; independent of the normal-equations path."""
    J = np.atleast_2d(np.asarray(J, dtype=float))
    F = np.asarray(F, dtype=float).ravel()
    n = J.shape[1]
    if damping > 0.0:
        A = np.vstack([J, math.sqrt(damping) * np.eye(n)])
        b = np.concatenate([-F, np.zeros(n)])
    else:
        A, b = J, -F
    sol, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def solve(fun, u_init, cfg: GnConfig):
    """Run the damped Gauss-Newton iteration from a one-element u_init.

    fun maps a one-element input sequence to (residual, jacobian of shape
    (m, 1)) and may raise InfeasibleCandidateError.  The step is
    -(J'F) / (J'J (1 + damping)) with the damping relative to J'J (see
    GnConfig); where J'J = 0 the gradient vanishes too and the step is zero.
    Iterates are clamped to the input box after each step; the stopping
    measure is |du| / (1 + |u|) evaluated with the effective (post-clamp)
    step, so saturation at a bound terminates.  An accepted step that leaves
    the objective unchanged or higher also ends the solve as converged: the
    iterate sits at the rounding floor, and further steps only cycle there.

    Returns (u as a shape-(1,) array, report).  Raises SolverFailureError
    (carrying the partial report) when no acceptable step exists after
    damping escalation.
    """
    t0 = time.perf_counter_ns()
    u_arr = np.asarray(u_init, dtype=float).ravel()
    if u_arr.size != 1:
        raise InvalidInputError(f"solve takes a one-element input, got {u_arr.size} elements")
    u_min, u_max = cfg.u_min, cfg.u_max
    u = min(max(float(u_arr[0]), u_min), u_max)
    report = GnReport()
    try:
        F, J = fun((u,))
    except InfeasibleCandidateError as exc:
        report.solve_time_ns = time.perf_counter_ns() - t0
        raise SolverFailureError("initial point infeasible", report) from exc
    obj = float(F @ F)
    report.objective_trace.append(obj)

    for _ in range(cfg.max_iters):
        col = J[:, 0]
        jtj = float(col @ col)
        jtf = float(col @ F)
        lam = cfg.damping
        accepted = False
        for _attempt in range(_MAX_ESCALATIONS + 1):
            du = -jtf / (jtj * (1.0 + lam)) if jtj > 0.0 else 0.0
            u_new = min(max(u + du, u_min), u_max)
            try:
                F_new, J_new = fun((u_new,))
            except InfeasibleCandidateError:
                pass
            else:
                obj_new = float(F_new @ F_new)
                if obj_new <= obj * (1.0 + _ACCEPT_RTOL) + _ACCEPT_ATOL:
                    accepted = True
                    break
            lam = max(10.0 * lam, 1.0)
            report.damping_escalations += 1
        if not accepted:
            report.solve_time_ns = time.perf_counter_ns() - t0
            raise SolverFailureError(
                "no acceptable step after damping escalation", report
            )

        step_norm = abs(u_new - u)
        report.iterations += 1
        report.step_norms.append(step_norm)
        report.stop_measure = step_norm / (1.0 + abs(u))
        stalled = obj_new >= obj
        u, F, J, obj = u_new, F_new, J_new, obj_new
        report.objective_trace.append(obj)
        if report.stop_measure <= cfg.tol or stalled:
            report.converged = True
            break

    report.solve_time_ns = time.perf_counter_ns() - t0
    return np.array([u]), report


def controller_step(p: DceeProblem, u_prev: float, cfg: GnConfig):
    """One control-step solve, warm-started at the previously applied input.

    A warm start below standstill_input is lifted to it: every smaller input
    predicts speed 0 and gives the same residual with a zero Jacobian, so a
    solve started there could never move.

    Never raises: a solver failure falls back to holding u_prev and the
    report is flagged, preserving the real-time contract.
    """
    u_start = max(float(u_prev), standstill_input(p.vehicle, p.v))
    try:
        u_vec, report = solve(residual_fn(p), [u_start], cfg)
        return float(u_vec[0]), report
    except SolverFailureError as exc:
        report = exc.report if exc.report is not None else GnReport()
        report.fallback = True
        u_held = min(max(float(u_prev), cfg.u_min), cfg.u_max)
        return u_held, report
