"""Damped Gauss-Newton inner loop on the linearized residual.

Each iteration linearizes only the residual map and solves the resulting
convex least-squares subproblem; with a squared-norm outer loss that
subproblem *is* the Gauss-Newton step, so the curvature matrix J'J is
positive semidefinite and only first derivatives are ever needed.

Two equivalent step computations are provided:

* ``gn_step``    solves the damped normal equations by Cholesky
                 (production path, quadratic-model view);
* ``scp_step``   minimizes ||F + J du||^2 (+ damping) by orthogonal
                 factorization of the stacked system (linearized-residual
                 view, kept as an independent cross-check).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import DceeProblem, residual_fn
from .errors import InfeasibleCandidateError, RankDeficiencyError, SolverFailureError

# Relative slack when judging whether a trial step decreased the objective;
# guards against rejecting genuinely converged steps on rounding noise.
_ACCEPT_RTOL = 1e-12
_ACCEPT_ATOL = 1e-15

_MAX_ESCALATIONS = 5


@dataclass(frozen=True)
class GnConfig:
    """Inner-loop settings.

    damping is a Levenberg term added to J'J; the base value is tiny and is
    escalated tenfold when a step is rejected (infeasible trial point,
    singular system, or objective increase).
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


def gn_step(F, J, damping: float) -> np.ndarray:
    """Solve (J'J + damping*I) du = -J'F by Cholesky factorization.

    For damping = 0 and full-rank J this is the exact minimizer of
    ||F + J du||^2.  A singular system (possible only at zero damping)
    raises RankDeficiencyError so the caller can retry damped.
    """
    J = np.atleast_2d(np.asarray(J, dtype=float))
    F = np.asarray(F, dtype=float).ravel()
    n = J.shape[1]
    if n == 1:
        # scalar normal equation; the Cholesky solve reduces to a division
        col = J[:, 0]
        a = float(col @ col) + damping
        if a <= 0.0:
            raise RankDeficiencyError("normal equations singular at the given damping")
        return np.array([-(float(col @ F)) / a])
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
    """Run the damped Gauss-Newton iteration from u_init.

    fun maps an input vector to (residual, jacobian) and may raise
    InfeasibleCandidateError.  Iterates are clamped to the input box after
    each step; the stopping measure is ||du|| / (1 + ||u||) evaluated with
    the effective (post-clamp) step, so saturation at a bound terminates.

    Returns (u, report).  Raises SolverFailureError (carrying the partial
    report) when no acceptable step exists after damping escalation.
    """
    t0 = time.perf_counter_ns()
    u = np.clip(np.atleast_1d(np.asarray(u_init, dtype=float)), cfg.u_min, cfg.u_max)
    report = GnReport()
    try:
        F, J = fun(u)
    except InfeasibleCandidateError as exc:
        report.solve_time_ns = time.perf_counter_ns() - t0
        raise SolverFailureError("initial point infeasible", report) from exc
    obj = float(F @ F)
    report.objective_trace.append(obj)

    for _ in range(cfg.max_iters):
        lam = cfg.damping
        accepted = False
        for _attempt in range(_MAX_ESCALATIONS + 1):
            try:
                du = gn_step(F, J, lam)
                u_new = np.clip(u + du, cfg.u_min, cfg.u_max)
                F_new, J_new = fun(u_new)
                obj_new = float(F_new @ F_new)
                if obj_new <= obj * (1.0 + _ACCEPT_RTOL) + _ACCEPT_ATOL:
                    accepted = True
                    break
            except (InfeasibleCandidateError, RankDeficiencyError):
                pass
            lam = lam * 10.0 if lam > 0.0 else 1e-12
            report.damping_escalations += 1
        if not accepted:
            report.solve_time_ns = time.perf_counter_ns() - t0
            raise SolverFailureError(
                "no acceptable step after damping escalation", report
            )

        step = u_new - u
        step_norm = float(np.linalg.norm(step))
        report.iterations += 1
        report.step_norms.append(step_norm)
        report.stop_measure = step_norm / (1.0 + float(np.linalg.norm(u)))
        u, F, J, obj = u_new, F_new, J_new, obj_new
        report.objective_trace.append(obj)
        if report.stop_measure <= cfg.tol:
            report.converged = True
            break

    report.solve_time_ns = time.perf_counter_ns() - t0
    return u, report


def controller_step(p: DceeProblem, u_prev: float, cfg: GnConfig):
    """One control-step solve, warm-started at the previously applied input.

    Never raises: a solver failure falls back to holding u_prev and the
    report is flagged, preserving the real-time contract.
    """
    try:
        u_vec, report = solve(residual_fn(p), [float(u_prev)], cfg)
        return float(u_vec[0]), report
    except SolverFailureError as exc:
        report = exc.report if exc.report is not None else GnReport()
        report.fallback = True
        u_held = min(max(float(u_prev), cfg.u_min), cfg.u_max)
        return u_held, report
