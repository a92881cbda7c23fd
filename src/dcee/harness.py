"""Closed-loop experiment runner, metrics, CSV/JSON export, and the solver
timing benchmark.

Both the runner and the benchmark step the loop through one driver,
_drive.  Step ordering within one control period: measure output and reward
at the current state, learn (measured ensemble update), select the input
from the updated belief (warm-started at the previous input), apply it,
advance the plant.  The measurement at t = 0 therefore seeds the belief
before the first input is chosen.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .baselines import esc_init, esc_step, grad_dcee_step
from .config import ScenarioConfig
from .core import (DceeProblem, _as_residual_only, jacobian_fd, objective, objective_split,
                   residual_fn)
from .diagnostics import fd_step
from .ensemble import condition_stats, init_ensemble, measured_update
from .errors import InfeasibleCandidateError, InvalidInputError, SolverFailureError
from .plant import active_segment, measure, plant_step
from .reward import optimal_condition
from .solver import GnConfig, SolverHealth, controller_step, solve

# compute_metrics' e_v_tail averages |v - v*| over this many seconds at the
# end of the run: unlike e_v, one sample, it does not hinge on the last step
TAIL_WINDOW_S = 30.0


@dataclass(frozen=True)
class StepRecord:
    t: float
    v: float
    u: float
    v_star_true: float
    gamma_mean_est: float
    exploit: float
    explore: float
    reward_meas: float
    iterations: int


CSV_COLUMNS = tuple(f.name for f in fields(StepRecord))
CSV_HEADER = ",".join(CSV_COLUMNS)


@dataclass
class RunResult:
    records: list
    metrics: dict
    timing: dict
    config: dict
    final_problem: DceeProblem = field(repr=False, default=None)
    final_u: float = 0.0
    # counts over the GN solves; empty for the baseline controllers
    solver: SolverHealth = field(default_factory=SolverHealth)


def _timing_summary(times_ns) -> dict:
    arr = np.asarray(times_ns, dtype=float)
    if arr.size == 0:
        return {"mean_ns": 0.0, "max_ns": 0.0, "p99_ns": 0.0}
    return {
        "mean_ns": float(arr.mean()),
        "max_ns": float(arr.max()),
        "p99_ns": float(np.percentile(arr, 99)),
    }


def _timed(times: list, fn, *args):
    """fn(*args), with its wall time in ns appended to times."""
    t0 = time.perf_counter_ns()
    out = fn(*args)
    times.append(time.perf_counter_ns() - t0)
    return out


def _drive(cfg: ScenarioConfig, select):
    """Step the configured closed loop through its horizon: measure, learn,
    select, apply.

    select(k, t, seg, r_meas, problem, u_prev) returns the input to apply.
    problem carries the belief after this step's measured update, whose
    shared covariance follows the configured reward noise.  Returns the
    last problem and the last applied input.
    """
    vehicle = cfg.vehicle
    spec = cfg.reward
    ens = init_ensemble(spec, cfg.ensemble, cfg.noise.sigma_reward)
    v = cfg.v0
    u = 0.0
    problem = None
    for k in range(cfg.n_steps):
        t = k * vehicle.dt
        seg = active_segment(cfg.schedule, t)
        y, r_meas = measure(spec, v, seg, cfg.noise, k)
        ens = measured_update(ens, spec, y, r_meas)
        problem = DceeProblem(vehicle=vehicle, reward=spec, ensemble=ens, v=v)
        u = select(k, t, seg, r_meas, problem, u)
        v = plant_step(vehicle, v, u, seg)
    return problem, u


def run_closed_loop(cfg: ScenarioConfig) -> RunResult:
    """Simulate the configured controller against the scheduled environment.

    Deterministic given the config: the measurement noise is a pure function
    of (seed, step) and the ensemble draw of its own seed.  Wall-clock
    selection times go into the timing summary only, so that exported
    trajectories are byte-reproducible.
    """
    vehicle = cfg.vehicle
    spec = cfg.reward
    ctype = cfg.controller.type
    esc_state = esc_init(cfg.v0) if ctype == "esc" else None
    records = []
    wall_times = []
    health = SolverHealth()

    def select(k, t, seg, r_meas, problem, u_prev):
        nonlocal esc_state
        gamma_mean = condition_stats(problem.ensemble, spec)
        # each controller is looked up as a module global at every call, so a
        # wrapper set on this module sees each selection
        if ctype == "numerical_dcee":
            u, report = _timed(wall_times, controller_step, problem, u_prev, cfg.controller.solver)
            health.add(report)
            iterations = report.iterations
        elif ctype == "grad_dcee":
            u = _timed(wall_times, grad_dcee_step, problem, u_prev, cfg.controller.grad)
            iterations = 1
        else:
            u, esc_state = _timed(wall_times, esc_step, esc_state, cfg.controller.esc, r_meas,
                                  problem.v, vehicle, vehicle.dt)
            iterations = 0

        try:
            exploit, explore = objective_split(problem, u)
        except InfeasibleCandidateError:
            exploit, explore = math.nan, math.nan

        records.append(
            StepRecord(
                t=t,
                v=problem.v,
                u=u,
                v_star_true=optimal_condition(spec, seg.theta_true),
                gamma_mean_est=gamma_mean,
                exploit=exploit,
                explore=explore,
                reward_meas=r_meas,
                iterations=iterations,
            )
        )
        return u

    problem, u = _drive(cfg, select)
    metrics = compute_metrics(records, cfg.schedule, spec)
    return RunResult(
        records=records,
        metrics=metrics,
        timing=_timing_summary(wall_times),
        config=cfg.raw,
        final_problem=problem,
        final_u=u,
        solver=health,
    )


def compute_metrics(records, schedule, spec) -> dict:
    """Terminal speed error e_v, its mean e_v_tail over the last
    TAIL_WINDOW_S seconds of record time (all records if they span less),
    accumulated absolute speed error, and cumulative regret against the true
    per-segment parameters, each a float.

    A segment's optimal speed is computed again only when the segment
    changes from one record to the next.
    """
    if not records:
        raise InvalidInputError("cannot compute metrics of an empty record list")
    t_tail = records[-1].t - TAIL_WINDOW_S
    iae = 0.0
    regret = 0.0
    tail = 0.0
    n_tail = 0
    active = None
    for rec in records:
        seg = active_segment(schedule, rec.t)
        if seg is not active:
            active = seg
            v_star = optimal_condition(spec, seg.theta_true)
            zs = v_star / spec.v_scale
            t0 = float(seg.theta_true[0])
        e_v = abs(rec.v - v_star)  # the terminal error once the loop ends
        iae += e_v
        if rec.t > t_tail:
            tail += e_v
            n_tail += 1
        z = rec.v / spec.v_scale
        # R(theta*, v*) - R(theta*, v) = -theta0 * (z - z*)^2 for the peak form
        regret += -t0 * (z - zs) ** 2
    # record times are finite, so the last record is in the window: n_tail >= 1
    e_v_tail = tail / n_tail
    return {"e_v": e_v, "e_v_tail": e_v_tail, "iae_v": iae, "regret": regret}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def export(result: RunResult, path, fmt: str):
    """Write a RunResult to disk.

    csv: one row per record with the exact column set CSV_COLUMNS.
    json: metrics, timing summary, solver health counts, and the full
    config echo (no records).
    """
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not result.records:
        raise InvalidInputError("refusing to export an empty RunResult")
    path = str(path)
    try:
        if fmt == "csv":
            lines = [CSV_HEADER]
            for r in result.records:
                cells = [_fmt(getattr(r, name)) for name in CSV_COLUMNS[:-1]]
                lines.append(",".join(cells + [str(r.iterations)]))
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            payload = {
                "config": result.config,
                "metrics": result.metrics,
                "timing": result.timing,
                "solver": result.solver.as_dict(),
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {fmt} export to {path}: {exc}") from exc
    return path


def parse_csv(path) -> list:
    """Read back an exported CSV into StepRecord values."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidInputError(f"{path} does not start with the expected header")
    records = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise InvalidInputError(f"malformed CSV row: {ln!r}")
        records.append(StepRecord(*map(float, parts[:-1]), iterations=int(parts[-1])))
    return records


def _fd_jacobian_fn(problem: DceeProblem):
    """Residual/Jacobian callback with the Jacobian by central differences,
    on a residual prepared once, as residual_fn prepares it."""
    residual = _as_residual_only(problem)

    def fn(u: float):
        return residual(u), jacobian_fd(residual, u, fd_step(problem.vehicle, u))

    return fn


def _newton_fd_solve(problem: DceeProblem, u_init: float, cfg: GnConfig):
    """Damped Newton reference with gradient and Hessian from central
    differences of the half objective; scalar input only.  The damping is
    relative to the curvature and escalates as in solve, and each iterate is
    judged by its own next step as in solve, so both take like steps and
    stop alike.  A zero difference curvature where the gradient is nonzero
    gives no step to take and counts as a failure.  Returns u or raises
    SolverFailureError.  The residual is prepared once per solve, as
    controller_step prepares it."""
    residual = _as_residual_only(problem)

    def L(u):
        f = residual(u)
        return 0.5 * float(f @ f)

    def step(u, g, H, lam):
        # a negative difference curvature is used by magnitude, so the step
        # still descends; a flat objective gives a zero step
        denom = abs(H) * (1.0 + lam)
        du = -g / denom if denom > 0.0 else 0.0
        return min(max(u + du, cfg.u_min), cfg.u_max)

    u = min(max(float(u_init), cfg.u_min), cfg.u_max)
    try:
        val = L(u)
    except InfeasibleCandidateError as exc:
        raise SolverFailureError("initial point infeasible") from exc
    for _ in range(cfg.max_iters):
        hg = fd_step(problem.vehicle, u)
        hh = 1e-4 * (1.0 + abs(u))
        try:
            lp, lm = L(u + hg), L(u - hg)
            hp, hm = L(u + hh), L(u - hh)
        except InfeasibleCandidateError as exc:
            raise SolverFailureError("stencil point infeasible") from exc
        g = (lp - lm) / (2.0 * hg)
        H = (hp - 2.0 * val + hm) / (hh * hh)
        if H == 0.0 and g != 0.0:
            raise SolverFailureError("newton reference has zero curvature at a slope")
        lam = cfg.damping
        u_new = step(u, g, H, lam)
        if abs(u_new - u) <= cfg.tol * (1.0 + abs(u)):
            break
        for _attempt in range(6):
            try:
                val_new = L(u_new)
            except InfeasibleCandidateError:
                pass
            else:
                if val_new <= val * (1.0 + 1e-12) + 1e-15:
                    break
            lam = max(10.0 * lam, 1.0)
            u_new = step(u, g, H, lam)
        else:
            raise SolverFailureError("newton reference found no acceptable step")
        u, val = u_new, val_new
    return u


def bench_solver(cfg: ScenarioConfig, agreement_stride: int = 10) -> dict:
    """Time the production solver against two internal references on the
    identical per-step problems of the closed loop.

    The loop itself is always driven by the production (analytic-Jacobian)
    controller; the references solve each snapshot from the same warm start
    with the same settings.  Each is timed around its call, so the analytic
    time includes controller_step's preparation; the analytic solves are
    also timed on the thread's CPU clock, which a descheduled process does
    not advance, and its p99 and max go into their timing entry as
    cpu_p99_ns and cpu_max_ns.  Every agreement_stride
    steps all three are also re-solved to convergence (60 iterations at
    most) and the relative spread of the reached objectives is tracked.
    The health counts of the production solves are reported under "solver".
    """
    gncfg = cfg.controller.solver
    ref_cfg = replace(gncfg, max_iters=60)
    times = {"analytic_gn": [], "fd_jacobian_gn": [], "fd_hessian_newton": []}
    cpu_times = []
    health = SolverHealth()
    agreement_max_rel = 0.0
    agreement_checks = 0
    reference_failures = 0

    def select(k, t, seg, r_meas, problem, u_prev):
        nonlocal agreement_max_rel, agreement_checks, reference_failures
        cpu0 = time.thread_time_ns()
        u, report = _timed(times["analytic_gn"], controller_step, problem, u_prev, gncfg)
        cpu_times.append(time.thread_time_ns() - cpu0)
        health.add(report)

        try:
            # the callback is built inside the timed call, so its preparation
            # counts as controller_step's does
            _timed(times["fd_jacobian_gn"],
                   lambda: solve(_fd_jacobian_fn(problem), u_prev, gncfg))
        except SolverFailureError:
            reference_failures += 1
        try:
            _timed(times["fd_hessian_newton"], _newton_fd_solve, problem, u_prev, gncfg)
        except SolverFailureError:
            reference_failures += 1

        if k % agreement_stride == 0:
            try:
                u_a, _ = solve(residual_fn(problem), u_prev, ref_cfg)
                u_b, _ = solve(_fd_jacobian_fn(problem), u_prev, ref_cfg)
                u_c = _newton_fd_solve(problem, u_prev, ref_cfg)
                objs = [objective(problem, uu) for uu in (u_a, u_b, u_c)]
                spread_rel = (max(objs) - min(objs)) / max(max(abs(o) for o in objs), 1e-300)
                agreement_max_rel = max(agreement_max_rel, spread_rel)
                agreement_checks += 1
            except SolverFailureError:
                reference_failures += 1
        return u

    _drive(cfg, select)
    summary = {name: _timing_summary(vals) for name, vals in times.items()}
    cpu = _timing_summary(cpu_times)
    summary["analytic_gn"].update(cpu_p99_ns=cpu["p99_ns"], cpu_max_ns=cpu["max_ns"])
    mean_gn = summary["analytic_gn"]["mean_ns"]
    speedup = {
        name: (summary[name]["mean_ns"] / mean_gn if mean_gn > 0 else math.inf)
        for name in ("fd_jacobian_gn", "fd_hessian_newton")
    }
    return {
        "timing": summary,
        "speedup_vs_analytic": speedup,
        "agreement_max_rel": agreement_max_rel,
        "agreement_checks": agreement_checks,
        "reference_failures": reference_failures,
        "solver": health.as_dict(),
    }
