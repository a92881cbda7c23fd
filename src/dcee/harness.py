"""Closed-loop experiment runner, metrics, CSV/JSON export, and the solver
timing benchmark.

Both the runner and the benchmark step the loop through one driver,
drive; the benchmark drives it twice, to time the production solves alone
and then to replay their inputs for the references.  Step ordering within
one control period: measure output and reward at the current state, learn
(measured ensemble update), select the input from the updated belief
(warm-started at the previous input), apply it, advance the plant.  The
measurement at t = 0 therefore seeds the belief before the first input is
chosen.
"""
from __future__ import annotations

import gc
import json
import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .baselines import esc_init, esc_step, grad_dcee_step
from .config import ScenarioConfig
from .core import DceeProblem, evaluate, objective, objective_split, residual_fn, warm_start
from .ensemble import condition_stats, init_ensemble, measured_update
from .errors import InfeasibleCandidateError, InvalidInputError, SolverFailureError
from .plant import active_segment, measure, plant_step, reward_noise
from .reward import optimal_condition
from .solver import SolverHealth, controller_step, gn_terms, solve

# compute_metrics' e_v_tail averages |v - v*| over this many seconds at the
# end of the run: unlike e_v, one sample, it does not hinge on the last step
TAIL_WINDOW_S = 30.0

# bench_solver's agreement and exploration checks run on every this many steps
AGREEMENT_STRIDE = 10


class StepRecord(NamedTuple):
    """One logged control step, a tuple of the CSV_COLUMNS."""

    t: float
    v: float
    u: float
    v_star_true: float
    gamma_mean_est: float
    exploit: float
    explore: float
    reward_meas: float
    iterations: int


CSV_COLUMNS = StepRecord._fields
_tuple_new = tuple.__new__
CSV_HEADER = ",".join(CSV_COLUMNS)


class RecordView(Sequence):
    """A run's StepRecords, read-only, over the two typed buffers its loop
    logs into: an array("d") of eight floats a step, in CSV_COLUMNS order,
    and an array("q") of the iteration counts.  A record is built each time
    it is read; an index may be negative or a numpy integer, and a slice
    is a list of records."""

    __slots__ = ("_rows", "_iterations")

    def __init__(self, rows: array, iterations: array):
        self._rows = rows
        self._iterations = iterations

    def __len__(self):
        return len(self._iterations)

    def __getitem__(self, index):
        k = range(len(self._iterations))[index]
        if isinstance(k, range):
            return [self[i] for i in k]
        return _tuple_new(StepRecord, (*self._rows[8 * k:8 * k + 8], self._iterations[k]))

    def __iter__(self):
        return (_tuple_new(StepRecord, row)
                for row in zip(*[iter(self._rows)] * 8, self._iterations))


@dataclass
class RunResult:
    # a RecordView from run_closed_loop
    records: Sequence
    metrics: dict
    timing: dict
    config: dict
    # counts over the GN solves; empty for the baseline controllers
    solver: SolverHealth = field(default_factory=SolverHealth)
    # the steps k, in order, at which the bank's resets count rose: the
    # change test fired in their measured update
    alarm_steps: tuple = ()

    def summary(self) -> dict:
        """The metrics, timing summary and solver health counts."""
        return {"metrics": self.metrics, "timing": self.timing, "solver": self.solver.as_dict()}


def _timing_summary(times_ns):
    """Mean, max and p99 of times_ns; None when nothing was timed."""
    arr = np.asarray(times_ns, dtype=float)
    if arr.size == 0:
        return None
    return {
        "mean_ns": float(arr.mean()),
        "max_ns": float(arr.max()),
        "p99_ns": float(np.percentile(arr, 99)),
    }


def drive(cfg: ScenarioConfig, select):
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
    # the run's noise is drawn once, before its first step
    noise = reward_noise(cfg.noise, cfg.n_steps)
    for k in range(cfg.n_steps):
        t = k * vehicle.dt
        seg = active_segment(cfg.schedule, t)
        y, r_meas = measure(spec, v, seg, noise[k])
        ens = measured_update(ens, spec, y, r_meas)
        problem = _tuple_new(DceeProblem, (vehicle, spec, ens, v))
        u = select(k, t, seg, r_meas, problem, u)
        v = plant_step(vehicle, v, u, seg)
    return problem, u


def run_closed_loop(cfg: ScenarioConfig) -> RunResult:
    """Simulate the configured controller against the scheduled environment.

    Deterministic given the config: the measurement noise is a pure function
    of (seed, step) and the ensemble draw of its own seed.  Wall-clock
    selection times go into the timing summary only, so that exported
    trajectories are byte-reproducible.

    Each step logs one row into two typed buffers, which hold no Python
    objects: its eight floats, in CSV_COLUMNS order, extend one array("d"),
    and its iteration count goes into an array("q").  The result keeps the
    buffers, 72 bytes a step, as a RecordView, which builds each StepRecord
    when it is read.  So a step keeps no object the garbage collector
    tracks, its allocation count does not climb from step to step, and once
    the interpreter is warm no collection falls inside a selection.
    """
    vehicle = cfg.vehicle
    spec = cfg.reward
    ctype = cfg.controller.type
    gn_cfg, grad_cfg, esc_cfg = cfg.controller.solver, cfg.controller.grad, cfg.controller.esc
    esc_state = esc_init(cfg.v0) if ctype == "esc" else None
    rows = array("d")
    log_row = rows.extend
    iterations_log = array("q")
    log_iterations = iterations_log.append
    wall_times = array("q")
    log_wall = wall_times.append
    clock = time.perf_counter_ns
    health = SolverHealth()
    alarms = []
    resets = 0  # a new bank has fired no alarm

    def select(k, t, seg, r_meas, problem, u_prev):
        nonlocal esc_state, resets
        bank = problem.ensemble
        if bank.resets != resets:
            resets = bank.resets
            alarms.append(k)
        gamma_mean = condition_stats(bank, spec)
        v = problem.v
        # each controller is looked up as a module global at every call, so a
        # wrapper set on this module sees each selection
        t0 = clock()
        if ctype == "numerical_dcee":
            u, report = controller_step(problem, u_prev, gn_cfg)
            log_wall(clock() - t0)
            health.add(report)
            iterations = report.iterations
        elif ctype == "grad_dcee":
            u = grad_dcee_step(problem, u_prev, grad_cfg)
            log_wall(clock() - t0)
            iterations = 1
        else:
            u, esc_state = esc_step(esc_state, esc_cfg, r_meas, v, vehicle)
            log_wall(clock() - t0)
            iterations = 0

        try:
            exploit, explore = objective_split(problem, u)
        except InfeasibleCandidateError:
            exploit, explore = math.nan, math.nan

        log_row((t, v, u, optimal_condition(spec, seg.theta_true), gamma_mean, exploit, explore,
                 r_meas))
        log_iterations(iterations)
        return u

    drive(cfg, select)
    records = RecordView(rows, iterations_log)
    metrics = compute_metrics(records, cfg.schedule, spec)
    return RunResult(
        records=records,
        metrics=metrics,
        timing=_timing_summary(wall_times),
        config=cfg.raw,
        solver=health,
        alarm_steps=tuple(alarms),
    )


def compute_metrics(records, schedule, spec) -> dict:
    """Terminal speed error e_v, its mean e_v_tail over the last
    TAIL_WINDOW_S seconds of record time (all records if they span less),
    accumulated absolute speed error, and cumulative regret against the true
    per-segment parameters, each a float.

    A segment's optimal speed is computed again only when the segment
    changes from one record to the next.  A record whose time is not
    finite raises InvalidInputError: it belongs to no segment and no
    window.
    """
    if not records:
        raise InvalidInputError("cannot compute metrics of an empty record list")
    t_tail = min(records[-1].t - TAIL_WINDOW_S, math.nextafter(records[-1].t, -math.inf))
    iae = 0.0
    regret = 0.0
    tail = 0.0
    n_tail = 0
    active = None
    for k, rec in enumerate(records):
        if not math.isfinite(rec.t):
            raise InvalidInputError(f"record {k} has a non-finite time t={rec.t}")
        seg = active_segment(schedule, rec.t)
        if seg is not active:
            active = seg
            v_star = optimal_condition(spec, seg.theta_true)
            zs = v_star / spec.v_scale
            t0 = seg.theta_true[0]
        e_v = abs(rec.v - v_star)  # the terminal error once the loop ends
        iae += e_v
        if rec.t > t_tail:
            tail += e_v
            n_tail += 1
        z = rec.v / spec.v_scale
        # R(theta*, v*) - R(theta*, v) = -theta0 * (z - z*)^2 for the peak form
        regret += -t0 * (z - zs) ** 2
    # t_tail is below the last time even where subtracting the window rounds
    # back to it, so the last record is in the window: n_tail >= 1
    e_v_tail = tail / n_tail
    return {"e_v": e_v, "e_v_tail": e_v_tail, "iae_v": iae, "regret": regret}


def _write_text(path, text: str) -> str:
    """Write text to path; an OSError raises InvalidInputError."""
    path = str(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    return path


def json_text(payload) -> str:
    """payload as JSON text: sorted keys, indent 2, a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path, payload) -> str:
    """Write json_text(payload) to path."""
    return _write_text(path, json_text(payload))


def export(result: RunResult, path, fmt: str):
    """Write a RunResult to disk.

    csv: one row per record with the exact column set CSV_COLUMNS.
    json: the summary (metrics, timing summary, solver health counts) and
    the full config echo (no records).
    """
    if fmt not in ("csv", "json"):
        raise InvalidInputError(f"format must be 'csv' or 'json', got {fmt!r}")
    if not result.records:
        raise InvalidInputError("refusing to export an empty RunResult")
    if fmt == "json":
        return write_json(path, {"config": result.config, **result.summary()})
    lines = [CSV_HEADER]
    for r in result.records:
        lines.append(",".join([f"{x:.17g}" for x in r[:-1]] + [str(r.iterations)]))
    return _write_text(path, "\n".join(lines) + "\n")


def bench_solver(cfg: ScenarioConfig) -> dict:
    """Time the production solver, and the finite-difference Newton
    reference diagnostics.fd_hessian_newton, on the identical per-step
    problems of the closed loop, in two passes of the same loop.

    Pass 1 drives the loop with controller_step alone and times each solve,
    preparation included, on the wall clock and on the thread's CPU clock,
    which a descheduled process does not advance (cpu_p99_ns, cpu_max_ns).
    A gc.callbacks hook counts, as gc_solves, the solves inside which a
    garbage collection started; cpu_max_no_gc_ns is the CPU max over the
    others (0.0 if none).  Their health counts are reported under "solver".
    Pass 2 drives the loop again with pass 1's inputs, so it rebuilds the
    same problems, and on each times solve with the reference's callback
    from controller_step's start, warm_start(problem, u_prev), with the
    same settings, on both clocks.  speedup_vs_analytic is the median, over
    the steps whose reference solve completed, of the step's thread CPU
    time of the reference over that of its analytic solve, so load on the
    host between the passes moves it little.  On every 10th step
    (AGREEMENT_STRIDE), from step 0, both are also re-solved to convergence
    (60 iterations at most) from there, and the relative spread of the
    reached objectives is tracked; so is the exploitation residual F[0]
    alone, gn_terms of evaluate's first entries, whose solution's max and
    median distance |u - u_exploit|, in N, from the full one say how far
    exploration moves the input (None without a check).  A failed reference
    or check solve counts as a reference failure; with no reference solve
    completed, its timing entry and the speedup are None.
    """
    # imported here, so a run loads no diagnostics; read at each call, so a
    # replacement set on dcee.diagnostics is the reference solved
    from .diagnostics import fd_hessian_newton

    gncfg = cfg.controller.solver
    ref_cfg = replace(gncfg, max_iters=60)
    times = {"analytic_gn": [], "fd_hessian_newton": []}
    cpu_times = []
    cpu_ratios = []
    applied = array("d")
    gc_solves = 0
    cpu_max_no_gc = 0
    gc_starts = 0
    health = SolverHealth()
    agreement_max_rel = 0.0
    agreement_checks = 0
    reference_failures = 0
    explore_shifts = []

    def select(k, t, seg, r_meas, problem, u_prev):
        nonlocal gc_solves, cpu_max_no_gc
        starts = gc_starts
        cpu0 = time.thread_time_ns()
        t0 = time.perf_counter_ns()
        u, report = controller_step(problem, u_prev, gncfg)
        times["analytic_gn"].append(time.perf_counter_ns() - t0)
        cpu = time.thread_time_ns() - cpu0
        cpu_times.append(cpu)
        if gc_starts != starts:
            gc_solves += 1
        else:
            cpu_max_no_gc = max(cpu_max_no_gc, cpu)
        health.add(report)
        applied.append(u)
        return u

    def replay(k, t, seg, r_meas, problem, u_prev):
        nonlocal agreement_max_rel, agreement_checks, reference_failures
        u_start = warm_start(problem, u_prev)
        try:
            # the callback is built inside the timed region, so its
            # preparation counts as controller_step's does
            cpu0 = time.thread_time_ns()
            t0 = time.perf_counter_ns()
            solve(fd_hessian_newton(problem), u_start, gncfg)
            times["fd_hessian_newton"].append(time.perf_counter_ns() - t0)
            cpu_ratios.append((time.thread_time_ns() - cpu0) / cpu_times[k])
        except SolverFailureError:
            reference_failures += 1

        if k % AGREEMENT_STRIDE == 0:
            try:
                us = [solve(make_fn(problem), u_start, ref_cfg)[0]
                      for make_fn in (residual_fn, fd_hessian_newton)]
                objs = [objective(problem, uu) for uu in us]
                spread_rel = (max(objs) - min(objs)) / max(max(abs(o) for o in objs), 1e-300)
                agreement_max_rel = max(agreement_max_rel, spread_rel)
                agreement_checks += 1
                u_x, _ = solve(lambda u: gn_terms(*(a[:1] for a in evaluate(problem, u))),
                               u_start, ref_cfg)
                explore_shifts.append(abs(us[0] - u_x))
            except SolverFailureError:
                reference_failures += 1
        return applied[k]

    def on_gc(phase, info):
        nonlocal gc_starts
        if phase == "start":
            gc_starts += 1

    gc.callbacks.append(on_gc)
    try:
        drive(cfg, select)
    finally:
        gc.callbacks.remove(on_gc)
    drive(cfg, replay)
    summary = {name: _timing_summary(vals) for name, vals in times.items()}
    cpu = _timing_summary(cpu_times)
    summary["analytic_gn"].update(cpu_p99_ns=cpu["p99_ns"], cpu_max_ns=cpu["max_ns"],
                                  gc_solves=gc_solves, cpu_max_no_gc_ns=float(cpu_max_no_gc))
    speedup = float(np.median(cpu_ratios)) if cpu_ratios else None
    return {
        "timing": summary,
        "speedup_vs_analytic": {"fd_hessian_newton": speedup},
        "agreement_max_rel": agreement_max_rel,
        "agreement_checks": agreement_checks,
        "explore_shift_max_n": max(explore_shifts) if explore_shifts else None,
        "explore_shift_median_n": float(np.median(explore_shifts)) if explore_shifts else None,
        "explore_shift_checks": len(explore_shifts),
        "reference_failures": reference_failures,
        "solver": health.as_dict(),
    }
