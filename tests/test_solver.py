import dataclasses
import functools
import math

import numpy as np
import pytest

import dcee.harness
import dcee.solver
from dcee.baselines import GradDceeConfig, grad_dcee_step
from dcee.config import scenario_from_dict
from dcee.core import (evaluate, objective, objective_grid, objective_split, residual_fn,
                       standstill_input, warm_start)
from dcee.diagnostics import fd_hessian_newton, random_input, random_problem
from dcee.ensemble import condition_stats
from dcee.errors import (ConfigurationError, InfeasibleCandidateError, InvalidInputError,
                         SolverFailureError)
from dcee.harness import run_closed_loop
from dcee.plant import VehicleParams
from dcee.solver import (GnConfig, GnReport, SolverHealth, controller_step, gn_step, gn_terms,
                         scp_step, solve)

from conftest import final_state, make_bank, make_problem


def test_gn_step_hand_value():
    # F = [1, 1], J = [1, 1]: J'F = 2, J'J = 2
    assert gn_step(2.0, 2.0, damping=0.0) == -1.0
    # damping 1 relative to J'J halves the step
    assert gn_step(2.0, 2.0, damping=1.0) == -0.5


def test_gn_step_zero_residual():
    J = np.random.default_rng(0).standard_normal(4)
    assert gn_step(float(J @ np.zeros(4)), float(J @ J), damping=0.0) == 0.0
    # J = 0: no curvature and no gradient, so no step
    assert gn_step(0.0, 0.0, damping=0.0) == 0.0


def test_gn_step_normal_equation_residual():
    rng = np.random.default_rng(1)
    for _ in range(50):
        J = rng.standard_normal(5)
        F = rng.standard_normal(5)
        du = gn_step(float(J @ F), float(J @ J), damping=1e-3)
        assert abs(float(J @ J) * (1.0 + 1e-3) * du + float(J @ F)) < 1e-10


def test_scp_and_gn_paths_agree():
    # the normal-equation formula vs stacked least squares; gn_step's
    # damping is relative to J'J, scp_step's absolute
    rng = np.random.default_rng(2)
    for _ in range(100):
        m = int(rng.integers(1, 9))
        J = rng.standard_normal(m)
        F = rng.standard_normal(m)
        lam = float(rng.choice([1e-8, 1e-4, 1e-1]))
        jtj = float(J @ J)
        a = gn_step(float(J @ F), jtj, lam)
        b = scp_step(F, J, lam * jtj)
        assert abs(a - b) < 1e-10 * (1.0 + abs(a))


def test_solve_takes_gn_step():
    # one iteration of solve lands where gn_step puts it, clamped to the
    # box, with the damping escalated as often as the report says.  At a
    # random speed the optimum lies past a bound (one step changes the speed
    # by at most 0.33 m/s), so each problem starts at its believed optimal
    # speed, where most steps stay inside the box
    rng = np.random.default_rng(8)
    checked = 0
    interior = 0
    while checked < 40:
        p = random_problem(rng)
        p = p._replace(v=condition_stats(p.ensemble, p.reward))
        u0 = random_input(rng, p.vehicle)
        fun = residual_fn(p)
        cfg = GnConfig(max_iters=1, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
        try:
            _, jtf, jtj = fun(u0)
            u, rep = solve(fun, u0, cfg)
        except (InfeasibleCandidateError, SolverFailureError):
            continue
        lam = cfg.damping
        for _ in range(rep.damping_escalations):
            lam = max(10.0 * lam, 1.0)
        target = u0 + gn_step(jtf, jtj, lam)
        assert u == min(max(target, cfg.u_min), cfg.u_max)
        interior += cfg.u_min < target < cfg.u_max
        checked += 1
    assert interior >= 20


def test_solve_stationary_start():
    # an affine residual with zero gradient at the start point: the start's
    # own step is 0, so the solve returns it without evaluating a step
    a = np.array([1.0, -2.0])

    def fun(u):
        return gn_terms(a * (u - 5.0), a)

    cfg = GnConfig(max_iters=10, tol=1e-6, damping=0.0, u_min=-100.0, u_max=100.0)
    u, rep = solve(fun, 5.0, cfg)
    assert u == 5.0
    assert rep.iterations == 0
    assert rep.converged


def test_solve_affine_residual_one_step():
    # the exact step reaches the root, whose own step is 0: one step, judged
    # converged even with max_iters 1, since the last iterate is judged too
    a = np.array([0.5, 2.0, -1.0])

    def fun(u):
        return gn_terms(a * (u - 3.0), a)

    cfg = GnConfig(max_iters=1, tol=1e-12, damping=0.0, u_min=-100.0, u_max=100.0)
    u, rep = solve(fun, -50.0, cfg)
    assert u == pytest.approx(3.0, abs=1e-9)
    assert rep.iterations == 1
    assert rep.converged
    # a damped iteration that needs more steps than max_iters is not
    _, rep = solve(fun, -50.0, dataclasses.replace(cfg, damping=3.0))
    assert rep.iterations == 1
    assert not rep.converged


def test_solve_respects_bounds():
    a = np.array([1.0])

    def fun(u):
        return gn_terms(a * (u - 50.0), a)

    cfg = GnConfig(max_iters=5, tol=1e-9, damping=0.0, u_min=-10.0, u_max=10.0)
    u, rep = solve(fun, 0.0, cfg)
    assert u == 10.0
    assert rep.converged  # effective step collapses at the bound


def test_solve_tol_infinite_returns_the_start():
    # every step meets a tol of 1e300, the start's own step included (an
    # infinite tol is a configuration error)
    a = np.array([1.0, 1.0])

    def fun(u):
        return gn_terms(a * (u - 2.0), a)

    cfg = GnConfig(max_iters=10, tol=1e300, damping=0.0, u_min=-100.0, u_max=100.0)
    u, rep = solve(fun, 0.0, cfg)
    assert u == 0.0
    assert rep.iterations == 0
    assert rep.converged


def test_solve_replaces_an_infeasible_start_from_the_grid():
    # infeasible below 0: the start moves to the grid point of least
    # objective, 3125 (the box's 33 points lie 312.5 apart), which a tol of
    # 1e300 returns as it is; a tol of 1e-9 then steps to the root
    a = np.array([1.0, -1.0])
    calls = []

    def fun(u):
        calls.append(u)
        if u < 0.0:
            raise InfeasibleCandidateError("synthetic")
        return gn_terms(a * (u - 3000.0), a)

    cfg = GnConfig(tol=1e300, damping=0.0, u_min=-5000.0, u_max=5000.0)
    u, rep = solve(fun, -100.0, cfg)
    assert u == 3125.0
    assert rep.converged and rep.iterations == 0
    assert calls[0] == -100.0
    assert calls[1:] == np.linspace(-5000.0, 5000.0, 33).tolist()
    assert rep.evaluations == len(calls) == 34
    u, rep = solve(fun, -100.0, dataclasses.replace(cfg, tol=1e-9))
    assert u == 3000.0
    assert rep.iterations == 1


def _wide_bank_config(horizon_s):
    # staggered rates 0.1-0.9 and spread 1 on exact measurements: a wide
    # belief whose predicted update is infeasible for part of the box
    return scenario_from_dict({"ensemble": {"eta_lo": 0.1, "eta_hi": 0.9, "spread": [1.0, 1.0, 1.0]},
                               "noise": {"sigma_reward": 0.0}, "horizon_s": horizon_s})


def test_controller_step_starts_the_wide_bank_from_a_feasible_input(monkeypatch):
    # step 0 of the wide bank (5 m/s, warm start 0 N): the warm start is
    # infeasible, but half the box is not; the solve must start there
    # instead of falling back to holding 0 N
    cfg = _wide_bank_config(horizon_s=0.1)
    p, _ = final_state(cfg)
    assert p.v == 5.0
    with pytest.raises(InfeasibleCandidateError):
        residual_fn(p)(0.0)
    calls = []

    def counting_residual_fn(q):
        inner = residual_fn(q)

        def fn(u):
            calls.append(u)
            return inner(u)

        return fn

    monkeypatch.setattr(dcee.solver, "residual_fn", counting_residual_fn)
    u, rep = controller_step(p, 0.0, cfg.controller.solver)
    assert not rep.fallback
    assert rep.converged
    # the warm start, the 33 grid points, then one per step and per retry
    assert rep.evaluations == len(calls) == 1 + 33 + rep.iterations + rep.damping_escalations
    us = np.arange(p.vehicle.u_min, p.vehicle.u_max + 0.25, 0.5)
    grid_min = float(objective_grid(p, us).min())
    assert objective(p, u) <= grid_min * (1.0 + 1e-9)


def test_escalation_backtracks_from_infeasible_full_step():
    # the full GN step lands at u = 10, where the residual is undefined; the
    # escalated damping must shorten it to an accepted feasible step
    a = np.array([1.0, 2.0])

    def fun(u):
        if u > 4.0:
            raise InfeasibleCandidateError("synthetic")
        return gn_terms(a * (u - 10.0), a)

    cfg = GnConfig(max_iters=1, tol=1e-12, u_min=-100.0, u_max=100.0)
    u, rep = solve(fun, 0.0, cfg)
    assert 0.0 < u <= 4.0
    assert rep.damping_escalations >= 1
    assert rep.iterations == 1
    assert fun(u)[0] < fun(0.0)[0]


def test_solve_raises_when_every_trial_is_infeasible():
    # feasible at the start only: each of the six damped trials toward
    # u = 10 is infeasible, so the solve gives up with its partial report
    a = np.array([1.0, 2.0])

    def fun(u):
        if u != 0.0:
            raise InfeasibleCandidateError("synthetic")
        return gn_terms(a * (u - 10.0), a)

    cfg = GnConfig(u_min=-100.0, u_max=100.0)
    with pytest.raises(SolverFailureError, match="no acceptable step after damping escalation") as info:
        solve(fun, 0.0, cfg)
    rep = info.value.report
    assert (rep.iterations, rep.damping_escalations, rep.evaluations) == (0, 6, 7)
    assert not rep.converged


def test_solve_reaches_its_evaluation_bound():
    # a solve makes at most 1 + 33 + max_iters (5 + 1) evaluations; a
    # scripted callback takes every one of them: an infeasible start, 33
    # feasible grid points, then per iteration five rejected trials and an
    # accepted one, the objective falling strictly and no step meeting tol
    cfg = GnConfig()
    assert 1 + dcee.solver._START_GRID_POINTS + cfg.max_iters * (dcee.solver._MAX_ESCALATIONS + 1) == 94
    trials = ["infeasible", "higher", "infeasible", "higher", "infeasible", "lower"]
    script = iter(["infeasible"] + ["grid"] * 33 + trials * cfg.max_iters)
    obj = [100.0]

    def fun(u):
        kind = next(script)
        if kind == "infeasible":
            raise InfeasibleCandidateError("scripted")
        if kind == "lower":
            obj[0] -= 1.0
        # J'F = -1 and J'J = 1: the undamped step is +1, above tol (1 + |u|)
        return obj[0] + (1.0 if kind == "higher" else 0.0), -1.0, 1.0

    u, rep = solve(fun, 0.0, cfg)
    assert next(script, None) is None
    assert (rep.evaluations, rep.iterations, rep.damping_escalations) == (94, 10, 50)
    assert rep.converged is False and not rep.fallback
    assert obj[0] == 90.0 and cfg.u_min < u < cfg.u_max


def test_solve_started_at_fixed_point_stops_converged():
    # at the solution of a closed-loop step the GN step is rounding noise
    # (about 1e-11 N), larger than tol = 1e-15 allows; the unchanged
    # objective must end the solve instead of cycling to max_iters
    p, u_final = final_state(scenario_from_dict({"horizon_s": 30.0}))
    cfg = GnConfig(max_iters=50, tol=1e-15, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    u_star, _ = solve(residual_fn(p), u_final, cfg)
    u, rep = solve(residual_fn(p), u_star, cfg)
    assert rep.converged
    assert rep.iterations <= 2
    assert abs(u - u_star) < 1e-9


def test_solve_objective_trace_nonincreasing():
    # solve is deterministic, so a budget of k iterations returns the k-th
    # iterate; the objective must not rise from one iterate to the next
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_problem(rng)
        u0 = random_input(rng, p.vehicle)
        cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
        try:
            _, rep = solve(residual_fn(p), u0, cfg)
        except SolverFailureError:
            continue
        trace = [objective(p, u0)]
        for k in range(1, rep.iterations + 1):
            u_k, rep_k = solve(residual_fn(p), u0, dataclasses.replace(cfg, max_iters=k))
            assert rep_k.iterations == k
            trace.append(objective(p, u_k))
        for a, b in zip(trace, trace[1:]):
            assert b <= a * (1.0 + 1e-10) + 1e-12


def test_solve_matches_grid_oracle():
    rng = np.random.default_rng(4)
    solved = 0
    while solved < 50:
        p = random_problem(rng)
        u0 = random_input(rng, p.vehicle)
        cfg = GnConfig(max_iters=60, tol=1e-10, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
        try:
            u, _ = solve(residual_fn(p), u0, cfg)
            got = objective(p, u)
        except SolverFailureError:
            continue
        us = np.arange(p.vehicle.u_min, p.vehicle.u_max + 0.25, 0.5)
        grid_min = float(objective_grid(p, us).min())
        assert got <= grid_min + 1e-6 * max(abs(grid_min), 1e-300)
        solved += 1


def test_solve_matches_grid_oracle_at_interior_minima():
    # at a random speed the minimum lies past a bound (one step changes the
    # speed by at most 0.33 m/s); at the believed optimal speed it mostly
    # lies inside the box, where the GN step and the Jacobian decide it
    rng = np.random.default_rng(9)
    solved = interior = 0
    while solved < 40:
        p = random_problem(rng)
        p = p._replace(v=condition_stats(p.ensemble, p.reward))
        u0 = random_input(rng, p.vehicle)
        cfg = GnConfig(max_iters=60, tol=1e-10, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
        try:
            u, _ = solve(residual_fn(p), u0, cfg)
            got = objective(p, u)
        except SolverFailureError:
            continue
        us = np.arange(p.vehicle.u_min, p.vehicle.u_max + 0.25, 0.5)
        grid_min = float(objective_grid(p, us).min())
        assert got <= grid_min + 1e-6 * max(abs(grid_min), 1e-300)
        interior += cfg.u_min < u < cfg.u_max
        solved += 1
    assert interior >= 25


def test_solve_descends_at_non_stationary_points():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 30:
        p = random_problem(rng)
        u0 = random_input(rng, p.vehicle)
        fun = residual_fn(p)
        try:
            _, jtf, _ = fun(u0)
        except InfeasibleCandidateError:
            continue
        if abs(jtf) <= 1e-8:
            continue
        cfg = GnConfig(max_iters=1, tol=1e-12, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
        try:
            u, rep = solve(fun, u0, cfg)
        except SolverFailureError:
            continue
        if u != u0:  # an actual step was taken
            assert objective(p, u) < objective(p, u0) * (1.0 + 1e-10) + 1e-12
        checked += 1


def test_warm_start_second_solve_is_immediate():
    rng = np.random.default_rng(6)
    p = random_problem(rng)
    cfg_long = GnConfig(max_iters=80, tol=1e-8, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    u1, rep1 = solve(residual_fn(p), random_input(rng, p.vehicle), cfg_long)
    assert rep1.converged
    cfg = GnConfig(max_iters=10, tol=1e-8, u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    _, rep2 = solve(residual_fn(p), u1, cfg)
    assert rep2.converged
    assert rep2.iterations <= 2


def test_controller_step_fallback_on_failure(monkeypatch):
    # a callback infeasible everywhere: the start and all 33 grid points
    # fail, and controller_step holds its start, lifted out of standstill
    # and clamped to the box
    def always_infeasible(u):
        raise InfeasibleCandidateError("synthetic")

    monkeypatch.setattr(dcee.solver, "residual_fn", lambda p: always_infeasible)
    p = random_problem(np.random.default_rng(0))._replace(v=0.2)
    cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    assert warm_start(p, -4000.0) == standstill_input(p.vehicle, p.v) > -4000.0
    assert warm_start(p, 7000.0) == p.vehicle.u_max
    for u_prev in (-4000.0, 300.0, 7000.0):
        u, rep = controller_step(p, u_prev, cfg)
        assert u == warm_start(p, u_prev)
        assert rep.fallback
        assert rep.evaluations == 34


def test_controller_step_returns_report():
    rng = np.random.default_rng(7)
    p = random_problem(rng)
    cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    u, rep = controller_step(p, 0.0, cfg)
    assert p.vehicle.u_min <= u <= p.vehicle.u_max
    assert not rep.fallback
    # the solve from the warm start, report and all
    assert (u, rep) == solve(residual_fn(p), warm_start(p, 0.0), cfg)


def test_controller_step_falls_back_on_non_finite_residual():
    # members overflowed by a diverging rate-law update: the predicted
    # update at any candidate is nan, which must hold the input, not raise
    rng = np.random.default_rng(7)
    p = random_problem(rng)
    members = [[-0.05, 5.2e47, 1.8e47], [-2.4e67, -1.5e66, -5.2e65], [-0.05, 3.5e89, 1.2e89]]
    p = p._replace(v=88.0, ensemble=make_bank(members, [0.1, 0.5, 0.9]))
    cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    with pytest.raises(InfeasibleCandidateError):
        residual_fn(p)(p.vehicle.u_max)
    u, rep = controller_step(p, 7000.0, cfg)
    assert u == p.vehicle.u_max
    assert rep.fallback
    assert rep.iterations == 0


def test_controller_step_evaluates_through_residual_fn(monkeypatch):
    # the benchmark's traced run times every evaluation by wrapping
    # dcee.solver.residual_fn; a solve that bypassed the name would fail
    # that run, so pin here that each solve prepares once through it and
    # that every evaluation of a closed loop is a call of what it returned
    real_residual_fn = dcee.solver.residual_fn
    counts = {"prepare": 0, "calls": 0}

    def counting_residual_fn(p):
        counts["prepare"] += 1
        inner = real_residual_fn(p)

        def fn(u, *args):
            counts["calls"] += 1
            return inner(u, *args)

        return fn

    monkeypatch.setattr(dcee.solver, "residual_fn", counting_residual_fn)
    res = run_closed_loop(scenario_from_dict({"horizon_s": 5.0}))
    health = res.solver
    assert counts["prepare"] == health.solves == len(res.records)
    # health.evaluations is the sum of the solves' report.evaluations
    assert counts["calls"] == health.evaluations > health.solves


def test_solve_converges_at_standstill():
    # the predicted speed clamps to 0, so the objective is flat in u and
    # J'J = 0: the zero step converges instead of exhausting the escalations
    p = random_problem(np.random.default_rng(0))._replace(v=0.2)
    cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    u, rep = solve(residual_fn(p), -4000.0, cfg)
    assert u == -4000.0
    assert rep.converged
    assert rep.damping_escalations == 0


def test_controller_step_lifts_warm_start_out_of_standstill():
    # from a warm start in the flat region the step starts at the edge of
    # it, where the one-sided Jacobian lets it move
    p = random_problem(np.random.default_rng(0))._replace(v=0.2)
    cfg = GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max)
    u_stop = standstill_input(p.vehicle, p.v)
    assert -4000.0 < u_stop
    assert residual_fn(p)(u_stop)[2] > 0.0  # J'J: the Jacobian is not 0
    u, rep = controller_step(p, -4000.0, cfg)
    assert u > u_stop
    assert rep.iterations >= 1
    assert rep.converged
    assert not rep.fallback


def test_gn_config_validation():
    with pytest.raises(ConfigurationError):
        GnConfig(max_iters=0)
    # a bool is no count of steps
    with pytest.raises(ConfigurationError):
        GnConfig(max_iters=True)
    with pytest.raises(ConfigurationError):
        GnConfig(tol=0.0)
    with pytest.raises(ConfigurationError):
        GnConfig(damping=-1.0)
    with pytest.raises(ConfigurationError):
        GnConfig(damping=float("nan"))
    # a tol of inf passes every iterate as converged, so no solve would step
    for field in ("tol", "damping"):
        with pytest.raises(ConfigurationError):
            GnConfig(**{field: math.inf})


@pytest.mark.parametrize("settings", [
    {"u_min": float("nan")},
    {"u_max": float("inf")},
    {"u_min": -float("inf")},
    {"u_min": 100.0, "u_max": -100.0},
    {"u_min": 100.0, "u_max": 100.0},
    {"max_iters": 2.5},
    {"max_iters": 3.0},
])
def test_gn_config_rejects_a_bad_box_or_iteration_count(settings):
    # a NaN u_min clamps nothing from below, so a solve may end far outside
    # the box flagged as converged; a reversed box returns u_max; and the
    # integer count of steps never equals a max_iters of 2.5, so it bounds
    # nothing
    with pytest.raises(ConfigurationError):
        GnConfig(**settings)


def test_q_linear_tail_of_damped_iteration():
    # when the damping is comparable to the curvature the iteration is a
    # geometric contraction: with damping 3 (relative to a'a) each step
    # retains 3/4 of the gap
    a = np.array([0.3, -0.4])

    def fun(u):
        return gn_terms(a * (u - 2.0), a)

    cfg = GnConfig(max_iters=10, tol=1e-15, damping=3.0, u_min=-100.0, u_max=100.0)
    _, rep = solve(fun, 10.0, cfg)
    # solve is deterministic, so a budget of k iterations returns the k-th
    # iterate; the start 10 is iterate 0
    us = [10.0] + [solve(fun, 10.0, dataclasses.replace(cfg, max_iters=k))[0]
                   for k in range(1, rep.iterations + 1)]
    tail = [abs(b - a) for a, b in zip(us, us[1:])][-3:]
    assert len(tail) == 3
    assert tail[0] > tail[1] > tail[2]
    assert tail[1] / tail[0] == pytest.approx(0.75, rel=1e-6)
    assert tail[2] / tail[1] == pytest.approx(0.75, rel=1e-6)


_SOLVE_RUNS = {
    "default": lambda: scenario_from_dict({"horizon_s": 60.0}),
    "noise_free": lambda: scenario_from_dict({"horizon_s": 60.0, "noise": {"sigma_reward": 0.0}}),
    # its first warm start is infeasible, so the grid start is exercised
    "wide_bank": lambda: _wide_bank_config(horizon_s=60.0),
}


@functools.lru_cache(maxsize=None)
def _solves_of_run(name):
    """(config, result, [(problem, u, report)] of every controller_step call,
    residual evaluations) of one 60 s closed loop."""
    cfg = _SOLVE_RUNS[name]()
    solves = []
    evaluations = 0
    real_step, real_residual_fn = dcee.harness.controller_step, dcee.solver.residual_fn

    def recording_step(p, u_prev, gncfg):
        u, rep = real_step(p, u_prev, gncfg)
        solves.append((p, u, rep))
        return u, rep

    def counting_residual_fn(p):
        inner = real_residual_fn(p)

        def fn(u):
            nonlocal evaluations
            evaluations += 1
            return inner(u)

        return fn

    dcee.harness.controller_step, dcee.solver.residual_fn = recording_step, counting_residual_fn
    try:
        res = run_closed_loop(cfg)
    finally:
        dcee.harness.controller_step, dcee.solver.residual_fn = real_step, real_residual_fn
    return cfg, res, solves, evaluations


@pytest.mark.parametrize("name", sorted(_SOLVE_RUNS))
def test_closed_loop_solves_return_where_the_next_step_meets_tol(name):
    # the stop rule, checked with the independent least-squares step: one
    # more iteration from the returned input would move it by at most
    # tol (1 + |u|).  A solve that ends on the stall rule would be exempt,
    # but none of these does.  The slack covers the rounding by which
    # scp_step and gn_step differ
    cfg, _, solves, _ = _solves_of_run(name)
    gncfg = cfg.controller.solver
    checked = 0
    for p, u, rep in solves:
        if rep.fallback:
            continue
        assert rep.converged
        F, J = evaluate(p, u)
        du = scp_step(F, J, gncfg.damping * float(J @ J))
        u_next = min(max(u + du, gncfg.u_min), gncfg.u_max)
        assert abs(u_next - u) <= gncfg.tol * (1.0 + abs(u)) * (1.0 + 1e-9)
        checked += 1
    assert checked == len(solves) == cfg.n_steps


def _check_callback_against_evaluate(p, u):
    """residual_fn's (F'F, J'F, J'J) at u against the same terms
    of evaluate's arrays; where evaluate raises, the callback must raise
    the same error.  Returns whether u was feasible."""
    try:
        F, J = evaluate(p, u)
    except (InfeasibleCandidateError, InvalidInputError) as exc:
        with pytest.raises(type(exc)):
            residual_fn(p)(u)
        return False
    got = residual_fn(p)(u)
    want = (float(F @ F), float(J @ F), float(J @ J))
    assert len(got) == 3 and all(type(x) is float for x in got)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (u, got, want)
    return True


def test_callback_terms_match_evaluate_on_random_problems():
    # random snapshots at random inputs, and at standstill speeds around the
    # input below which the prediction clamps, where J is 0 or one-sided
    rng = np.random.default_rng(31)
    feasible = 0
    for k in range(200):
        p = random_problem(rng)
        if k % 2:
            p = p._replace(v=float(rng.uniform(0.0, 0.3)))
            u_stop = standstill_input(p.vehicle, p.v)
            us = [math.nextafter(u_stop, -math.inf), u_stop, math.nextafter(u_stop, math.inf),
                  u_stop - 1.0, u_stop + 1.0]
        else:
            us = [random_input(rng, p.vehicle) for _ in range(3)]
        feasible += sum(_check_callback_against_evaluate(p, u) for u in us)
    assert feasible >= 500


@pytest.mark.parametrize("name", sorted(_SOLVE_RUNS))
def test_callback_terms_match_evaluate_on_closed_loop_inputs(name):
    # the snapshots of a closed loop at the inputs its solves returned
    _, _, solves, _ = _solves_of_run(name)
    assert all(_check_callback_against_evaluate(p, u) for p, u, _ in solves[::5])


def _bank_around(p, rng, rel_spread, outlier=None, shift=None):
    """p with its bank replaced: n members scattered about p's mean member
    by rel_spread of each component, the first moved to outlier times the
    mean, and the linear and constant terms scaled by shift and shift**2,
    which scales the optimal speeds by shift."""
    center = np.mean(p.ensemble.members, axis=0)
    if shift is not None:
        center = center * [1.0, shift, shift * shift]
    n = len(p.ensemble.rates)
    members = center * (1.0 + rel_spread * rng.uniform(-1.0, 1.0, size=(n, 3)))
    if outlier is not None:
        members[0] = center * outlier
    members[:, 0] = np.minimum(members[:, 0], -p.reward.curvature_floor)
    return p._replace(ensemble=make_bank(members, p.ensemble.rates))


@pytest.mark.parametrize("bank", ["collapsed", "outlier_first", "large_speeds"])
def test_callback_terms_match_evaluate_on_hard_banks(bank):
    # the callback's sums are shifted by the first member's values; these
    # banks are where that is hardest: members that agree to 1e-9 of their
    # mean, as after long runs, a first member (the shift point) far from
    # the others, and optimal speeds of about 700 m/s spread by 1e-6 of that
    rng = np.random.default_rng(33)
    feasible = 0
    for _ in range(60):
        p = random_problem(rng)
        if bank == "collapsed":
            p = _bank_around(p, rng, 1e-9)
        elif bank == "outlier_first":
            p = _bank_around(p, rng, 0.05, outlier=[0.3, 4.0, 4.0])
        else:
            p = _bank_around(p, rng, 1e-6, shift=30.0)
            # cruising near them without drag, so the explore part, not the
            # exploit part, is most of each sum and sets the tolerance
            m = np.array(p.ensemble.members)
            gam = -0.5 * p.reward.v_scale * m[:, 1] / m[:, 0]
            p = p._replace(vehicle=VehicleParams(c0=0.0, c1=0.0, c2=0.0),
                                    v=float(gam.mean()))
        us = [random_input(rng, p.vehicle) for _ in range(4)]
        feasible += sum(_check_callback_against_evaluate(p, u) for u in us)
    assert feasible >= 100


def test_callback_raises_where_evaluate_raises(spec):
    us = np.linspace(-5000.0, 5000.0, 11).tolist()
    # an overflowed bank: every candidate is infeasible
    p = make_problem([[-0.05, 5.2e47, 1.8e47], [-2.4e67, -1.5e66, -5.2e65],
                      [-0.05, 3.5e89, 1.2e89]], rates=[0.1, 0.5, 0.9], v=88.0, spec=spec)
    assert not any(_check_callback_against_evaluate(p, u) for u in us)
    # a NaN member gives a NaN mean optimal speed
    p = make_problem([[-1.0, 1.5, 0.25], [math.nan, 1.0, 0.0], [-0.5, 1.0, 0.1]], spec=spec)
    assert not any(_check_callback_against_evaluate(p, u) for u in us)
    # a member of zero curvature, left at 0 by an input that clamps
    p = make_problem([[-1.0, 1.5, 0.25], [0.0, 1.0, 0.0]], v=0.1, spec=spec)
    assert not _check_callback_against_evaluate(p, p.vehicle.u_min)
    # th0**2 underflows in the Jacobian
    tiny = dataclasses.replace(spec, curvature_floor=1e-200)
    p = make_problem([[-1e-170, 1e-171, 0.0], [-1e-170, 2e-171, 0.0]], v=10.0, spec=tiny)
    assert not _check_callback_against_evaluate(p, 300.0)
    # a non-finite input
    p = random_problem(np.random.default_rng(32))
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            residual_fn(p)(u)
        assert not _check_callback_against_evaluate(p, u)


def _overflowed_problem():
    # every member value is finite, but the objective's terms overflow
    members = [[-0.4656678946210841, 2.5866995964105405e236, -7.370787533468109e120],
               [-0.6973455973401603, 2.0982287357399028e236, -7.754215341698107e120],
               [-0.4874290317713813, 4.3774110033710322e236, 9.347792585864937e119],
               [-0.5691293701793064, 4.4825400702147928e236, -3.932113302064794e120],
               [-0.4391045929735691, 4.4227587983722734e236, -1.565450898941654e120]]
    return make_problem(members, rates=np.geomspace(0.05, 0.5, 5), v=0.28177949633281685)


def test_overflowed_terms_are_infeasible_and_each_selection_holds_its_start():
    # F is about 1e238, but F'F overflows to inf - inf: the pass must call
    # the candidate infeasible in both its modes, not hand the solver a nan
    p = _overflowed_problem()
    u_prev = -4775.676001577193
    u_start = warm_start(p, u_prev)
    assert u_start == standstill_input(p.vehicle, p.v) > u_prev
    assert not _check_callback_against_evaluate(p, u_start)
    u, rep = controller_step(p, u_prev, GnConfig())
    assert u == u_start
    assert rep.fallback
    assert rep.evaluations == 34
    assert grad_dcee_step(p, u_prev, GradDceeConfig()) == u_start


def test_split_and_grid_reject_the_candidates_the_callback_rejects():
    # the callback rejects every candidate on the overflowed bank; at some
    # the unfused route's terms are inf rather than past the floor, and it
    # must call those infeasible too, and the grid score them +inf
    p = _overflowed_problem()
    us = np.append(np.linspace(-5000.0, 5000.0, 20001)[::50], warm_start(p, -4775.676001577193))
    for u, d in zip(us.tolist(), objective_grid(p, us).tolist()):
        with pytest.raises(InfeasibleCandidateError):
            residual_fn(p)(u)
        with pytest.raises(InfeasibleCandidateError):
            objective_split(p, u)
        assert d == math.inf


def _check_objective_reads_the_callback(p, u):
    """objective's D(u) and the Newton reference's F'F at u against the
    callback's F'F, bit for bit; where the callback raises, objective must
    raise the same error.  Returns whether u was feasible."""
    try:
        want = residual_fn(p)(u)[0]
    except InfeasibleCandidateError:
        with pytest.raises(InfeasibleCandidateError):
            objective(p, u)
        return False
    assert objective(p, u).hex() == want.hex()
    try:
        assert fd_hessian_newton(p)(u)[0].hex() == want.hex()
    except SolverFailureError:  # a stencil point past the feasible region
        pass
    return True


def test_objective_is_the_callbacks_on_random_problems():
    # the solver, objective and bench's reference score a candidate alike
    rng = np.random.default_rng(37)
    feasible = 0
    for _ in range(200):
        p = random_problem(rng)
        us = [random_input(rng, p.vehicle) for _ in range(3)]
        feasible += sum(_check_objective_reads_the_callback(p, u) for u in us)
    assert feasible >= 300


@pytest.mark.parametrize("name", sorted(_SOLVE_RUNS))
def test_objective_is_the_callbacks_on_closed_loop_inputs(name):
    _, _, solves, _ = _solves_of_run(name)
    assert all(_check_objective_reads_the_callback(p, u) for p, u, _ in solves[::5])


def test_default_run_takes_at_most_two_evaluations_per_solve():
    # the warm start, one per accepted step and one per rejected trial; the
    # evaluation that would only confirm a converged step is not made
    _, res, _, evaluations = _solves_of_run("default")
    health = res.solver
    iterations = sum(k * n for k, n in enumerate(health.histogram))
    assert evaluations == health.solves + iterations + health.escalations
    assert evaluations <= 2.0 * health.solves
    assert health.evaluations == evaluations


def test_solver_health_sums_evaluations():
    health = SolverHealth()
    for evaluations in (1, 2, 36):
        health.add(GnReport(evaluations=evaluations))
    assert health.as_dict()["evaluations"] == 39
