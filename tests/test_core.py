import dataclasses
import math

import numpy as np
import pytest

from dcee import (
    Ensemble,
    InfeasibleCandidateError,
    InvalidInputError,
    QuadraticRewardSpec,
    drag_force,
    evaluate,
    jacobian_fd,
    make_true_params,
    objective,
    objective_grid,
    objective_split,
    standstill_input,
)
from dcee.ensemble import _mean
from dcee.diagnostics import fd_step, random_input, random_problem

from conftest import make_problem


def test_objective_terms_consensus_bank(vehicle):
    # identical members stay identical under the predicted update, so there
    # is nothing to explore at any input; dyadic parameters keep every mean
    # exact, so this holds to the last bit
    theta = [-1.0, 1.5, 0.25]
    us = np.linspace(vehicle.u_min, vehicle.u_max, 41)
    for n in (1, 5):
        p = make_problem(np.tile(theta, (n, 1)), v=22.5)
        for u in us:
            assert objective_split(p, float(u))[1] == 0.0


def test_objective_split_zero_at_consensus_equilibrium(vehicle):
    # the input that balances drag at the members' optimal speed (22.5 m/s)
    # predicts that speed again: nothing to exploit either
    p = make_problem(np.tile([-1.0, 1.5, 0.25], (4, 1)), v=22.5)
    assert objective_split(p, drag_force(vehicle, 22.5)) == (0.0, 0.0)


def test_objective_split_hand_values():
    # two members at rate 0.1 (v_scale 1 m/s) and the input that predicts
    # y = 0.5: the ensemble-mean reward there is 0.75 and the member rewards
    # 0.25 and 1.25, so the predicted members are [-0.9875, 1.025, 0.05] and
    # [-1.0125, 2.975, -0.05], with optimal speeds 41/79 and 119/81
    spec = QuadraticRewardSpec(v_scale=1.0)
    p = make_problem([[-1.0, 1.0, 0.0], [-1.0, 3.0, 0.0]], rates=[0.1, 0.1], v=0.5, spec=spec)
    exploit, explore = objective_split(p, drag_force(p.vehicle, 0.5))
    assert exploit == pytest.approx((6323.0 / 12798.0) ** 2, rel=1e-12)
    assert explore == pytest.approx((6080.0 / 12798.0) ** 2, rel=1e-12)


def test_objective_split_prediction_hand_value():
    # from 20 m/s, 1000 N against 360 N of drag accelerates by
    # (1000 - 360) / 1500 m/s^2 for dt = 0.1 s; a frozen singleton with
    # optimal speed 22.5 m/s leaves only the gap to that prediction
    p = make_problem([[-1.0, 1.5, 0.25]], rates=[1e-300], v=20.0)
    exploit, explore = objective_split(p, 1000.0)
    assert exploit == pytest.approx((20.0 + (0.1 / 1500.0) * (1000.0 - 360.0) - 22.5) ** 2, rel=1e-12)
    assert explore == 0.0


def test_objective_rejects_non_finite_input():
    p = make_problem([[-1.0, 1.5, 0.2]])
    for u in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError):
            objective_split(p, u)
        with pytest.raises(InvalidInputError):
            evaluate(p, u)
    grid = objective_grid(p, [math.nan, math.inf, -math.inf, 300.0])
    assert np.isinf(grid[:3]).all() and np.isfinite(grid[3])


def test_objective_grid_equals_split_sum():
    # both run the one unfused loop over the members, the split on a float
    # and the grid on an array, so each grid entry is the split's sum to the
    # last bit, and inf exactly where the split finds the input infeasible;
    # half the problems start near standstill, where low inputs clamp
    rng = np.random.default_rng(31)
    feasible = infeasible = 0
    for k in range(200):
        p = random_problem(rng)
        if k % 2:
            p = dataclasses.replace(p, v=float(rng.uniform(0.0, 0.3)))
        us = np.linspace(p.vehicle.u_min, p.vehicle.u_max, 101)
        for u, d in zip(us.tolist(), objective_grid(p, us).tolist()):
            try:
                exploit, explore = objective_split(p, u)
            except InfeasibleCandidateError:
                assert d == math.inf
                infeasible += 1
                continue
            assert d == exploit + explore
            feasible += 1
    assert feasible > infeasible > 0


def test_residual_zero_at_consensus_optimum(spec, vehicle):
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    p = make_problem(np.tile(theta, (4, 1)), v=25.0, spec=spec, vehicle=vehicle)
    u_eq = drag_force(vehicle, 25.0)
    F, _ = evaluate(p, u_eq)
    assert np.abs(F).max() < 1e-12
    assert objective(p, u_eq) < 1e-24


def test_residual_singleton_has_zero_uncertainty_block(spec):
    theta = make_true_params(spec, 1.0, 18.0, 0.5)
    p = make_problem(theta[None, :], v=12.0, spec=spec)
    F, _ = evaluate(p, 500.0)
    assert F.shape == (2,)
    assert F[1] == 0.0


def test_residual_hand_values(spec):
    # two members with optimal speeds 10 and 20; choose the input whose
    # predicted output is exactly 12
    m1 = make_true_params(spec, 1.0, 10.0, 0.0)
    m2 = make_true_params(spec, 1.0, 20.0, 0.0)
    p = make_problem(np.stack([m1, m2]), rates=[1e-300, 1e-300], v=12.0)
    u = drag_force(p.vehicle, 12.0)  # predicted output 12, tiny rates freeze the update
    F, _ = evaluate(p, u)
    assert F == pytest.approx([-3.0, -5.0 / math.sqrt(2.0), 5.0 / math.sqrt(2.0)])
    assert objective(p, u) == pytest.approx(34.0)
    exploit, explore = objective_split(p, u)
    assert exploit == pytest.approx(9.0)
    assert explore == pytest.approx(25.0)


def test_objective_split_nonnegative_and_consistent():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        p = random_problem(rng)
        u = random_input(rng, p.vehicle)
        try:
            d = objective(p, u)
            exploit, explore = objective_split(p, u)
        except InfeasibleCandidateError:
            continue
        assert exploit >= 0.0 and explore >= 0.0
        assert abs(d - (exploit + explore)) < 1e-10
        checked += 1


def test_residual_eval_norm_matches_objective():
    rng = np.random.default_rng(23)
    p = random_problem(rng)
    F, J = evaluate(p, 250.0)
    assert float(F @ F) == pytest.approx(objective(p, 250.0), abs=1e-12)
    assert F.shape == J.shape == (p.ensemble.n_members + 1,)


def test_jacobian_consensus_has_zero_uncertainty_rows(spec):
    theta = make_true_params(spec, 1.0, 22.0, 1.0)
    p = make_problem(np.tile(theta, (5, 1)), v=20.0, spec=spec)
    _, J = evaluate(p, 300.0)
    assert np.abs(J[1:]).max() == 0.0
    single = make_problem(theta[None, :], v=20.0, spec=spec)
    _, J1 = evaluate(single, 300.0)
    assert J1[1] == 0.0


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(24)
    worst = 0.0
    checked = 0
    while checked < 100:
        p = random_problem(rng)
        u = random_input(rng, p.vehicle)
        h = fd_step(p.vehicle, u)
        try:
            _, J = evaluate(p, u)
            J_fd = jacobian_fd(p, u, h)
        except InfeasibleCandidateError:
            continue
        worst = max(worst, float(np.abs(J_fd - J).max() / np.abs(J).max()))
        checked += 1
    assert worst < 1e-6


def test_jacobian_vanishes_at_standstill():
    # u = -4000 N brakes the predicted speed from 0.2 m/s below zero, where
    # it clamps: the residual no longer depends on u
    p = dataclasses.replace(random_problem(np.random.default_rng(0)), v=0.2)
    u = -4000.0
    assert u < standstill_input(p.vehicle, p.v)
    _, J = evaluate(p, u)
    J_fd = jacobian_fd(p, u, fd_step(p.vehicle, u))
    assert np.array_equal(J, J_fd)
    assert not J.any()


def test_standstill_input_is_the_edge_of_the_clamp():
    p = dataclasses.replace(random_problem(np.random.default_rng(0)), v=0.2)
    u_stop = standstill_input(p.vehicle, p.v)
    # at the edge the Jacobian is the one-sided one from above
    h = fd_step(p.vehicle, u_stop)
    F, J = evaluate(p, u_stop)
    J_fwd = (evaluate(p, u_stop + h)[0] - F) / h
    assert np.allclose(J, J_fwd, rtol=1e-4, atol=1e-12 * np.abs(J).max())
    assert J.any()


def test_objective_flat_below_standstill():
    # every input below standstill_input predicts speed 0, so the objective
    # is flat there, and it leaves the flat at the edge
    p = dataclasses.replace(random_problem(np.random.default_rng(0)), v=0.2)
    u_stop = standstill_input(p.vehicle, p.v)
    us = np.concatenate([np.linspace(p.vehicle.u_min, u_stop - 1.0, 50), [u_stop, u_stop + 1.0]])
    grid = objective_grid(p, us)
    assert (grid[:50] == grid[0]).all()
    assert grid[50] == pytest.approx(grid[0], rel=1e-9)
    assert abs(grid[51] - grid[0]) > 1e-6 * grid[0]
    for u in us[:50:7]:
        assert objective_split(p, float(u)) == objective_split(p, float(us[0]))


def test_gradient_identity():
    # J'F matches central differences of the half objective
    rng = np.random.default_rng(25)
    checked = 0
    while checked < 50:
        p = random_problem(rng)
        u = random_input(rng, p.vehicle)
        h = fd_step(p.vehicle, u)
        try:
            F, J = evaluate(p, u)
            lp = 0.5 * objective(p, u + h)
            lm = 0.5 * objective(p, u - h)
        except InfeasibleCandidateError:
            continue
        g = float(J @ F)
        g_fd = (lp - lm) / (2.0 * h)
        assert abs(g - g_fd) <= 1e-6 * max(abs(g), abs(g_fd), 1e-10)
        checked += 1


def test_linearized_objective_midpoint_convexity():
    # for a fixed linearization, du -> ||F + J du||^2 is convex
    rng = np.random.default_rng(26)
    p = random_problem(rng)
    F, J = evaluate(p, 500.0)

    def q(du):
        r = F + J * du
        return float(r @ r)

    for _ in range(200):
        a, b = rng.uniform(-1e4, 1e4, size=2)
        lhs = q(0.5 * (a + b))
        rhs = 0.5 * (q(a) + q(b))
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


def test_uncertainty_scaling_homogeneity(spec):
    # scaling all optimal-speed deviations by c scales explore by c^2; peak
    # locations map to member optimal speeds exactly, and near-zero rates
    # freeze the predicted update so the deviations pass through unchanged
    rng = np.random.default_rng(27)
    deltas = rng.uniform(-3.0, 3.0, size=6)
    deltas -= deltas.mean()
    u = 400.0

    def explore_for(c):
        members = np.stack([make_true_params(spec, 1.0, 20.0 + c * d, 1.0) for d in deltas])
        p = make_problem(members, rates=np.full(6, 1e-300), v=20.0, spec=spec)
        return objective_split(p, u)[1]

    base = explore_for(1.0)
    for c in (0.5, 2.0):
        assert explore_for(c) == pytest.approx(c * c * base, rel=1e-9)


def test_jacobian_fd_affine_exact():
    a = np.array([2.0, -1.0, 0.5])
    b = np.array([1.0, 0.0, -2.0])

    def affine(u):
        return a * u + b

    J = jacobian_fd(affine, 3.0, h=1e-3)
    assert np.abs(J - a).max() < 1e-12


def test_jacobian_fd_second_order_convergence():
    # halving the step reduces the truncation error about fourfold on a
    # smooth synthetic residual with known third derivative
    def cubic(u):
        return np.array([u**3, math.sin(u)])

    def exact(u):
        return np.array([3.0 * u * u, math.cos(u)])

    u0 = 0.7
    errs = []
    for h in (1e-2, 5e-3):
        J = jacobian_fd(cubic, u0, h=h)
        errs.append(np.abs(J - exact(u0)).max())
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_infeasible_candidate_raises(spec):
    # a member close to the admissibility floor plus a large predicted
    # innovation pushes the predicted member over the floor
    members = np.array([[-0.0501, 2.0, 0.0], [-1.0, 1.0, 0.5]])
    p = make_problem(members, rates=[0.5, 0.5], v=55.0, spec=spec)
    with pytest.raises(InfeasibleCandidateError):
        evaluate(p, 5000.0)


def test_objective_grid_matches_pointwise():
    rng = np.random.default_rng(28)
    p = random_problem(rng)
    us = np.linspace(p.vehicle.u_min, p.vehicle.u_max, 101)
    grid = objective_grid(p, us)
    for u, d in zip(us[::10], grid[::10]):
        if np.isinf(d):
            with pytest.raises(InfeasibleCandidateError):
                objective(p, float(u))
        else:
            assert d == pytest.approx(objective(p, float(u)), rel=1e-12, abs=1e-12)


def test_objective_grid_marks_infeasible(spec):
    members = np.array([[-0.0501, 2.0, 0.0], [-1.0, 1.0, 0.5]])
    p = make_problem(members, rates=[0.5, 0.5], v=55.0, spec=spec)
    us = np.array([0.0, 5000.0])
    grid = objective_grid(p, us)
    assert np.isinf(grid[1])


def test_mean_matches_numpy_bitwise():
    # the residual's means run on Python floats; they must round exactly as
    # np.mean does (pairwise summation), or trajectories drift from it
    rng = np.random.default_rng(29)
    for n in list(range(1, 41)) + [129, 300]:
        for _ in range(50):
            x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, size=n)
            assert np.float64(_mean(x.tolist())).tobytes() == x.mean().tobytes()
    zeros = np.full(10, -0.0)
    assert np.float64(_mean(zeros.tolist())).tobytes() == zeros.mean().tobytes()


@pytest.mark.parametrize("n", [1, 3, 10, 17])
def test_evaluate_agrees_with_split_and_grid(n):
    # the fused float residual against the two independent routes: the
    # unfused ensemble statistics and the vectorized grid objective, at
    # cruising speeds and at standstill speeds where low inputs clamp
    rng = np.random.default_rng(30 + n)
    checked = clamped = infeasible = 0
    while checked < 60:
        p = random_problem(rng)
        members = p.ensemble.members.mean(axis=0) + rng.uniform(-0.3, 0.3, size=(n, 3))
        members[:, 0] = np.minimum(members[:, 0], -p.reward.curvature_floor)
        p = dataclasses.replace(p, ensemble=Ensemble(members, np.geomspace(0.05, 0.5, n)))
        if checked % 2:
            p = dataclasses.replace(p, v=float(rng.uniform(0.0, 0.3)))
        u = random_input(rng, p.vehicle) if checked % 3 else p.vehicle.u_min
        grid = float(objective_grid(p, [u])[0])
        try:
            F, J = evaluate(p, u)
        except InfeasibleCandidateError:
            assert grid == math.inf
            with pytest.raises(InfeasibleCandidateError):
                objective_split(p, u)
            infeasible += 1
            continue
        d = float(F @ F)
        exploit, explore = objective_split(p, u)
        assert abs(d - (exploit + explore)) < 1e-10 * max(1.0, d)
        assert abs(exploit - F[0] ** 2) < 1e-10 * max(1.0, d)
        assert abs(explore - F[1:] @ F[1:]) < 1e-10 * max(1.0, d)
        assert d == pytest.approx(grid, rel=1e-12, abs=1e-12)
        assert F.shape == J.shape == (n + 1,)
        clamped += u < standstill_input(p.vehicle, p.v)
        checked += 1
    assert clamped >= 5
    assert infeasible < checked


def test_overflowed_members_are_infeasible(spec):
    # members overflowed by a diverging update give inf/nan on every route;
    # the float path must report that as an infeasible candidate, never as
    # a Python ZeroDivisionError or OverflowError
    members = [[-0.05, 5.2e47, 1.8e47], [-2.4e67, -1.5e66, -5.2e65], [-0.05, 3.5e89, 1.2e89]]
    p = make_problem(members, rates=[0.1, 0.5, 0.9], v=88.0, spec=spec)
    us = np.linspace(p.vehicle.u_min, p.vehicle.u_max, 21)
    for u in us:
        with pytest.raises(InfeasibleCandidateError):
            evaluate(p, float(u))
        with pytest.raises(InfeasibleCandidateError):
            objective_split(p, float(u))
    assert np.isinf(objective_grid(p, us)).all()
    # one NaN member leaves no candidate feasible on either split route
    p = make_problem([[-1.0, 1.5, 0.25], [math.nan, 1.0, 0.0], [-0.5, 1.0, 0.1]], spec=spec)
    for u in us:
        with pytest.raises(InfeasibleCandidateError):
            objective_split(p, float(u))
    assert np.isinf(objective_grid(p, us)).all()
    # a member of zero curvature at a clamped input: t0 is exactly 0, which
    # a float divides by only with a ZeroDivisionError
    p = make_problem([[-1.0, 1.5, 0.25], [0.0, 1.0, 0.0]], v=0.1, spec=spec)
    u = p.vehicle.u_min
    assert u < standstill_input(p.vehicle, p.v)
    with pytest.raises(InfeasibleCandidateError):
        objective_split(p, u)
    assert objective_grid(p, [u])[0] == math.inf
    # a curvature floor so small that th0**2 underflows to 0 in the Jacobian
    tiny = dataclasses.replace(spec, curvature_floor=1e-200)
    p = make_problem([[-1e-170, 1e-171, 0.0], [-1e-170, 2e-171, 0.0]], v=10.0, spec=tiny)
    F, J = evaluate(p, 300.0, with_jacobian=False)
    assert F.shape == (3,) and J is None
    with pytest.raises(InfeasibleCandidateError):
        evaluate(p, 300.0)
