from pathlib import Path

import numpy as np
import pytest

from dcee import diagnostics
from dcee.cli import main
from dcee.config import load_config, scenario_from_dict
from dcee.core import residual_fn, standstill_input
from dcee.diagnostics import (HessianSplit, contraction_rate, derivative_audit, fd_hessian_newton,
                              fd_step, ggn_split, random_input, random_problem)
from dcee.errors import InfeasibleCandidateError, InvalidInputError, RateUndefinedError
from dcee.plant import VehicleParams, drag_force
from dcee.reward import QuadraticRewardSpec, make_true_params
from dcee.solver import GnConfig, solve

from conftest import final_state, make_problem


DEFAULT_CONFIG = str(Path(__file__).resolve().parents[1] / "configs" / "default.yaml")


def _second_difference_of_half_objective(fun, u, h):
    # the split's curvature rule on the half objective of a synthetic u -> F
    def L(x):
        f = fun(x)
        return 0.5 * float(f @ f)

    return diagnostics._central(L, u, h, L(u))


def test_exact_hessian_synthetic_quadratic():
    # L = 0.5 * a * u^2 realized as residual sqrt(a) * u
    a = 2.0

    def fun(u):
        return np.array([np.sqrt(a) * u])

    assert _second_difference_of_half_objective(fun, 1.0, h=2e-4) == pytest.approx(a, abs=1e-6)


def test_exact_hessian_affine_residual_matches_gn_matrix():
    a = np.array([1.0, -0.5, 2.0])

    def fun(u):
        return a * (u - 1.0) + np.array([0.1, 0.0, -0.2])

    h_exact = _second_difference_of_half_objective(fun, 4.0, h=5e-4)
    assert h_exact == pytest.approx(float(a @ a), rel=1e-6)


def test_ggn_split_consistency_by_construction():
    rng = np.random.default_rng(32)
    p = random_problem(rng)
    split = ggn_split(p, 200.0)
    assert split.h_exact == pytest.approx(split.b_ggn + split.e_ggn)
    assert split.b_ggn >= 0.0


def _check_split_reads_the_callback(p, u):
    """ggn_split's J'J against the solve callback's, and where the curvature
    is positive its exact curvature against the Newton reference's, bit for
    bit.  Returns whether the split could be formed at u."""
    try:
        split = ggn_split(p, u)
    except InfeasibleCandidateError:  # u or a stencil point past the edge
        return False
    assert split.b_ggn.hex() == residual_fn(p)(u)[2].hex()
    if split.h_exact > 0.0:
        assert split.h_exact.hex() == fd_hessian_newton(p)(u)[2].hex()
    return True


def test_ggn_split_reads_the_solve_callback():
    # the split checks the J'J the solver divides by, and its exact
    # curvature is the Newton reference's, on random problems and at the
    # default run's final snapshot
    rng = np.random.default_rng(38)
    formed = 0
    for _ in range(100):
        p = random_problem(rng)
        formed += _check_split_reads_the_callback(p, random_input(rng, p.vehicle))
    assert formed >= 90
    assert _check_split_reads_the_callback(*final_state(load_config(DEFAULT_CONFIG)))


def test_ggn_error_term_shrinks_toward_zero_residual(spec):
    # family of consensus-plus-scaled-deviation ensembles approaching the
    # optimum: the neglected curvature shrinks with the residual
    veh = VehicleParams()
    rng = np.random.default_rng(33)
    deltas = rng.uniform(-2.0, 2.0, size=5)
    deltas -= deltas.mean()
    u_eq = drag_force(veh, 25.0)
    errs = []
    for c in (1.0, 0.5, 0.25, 0.125):
        members = np.stack([make_true_params(spec, 1.0, 25.0 + c * d, 1.0) for d in deltas])
        p = make_problem(members, rates=np.full(5, 0.02), v=25.0, spec=spec, vehicle=veh)
        split = ggn_split(p, u_eq)
        errs.append(abs(split.e_ggn))
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_contraction_rate_hand_values():
    assert contraction_rate(HessianSplit(b_ggn=2.0, e_ggn=1.0, h_exact=3.0)) == 0.5
    assert contraction_rate(HessianSplit(b_ggn=2.0, e_ggn=-1.0, h_exact=1.0)) == 0.5
    assert contraction_rate(HessianSplit(b_ggn=2.0, e_ggn=0.0, h_exact=2.0)) == 0.0


def test_contraction_rate_requires_positive_definite():
    for b in (0.0, -1.0, float("nan")):
        with pytest.raises(RateUndefinedError):
            contraction_rate(HessianSplit(b_ggn=b, e_ggn=1.0, h_exact=b + 1.0))


def test_contraction_rate_scale_invariant():
    rng = np.random.default_rng(34)
    for _ in range(20):
        B = float(rng.uniform(0.1, 10.0))
        E = float(rng.standard_normal())
        base = contraction_rate(HessianSplit(b_ggn=B, e_ggn=E, h_exact=B + E))
        for c in (0.1, 7.0):
            scaled = contraction_rate(HessianSplit(b_ggn=c * B, e_ggn=c * E, h_exact=c * (B + E)))
            assert scaled == pytest.approx(base, rel=1e-9)


def test_contraction_rate_small_at_converged_operating_point():
    cfg = scenario_from_dict({
        "noise": {"sigma_reward": 0.0}, "horizon_s": 300.0,
        "schedule": [{"t_start": 0.0, "v_star": 25.0, "w_z": 1.0, "disturbance_force": 0.0}]})
    prob, u_final = final_state(cfg)
    sol_cfg = GnConfig(max_iters=40, tol=1e-10, u_min=cfg.vehicle.u_min, u_max=cfg.vehicle.u_max)
    u_star, _ = solve(residual_fn(prob), u_final, sol_cfg)
    alpha = contraction_rate(ggn_split(prob, u_star))
    assert alpha < 1.0


def test_derivative_audit_deterministic_and_clean():
    a = derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=40, seed=77)
    b = derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=40, seed=77)
    assert a.max_jacobian_rel_err == b.max_jacobian_rel_err
    assert a.max_gradient_rel_err == b.max_gradient_rel_err
    assert a.skipped == b.skipped
    assert a.passed
    assert a.samples == 40
    d = a.as_dict()
    assert set(d) == {
        "samples",
        "skipped",
        "max_jacobian_rel_err",
        "max_gradient_rel_err",
        "max_decomposition_abs_err",
        "elapsed_s",
    }


def test_derivative_audit_reaches_standstill_and_bounds(monkeypatch):
    # besides cruising speeds and interior inputs the audit checks the
    # branch where the predicted speed clamps to 0 and inputs at the bounds
    seen = []
    real_evaluate = diagnostics.evaluate

    def spy(prob, u):
        F, J = real_evaluate(prob, u)
        seen.append((prob, u, J))
        return F, J

    monkeypatch.setattr(diagnostics, "evaluate", spy)
    report = derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=100, seed=711)
    assert report.passed
    clamped = [J for prob, u, J in seen if u < standstill_input(prob.vehicle, prob.v)]
    assert len(clamped) >= 5
    assert not any(J.any() for J in clamped)
    assert sum(u in (prob.vehicle.u_min, prob.vehicle.u_max) for prob, u, _ in seen) >= 25
    assert sum(prob.v <= 0.5 for prob, _, _ in seen) >= 25


def test_derivative_audit_skips_and_counts_a_kinked_and_an_infeasible_instance(monkeypatch):
    # criterion 1 skips none of its instances, so these force both skips: a
    # stencil that straddles standstill_input, where the residual has a
    # kink, and a bank whose predicted update leaves the admissible region;
    # a clean instance beside them is still checked
    from conftest import make_problem

    members = [[-1.0, 1.5, 0.25], [-1.0, 2.5, 0.0]]
    clean = make_problem(members, rates=[0.05, 0.05], v=20.0)
    slow = make_problem(members, rates=[0.05, 0.05], v=0.3)
    infeasible = make_problem(members, rates=[50.0, 50.0], v=20.0)
    with pytest.raises(InfeasibleCandidateError):
        diagnostics.evaluate(infeasible, 1000.0)
    instances = [(clean, 1000.0), (slow, standstill_input(slow.vehicle, slow.v)), (infeasible, 1000.0)]
    monkeypatch.setattr(diagnostics, "_audit_instance", lambda rng, vehicle, reward, k: instances[k])
    evaluated = []
    real_evaluate = diagnostics.evaluate

    def spy(prob, u):
        evaluated.append(prob)
        return real_evaluate(prob, u)

    monkeypatch.setattr(diagnostics, "evaluate", spy)
    report = derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=3, seed=1)
    assert (report.samples, report.skipped) == (3, 2)
    assert report.passed and report.max_jacobian_rel_err > 0.0
    # the kinked instance is skipped before any evaluation, the infeasible one at its first
    assert any(p is clean for p in evaluated) and any(p is infeasible for p in evaluated)
    assert not any(p is slow for p in evaluated)


def test_fd_step_scale():
    veh = VehicleParams()
    assert fd_step(veh, 0.0) == pytest.approx(1e-6 * 10000.0)
    assert fd_step(veh, 1000.0) == pytest.approx(1e-6 * 11000.0)


@pytest.mark.parametrize("h", [0.0, -1e-3, float("nan")])
def test_finite_differences_need_a_positive_step(h):
    with pytest.raises(InvalidInputError, match="finite-difference step must be positive"):
        diagnostics.jacobian_fd(lambda u: np.array([u, u * u]), 1.0, h)


def test_audit_fails_on_a_wrong_callback_gradient(monkeypatch, capsys):
    # the audit checks the J'F solve steps with: a gradient off by 1e-3
    # fails it, and `dcee audit` with it
    real = diagnostics.residual_fn

    def scaled(problem):
        terms = real(problem)

        def fn(u):
            d, jtf, jtj = terms(u)
            return d, jtf * (1.0 + 1e-3), jtj
        return fn

    monkeypatch.setattr(diagnostics, "residual_fn", scaled)
    report = derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=20, seed=711)
    assert report.max_gradient_rel_err > 1e-4
    assert not report.passed
    assert main(["audit", DEFAULT_CONFIG, "--samples", "20"]) == 1
    assert '"passed": false' in capsys.readouterr().out


@pytest.mark.parametrize("samples, seed", [(2.5, 1), (0, 1), ("5", 1), (True, 1), (5, -1), (5, 1.5),
                                           (5, None), (5, True)],
                         ids=["samples-2.5", "samples-0", "samples-str", "samples-True", "seed-neg",
                              "seed-1.5", "seed-None", "seed-True"])
def test_derivative_audit_rejects_bad_arguments_before_any_work(monkeypatch, samples, seed):
    def no_work(*args):
        raise AssertionError("derivative_audit drew an instance")

    monkeypatch.setattr(diagnostics, "_audit_instance", no_work)
    with pytest.raises(InvalidInputError, match="samples|seed"):
        derivative_audit(VehicleParams(), QuadraticRewardSpec(), samples=samples, seed=seed)
