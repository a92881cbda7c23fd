import json
import math
import types

import numpy as np
import pytest

from dcee import (
    GnConfig,
    InvalidInputError,
    SolverFailureError,
    active_segment,
    bench_solver,
    compute_metrics,
    default_config,
    export,
    optimal_condition,
    parse_csv,
    run_closed_loop,
    scenario_from_dict,
)
from dcee import harness
from dcee.diagnostics import fd_step
from dcee.harness import CSV_HEADER, StepRecord


def short_cfg(**overrides):
    d = default_config()
    d["horizon_s"] = 30.0
    for key, value in overrides.items():
        if isinstance(value, dict):
            d[key] = {**d[key], **value}
        else:
            d[key] = value
    return scenario_from_dict(d)


def test_single_step_run():
    cfg = short_cfg(horizon_s=0.1)
    res = run_closed_loop(cfg)
    assert len(res.records) == 1


def test_record_count_and_fields():
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    assert len(res.records) == cfg.n_steps
    r = res.records[0]
    assert r.t == 0.0
    assert r.v == cfg.v0
    assert r.iterations >= 1
    assert res.timing["mean_ns"] > 0


def test_default_run_reports_converged_solves():
    d = default_config()
    d["horizon_s"] = 60.0
    cfg = scenario_from_dict(d)
    health = run_closed_loop(cfg).solver.as_dict()
    assert health["solves"] == cfg.n_steps
    assert sum(health["iteration_histogram"]) == cfg.n_steps
    assert health["converged_frac"] >= 0.99
    assert health["fallbacks"] == 0


@pytest.mark.parametrize("controller", ["numerical_dcee", "grad_dcee"])
def test_run_leaves_standstill(controller):
    # from v0 = 0 the warm start u = 0 lies in the flat region below the
    # drag force; both controllers must still accelerate away
    cfg = short_cfg(v0=0.0, controller={"type": controller})
    r = run_closed_loop(cfg)
    assert r.records[-1].v > 1.0


def test_newton_reference_fails_at_a_slope_without_curvature(monkeypatch):
    # a bump seen by the gradient stencil but not by the curvature stencil:
    # the difference Hessian is 0 while the gradient is not, and the
    # reference must fail rather than report convergence where it stands
    cfg = short_cfg()
    vehicle = cfg.vehicle
    u0 = 1000.0
    hg = fd_step(vehicle, u0)
    assert 2.0 * hg < 1e-4 * (1.0 + u0)

    def bumped_residual(u):
        return np.array([1.0 if u0 + 0.5 * hg < u < u0 + 2.0 * hg else 0.0])

    # the reference prepares its residual once per solve through this name
    monkeypatch.setattr(harness, "_as_residual_only", lambda problem: bumped_residual)
    problem = types.SimpleNamespace(vehicle=vehicle)
    gncfg = GnConfig(u_min=vehicle.u_min, u_max=vehicle.u_max)
    with pytest.raises(SolverFailureError, match="zero curvature at a slope"):
        harness._newton_fd_solve(problem, u0, gncfg)


def test_run_deterministic():
    cfg = short_cfg()
    a = run_closed_loop(cfg)
    b = run_closed_loop(cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    assert a.metrics == b.metrics


def test_all_controllers_run():
    for ctype in ("numerical_dcee", "grad_dcee", "esc"):
        cfg = short_cfg(controller={"type": ctype})
        res = run_closed_loop(cfg)
        assert len(res.records) == cfg.n_steps
        assert math.isfinite(res.metrics["regret"])


@pytest.mark.parametrize("v_star", [15.0, 20.0, 30.0, 35.0])
def test_noise_free_single_segment_settles_at_peak(v_star):
    # from v0 = 5 the loop must find a peak it was not started near; the
    # default scenario's first peak, 25 m/s, is not among these
    d = default_config()
    d["noise"]["sigma_reward"] = 0.0
    d["schedule"] = [{"t_start": 0.0, "v_star": v_star, "w_z": 1.0, "disturbance_force": 0.0}]
    d["horizon_s"] = 300.0
    res = run_closed_loop(scenario_from_dict(d))
    tail = [r for r in res.records if r.t >= 240.0]
    assert max(abs(r.v - v_star) for r in tail) < 0.1
    assert abs(tail[-1].gamma_mean_est - v_star) < 0.1


def test_run_survives_extreme_ensemble_settings():
    # fast staggered rates and a wide prior make many candidates infeasible:
    # the controller holds its input and the run goes on
    cfg = short_cfg(
        horizon_s=60.0, ensemble={"eta_lo": 0.1, "eta_hi": 0.9, "spread": [1.0, 1.0, 1.0]}
    )
    res = run_closed_loop(cfg)
    assert len(res.records) == cfg.n_steps


def test_metrics_hand_values(spec):
    from dcee import make_true_params
    from dcee.plant import EnvSegment

    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    schedule = (EnvSegment(0.0, theta, 0.0),)

    def rec(t, v):
        return StepRecord(t, v, 0.0, 25.0, 0.0, 0.0, 0.0, 0.0, 0)

    perfect = [rec(0.1 * k, 25.0) for k in range(100)]
    m = compute_metrics(perfect, schedule, spec)
    assert m == {"e_v": 0.0, "e_v_tail": 0.0, "iae_v": 0.0, "regret": 0.0}

    off = [rec(0.1 * k, 24.5) for k in range(100)]
    m = compute_metrics(off, schedule, spec)
    assert m["iae_v"] == pytest.approx(50.0)
    assert m["e_v"] == pytest.approx(0.5)
    assert m["e_v_tail"] == pytest.approx(0.5)

    # the tail window holds the records strictly later than 30 s before the last
    step = [rec(float(k), 22.0 if k > 69 else 26.0) for k in range(100)]
    m = compute_metrics(step, schedule, spec)
    assert m["e_v_tail"] == 3.0
    assert m["iae_v"] == 70 * 1.0 + 30 * 3.0

    off3 = [rec(0.1 * k, 22.0) for k in range(100)]
    m = compute_metrics(off3, schedule, spec)
    assert m["regret"] == pytest.approx(100 * (3.0 / 30.0) ** 2)


def per_record_metrics(records, schedule, spec):
    """compute_metrics' sums with the optimal speed recomputed at every
    record: the oracle of its once-per-segment caching."""
    iae = 0.0
    regret = 0.0
    for r in records:
        seg = active_segment(schedule, r.t)
        v_star = optimal_condition(spec, seg.theta_true)
        e_v = abs(r.v - v_star)
        iae += e_v
        regret += -seg.theta_true[0] * (r.v / spec.v_scale - v_star / spec.v_scale) ** 2
    return {"e_v": e_v, "iae_v": iae, "regret": regret}


def test_metrics_equal_per_record_lookup_bitwise():
    res = run_closed_loop(short_cfg(horizon_s=900.0, controller={"type": "esc"}))
    cfg = scenario_from_dict(res.config)
    records = res.records
    rng = np.random.default_rng(71)
    # time order, reversed, and shuffled: a segment may be entered many times
    for recs in (records, records[::-1], [records[i] for i in rng.permutation(len(records))]):
        got = compute_metrics(recs, cfg.schedule, cfg.reward)
        want = per_record_metrics(recs, cfg.schedule, cfg.reward)
        for key, value in want.items():
            assert type(got[key]) is float
            assert np.float64(got[key]).tobytes() == np.float64(value).tobytes(), key
    assert type(res.metrics["e_v_tail"]) is float


@pytest.mark.parametrize("horizon_s", [12.0, 45.0])
def test_e_v_tail_is_mean_speed_error_over_last_window(horizon_s):
    res = run_closed_loop(short_cfg(horizon_s=horizon_s))
    t = np.array([r.t for r in res.records])
    err = np.abs(np.array([r.v - r.v_star_true for r in res.records]))
    tail = err[t > t[-1] - harness.TAIL_WINDOW_S]
    # 30 s at dt = 0.1 s, or the whole run when it is shorter
    assert tail.size == min(len(res.records), 300)
    assert res.metrics["e_v_tail"] == pytest.approx(tail.mean(), rel=1e-12)
    assert res.metrics["e_v"] == err[-1]


def test_metrics_empty_records(spec):
    with pytest.raises(InvalidInputError):
        compute_metrics([], (), spec)


def test_csv_export_round_trip(tmp_path):
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    path = tmp_path / "out.csv"
    export(res, path, "csv")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    assert first == CSV_HEADER
    assert first == "t,v,u,v_star_true,gamma_mean_est,exploit,explore,reward_meas,iterations"
    back = parse_csv(path)
    assert len(back) == len(res.records)
    for ra, rb in zip(res.records, back):
        assert ra == rb  # 17 significant digits round-trip float64 exactly


def test_metrics_recomputable_from_csv(tmp_path):
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    path = tmp_path / "out.csv"
    export(res, path, "csv")
    back = parse_csv(path)
    m = compute_metrics(back, cfg.schedule, cfg.reward)
    for key in ("e_v", "iae_v", "regret"):
        assert m[key] == pytest.approx(res.metrics[key], abs=1e-9)


def test_json_export(tmp_path):
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    path = tmp_path / "out.json"
    export(res, path, "json")
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    assert payload["config"] == res.config
    assert payload["metrics"]["iae_v"] == pytest.approx(res.metrics["iae_v"])
    assert set(payload["timing"]) == {"mean_ns", "max_ns", "p99_ns"}
    assert payload["solver"] == res.solver.as_dict()
    assert payload["solver"]["solves"] == cfg.n_steps


def test_export_guards(tmp_path):
    cfg = short_cfg(horizon_s=0.1)
    res = run_closed_loop(cfg)
    with pytest.raises(InvalidInputError):
        export(res, tmp_path / "x.bin", "parquet")
    empty = run_closed_loop(cfg)
    empty.records = []
    with pytest.raises(InvalidInputError):
        export(empty, tmp_path / "y.csv", "csv")
    assert not (tmp_path / "y.csv").exists()
    with pytest.raises(InvalidInputError):
        export(res, "/nonexistent-dir/file.csv", "csv")


def test_seed_changes_trajectory():
    base = short_cfg()
    res_a = run_closed_loop(base)
    d = default_config()
    d["horizon_s"] = 30.0
    d["noise"]["seed"] = 1
    res_b = run_closed_loop(scenario_from_dict(d))
    assert any(ra.reward_meas != rb.reward_meas for ra, rb in zip(res_a.records, res_b.records))


def test_bench_solver_structure_and_ordering():
    d = default_config()
    d["horizon_s"] = 20.0
    cfg = scenario_from_dict(d)
    report = bench_solver(cfg, agreement_stride=50)
    t = report["timing"]
    assert set(t) == {"analytic_gn", "fd_jacobian_gn", "fd_hessian_newton"}
    # analytic derivative beats the finite-difference Hessian reference
    assert t["analytic_gn"]["mean_ns"] < t["fd_hessian_newton"]["mean_ns"]
    assert report["speedup_vs_analytic"]["fd_hessian_newton"] > 1.0
    # all solvers reach the same objective when solved to convergence
    assert report["agreement_checks"] >= 4
    assert report["agreement_max_rel"] < 1e-6
    assert report["solver"]["solves"] == cfg.n_steps
    # the analytic solves' thread CPU time: positive, and the max bounds the p99
    gn = t["analytic_gn"]
    assert 0.0 < gn["cpu_p99_ns"] <= gn["cpu_max_ns"]
    assert {"explore_share_max", "explore_active"} <= set(report["solver"])
