import csv
import gc
import json
import math
import tracemalloc
import types

import numpy as np
import pytest

import dcee.core
import dcee.ensemble
from dcee import diagnostics, harness
from dcee.baselines import esc_init, esc_step, grad_dcee_step
from dcee.config import CONTROLLER_TYPES, scenario_from_dict
from dcee.core import evaluate, objective_split, residual_fn, standstill_input, warm_start
from dcee.diagnostics import (fd_hessian_newton, fd_hessian_step, fd_step, random_input,
                              random_problem)
from dcee.ensemble import condition_stats
from dcee.errors import InfeasibleCandidateError, InvalidInputError, SolverFailureError
from dcee.harness import (CSV_HEADER, RecordView, StepRecord, bench_solver, compute_metrics, export,
                          run_closed_loop)
from dcee.plant import EnvSegment, active_segment, drag_force
from dcee.reward import make_true_params, optimal_condition
from dcee.solver import GnConfig, controller_step, gn_terms, solve

from conftest import failing_reference, final_state, make_bank, make_problem


def short_cfg(**overrides):
    return scenario_from_dict({"horizon_s": 30.0, **overrides})


def exploit_only(problem):
    """bench_solver's callback of the exploitation residual F[0] alone:
    gn_terms of evaluate's first entries."""
    return lambda u: gn_terms(*(a[:1] for a in evaluate(problem, u)))


def test_single_step_run():
    cfg = short_cfg(horizon_s=0.1)
    res = run_closed_loop(cfg)
    assert len(res.records) == 1


def test_record_count_and_fields():
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    assert type(res.records) is RecordView and len(res.records) == cfg.n_steps
    assert all(type(r) is StepRecord for r in res.records)
    r = res.records[0]
    assert r.t == 0.0
    assert r.v == cfg.v0
    assert r.iterations >= 1
    assert type(r.iterations) is int and all(type(x) is float for x in r[:-1])
    assert res.timing["mean_ns"] > 0
    # a record is a tuple of the CSV columns and cannot be written
    assert isinstance(r, tuple)
    with pytest.raises(AttributeError):
        r.v = 1.0


@pytest.mark.parametrize("snapshot, name, value", [
    (make_problem([[-1.0, 1.5, 0.2]]), "v", 3.0),
    (make_bank([[-1.0, 1.5, 0.2]]), "resets", 2),
    (esc_init(5.0), "k", 7),
], ids=["DceeProblem", "Ensemble", "EscState"])
def test_step_snapshots_are_frozen(snapshot, name, value):
    # the snapshots a step builds are tuple records: no field can be set,
    # _replace returns a changed copy, and they carry no __dict__
    assert isinstance(snapshot, tuple)
    with pytest.raises(AttributeError):
        setattr(snapshot, name, value)
    changed = snapshot._replace(**{name: value})
    assert type(changed) is type(snapshot)
    assert getattr(changed, name) == value and getattr(snapshot, name) != value
    assert not hasattr(snapshot, "__dict__")


def test_bank_replace_checks_as_the_constructor_does():
    # _replace builds through Ensemble's constructor, so a field in another
    # form than tuples of Python floats raises there too
    bank = make_bank([[-1.0, 1.5, 0.2]])
    for members in (np.array([[-2.0, 1.0, 0.5]]), np.zeros((1, 2)), ((-2.0, 1.0),)):
        with pytest.raises(InvalidInputError, match="bank"):
            bank._replace(members=members)
    with pytest.raises(InvalidInputError, match="bank"):
        bank._replace(rates=(0.1, 0.1))
    changed = bank._replace(members=((-2.0, 1.0, 0.5),))
    assert type(changed) is type(bank) and changed == make_bank([[-2.0, 1.0, 0.5]])
    assert bank.members == ((-1.0, 1.5, 0.2),)


@pytest.mark.parametrize("controller, selector", [
    ("numerical_dcee", "controller_step"), ("grad_dcee", "grad_dcee_step"), ("esc", "esc_step")])
def test_no_collection_starts_inside_a_selection(monkeypatch, controller, selector):
    # a step keeps no object the garbage collector tracks, and the records
    # are built only when read, so once a short run has warmed the
    # interpreter up, the collector's count stays flat from step to step:
    # from a collected heap, at the default thresholds, no collection
    # starts anywhere in the run, so none inside a selection
    assert gc.isenabled()
    cfg = short_cfg(horizon_s=300.0, controller={"type": controller})
    run_closed_loop(short_cfg(controller={"type": controller}))
    select = getattr(harness, selector)
    inside = False
    started = []

    def watched(*args):
        nonlocal inside
        inside = True
        try:
            return select(*args)
        finally:
            inside = False

    def on_gc(phase, info):
        if phase == "start":
            started.append(inside)

    monkeypatch.setattr(harness, selector, watched)
    gc.callbacks.append(on_gc)
    try:
        # the hook sees a collection that does start
        gc.collect()
        assert started == [False]
        started.clear()
        run_closed_loop(cfg)
    finally:
        gc.callbacks.remove(on_gc)
    assert True not in started
    assert started == []


def test_default_run_reports_converged_solves():
    cfg = short_cfg(horizon_s=60.0)
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
    assert 2.0 * hg < fd_hessian_step(vehicle, u0)

    def bumped_terms(u):
        return (1.0 if u0 + 0.5 * hg < u < u0 + 2.0 * hg else 0.0), 0.0, 0.0

    # the reference prepares its callback once per solve through this name
    monkeypatch.setattr(diagnostics, "residual_fn", lambda problem: bumped_terms)
    problem = types.SimpleNamespace(vehicle=vehicle)
    gncfg = GnConfig(u_min=vehicle.u_min, u_max=vehicle.u_max)
    with pytest.raises(SolverFailureError, match="zero curvature at a slope"):
        solve(fd_hessian_newton(problem), u0, gncfg)


def test_newton_reference_fails_on_an_infeasible_stencil_point(monkeypatch):
    # u itself is feasible but the curvature stencil reaches past the edge
    # of the feasible region: no step can be formed there, so the reference
    # fails; an infeasible u is rejected as any callback rejects it
    cfg = short_cfg()
    vehicle = cfg.vehicle
    u0 = 1000.0
    edge = u0 + 0.5 * fd_hessian_step(vehicle, u0)

    def edged_terms(u):
        if u > edge:
            raise InfeasibleCandidateError(f"u={u} past the edge")
        f = 1e-3 * u
        return f * f, 1e-3 * f, 1e-6

    monkeypatch.setattr(diagnostics, "residual_fn", lambda problem: edged_terms)
    fn = fd_hessian_newton(types.SimpleNamespace(vehicle=vehicle))
    gncfg = GnConfig(u_min=vehicle.u_min, u_max=vehicle.u_max)
    with pytest.raises(SolverFailureError, match="stencil point infeasible"):
        solve(fn, u0, gncfg)
    with pytest.raises(InfeasibleCandidateError):
        fn(2.0 * edge)


def test_newton_reference_resolves_the_curvature_at_the_first_step():
    # at the default run's first snapshot (5 m/s, warm start 0 N) the half
    # objective is about 97 while its curvature J'J is about 4e-9: a step
    # too fine leaves the second difference rounding noise
    problem, _ = harness.drive(short_cfg(horizon_s=0.1), lambda k, t, seg, r, p, u: u)
    _, _, H = fd_hessian_newton(problem)(0.0)
    assert H == pytest.approx(residual_fn(problem)(0.0)[2], rel=0.01)


# every solve callback the package builds, by name
_CALLBACKS = {
    "residual_fn": residual_fn,
    "gn_terms_of_evaluate": lambda p: lambda u: gn_terms(*evaluate(p, u)),
    "fd_hessian": fd_hessian_newton,
    "exploit_only": exploit_only,
}


def test_references_prepare_once_and_evaluate_as_their_stencils_need(monkeypatch):
    # one preparation per built callback, and per call the analytic callback
    # at u and at the stencil points u +- fd_step and u +- fd_hessian_step
    real = diagnostics.residual_fn
    counts = {"prepared": 0, "evaluated": 0}

    def counting(problem):
        fn = real(problem)
        counts["prepared"] += 1

        def counted(u):
            counts["evaluated"] += 1
            return fn(u)
        return counted

    monkeypatch.setattr(diagnostics, "residual_fn", counting)
    problem, _ = harness.drive(short_cfg(horizon_s=0.1), lambda k, t, seg, r, p, u: u)
    fn = fd_hessian_newton(problem)
    fn(300.0)
    fn(310.0)
    assert counts == {"prepared": 1, "evaluated": 10}


@pytest.mark.parametrize("name", sorted(_CALLBACKS))
def test_solve_callback_returns_exactly_three_floats(name):
    # (F'F, J'F, J'J) is the whole contract between a callback and solve
    problem, _ = harness.drive(short_cfg(horizon_s=0.1), lambda k, t, seg, r, p, u: u)
    terms = _CALLBACKS[name](problem)(0.0)
    assert type(terms) is tuple and len(terms) == 3
    assert all(type(x) is float for x in terms)


def test_run_deterministic():
    cfg = short_cfg()
    a = run_closed_loop(cfg)
    b = run_closed_loop(cfg)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    assert a.metrics == b.metrics


def test_drive_with_a_bare_controller_step_ends_where_the_run_does():
    # drive's return under a select of controller_step alone is the last
    # record's speed and input, bit for bit
    cfg = short_cfg()
    problem, u = final_state(cfg)
    last = run_closed_loop(cfg).records[-1]
    assert (problem.v.hex(), u.hex()) == (last.v.hex(), last.u.hex())


def _hex_rows(records):
    """Each record's nine columns, the floats by float.hex."""
    return [[x.hex() for x in r[:-1]] + [r.iterations] for r in records]


@pytest.mark.parametrize("controller", CONTROLLER_TYPES)
def test_records_equal_the_layers_called_directly_bitwise(controller):
    # run_closed_loop's bookkeeping against drive with a select that calls
    # each layer by hand: every column of every record, bit for bit
    cfg = short_cfg(controller={"type": controller}, horizon_s=20.0)
    ctl, spec = cfg.controller, cfg.reward
    esc_state = esc_init(cfg.v0)
    rows = []

    def select(k, t, seg, r_meas, problem, u_prev):
        nonlocal esc_state
        gamma_mean = condition_stats(problem.ensemble, spec)
        if controller == "numerical_dcee":
            u, report = controller_step(problem, u_prev, ctl.solver)
            iterations = report.iterations
        elif controller == "grad_dcee":
            u, iterations = grad_dcee_step(problem, u_prev, ctl.grad), 1
        else:
            u, esc_state = esc_step(esc_state, ctl.esc, r_meas, problem.v, cfg.vehicle)
            iterations = 0
        try:
            exploit, explore = objective_split(problem, u)
        except InfeasibleCandidateError:
            exploit = explore = math.nan
        rows.append(StepRecord(t, problem.v, u, optimal_condition(spec, seg.theta_true), gamma_mean,
                               exploit, explore, r_meas, iterations))
        return u

    harness.drive(cfg, select)
    records = run_closed_loop(cfg).records
    assert len(records) == len(rows) == cfg.n_steps
    assert all(type(r) is StepRecord and type(r.iterations) is int for r in records)
    assert _hex_rows(records) == _hex_rows(rows)


def test_record_view_indexes_and_slices_as_a_list_does():
    res = run_closed_loop(short_cfg(horizon_s=2.0))
    records = res.records
    listed = list(records)
    n = len(listed)
    assert n == 20 and _hex_rows(listed) == _hex_rows(records)
    for k in (0, 7, n - 1, -1, -n, np.int64(3), np.int32(-2)):
        assert type(records[k]) is StepRecord and _hex_rows([records[k]]) == _hex_rows([listed[k]])
    for sl in (slice(None, None, -1), slice(2, 9, 3), slice(-5, None), slice(30, 40)):
        assert type(records[sl]) is list and _hex_rows(records[sl]) == _hex_rows(listed[sl])
    for k in (n, -n - 1, np.int64(n)):
        with pytest.raises(IndexError):
            records[k]
    with pytest.raises(TypeError):
        records[1.0]
    # read-only: the view has no item assignment and no attributes to add
    with pytest.raises(TypeError):
        records[0] = listed[1]
    with pytest.raises(AttributeError):
        records.extra = 1


def test_run_result_retains_its_buffers_not_a_record_per_step():
    # a run logs 72 bytes a step into its two typed buffers; a list of
    # StepRecords kept beside them held about 300 bytes a step more.  The
    # buffers do not depend on the controller or the horizon, so a 90 s esc
    # run, the cheapest to trace, bounds the bytes per step of any run
    cfg = scenario_from_dict({"horizon_s": 90.0, "controller": {"type": "esc"}})
    tracemalloc.start()
    try:
        res = run_closed_loop(cfg)
        gc.collect()
        with_result = tracemalloc.get_traced_memory()[0]
        del res
        gc.collect()
        retained = with_result - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # per step, the bounds a 900 s run had: 72 B and 1,000,000 B / 9,000 steps
    assert 72 * cfg.n_steps <= retained < 1_000_000 / 9_000 * cfg.n_steps


def test_closed_loop_does_not_depend_on_the_algorithm_of_sum(monkeypatch):
    # Python's sum is compensated from 3.12 on, as math.fsum is: a loop that
    # averaged with it would give other records there than on 3.11
    cfg = short_cfg(horizon_s=60.0)
    expected = _hex_rows(run_closed_loop(cfg).records)
    for module in (dcee.core, dcee.ensemble):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    assert _hex_rows(run_closed_loop(cfg).records) == expected


@pytest.mark.parametrize("controller", CONTROLLER_TYPES)
def test_alarm_steps_are_the_steps_whose_update_fired(monkeypatch, controller):
    # through both switches of the default schedule, at 300 s and 600 s: the
    # run's own record against a wrapper that watches each measured update
    cfg = short_cfg(controller={"type": controller}, horizon_s=700.0)
    update = harness.measured_update
    fired = []
    step = 0

    def watched(bank, *args):
        nonlocal step
        out = update(bank, *args)
        if out.resets > bank.resets:
            fired.append(step)
        step += 1
        return out

    monkeypatch.setattr(harness, "measured_update", watched)
    alarms = run_closed_loop(cfg).alarm_steps
    assert step == cfg.n_steps
    assert type(alarms) is tuple and all(type(k) is int for k in alarms)
    assert alarms == tuple(fired)
    assert len(alarms) == 2 and 3000 <= alarms[0] < 3100 and 6000 <= alarms[1] < 6100


def test_all_controllers_run():
    for ctype in CONTROLLER_TYPES:
        cfg = short_cfg(controller={"type": ctype})
        res = run_closed_loop(cfg)
        assert len(res.records) == cfg.n_steps
        assert math.isfinite(res.metrics["regret"])


@pytest.mark.parametrize("v_star", [15.0, 20.0, 30.0, 35.0])
def test_noise_free_single_segment_settles_at_peak(v_star):
    # from v0 = 5 the loop must find a peak it was not started near; the
    # default scenario's first peak, 25 m/s, is not among these
    res = run_closed_loop(short_cfg(
        noise={"sigma_reward": 0.0}, horizon_s=300.0,
        schedule=[{"t_start": 0.0, "v_star": v_star, "w_z": 1.0, "disturbance_force": 0.0}]))
    tail = [r for r in res.records if r.t >= 240.0]
    assert max(abs(r.v - v_star) for r in tail) < 0.1
    assert abs(tail[-1].gamma_mean_est - v_star) < 0.1
    # with no switch and no noise the change test never fires
    assert res.alarm_steps == ()


def test_run_survives_extreme_ensemble_settings():
    # fast staggered rates and a wide prior make many candidates infeasible:
    # the controller holds its input and the run goes on
    cfg = short_cfg(
        horizon_s=60.0, ensemble={"eta_lo": 0.1, "eta_hi": 0.9, "spread": [1.0, 1.0, 1.0]}
    )
    res = run_closed_loop(cfg)
    assert len(res.records) == cfg.n_steps


def test_metrics_hand_values(spec):

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


def test_tail_window_keeps_the_last_record_where_its_start_rounds_to_it(spec):
    # 1e300 - 30 rounds back to 1e300: no record is later than that, and
    # the window's mean divided by zero records
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    schedule = (EnvSegment(0.0, theta, 0.0),)
    records = [StepRecord(t, v, 0.0, 25.0, 0.0, 0.0, 0.0, 0.0, 0) for t, v in ((0.0, 20.0), (1e300, 24.0))]
    assert 1e300 - harness.TAIL_WINDOW_S == 1e300
    m = compute_metrics(records, schedule, spec)
    assert m["e_v_tail"] == m["e_v"] == abs(24.0 - optimal_condition(spec, theta))
    assert m["iae_v"] == abs(20.0 - optimal_condition(spec, theta)) + m["e_v"]


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


def test_timing_summary_of_no_samples_is_none():
    assert harness._timing_summary([]) is None


def test_metrics_empty_records(spec):
    with pytest.raises(InvalidInputError):
        compute_metrics([], (), spec)


@pytest.mark.parametrize("bad_t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [0, 50, 99])
def test_metrics_reject_a_non_finite_record_time(spec, bad_t, where):
    # a NaN time on the last record left the tail window empty, and one
    # elsewhere was booked to the first segment; both now name the record

    schedule = (EnvSegment(0.0, make_true_params(spec, 1.0, 25.0, 1.0), 0.0),
                EnvSegment(5.0, make_true_params(spec, 1.0, 20.0, 1.0), 0.0))
    records = [StepRecord(0.1 * k, 24.0, 0.0, 25.0, 0.0, 0.0, 0.0, 0.0, 0) for k in range(100)]
    records[where] = records[where]._replace(t=bad_t)
    with pytest.raises(InvalidInputError, match=f"record {where} "):
        compute_metrics(records, schedule, spec)


def read_csv(path):
    """An exported CSV's rows as StepRecords, read with the csv module."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [StepRecord(**{k: int(v) if k == "iterations" else float(v) for k, v in row.items()}) for row in rows]


def test_csv_export_round_trip(tmp_path):
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    path = tmp_path / "out.csv"
    export(res, path, "csv")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    assert first == CSV_HEADER
    assert first == "t,v,u,v_star_true,gamma_mean_est,exploit,explore,reward_meas,iterations"
    back = read_csv(path)
    assert len(back) == len(res.records)
    for ra, rb in zip(res.records, back):
        assert ra == rb  # 17 significant digits round-trip float64 exactly


def test_metrics_recomputable_from_csv(tmp_path):
    cfg = short_cfg()
    res = run_closed_loop(cfg)
    path = tmp_path / "out.csv"
    export(res, path, "csv")
    back = read_csv(path)
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


def test_json_export_is_the_summary_and_config_in_one_format(tmp_path):
    res = run_closed_loop(short_cfg(horizon_s=0.5))
    path = tmp_path / "out.json"
    assert export(res, path, "json") == str(path)
    expected = json.dumps({"config": res.config, **res.summary()}, indent=2, sort_keys=True)
    assert path.read_text(encoding="utf-8") == expected + "\n"
    assert set(res.summary()) == {"metrics", "timing", "solver"}
    with pytest.raises(InvalidInputError, match="cannot write"):
        export(res, tmp_path / "missing-dir" / "out.json", "json")


def test_seed_changes_trajectory():
    base = short_cfg()
    res_a = run_closed_loop(base)
    res_b = run_closed_loop(short_cfg(noise={"seed": 1}))
    assert any(ra.reward_meas != rb.reward_meas for ra, rb in zip(res_a.records, res_b.records))


def test_bench_solver_structure_and_ordering():
    cfg = short_cfg(horizon_s=20.0)
    report = bench_solver(cfg)
    t = report["timing"]
    assert set(t) == {"analytic_gn", "fd_hessian_newton"}
    # analytic derivative beats the finite-difference Hessian reference
    assert t["analytic_gn"]["mean_ns"] < t["fd_hessian_newton"]["mean_ns"]
    assert report["speedup_vs_analytic"]["fd_hessian_newton"] > 1.0
    # all solvers reach the same objective when solved to convergence
    assert report["agreement_checks"] == len(range(0, cfg.n_steps, harness.AGREEMENT_STRIDE))
    assert report["agreement_max_rel"] < 1e-6
    assert report["solver"]["solves"] == cfg.n_steps
    # the analytic solves' thread CPU time: positive, and the max bounds the p99
    gn = t["analytic_gn"]
    assert 0.0 < gn["cpu_p99_ns"] <= gn["cpu_max_ns"]
    assert "evaluations" in report["solver"]


def test_bench_solver_counts_solves_with_a_collection_inside(monkeypatch):
    # every 50th solve starts a full collection: each is counted, and the
    # thread CPU max over the other solves leaves their cost out
    step = harness.controller_step
    calls = 0

    def collecting(*args):
        nonlocal calls
        calls += 1
        if calls % 50 == 0:
            gc.collect()
        return step(*args)

    monkeypatch.setattr(harness, "controller_step", collecting)
    cfg = short_cfg(horizon_s=20.0)
    gn = bench_solver(cfg)["timing"]["analytic_gn"]
    assert cfg.n_steps // 50 <= gn["gc_solves"] < cfg.n_steps
    assert 0.0 < gn["cpu_max_no_gc_ns"] < gn["cpu_max_ns"]


def test_bench_solver_side_solves_start_where_controller_step_does(monkeypatch):
    # from standstill the warm start 0 N sits where J = 0; controller_step
    # starts from warm_start, lifted to standstill_input, and so must the
    # reference, agreement and exploit-only solves, or they stop where
    # they start
    starts, callbacks = [], []
    real_solve = harness.solve

    def spy(fn, u_init, cfg):
        starts.append(u_init)
        callbacks.append(fn)
        return real_solve(fn, u_init, cfg)

    monkeypatch.setattr(harness, "solve", spy)
    cfg = scenario_from_dict({"v0": 0.0, "horizon_s": 0.1})
    problem, _ = harness.drive(cfg, lambda k, t, seg, r, p, u: u)
    report = bench_solver(cfg)
    lifted = warm_start(problem, 0.0)
    assert lifted == standstill_input(problem.vehicle, problem.v) > 0.0
    assert starts == [lifted] * 4
    assert report["explore_shift_checks"] == 1
    # the last side solve is the exploit-only one
    for u in (lifted, lifted + 100.0):
        assert callbacks[-1](u) == exploit_only(problem)(u)


def test_bench_solver_replays_the_timed_loop_for_the_references(monkeypatch):
    # pass 1 runs the analytic solves alone; pass 2 rebuilds their problems
    # and builds the reference once on each, and again at each check
    events, solved, referenced = [], [], []
    step, reference, real_solve = harness.controller_step, diagnostics.fd_hessian_newton, harness.solve

    def spy_step(problem, u_prev, cfg):
        events.append("analytic")
        solved.append(problem)
        return step(problem, u_prev, cfg)

    def spy_solve(*args):
        events.append("side")
        return real_solve(*args)

    monkeypatch.setattr(harness, "controller_step", spy_step)
    monkeypatch.setattr(diagnostics, "fd_hessian_newton", lambda p: referenced.append(p) or reference(p))
    monkeypatch.setattr(harness, "solve", spy_solve)
    cfg = short_cfg(horizon_s=3.0)
    bench_solver(cfg)
    stride = harness.AGREEMENT_STRIDE
    assert events == ["analytic"] * cfg.n_steps + ["side"] * (len(events) - cfg.n_steps)
    assert referenced == [p for k, p in enumerate(solved) for _ in range(1 + (k % stride == 0))]


def test_bench_solver_reports_how_far_exploration_moves_the_input():
    report = bench_solver(short_cfg(horizon_s=20.0))
    assert report["explore_shift_checks"] == report["agreement_checks"] >= 4
    assert 0.0 <= report["explore_shift_median_n"] <= report["explore_shift_max_n"]
    assert math.isfinite(report["explore_shift_max_n"])


def test_bench_speedup_is_the_median_cpu_ratio_over_completed_reference_steps(monkeypatch):
    # a scripted thread clock: each analytic solve costs 100 ns, and the
    # n-th reference build costs 100 n ns or, every 4th, fails its solve
    clock = 0
    builds = 0
    step, reference = harness.controller_step, diagnostics.fd_hessian_newton

    def timed_step(*args):
        nonlocal clock
        clock += 100
        return step(*args)

    def sometimes_failing(problem):
        nonlocal clock, builds
        builds += 1
        if builds % 4 == 0:
            return failing_reference(problem)
        clock += 100 * builds
        return reference(problem)

    monkeypatch.setattr(harness.time, "thread_time_ns", lambda: clock)
    monkeypatch.setattr(harness, "controller_step", timed_step)
    monkeypatch.setattr(diagnostics, "fd_hessian_newton", sometimes_failing)
    cfg = short_cfg(horizon_s=2.0)
    assert cfg.n_steps == 2 * harness.AGREEMENT_STRIDE == 20
    report = bench_solver(cfg)
    # builds 2 and 13 are the checks of steps 0 and 10; step k times build
    # k + 2 for 1 <= k <= 10 and k + 3 after
    timed = [1, *range(3, 13), *range(14, 23)]
    completed = [n for n in timed if n % 4]
    assert report["reference_failures"] == len(timed) - len(completed) == 5
    assert report["agreement_checks"] == 2
    assert report["speedup_vs_analytic"]["fd_hessian_newton"] == np.median(completed) == 11.0
    assert len(timed) == cfg.n_steps and np.median(timed) != 11.0


def test_exploit_only_callback_is_gn_terms_of_the_first_residual_bitwise():
    # the exploit-only callback, gn_terms of evaluate's F[:1] and J[:1], is
    # (f0 f0, j0 f0, j0 j0) of f0 and j0 off one pass of residual_fn
    rng = np.random.default_rng(35)
    problems = []
    for _ in range(60):
        p = random_problem(rng)
        problems.append((p, random_input(rng, p.vehicle)))
    n_random = len(problems)

    def select(k, t, seg, r, p, u_prev):
        # the closed loop's start and its solution of each step
        u, _ = controller_step(p, u_prev, GnConfig())
        problems.extend([(p, warm_start(p, u_prev)), (p, u)])
        return u

    harness.drive(short_cfg(horizon_s=3.0), select)
    compared = 0
    for p, u in problems:
        try:
            f0, _, j0, _ = residual_fn(p)(u, [])
        except InfeasibleCandidateError:
            with pytest.raises(InfeasibleCandidateError):
                exploit_only(p)(u)
            continue
        got = exploit_only(p)(u)
        assert [x.hex() for x in got] == [x.hex() for x in (f0 * f0, j0 * f0, j0 * j0)]
        F, J = evaluate(p, u)
        assert (f0.hex(), j0.hex()) == (float(F[0]).hex(), float(J[0]).hex())
        compared += 1
    assert compared >= len(problems) - n_random + 20


def test_exploit_only_solve_minimizes_the_exploitation_term():
    # the exploit-only callback is F[0] alone: its solve reaches the least
    # exploitation term of objective_split over a fine grid of the box
    rng = np.random.default_rng(34)
    cfg = GnConfig(max_iters=60)
    solved = 0
    for _ in range(20):
        p = random_problem(rng)
        try:
            u, rep = solve(exploit_only(p), drag_force(p.vehicle, p.v), cfg)
        except SolverFailureError:  # no feasible point on the start grid
            continue
        assert rep.converged
        solved += 1
        best = math.inf
        for uu in np.linspace(cfg.u_min, cfg.u_max, 401).tolist():
            try:
                best = min(best, objective_split(p, uu)[0])
            except InfeasibleCandidateError:
                pass
        assert objective_split(p, u)[0] <= best + 1e-9
    assert solved >= 10
