import dataclasses
import math

import numpy as np
import pytest

from dcee.baselines import EscConfig, GradDceeConfig, esc_init, esc_step, grad_dcee_step
from dcee.core import evaluate, objective, warm_start
from dcee.diagnostics import random_input, random_problem
from dcee.errors import ConfigurationError, InfeasibleCandidateError
from dcee.plant import (EnvSegment, NoiseSpec, VehicleParams, drag_force, measure, plant_step,
                        reward_noise)
from dcee.reward import QuadraticRewardSpec, make_true_params
from dcee.solver import GnConfig, controller_step

from conftest import make_problem


def test_grad_step_fixed_point_at_stationarity(spec, vehicle):
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    p = make_problem(np.tile(theta, (4, 1)), v=25.0, spec=spec, vehicle=vehicle)
    u_eq = drag_force(vehicle, 25.0)
    # consensus at the optimum: residual and gradient vanish
    assert grad_dcee_step(p, u_eq, GradDceeConfig(gain=1e8)) == pytest.approx(u_eq, abs=1e-6)


def test_grad_step_tiny_gain_limit():
    rng = np.random.default_rng(41)
    p = random_problem(rng)
    u0 = 500.0
    out = grad_dcee_step(p, u0, GradDceeConfig(gain=1e-12))
    assert out == pytest.approx(u0, abs=1e-9)


def test_grad_step_descends_for_small_enough_gain():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        p = random_problem(rng)
        u0 = random_input(rng, p.vehicle)
        try:
            base = objective(p, u0)
            F, J = evaluate(p, u0)
        except InfeasibleCandidateError:
            continue
        if abs(float(J @ F)) < 1e-10:
            continue
        gain = 1e8
        ok = False
        for _ in range(20):
            u1 = grad_dcee_step(p, u0, GradDceeConfig(gain=gain))
            try:
                if u1 != u0 and objective(p, u1) < base:
                    ok = True
                    break
            except InfeasibleCandidateError:
                pass
            gain *= 0.5
        assert ok
        checked += 1


def test_grad_step_holds_on_infeasible(spec):
    members = np.array([[-0.0501, 2.0, 0.0], [-1.0, 1.0, 0.5]])
    p = make_problem(members, rates=[0.5, 0.5], v=55.0, spec=spec)
    # evaluation at this held input is infeasible: the input is returned as is
    assert grad_dcee_step(p, 5000.0, GradDceeConfig()) == 5000.0


SELECTORS = {
    "controller_step": lambda p, u: controller_step(
        p, u, GnConfig(u_min=p.vehicle.u_min, u_max=p.vehicle.u_max))[0],
    "grad_dcee_step": lambda p, u: grad_dcee_step(p, u, GradDceeConfig()),
}


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_selection_from_a_non_finite_warm_start_starts_at_the_drag_input(name):
    # no finite input to start from: each model-based selection starts from
    # the input that holds the speed against drag, rather than raise, brake
    # fully or return that input unchanged
    select = SELECTORS[name]
    p = make_problem([[-1.0, 1.5, 0.25], [-0.8, 1.2, 0.2]], v=20.0)
    u_drag = drag_force(p.vehicle, 20.0)
    assert u_drag == pytest.approx(360.0)
    # the members' optimal speed is 22.5 m/s, so a selection moves from there
    assert select(p, u_drag) > u_drag
    for u_prev in (math.nan, math.inf, -math.inf):
        assert warm_start(p, u_prev) == u_drag
        assert select(p, u_prev) == select(p, u_drag)


def test_grad_step_clamps_to_bounds():
    rng = np.random.default_rng(43)
    p = random_problem(rng)
    u = grad_dcee_step(p, p.vehicle.u_max, GradDceeConfig(gain=1e12))
    assert p.vehicle.u_min <= u <= p.vehicle.u_max


def _esc_loop(cfg, spec, veh, theta, v0, steps, sigma=0.0, seed=5):
    seg = EnvSegment(0.0, theta, 0.0)
    noise = reward_noise(NoiseSpec(sigma_reward=sigma, seed=seed), steps)
    state = esc_init(v0)
    v = v0
    vs, sps = [], []
    for k in range(steps):
        _, r = measure(spec, v, seg, noise[k])
        u, state = esc_step(state, cfg, r, v, veh)
        v = plant_step(veh, v, u, seg)
        vs.append(v)
        sps.append(state.setpoint_hat)
    return np.array(vs), np.array(sps)


def test_esc_frozen_integrator_keeps_setpoint():
    spec = QuadraticRewardSpec()
    veh = VehicleParams()
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    cfg = EscConfig(integrator_gain=1e-12)
    vs, sps = _esc_loop(cfg, spec, veh, theta, v0=15.0, steps=500)
    assert np.abs(sps - 15.0).max() < 1e-6
    # the speed still carries the dither
    tail = vs[300:]
    assert np.abs(tail - tail.mean()).max() > 0.1


def test_esc_degenerate_dither_drifts_little():
    spec = QuadraticRewardSpec()
    veh = VehicleParams()
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    cfg = EscConfig(dither_amp=1e-9)
    vs, sps = _esc_loop(cfg, spec, veh, theta, v0=15.0, steps=2000)
    assert np.abs(sps - 15.0).max() < 0.2


def test_esc_converges_to_band_on_static_reward():
    # default settings, noise-free static reward: the setpoint estimate
    # reaches +/- 0.5 m/s of the optimum within 300 s and stays there
    spec = QuadraticRewardSpec()
    veh = VehicleParams()
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    cfg = EscConfig()
    vs, sps = _esc_loop(cfg, spec, veh, theta, v0=5.0, steps=6000)
    inband = np.abs(sps - 25.0) < 0.5
    entry = None
    for i in range(len(sps)):
        if inband[i:].all():
            entry = i * veh.dt
            break
    assert entry is not None and entry <= 300.0


def test_esc_persistent_oscillation():
    # measured once: the inner speed loop attenuates the dither to about
    # 0.55 of its commanded amplitude at the default dither frequency
    spec = QuadraticRewardSpec()
    veh = VehicleParams()
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    cfg = EscConfig()
    vs, _ = _esc_loop(cfg, spec, veh, theta, v0=5.0, steps=6000)
    tail = vs[-1000:]
    dc_gain_factor = 0.55
    assert np.abs(tail - tail.mean()).max() >= 0.5 * cfg.dither_amp * dc_gain_factor


def test_esc_state_advances():
    spec = QuadraticRewardSpec()
    veh = VehicleParams()
    cfg = EscConfig()
    state = esc_init(10.0)
    u, state2 = esc_step(state, cfg, 0.5, 10.0, veh)
    assert state2.k == 1
    assert state2.lowpass_state == 0.5  # the washout latches onto the first reward
    assert veh.u_min <= u <= veh.u_max


def test_config_validation():
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            GradDceeConfig(gain=bad)
    with pytest.raises(ConfigurationError):
        EscConfig(dither_amp=-1.0)
    for field in dataclasses.fields(EscConfig):
        for bad in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                EscConfig(**{field.name: bad})
