import math

import numpy as np
import pytest

import dcee.harness
from dcee.config import scenario_from_dict
from dcee.errors import ConfigurationError, InvalidInputError
from dcee.harness import run_closed_loop
from dcee.plant import (EnvSegment, NoiseSpec, VehicleParams, active_segment, drag_force, measure,
                        plant_step, reward_noise)
from dcee.reward import QuadraticRewardSpec, eval_reward, make_true_params


def seg(theta=None, t_start=0.0, disturbance=0.0):
    spec = QuadraticRewardSpec()
    if theta is None:
        theta = make_true_params(spec, 1.0, 25.0, 1.0)
    return EnvSegment(t_start=t_start, theta_true=theta, disturbance_force=disturbance)


def test_plant_step_hand_value():
    veh = VehicleParams(mass=1500.0, dt=0.1, c0=100.0, c1=5.0, c2=0.4)
    v_next = plant_step(veh, 20.0, 1000.0, seg())
    assert v_next == pytest.approx(20.0 + (0.1 / 1500.0) * (1000.0 - 360.0))


def test_plant_step_equilibrium():
    veh = VehicleParams()
    v = 22.0
    u_eq = drag_force(veh, v) + 150.0
    assert plant_step(veh, v, u_eq, seg(disturbance=150.0)) == pytest.approx(v)


def test_plant_step_rest_state():
    veh = VehicleParams(c0=0.0, c1=0.0, c2=0.0)
    assert plant_step(veh, 0.0, 0.0, seg()) == 0.0


def test_plant_step_clamps_input_and_speed():
    veh = VehicleParams()
    # braking from a crawl cannot drive the speed below zero
    assert plant_step(veh, 0.2, -1e9, seg()) == 0.0
    # the input is clamped to the actuator range first
    assert plant_step(veh, 20.0, -1e9, seg()) == plant_step(veh, 20.0, veh.u_min, seg())


def test_plant_step_monotone_in_input():
    veh = VehicleParams()
    rng = np.random.default_rng(2)
    for _ in range(100):
        v = rng.uniform(0, 40)
        u1, u2 = sorted(rng.uniform(veh.u_min, veh.u_max, size=2))
        assert plant_step(veh, v, u1, seg()) <= plant_step(veh, v, u2, seg())


def test_plant_step_rejects_non_finite():
    veh = VehicleParams()
    with pytest.raises(InvalidInputError):
        plant_step(veh, float("nan"), 0.0, seg())
    with pytest.raises(InvalidInputError):
        plant_step(veh, 1.0, float("inf"), seg())


def test_equilibrium_shift_with_disturbance():
    # equilibrium speed for fixed input solves c2 v^2 + c1 v + c0 + d = u
    veh = VehicleParams()
    u = 900.0
    for d in (0.0, 200.0, -200.0):
        v_eq = (-veh.c1 + np.sqrt(veh.c1**2 + 4.0 * veh.c2 * (u - veh.c0 - d))) / (2.0 * veh.c2)
        v = 10.0
        s = seg(disturbance=d)
        for _ in range(20000):
            v = plant_step(veh, v, u, s)
        assert v == pytest.approx(v_eq, abs=1e-6)


def test_measure_noise_free_equals_eval_reward():
    spec = QuadraticRewardSpec()
    s = seg()
    noise = reward_noise(NoiseSpec(sigma_reward=0.0, seed=7), 13)
    assert noise == (0.0,) * 13
    y, r = measure(spec, 21.0, s, noise[12])
    assert y == 21.0
    assert r == eval_reward(spec, s.theta_true, 21.0)


def test_measure_deterministic_per_step():
    # a step's draw depends on (seed, k) alone, not on the run's length
    noise = NoiseSpec(sigma_reward=0.05, seed=99)
    a = reward_noise(noise, 6)
    assert reward_noise(noise, 6) == a
    assert reward_noise(noise, 3) == a[:3]
    assert len(set(a)) == 6
    assert reward_noise(NoiseSpec(sigma_reward=0.05, seed=98), 6) != a


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**60 + 1, 2**64 + 5)


def _default_rng_noise(noise, k):
    return np.float64(noise.sigma_reward * np.random.default_rng([noise.seed, k]).standard_normal())


def test_measure_draws_the_default_rng_stream():
    # the replay contract: the noise at step k is sigma times the first
    # standard normal of default_rng([seed, k]), bit for bit, whatever the
    # seed's word count, and measure adds it to the clean reward
    spec = QuadraticRewardSpec()
    s = seg()
    clean = eval_reward(spec, s.theta_true, 21.0)
    for seed in SEEDS:
        noise = NoiseSpec(sigma_reward=0.05, seed=seed)
        for k, eps in enumerate(reward_noise(noise, 40)):
            want = _default_rng_noise(noise, k)
            assert np.float64(eps).tobytes() == want.tobytes()
            y, r = measure(spec, 21.0, s, eps)
            assert y == 21.0
            assert np.float64(r).tobytes() == np.float64(clean + want).tobytes()


def test_noise_draw_takes_any_integer_as_default_rng_does():
    # numpy integer seeds and step counts draw default_rng's stream for their
    # value; a step count that is no integer, negative, or past the one
    # 32-bit word a step gets is rejected, noise or not
    for seed, n_steps in ((np.int64(7), 3), (np.uint64(2**63), np.uint32(4)), (2**64 + 5, np.int8(2))):
        noise = NoiseSpec(sigma_reward=0.5, seed=seed)
        got = reward_noise(noise, n_steps)
        assert all(type(eps) is float for eps in got)
        assert [np.float64(eps).tobytes() for eps in got] == [
            _default_rng_noise(noise, k).tobytes() for k in range(n_steps)]
    assert reward_noise(NoiseSpec(sigma_reward=0.5), 0) == ()
    for sigma in (0.0, 0.5):
        for bad in (-1, 1.5, True, None, 2**32 + 1, 2**64):
            with pytest.raises(InvalidInputError, match="n_steps"):
                reward_noise(NoiseSpec(sigma_reward=sigma), bad)


def test_seed_table_draws_every_step_of_the_default_run():
    noise = NoiseSpec()
    got = reward_noise(noise, 9000)
    assert len(got) == 9000
    assert all(np.float64(eps).tobytes() == _default_rng_noise(noise, k).tobytes()
               for k, eps in enumerate(got))


@pytest.mark.parametrize("sigma", [0.01, 0.0])
def test_a_run_builds_its_generators_before_its_first_step(monkeypatch, sigma):
    # one generator per step of a noisy run, all built before the first
    # step, and none at all without noise
    built, at_step = [], []
    real_pcg64, real_measure = np.random.PCG64, dcee.harness.measure

    def counting(seed_seq):
        built.append(seed_seq)
        return real_pcg64(seed_seq)

    def measure_step(*args):
        at_step.append(len(built))
        return real_measure(*args)

    monkeypatch.setattr(np.random, "PCG64", counting)
    monkeypatch.setattr(dcee.harness, "measure", measure_step)
    cfg = scenario_from_dict({"noise": {"sigma_reward": sigma}, "horizon_s": 30.0})
    run_closed_loop(cfg)
    n_built = cfg.n_steps if sigma else 0
    assert at_step == [n_built] * cfg.n_steps == [n_built] * 300


def test_measure_noise_statistics():
    # sample std over many draws matches sigma_reward
    draws = np.array(reward_noise(NoiseSpec(sigma_reward=0.01, seed=1234), 100_000))
    assert 0.0095 <= draws.std() <= 0.0105
    assert abs(draws.mean()) < 5e-4


def test_active_segment_lookup():
    spec = QuadraticRewardSpec()
    schedule = [seg(t_start=0.0), seg(t_start=300.0, disturbance=1.0), seg(t_start=600.0, disturbance=2.0)]
    assert active_segment(schedule, 150.0) is schedule[0]
    assert active_segment(schedule, 300.0) is schedule[1]
    assert active_segment(schedule, 1e9) is schedule[2]


def test_active_segment_empty_schedule():
    with pytest.raises(ConfigurationError):
        active_segment([], 1.0)


def test_vehicle_params_validation():
    with pytest.raises(ConfigurationError):
        VehicleParams(mass=-1.0)
    with pytest.raises(ConfigurationError):
        VehicleParams(u_min=10.0, u_max=-10.0)
    for field in ("c0", "c1", "c2"):
        with pytest.raises(ConfigurationError, match="drag coefficients must be nonnegative"):
            VehicleParams(**{field: -1.0})
    for field in ("mass", "dt", "c0", "c1", "c2", "u_min", "u_max"):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                VehicleParams(**{field: bad})
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(ConfigurationError):
            NoiseSpec(sigma_reward=bad)
    # a float seed fails only at the first draw, and a bool is no seed
    for bad in (-1, 1.5, True):
        with pytest.raises(ConfigurationError):
            NoiseSpec(seed=bad)
    assert NoiseSpec(seed=np.uint64(3)).seed == 3
