import math
import re
import sys
import threading

import numpy as np
import pytest

from dcee import (
    ConfigurationError,
    EnvSegment,
    InvalidInputError,
    NoiseSpec,
    QuadraticRewardSpec,
    VehicleParams,
    active_segment,
    drag_force,
    eval_reward,
    make_true_params,
    measure,
    plant_step,
)
from dcee.plant import _BLOCK, _noise_block, _standard_normal


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
    noise = NoiseSpec(sigma_reward=0.0, seed=7)
    y, r = measure(spec, 21.0, s, noise, 13)
    assert y == 21.0
    assert r == eval_reward(spec, s.theta_true, 21.0)


def test_measure_deterministic_per_step():
    spec = QuadraticRewardSpec()
    s = seg()
    noise = NoiseSpec(sigma_reward=0.05, seed=99)
    a = measure(spec, 21.0, s, noise, 4)
    b = measure(spec, 21.0, s, noise, 4)
    assert a == b
    c = measure(spec, 21.0, s, noise, 5)
    assert c != a


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**60 + 1, 2**64 + 5)
STEPS = (0, 1, 4, 8999, 2**31, 2**32, 2**40 + 3)


def test_measure_draws_the_default_rng_stream():
    # the replay contract: the noise at step k is the first standard normal
    # of default_rng([seed, k]), bit for bit, whatever the seed's word count
    spec = QuadraticRewardSpec()
    s = seg()
    clean = eval_reward(spec, s.theta_true, 21.0)
    for seed in SEEDS:
        noise = NoiseSpec(sigma_reward=0.05, seed=seed)
        for k in STEPS:
            eps = float(np.random.default_rng([seed, k]).standard_normal())
            y, r = measure(spec, 21.0, s, noise, k)
            assert y == 21.0
            assert np.float64(r).tobytes() == np.float64(clean + 0.05 * eps).tobytes()


def test_noise_draw_takes_any_integer_as_default_rng_does():
    # numpy integers and bools draw default_rng's stream for their value; a
    # negative step or a float is rejected with default_rng's error type
    for seed, k in ((np.int64(7), 3), (True, 5), (7, np.uint32(3)), (np.uint64(2**63), 2**33)):
        want = float(np.random.default_rng([seed, k]).standard_normal())
        assert _standard_normal(seed, k) == want
    for seed, k in ((7, -1), (-3, 2)):
        with pytest.raises(ValueError) as want:
            np.random.default_rng([seed, k])
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            _standard_normal(seed, k)
    with pytest.raises(TypeError):
        np.random.default_rng([7, 1.5])
    with pytest.raises(TypeError):
        _standard_normal(7, 1.5)


def _draws_default_rng(seed, k):
    want = np.float64(np.random.default_rng([seed, k]).standard_normal())
    return np.float64(_standard_normal(seed, k)).tobytes() == want.tobytes()


def test_seed_table_draws_every_step_of_the_default_run():
    seed = NoiseSpec().seed
    assert all(_draws_default_rng(seed, k) for k in range(9000))


def test_seed_table_at_block_edges_and_out_of_order():
    edges = [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2**32 - 1, 2**32, 2**32 + _BLOCK]
    order = edges + edges[::-1] + [7 * _BLOCK + 5, 3, 7 * _BLOCK + 4, 2 * _BLOCK - 1, 0]
    for seed in (5, 2**100 + 5):
        assert all(_draws_default_rng(seed, k) for k in order)


def test_seed_table_with_more_seeds_interleaved_than_it_caches():
    seeds = (NoiseSpec().seed, 0, 2**32 + 3, 2**64 + 5)
    assert all(_draws_default_rng(seed, k) for k in range(0, 3 * _BLOCK, 97) for seed in seeds)


def test_block_size_divides_the_low_word_of_the_step():
    # a block's steps differ in k's low SeedSequence word alone
    assert 2**32 % _BLOCK == 0


def test_a_block_builds_one_generator_per_step_once(monkeypatch):
    built = []
    real = np.random.PCG64

    def counting(seed_seq):
        built.append(seed_seq)
        return real(seed_seq)

    monkeypatch.setattr(np.random, "PCG64", counting)
    _noise_block.cache_clear()
    seed, steps = 4242, range(3 * _BLOCK, 4 * _BLOCK)
    first = [_standard_normal(seed, k) for k in steps]
    assert len(built) == _BLOCK
    assert [_standard_normal(seed, k) for k in reversed(steps)] == first[::-1]
    assert len(built) == _BLOCK
    assert first == [float(np.random.default_rng([seed, k]).standard_normal()) for k in steps]


def test_threads_building_one_block_at_once_draw_alike():
    # every thread asks for the same uncached block, so several may build
    # it at once; each build owns its generators, so all read equal draws
    _noise_block.cache_clear()
    seed, n_threads = 77, 4
    barrier = threading.Barrier(n_threads)
    got = [None] * n_threads

    def draw(i):
        barrier.wait(timeout=60)
        got[i] = [_standard_normal(seed, k) for k in range(_BLOCK)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = [float(np.random.default_rng([seed, k]).standard_normal()) for k in range(_BLOCK)]
    assert got == [want] * n_threads


def test_seed_table_draws_from_many_threads_at_once():
    # six seeds share a cache of two blocks, so the threads evict each
    # other's blocks and a thread may rebuild its block, or read it while
    # another thread builds one; every build is a pure function of
    # (seed, block) with generators of its own, so each read is its draw
    seeds = range(6)
    got = {seed: [] for seed in seeds}

    def draw(seed):
        got[seed] = [_standard_normal(seed, k) for k in range(400)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(seed,)) for seed in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for seed in seeds:
        assert got[seed] == [float(np.random.default_rng([seed, k]).standard_normal()) for k in range(400)]


def test_measure_noise_statistics():
    # sample std over many draws matches sigma_reward
    spec = QuadraticRewardSpec()
    s = seg()
    sigma = 0.01
    noise = NoiseSpec(sigma_reward=sigma, seed=1234)
    clean = eval_reward(spec, s.theta_true, 18.0)
    draws = np.array([measure(spec, 18.0, s, noise, k)[1] - clean for k in range(100_000)])
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
