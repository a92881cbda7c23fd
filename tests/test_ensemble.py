import gc
import math
from fractions import Fraction

import numpy as np
import pytest

from dcee.core import DceeProblem, objective_split, residual_fn
from dcee.diagnostics import random_problem
from dcee.ensemble import (CHANGE_DRIFT, CHANGE_LIMIT, Ensemble, EnsembleSettings, NOISE_VAR_FLOOR,
                           change_test, condition_stats, draw_bank, init_ensemble, measured_update)
from dcee.errors import ConfigurationError, CurvatureViolationError, InvalidInputError
from dcee.plant import VehicleParams, drag_force
from dcee.reward import QuadraticRewardSpec, basis, eval_reward, make_true_params, optimal_condition

from conftest import make_bank


def settings(prior, spread, n, seed, eta_lo=0.005, eta_hi=0.05):
    return EnsembleSettings(n_members=n, eta_lo=eta_lo, eta_hi=eta_hi, prior=prior, spread=spread, seed=seed)


def consensus(theta, n=4, rate=0.1):
    return make_bank(np.tile(theta, (n, 1)), [rate] * n)


def test_init_zero_spread_gives_prior():
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.0, 0.0, 0.0], 5, seed=1), 0.0)
    assert np.allclose(ens.members, prior)


def test_init_singleton_rate():
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.1, 0.1, 0.1], 1, seed=1, eta_lo=0.02, eta_hi=0.4), 0.0)
    assert len(ens.members) == 1
    assert ens.rates[0] == pytest.approx(0.02)


def test_init_projects_to_admissibility():
    spec = QuadraticRewardSpec()
    ens = init_ensemble(spec, settings(np.array([1.0, 0.5, 0.0]), [0.3, 0.3, 0.3], 8, seed=2), 0.0)
    assert all(t0 == -spec.curvature_floor for t0, _, _ in ens.members)


def test_init_rates_log_spaced():
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.0, 0.0, 0.0], 4, seed=3, eta_lo=0.01, eta_hi=0.08), 0.0)
    assert np.allclose(ens.rates, np.geomspace(0.01, 0.08, 4))


def test_init_rejects_empty():
    spec = QuadraticRewardSpec()
    with pytest.raises(ConfigurationError):
        init_ensemble(spec, settings(np.zeros(3), [0.0, 0.0, 0.0], 0, seed=1), 0.0)


def test_ensemble_settings_validation():
    prior = np.zeros(3)
    bad = [
        dict(n=0),
        dict(eta_lo=0.5, eta_hi=0.1),
        dict(eta_lo=float("nan")),
        dict(eta_hi=float("nan")),
        # an infinite rate overflows the first step's predicted update
        dict(eta_hi=math.inf),
        # a member count or seed that is no integer fails only when drawn
        dict(n=2.5),
        dict(n=True),
        dict(seed=1.5),
        dict(seed=True),
        # a NaN prior member fails only as a curvature violation, and a
        # prior that is no numbers only when drawn
        dict(prior=np.array([np.nan, 1.0, 0.0])),
        dict(prior=["wide", 1.0, 0.0]),
        # a bool is not a number, as for every numeric config key
        dict(prior=[-1.0, True, 0.0]),
        dict(spread=[True, 0.1, 0.1]),
        dict(spread=[0.1, 0.1]),
        dict(spread=[0.1, -0.1, 0.1]),
        dict(spread=[0.1, float("nan"), 0.1]),
        dict(spread=["wide", 0.1, 0.1]),
        dict(spread="123"),
        dict(spread=0.1),
    ]
    for kwargs in bad:
        args = {"prior": prior, "spread": [0.1, 0.1, 0.1], "n": 3, "seed": 1, **kwargs}
        with pytest.raises(ConfigurationError):
            settings(**args)


def test_measured_update_requires_covariance():
    # every bank carries the P and prior measured_update needs: one of
    # members and rates alone cannot be built
    with pytest.raises(TypeError, match="'covariance' and 'prior'"):
        Ensemble(((-1.0, 1.5, 0.2),) * 3, (0.1,) * 3)


def test_measured_update_rejects_non_finite_reward():
    spec = QuadraticRewardSpec()
    ens = with_covariance(np.tile([-1.0, 1.0, 0.0], (4, 1)), np.eye(3), 1e-4)
    with pytest.raises(InvalidInputError):
        measured_update(ens, spec, 10.0, float("nan"))


def split_at_speed(members, y=0.5):
    # objective_split at the input that predicts speed y (v_scale 1 m/s, rate 0.1)
    spec = QuadraticRewardSpec(v_scale=1.0)
    vehicle = VehicleParams()
    ens = make_bank(members)
    return objective_split(DceeProblem(vehicle, spec, ens, v=y), drag_force(vehicle, y)), spec


def test_predicted_reward_is_mean_reward():
    # the pseudo-measurement is the ensemble-mean reward: at y = 0.5 the
    # members reward 0.25, 0.75 and 1.25, so the middle member, whose own
    # reward is the mean, keeps its optimal speed 1 while the outer two move
    # to 41/79 and 119/81
    (exploit, explore), _ = split_at_speed([[-1.0, 1.0, 0.0], [-1.0, 2.0, 0.0], [-1.0, 3.0, 0.0]])
    gammas = [Fraction(41, 79), Fraction(1), Fraction(119, 81)]
    mean = sum(gammas) / 3
    assert exploit == pytest.approx(float((mean - Fraction(1, 2)) ** 2), rel=1e-12)
    assert explore == pytest.approx(float(sum((g - mean) ** 2 for g in gammas) / 3), rel=1e-12)


def test_predicted_update_hand_value():
    # rate 0.1 times the gap to the mean reward (0.75) along psi(0.5) =
    # [0.25, 0.5, 1] moves the members to [-0.9875, 1.025, 0.05] and
    # [-1.0125, 2.975, -0.05]; the split is built from their optimal speeds
    (exploit, explore), spec = split_at_speed([[-1.0, 1.0, 0.0], [-1.0, 3.0, 0.0]])
    gammas = np.array([optimal_condition(spec, m) for m in ([-0.9875, 1.025, 0.05], [-1.0125, 2.975, -0.05])])
    assert exploit == pytest.approx((gammas.mean() - 0.5) ** 2, rel=1e-12)
    assert explore == pytest.approx(((gammas - gammas.mean()) ** 2).mean(), rel=1e-12)


def test_condition_stats_hand_values():
    spec = QuadraticRewardSpec(v_scale=30.0)
    # members engineered to have optimal speeds 10 and 20
    m1 = make_true_params(spec, 1.0, 10.0, 0.0)
    m2 = make_true_params(spec, 1.0, 20.0, 0.0)
    ens = make_bank([m1, m2])
    assert condition_stats(ens, spec) == pytest.approx(15.0)


def test_condition_stats_consensus_and_singleton():
    spec = QuadraticRewardSpec()
    theta = [-1.0, 1.4, 0.1]
    assert condition_stats(consensus(theta, n=6), spec) == pytest.approx(optimal_condition(spec, theta))
    assert condition_stats(consensus(theta, n=1), spec) == optimal_condition(spec, theta)


def test_condition_stats_rejects_inadmissible():
    spec = QuadraticRewardSpec()
    ens = make_bank([[-0.01, 1.0, 0.0]])
    with pytest.raises(CurvatureViolationError):
        condition_stats(ens, spec)
    # a NaN curvature is no admissible member either
    ens = make_bank([[np.nan, 1.0, 0.0], [-1.0, 1.0, 0.0]])
    with pytest.raises(CurvatureViolationError):
        condition_stats(ens, spec)


def test_deviation_centering_and_trace_identity():
    # the believed optimal speed is the mean of the members' optimal speeds,
    # and with the predicted update frozen (rates 1e-300) the exploration
    # term is their variance about that mean
    spec = QuadraticRewardSpec()
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        prior = make_true_params(spec, rng.uniform(0.3, 2.0), rng.uniform(2, 50), rng.uniform(-1, 1))
        ens = init_ensemble(spec, settings(prior, rng.uniform(0, 0.4, 3), n, seed=int(rng.integers(1e6))), 0.0)
        gammas = np.array([optimal_condition(spec, m) for m in ens.members])
        mean = condition_stats(ens, spec)
        assert abs(mean - gammas.mean()) <= 1e-12 * abs(mean)
        frozen = DceeProblem(VehicleParams(), spec, ens._replace(rates=(1e-300,) * n), v=mean)
        explore = objective_split(frozen, 300.0)[1]
        assert abs(explore - ((gammas - mean) ** 2).mean()) < 1e-12 * max(1.0, explore)


def test_measured_update_contracts_on_scripted_sweep():
    # exact rewards from a fixed environment, speed swept persistently:
    # the mean estimate approaches the truth with a monotone trend
    spec = QuadraticRewardSpec()
    theta_star = make_true_params(spec, 1.0, 25.0, 1.0)
    prior = make_true_params(spec, 0.8, 15.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.3, 0.3, 0.3], 10, seed=924), 0.0)
    sweep = 15.0 + 10.0 * np.sin(0.05 * np.arange(500))
    errs = []
    for k, v in enumerate(sweep):
        ens = measured_update(ens, spec, v, eval_reward(spec, theta_star, v))
        if (k + 1) % 100 == 0:
            errs.append(np.linalg.norm(np.mean(ens.members, axis=0) - theta_star))
    # strictly decreasing across 100-step windows and a net reduction; the
    # rank-one updates leave the weakly excited parameter direction slow, so
    # the trend, not a deep contraction, is the contract here
    assert all(a > b for a, b in zip(errs, errs[1:]))
    start = init_ensemble(spec, settings(prior, [0.3, 0.3, 0.3], 10, seed=924), 0.0)
    assert errs[-1] < np.linalg.norm(np.mean(start.members, axis=0) - theta_star)


def with_covariance(members, P, noise_var, rate=0.1):
    return make_bank(members, [rate] * len(np.atleast_2d(members)), covariance=P, noise_var=noise_var)


def test_init_with_noise_sigma_derives_covariance():
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.1, 0.2, 0.3], 4, seed=1), 0.02)
    assert np.allclose(ens.covariance, np.diag([0.01, 0.04, 0.09]))
    assert ens.prior == ens.covariance
    assert ens.noise_var == pytest.approx(4e-4)
    assert (ens.cusum_hi, ens.cusum_lo, ens.resets) == (0.0, 0.0, 0)
    exact = init_ensemble(spec, settings(prior, [0.1, 0.2, 0.3], 4, seed=1), 0.0)
    assert exact.noise_var == NOISE_VAR_FLOOR
    with pytest.raises(ConfigurationError):
        init_ensemble(spec, settings(prior, [0.1, 0.2, 0.3], 4, seed=1), float("nan"))


def test_covariance_update_hand_value():
    # psi = [0.25, 0.5, 1] at y = 15, v_scale = 30; P = I and R = 0.6875 give
    # psi'P psi + R = 2, so K = psi / 2; the innovation is 0.25 - 0.35 = -0.1
    spec = QuadraticRewardSpec(v_scale=30.0)
    ens = with_covariance([[-1.0, 1.0, 0.0], [-2.0, 1.0, 0.0]], np.eye(3), 0.6875)
    out = measured_update(ens, spec, 15.0, 0.35)
    assert np.allclose(out.members[0], [-0.9875, 1.025, 0.05])
    # the second member's innovation is 0 - 0.35; same gain
    assert np.allclose(out.members[1], [-1.95625, 1.0875, 0.175])
    psi = np.array([0.25, 0.5, 1.0])
    assert np.allclose(out.covariance, np.eye(3) - np.outer(psi, psi) / 2.0)
    assert out.resets == 0
    assert out.rates == ens.rates


def test_covariance_update_zero_innovation_keeps_members():
    spec = QuadraticRewardSpec()
    theta = np.array([-1.0, 1.5, 0.2])
    ens = with_covariance(np.tile(theta, (3, 1)), 0.09 * np.eye(3), 1e-4)
    y = 18.0
    out = measured_update(ens, spec, y, eval_reward(spec, theta, y))
    assert out.members == ens.members
    assert (out.cusum_hi, out.cusum_lo, out.resets) == (0.0, 0.0, 0)
    # the measurement is still information: P shrinks along psi only
    psi = np.array([(y / 30.0) ** 2, y / 30.0, 1.0])
    assert psi @ np.array(out.covariance) @ psi < psi @ np.array(ens.covariance) @ psi
    assert np.allclose(out.covariance, np.transpose(out.covariance))


def test_covariance_update_projects_along_covariance():
    # a large positive innovation at high speed lifts theta[0] past the
    # floor; the projected member differs from the unconstrained one only
    # along P e0, so P^-1 (projected - free) is a multiple of e0
    spec = QuadraticRewardSpec()
    free_spec = QuadraticRewardSpec(curvature_floor=1e-12)
    P = np.array([[0.09, 0.05, -0.02], [0.05, 0.09, 0.01], [-0.02, 0.01, 0.09]])
    ens = with_covariance([[-0.1, 0.5, 0.2], [-0.8, 1.5, 0.0]], P, 1e-4)
    y = 45.0
    r = eval_reward(spec, ens.members[0], y) + 0.5
    out = measured_update(ens, spec, y, r)
    free = measured_update(ens, free_spec, y, r)
    assert free.members[0][0] > -spec.curvature_floor
    assert out.members[0][0] == pytest.approx(-spec.curvature_floor, abs=1e-15)
    w = np.linalg.solve(out.covariance, np.subtract(out.members[0], free.members[0]))
    assert np.abs(w[1:]).max() < 1e-9 * abs(w[0])
    # the admissible member is left as the unconstrained update put it
    assert free.members[1][0] < -spec.curvature_floor
    assert out.members[1] == free.members[1]
    assert out.covariance == free.covariance


def test_change_test_hand_values():
    assert change_test(0.0, 0.0, 0.5) == (0.0, 0.0, False)
    assert change_test(1.0, 0.0, 2.5) == (2.5, 0.0, False)
    assert change_test(0.0, 3.0, -2.0) == (0.0, 4.0, False)
    assert change_test(CHANGE_LIMIT, 0.0, 1.5) == (0.0, 0.0, True)
    assert change_test(0.0, CHANGE_LIMIT, -1.5) == (0.0, 0.0, True)


def _settled_bank(spec, theta, sigma):
    # a bank that has already learnt theta: consensus, small covariance
    return with_covariance(np.tile(theta, (4, 1)), 1e-6 * np.eye(3), sigma**2)


def test_change_test_catches_small_step_quickly():
    # a 2.8-sigma drop of the reward at the operating speed, the size of the
    # 300 s switch of the default scenario, trips the alarm within 5 steps
    # without noise and within 12 steps on each of 20 noise seeds
    spec = QuadraticRewardSpec()
    sigma = 0.01
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    y = 25.0
    for seed in [None] + list(range(20)):
        rng = np.random.default_rng(seed)
        ens = _settled_bank(spec, theta, sigma)
        for k in range(1, 100):
            eps = 0.0 if seed is None else rng.standard_normal()
            ens = measured_update(ens, spec, y, eval_reward(spec, theta, y) - 2.8 * sigma + sigma * eps)
            if ens.resets:
                break
        assert ens.resets == 1
        assert k <= (5 if seed is None else 12), (seed, k)
        # the alarm re-opened the covariance by the prior
        assert np.trace(ens.covariance) > np.trace(1e-6 * np.eye(3))


def test_change_test_quiet_on_pure_noise():
    # 9000 steps (the default horizon) of noisy measurements of the learnt
    # environment at a speed that keeps moving: no alarm
    spec = QuadraticRewardSpec()
    sigma = 0.01
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    rng = np.random.default_rng(20260811)
    ens = with_covariance(np.tile(theta, (4, 1)), 0.09 * np.eye(3), sigma**2)
    speeds = 25.0 + 5.0 * np.sin(0.01 * np.arange(9000))
    for y, eps in zip(speeds, rng.standard_normal(9000)):
        ens = measured_update(ens, spec, y, eval_reward(spec, theta, y) + sigma * eps)
    assert ens.resets == 0
    assert np.allclose(ens.members, theta, atol=0.05)


def summation_bound(x):
    """How far two summation orders of the floats x can be apart: each
    order's rounding error is at most (n-1) u sum|x_i| to first order, with
    u = eps/2 the unit roundoff (recursive summation has the largest such
    bound), so the two differ by at most (n-1) eps sum|x_i|."""
    return (len(x) - 1) * np.finfo(float).eps * float(np.abs(x).sum())


def numpy_condition_stats(e, spec):
    """condition_stats as one numpy expression, the oracle of its float
    loop, with the summation bound of its mean."""
    members = np.array(e.members)
    t0 = members[:, 0]
    if not np.all(t0 <= -spec.curvature_floor):
        raise CurvatureViolationError("inadmissible member")
    speeds = spec.v_scale * (-members[:, 1] / (2.0 * t0))
    return float(speeds.mean()), summation_bound(speeds) / len(speeds)


def test_condition_stats_matches_numpy_expression():
    rng = np.random.default_rng(53)
    for spec in (QuadraticRewardSpec(), QuadraticRewardSpec(v_scale=17.3, curvature_floor=0.2)):
        for n in list(range(1, 21)) + [40, 129]:
            for _ in range(20):
                members = np.column_stack([
                    -spec.curvature_floor - rng.exponential(1.0, n),
                    rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0, n),
                    rng.standard_normal(n),
                ])
                # one member exactly at the floor is admissible
                members[rng.integers(n), 0] = -spec.curvature_floor
                ens = make_bank(members)
                got = condition_stats(ens, spec)
                assert type(got) is float
                want, bound = numpy_condition_stats(ens, spec)
                assert abs(got - want) <= bound


@pytest.mark.parametrize("bad", [np.nan, -0.0499, 0.0, np.inf])
def test_condition_stats_rejects_each_bad_member(bad):
    spec = QuadraticRewardSpec()
    for pos in range(4):
        members = np.tile([-1.0, 1.0, 0.0], (4, 1))
        members[pos, 0] = bad
        ens = make_bank(members)
        with pytest.raises(CurvatureViolationError, match="violates the curvature floor"):
            condition_stats(ens, spec)


def numpy_measured_update(e, spec, y, reward_meas):
    """measured_update's body on numpy arrays, reductions included: the oracle
    of the version that sums and tests on floats.  Each product with psi =
    (z**2, z, 1) is written out elementwise in the float body's order, so
    the members and the covariance agree bit for bit; a matrix product
    would leave their last bit to the BLAS kernel.  Also returns whether the
    change test fired and whether the projection ran, and with the change
    statistics how far another order of the innovations' sum can move each:
    the summation bound scaled as nu is, plus one rounding of each of the
    statistic's two additions."""
    M = np.array(e.members)
    n = len(M)
    p0, z, _ = basis(spec, y)
    innovations = M[:, 0] * p0 + M[:, 1] * z + M[:, 2] - float(reward_meas)
    P = np.array(e.covariance)

    def times_psi(P):
        p_psi = P[:, 0] * p0 + P[:, 1] * z + P[:, 2]
        return p_psi, p0 * p_psi[0] + z * p_psi[1] + p_psi[2] + e.noise_var

    p_psi, s = times_psi(P)
    nu = -float(innovations.sum()) / (n * math.sqrt(s))
    nu_bound = summation_bound(innovations) / (n * math.sqrt(s))
    tol = [nu_bound + 2.0 * np.finfo(float).eps * (abs(prev) + abs(nu) + CHANGE_DRIFT)
           for prev in (e.cusum_hi, e.cusum_lo)]
    hi, lo, fired = change_test(e.cusum_hi, e.cusum_lo, nu)
    if fired:
        P = P + np.array(e.prior)
        p_psi, s = times_psi(P)
    gain = p_psi / s
    members = M - innovations[:, None] * gain[None, :]
    P = P - gain[:, None] * p_psi
    projected = bool(members[:, 0].max() > -spec.curvature_floor)
    if projected:
        excess = np.maximum(members[:, 0] + spec.curvature_floor, 0.0)
        members -= excess[:, None] * (P[0] / P[0, 0])[None, :]
    members[:, 0] = np.minimum(members[:, 0], -spec.curvature_floor)
    return members, P, (hi, lo, e.resets + fired, tol), fired, projected


def assert_same_update(got, want):
    members, P, (hi, lo, resets, (tol_hi, tol_lo)), _, _ = want
    assert np.array(got.members).tobytes() == members.tobytes()
    assert np.array(got.covariance).tobytes() == P.tobytes()
    assert abs(got.cusum_hi - hi) <= tol_hi
    assert abs(got.cusum_lo - lo) <= tol_lo
    assert got.resets == resets


def test_measured_update_matches_numpy_body():
    # banks near the curvature floor with a wide spread, swept over speeds
    # through an environment switch: every branch (plain step, change alarm,
    # projection) is taken; members, covariance and alarms are the numpy
    # body's bit for bit, the change statistics within the summation bound
    spec = QuadraticRewardSpec()
    rng = np.random.default_rng(61)
    taken = {"plain": 0, "fired": 0, "projected": 0}
    for trial in range(6):
        w_z = (0.06, 0.3, 1.0)[trial % 3]
        prior = make_true_params(spec, w_z, 15.0, 0.5)
        sigma = (0.0, 0.01)[trial % 2]
        ens = init_ensemble(spec, settings(prior, [1.0, 1.0, 1.0], 10, seed=trial), sigma)
        for k in range(400):
            theta = make_true_params(spec, 0.08, 25.0, 1.0) if k < 200 else make_true_params(spec, 0.5, 10.0, -1.0)
            y = float(rng.uniform(0.0, 40.0))
            r = eval_reward(spec, theta, y) + sigma * float(rng.standard_normal())
            want = numpy_measured_update(ens, spec, y, r)
            ens = measured_update(ens, spec, y, r)
            assert_same_update(ens, want)
            _, _, _, fired, projected = want
            taken["fired"] += fired
            taken["projected"] += projected
            taken["plain"] += not (fired or projected)
    assert all(count > 0 for count in taken.values()), taken


def test_measured_update_rejects_a_nan_bank():
    # an overflowed (NaN) member makes the mean innovation NaN, which the
    # change test cannot read: the update raises instead of projecting the
    # finite members of a bank condition_stats rejects anyway
    spec = QuadraticRewardSpec()
    members = np.array([[np.nan, 1.0, 0.0], [0.5, 1.0, 0.0], [-1.0, 2.0, 0.5]])
    ens = with_covariance(members, np.eye(3), 1e-4)
    with pytest.raises(InvalidInputError, match="finite normalized innovation"):
        measured_update(ens, spec, 20.0, 0.3)
    with pytest.raises(CurvatureViolationError):
        condition_stats(ens, spec)


def test_measured_update_nan_member_cannot_silence_an_alarm():
    # both statistics near the alarm level and a reward far below the
    # finite members' prediction: with a NaN member, max(0, nan) would reset
    # both statistics to 0 without an alarm; the update raises instead
    spec = QuadraticRewardSpec()
    members = [[np.nan, 1.0, 0.0], [-1.0, 2.0, 0.5], [-1.0, 2.0, 0.5]]
    ens = with_covariance(members, np.eye(3), 1e-4)._replace(cusum_hi=7.5, cusum_lo=3.0)
    with pytest.raises(InvalidInputError):
        measured_update(ens, spec, 20.0, -50.0)


def test_alarm_step_leaves_the_collector_count_flat():
    # an alarm adds the prior to P in three row tuples built from displays.
    # A row built from a generator is allocated at 10 slots and shrunk to
    # 3: the collector counts it once, and freed into the 3-tuple free list
    # it is never counted back, so each alarm would leave gen-0's count 4
    # higher.  The held tuples empty the 3- and 10-slot free lists, so the
    # count sees such tuples whatever earlier code left in those lists
    spec = QuadraticRewardSpec()
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    ens = init_ensemble(spec, settings(theta, [0.1, 0.1, 0.1], 10, seed=3), 0.01)
    r_alarm = eval_reward(spec, theta, 25.0) + 1.0
    climbs = []
    gc.disable()
    try:
        held = [(k, k, k) for k in range(2100)] + [(k,) * 10 for k in range(2100)]
        for k in range(100):
            y = 24.0 + k % 3
            ens = measured_update(ens, spec, y, eval_reward(spec, theta, y))
        bank = ens._replace(cusum_hi=CHANGE_LIMIT)
        assert measured_update(bank, spec, 25.0, r_alarm).resets == bank.resets + 1
        for _ in range(3):
            count = gc.get_count()[0]
            measured_update(bank, spec, 25.0, r_alarm)
            climbs.append(gc.get_count()[0] - count)
    finally:
        gc.enable()
    assert len(held) == 4200 and climbs == [0, 0, 0]


@pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
def test_change_test_rejects_non_finite_innovation(nu):
    with pytest.raises(InvalidInputError):
        change_test(7.5, 3.0, nu)


def test_bank_stays_on_python_floats():
    # numpy scalars in, Python floats out: no layer converts the bank, so
    # none may let a numpy scalar into it
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    ens = init_ensemble(spec, settings(prior, [0.3, 0.3, 0.3], 10, seed=4), 0.01)
    for k in range(80):
        # the environment switches halfway, so the alarm's branch runs too
        y = np.float64(10.0 + k % 20)
        ens = measured_update(ens, spec, y, np.float64(eval_reward(spec, prior, y) - 0.5 * (k >= 40)))
    assert ens.resets > 0
    cells = [x for row in ens.members for x in row] + list(ens.rates)
    cells += [x for m in (ens.covariance, ens.prior) for row in m for x in row]
    cells += [ens.noise_var, ens.cusum_hi, ens.cusum_lo]
    assert all(type(x) is float for x in cells)
    assert type(condition_stats(ens, spec)) is float
    p = DceeProblem(VehicleParams(), spec, ens, v=np.float64(20.0))
    assert all(type(x) is float for x in residual_fn(p)(np.float64(300.0)))
    assert type(eval_reward(spec, prior, np.float64(20.0))) is float


_ROWS = [[-1.0, 1.5, 0.2], [-0.9, 1.4, 0.1]]
_P = tuple(map(tuple, (0.09 * np.eye(3)).tolist()))


def _numpy_first_cell(field):
    """The float-tuple bank of _ROWS with a numpy scalar as the first cell of
    one field."""
    bank = dict(members=tuple(map(tuple, _ROWS)), rates=(0.1, 0.1), covariance=_P, prior=_P)
    value = bank[field]
    first = value[0]
    if field == "rates":
        bank[field] = (np.float64(first),) + value[1:]
    else:
        bank[field] = ((np.float64(first[0]),) + first[1:],) + value[1:]
    return bank


def test_a_bank_in_another_form_is_rejected():
    # Ensemble converts nothing: arrays, tuples of numpy rows and a numpy
    # scalar in any field raise, so no layer can be handed numpy scalars
    # through the bank
    banks = [
        dict(members=np.array(_ROWS), rates=np.array([0.1, 0.1]), covariance=0.09 * np.eye(3),
             prior=0.09 * np.eye(3), noise_var=np.float64(1e-4)),
        dict(members=tuple(np.array(_ROWS)), rates=(0.1, 0.1), covariance=tuple(0.09 * np.eye(3)),
             prior=tuple(0.09 * np.eye(3))),
    ]
    banks += [_numpy_first_cell(field) for field in ("members", "rates", "covariance", "prior")]
    for bank in banks:
        with pytest.raises(InvalidInputError, match="bank"):
            Ensemble(**bank)
    # the same bank as tuples of Python floats builds as it is
    ens = Ensemble(tuple(map(tuple, _ROWS)), (0.1, 0.1), _P, _P)
    assert ens.members == tuple(map(tuple, _ROWS)) and ens.covariance is _P


_ROW = (-1.0, 1.5, 0.2)


@pytest.mark.parametrize("bad", [
    dict(members=_ROW),
    dict(members=((0.0, 0.0), (0.0, 0.0))),
    dict(members=(), rates=()),
    dict(rates=(0.1, 0.1, 0.1)),
    dict(covariance=((1.0, 0.0), (0.0, 1.0))),
    dict(prior=(1.0, 1.0, 1.0)),
    dict(members=(("x", 1.5, 0.2), _ROW)),
    # two members and one rate: residual_fn would pair the one rate with
    # the first member only and disagree with objective_split
    dict(members=(_ROW, (-1.1, 1.4, 0.25)), rates=(0.1,)),
    # a ragged second row: measured_update would fail to unpack it
    dict(members=(_ROW, (-1.1, 1.4))),
    # numpy scalars past the first cell, or in a scalar field: one update
    # would spread them through the members and P
    dict(members=(_ROW, (-1.1, np.float64(1.4), 0.25))),
    dict(noise_var=np.float64(1e-4)),
    dict(cusum_hi=0),
])
def test_ensemble_rejects_a_bank_of_the_wrong_shape(bad):
    args = dict(members=(_ROW, _ROW), rates=(0.1, 0.1), covariance=_P, prior=_P)
    args.update(bad)
    with pytest.raises(InvalidInputError, match="bank"):
        Ensemble(**args)


def test_bank_rates_are_geomspace_arithmetic_in_python_floats():
    # 10 ** (i * step + lo) on libm, with both ends exact: no bit of a rate
    # depends on which kernel numpy's power runs on this CPU
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    lo, hi = math.log10(0.005), math.log10(0.05)
    for n in (1, 2, 10):
        rates = draw_bank(spec, np.random.default_rng(0), n, prior, (0.3, 0.2, 0.1), 0.005, 0.05).rates
        step = (hi - lo) / max(n - 1, 1)
        assert rates == (0.005, *[10.0 ** (i * step + lo) for i in range(1, n - 1)], 0.05)[:n]
        assert all(type(r) is float for r in rates)
        assert rates == pytest.approx(np.geomspace(0.005, 0.05, n).tolist(), rel=1e-15, abs=0.0)


def test_one_function_draws_every_bank():
    # init_ensemble and random_problem both draw through draw_bank, from the
    # same generator draws, and every bank they build can measure
    spec = QuadraticRewardSpec()
    prior = make_true_params(spec, 1.0, 20.0, 0.5)
    s = settings(prior, [0.3, 0.2, 0.1], 6, seed=9)
    ens = init_ensemble(spec, s, 0.02)
    assert ens == draw_bank(spec, np.random.default_rng(9), 6, prior, (0.3, 0.2, 0.1), 0.005, 0.05,
                            noise_var=0.02**2)
    assert ens.prior == ens.covariance
    assert np.array(ens.covariance).tobytes() == np.diag(np.square([0.3, 0.2, 0.1])).tobytes()
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    problem = random_problem(rng)
    v = replay.uniform(3.0, 40.0)
    center = make_true_params(spec, replay.uniform(0.3, 2.0), replay.uniform(5.0, 28.0), replay.uniform(0.0, 2.0))
    n = int(replay.integers(2, 13))
    bank = draw_bank(spec, replay, n, center, replay.uniform(0.05, 0.4, size=3), 0.05, 0.5)
    assert (problem.v, problem.ensemble) == (v, bank)
    assert rng.random() == replay.random()
    for e in (ens, bank):
        out = measured_update(e, spec, 20.0, eval_reward(spec, prior, 20.0))
        assert out.covariance[0][0] < e.covariance[0][0]
