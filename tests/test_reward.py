import math

import numpy as np
import pytest

from dcee.errors import ConfigurationError, CurvatureViolationError, InvalidInputError
from dcee.reward import QuadraticRewardSpec, basis, eval_reward, make_true_params, optimal_condition


def test_basis_hand_values():
    assert np.allclose(basis(QuadraticRewardSpec(v_scale=30.0), 15.0), [0.25, 0.5, 1.0])
    assert np.allclose(basis(QuadraticRewardSpec(v_scale=30.0), 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(basis(QuadraticRewardSpec(v_scale=1.0), 2.0), [4.0, 2.0, 1.0])


def test_basis_rejects_non_finite():
    with pytest.raises(InvalidInputError):
        basis(QuadraticRewardSpec(), float("nan"))
    with pytest.raises(InvalidInputError):
        basis(QuadraticRewardSpec(), float("inf"))


def test_eval_reward_hand_values():
    assert eval_reward(QuadraticRewardSpec(v_scale=1.0), [-1.0, 1.0, 0.0], 0.5) == pytest.approx(0.25)
    assert eval_reward(QuadraticRewardSpec(), [0.0, 0.0, 0.0], 17.3) == 0.0
    # peak value of the constructed reward equals its offset
    c_r = 0.7
    spec = QuadraticRewardSpec(v_scale=30.0)
    theta = make_true_params(spec, 1.0, 25.0, c_r)
    assert eval_reward(spec, theta, 25.0) == pytest.approx(c_r, abs=1e-14)


def test_eval_reward_dimension_mismatch():
    for theta in ([1.0, 2.0], "123", 1.0):
        with pytest.raises(InvalidInputError):
            eval_reward(QuadraticRewardSpec(), theta, 1.0)


@pytest.mark.parametrize(
    "theta, message",
    [
        ([-1.0, 2.0], "have three entries"),
        ([[-1.0, 2.0, 0.0]], "have three entries"),
        ([-1.0, math.nan, 0.0], "entries must be finite"),
        ([-1.0, 1.0, math.inf], "entries must be finite"),
        ([-math.inf, 1.0, 0.0], "entries must be finite"),
    ],
)
def test_theta_checks_shape_and_finiteness(theta, message):
    # one rule, three finite numbers, for a list, a tuple or an array alike
    spec = QuadraticRewardSpec()
    for form in (list, tuple, np.array):
        for fn in (lambda: eval_reward(spec, form(theta), 20.0), lambda: optimal_condition(spec, form(theta))):
            with pytest.raises(InvalidInputError, match=message):
                fn()


def test_optimal_condition_is_a_float_of_the_numpy_formula():
    rng = np.random.default_rng(67)
    spec = QuadraticRewardSpec(v_scale=23.7)
    for _ in range(500):
        theta = np.array([-0.05 - rng.exponential(), rng.standard_normal(), rng.standard_normal()])
        got = optimal_condition(spec, theta)
        assert type(got) is float
        assert got == float(spec.v_scale * (-theta[1] / (2.0 * theta[0])))


def test_optimal_condition_hand_values():
    assert optimal_condition(QuadraticRewardSpec(v_scale=30.0), [-1.0, 1.0, 0.0]) == pytest.approx(15.0)
    assert optimal_condition(QuadraticRewardSpec(v_scale=30.0), [-1.0, 0.0, 5.0]) == pytest.approx(0.0)
    spec = QuadraticRewardSpec(v_scale=30.0)
    theta = make_true_params(spec, 0.5, 20.0, 0.3)
    assert optimal_condition(spec, theta) == pytest.approx(20.0)


def test_optimal_condition_requires_admissible_theta():
    spec = QuadraticRewardSpec()
    with pytest.raises(CurvatureViolationError):
        optimal_condition(spec, [0.0, 1.0, 0.0])
    with pytest.raises(CurvatureViolationError):
        optimal_condition(spec, [-0.01, 1.0, 0.0])


def test_make_true_params_hand_values():
    spec = QuadraticRewardSpec(v_scale=30.0)
    theta = make_true_params(spec, 1.0, 25.0, 1.0)
    assert np.allclose(theta, [-1.0, 5.0 / 3.0, 1.0 - 25.0 / 36.0])
    assert optimal_condition(spec, theta) == pytest.approx(25.0, abs=1e-12)
    assert np.allclose(make_true_params(spec, 1.0, 0.0, 0.0), [-1.0, 0.0, 0.0])
    assert np.allclose(make_true_params(spec, 2.0, 30.0, 0.0), [-2.0, 4.0, -2.0])


def test_make_true_params_guards():
    spec = QuadraticRewardSpec()
    with pytest.raises(CurvatureViolationError):
        make_true_params(spec, 0.01, 20.0, 1.0)
    with pytest.raises(InvalidInputError):
        make_true_params(spec, 1.0, 61.0, 1.0)
    with pytest.raises(InvalidInputError, match="c_r must be finite"):
        make_true_params(spec, 1.0, 20.0, math.nan)


def test_make_true_params_returns_three_floats():
    theta = make_true_params(QuadraticRewardSpec(), np.float64(1.0), 25, 1)
    assert type(theta) is tuple
    assert [type(x) for x in theta] == [float] * 3


def test_round_trip_property():
    spec = QuadraticRewardSpec()
    rng = np.random.default_rng(5)
    for _ in range(200):
        w_z = rng.uniform(spec.curvature_floor, 3.0)
        v_star = rng.uniform(0.0, 2.0 * spec.v_scale)
        c_r = rng.uniform(-2.0, 2.0)
        theta = make_true_params(spec, w_z, v_star, c_r)
        assert abs(optimal_condition(spec, theta) - v_star) < 1e-10


def test_peak_property():
    spec = QuadraticRewardSpec()
    rng = np.random.default_rng(6)
    theta = make_true_params(spec, rng.uniform(0.2, 2.0), rng.uniform(0, 60), rng.uniform(-1, 1))
    v_peak = optimal_condition(spec, theta)
    r_peak = eval_reward(spec, theta, v_peak)
    for v in rng.uniform(0.0, 2.0 * spec.v_scale, size=1000):
        assert eval_reward(spec, theta, v) <= r_peak + 1e-12


def test_projection_and_admissibility():
    # a theta exactly at the curvature floor is admissible
    spec = QuadraticRewardSpec()
    theta = (-spec.curvature_floor, 2.0, 3.0)
    assert optimal_condition(spec, theta) == spec.v_scale * (2.0 / (2.0 * spec.curvature_floor))


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        QuadraticRewardSpec(v_scale=0.0)
    with pytest.raises(ConfigurationError):
        QuadraticRewardSpec(curvature_floor=-1.0)
    assert math.isfinite(QuadraticRewardSpec().v_scale)
