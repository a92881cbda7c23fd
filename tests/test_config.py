import dataclasses
import pathlib

import pytest
import yaml

from dcee.baselines import EscConfig, GradDceeConfig
from dcee.config import CONTROLLER_TYPES, default_config, load_config, scenario_from_dict
from dcee.ensemble import EnsembleSettings
from dcee.errors import ConfigurationError
from dcee.harness import run_closed_loop
from dcee.plant import NoiseSpec, VehicleParams
from dcee.reward import QuadraticRewardSpec, optimal_condition
from dcee.solver import GnConfig

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_default_config_is_valid():
    cfg = scenario_from_dict(default_config())
    assert cfg.n_steps == 9000
    assert cfg.controller.type == "numerical_dcee"
    assert len(cfg.schedule) == 3
    assert cfg.schedule[0].t_start == 0.0


def test_config_files_restate_the_defaults():
    # dcee check and the tests use DEFAULTS, while dcee run and the
    # benchmark load these files: they must describe the same scenarios
    default = scenario_from_dict(default_config()).raw
    assert load_config(CONFIGS / "default.yaml").raw == default
    free = load_config(CONFIGS / "noise_free.yaml").raw
    sigma = default["noise"]["sigma_reward"]
    assert free["noise"]["sigma_reward"] == 0.0 != sigma
    assert {**free, "noise": {**free["noise"], "sigma_reward": sigma}} == default


def test_default_config_returns_fresh_copies():
    a = default_config()
    a["vehicle"]["mass"] = 1.0
    assert default_config()["vehicle"]["mass"] == 1500.0


def test_partial_override_merges_over_defaults():
    cfg = scenario_from_dict({"noise": {"sigma_reward": 0.0}})
    assert cfg.noise.sigma_reward == 0.0
    assert cfg.vehicle.mass == 1500.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"vehcle": {"mass": 1000.0}})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"vehicle": {"mas": 1000.0}})


def test_schedule_validation():
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"schedule": []})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"schedule": [{"t_start": 5.0, "v_star": 20.0}]})
    with pytest.raises(ConfigurationError):
        scenario_from_dict(
            {"schedule": [{"t_start": 0.0, "v_star": 20.0}, {"t_start": 0.0, "v_star": 25.0}]}
        )


def test_schedule_builds_true_parameters():
    cfg = scenario_from_dict({})
    stars = [optimal_condition(cfg.reward, seg.theta_true) for seg in cfg.schedule]
    assert stars == pytest.approx([25.0, 20.0, 30.0])
    assert [seg.disturbance_force for seg in cfg.schedule] == [0.0, 200.0, -200.0]


def test_horizon_must_divide():
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"horizon_s": 900.05})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"horizon_s": -1.0})


def test_controller_type_validation():
    for ctype in CONTROLLER_TYPES:
        cfg = scenario_from_dict({"controller": {"type": ctype}})
        assert cfg.controller.type == ctype
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"controller": {"type": "mpc"}})


def test_a_hand_built_scenario_rejects_an_unknown_controller_type():
    # the settings check their own type, so a scenario built without
    # scenario_from_dict cannot reach the loop with a type it has no branch for
    cfg = scenario_from_dict({"horizon_s": 1.0})
    with pytest.raises(ConfigurationError, match="'numerical'"):
        run_closed_loop(dataclasses.replace(cfg, controller=dataclasses.replace(cfg.controller, type="numerical")))


def test_a_scenario_rejects_a_solver_box_other_than_the_vehicles():
    # the plant clamps the input to the vehicle's box: a solver searching
    # another box would log inputs the plant never applies
    cfg = scenario_from_dict({"horizon_s": 1.0})
    vehicle = dataclasses.replace(cfg.vehicle, u_min=-1000.0, u_max=1000.0)
    with pytest.raises(ConfigurationError, match=r"\[-5000.0, 5000.0\].*\[-1000.0, 1000.0\]"):
        dataclasses.replace(cfg, vehicle=vehicle,
                            controller=dataclasses.replace(cfg.controller, solver=GnConfig()))
    solver = GnConfig(u_min=-1000.0, u_max=1000.0)
    narrow = dataclasses.replace(cfg, vehicle=vehicle,
                                 controller=dataclasses.replace(cfg.controller, solver=solver))
    assert scenario_from_dict({"vehicle": {"u_min": -1000.0, "u_max": 1000.0}}).controller == narrow.controller


@pytest.mark.parametrize("change, message", [
    ({"horizon_s": True}, "ScenarioConfig.horizon_s must be a number"),
    ({"v0": True}, "ScenarioConfig.v0 must be a number"),
    ({"horizon_s": float("nan")}, "horizon_s must be positive"),
    ({"horizon_s": float("inf")}, "horizon_s must be positive"),
    ({"horizon_s": 0.0}, "horizon_s must be positive"),
    ({"horizon_s": 0.15}, "vehicle dt must divide horizon_s"),
    ({"v0": -3.0}, "v0 must be a nonnegative speed"),
    ({"v0": float("nan")}, "v0 must be a nonnegative speed"),
    ({"v0": float("inf")}, "v0 must be a nonnegative speed"),
])
def test_a_hand_built_scenario_checks_its_horizon_and_start_speed(change, message):
    # the checks belong to the scenario, so one built without
    # scenario_from_dict cannot run 10 steps of horizon_s = True, one step
    # of a 0.15 s horizon, or fail in n_steps on a nan
    cfg = scenario_from_dict({"horizon_s": 1.0})
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(cfg, **change)


def test_solver_settings_validated():
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"controller": {"solver": {"max_iters": 0}}})


def test_ensemble_settings():
    cfg = scenario_from_dict({"ensemble": {"N": 3, "eta_lo": 0.01, "eta_hi": 0.02}})
    assert cfg.ensemble.n_members == 3
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"ensemble": {"N": 0}})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"ensemble": {"eta_lo": 0.5, "eta_hi": 0.1}})
    with pytest.raises(ConfigurationError):
        scenario_from_dict({"ensemble": {"spread": [0.1, 0.1]}})


_ENSEMBLE = {"n_members": 5, "eta_lo": 0.01, "eta_hi": 2.0, "prior": (-1.0, 1.0, 0.0),
             "spread": (0.1, 0.1, 0.1), "seed": 0}


@pytest.mark.parametrize("settings, name", [
    *((VehicleParams, n) for n in ("mass", "dt", "c0", "c1", "c2", "u_min", "u_max")),
    (NoiseSpec, "sigma_reward"),
    (QuadraticRewardSpec, "v_scale"),
    (QuadraticRewardSpec, "curvature_floor"),
    *((GnConfig, n) for n in ("tol", "damping", "u_min", "u_max")),
    (GradDceeConfig, "gain"),
    *((EscConfig, n) for n in ("dither_amp", "dither_freq", "integrator_gain", "highpass_cutoff",
                               "speed_loop_gain")),
    (EnsembleSettings, "eta_lo"),
    (EnsembleSettings, "eta_hi"),
])
def test_settings_types_reject_a_bool_as_a_number(settings, name):
    # True passes every numeric test of these fields as 1, and a run would
    # use it so: NoiseSpec(sigma_reward=True) draws with sigma 1
    base = _ENSEMBLE if settings is EnsembleSettings else {}
    settings(**{**base, name: 1.0})
    with pytest.raises(ConfigurationError, match=f"{settings.__name__}.{name} must be a number"):
        settings(**{**base, name: True})


@pytest.mark.parametrize(
    "overrides",
    [
        {"schedule": [5]},
        {"ensemble": {"N": "ten"}},
        {"vehicle": {"mass": "heavy"}},
        {"noise": {"seed": None}},
        {"horizon_s": float("nan")},
        {"horizon_s": float("inf")},
        {"vehicle": {"c0": float("nan")}},
        {"ensemble": {"spread": [0.3, float("nan"), 0.3]}},
        {"schedule": [{"t_start": 0.0, "v_star": 20.0, "disturbance_force": float("nan")}]},
        {"controller": {"solver": {"damping": float("nan")}}},
        {"controller": {"solver": {"max_iters": "x"}}},
        {"reward": {"c_r": float("nan")}},
        {"ensemble": {"N": 2.5}},
        {"noise": {"seed": 1.5}},
        {"controller": {"solver": {"max_iters": 3.7}}},
        {"noise": {"seed": True}},
        {"vehicle": {"mass": True}},
        {"ensemble": {"seed": -1}},
        {"reward": {"v_scale": -1}},
        {"schedule": [{"t_start": 0.0, "v_star": 70.0}]},
        {"ensemble": {"prior": {"w_z": 0.01}}},
        {"ensemble": {"spread": [True, 0.3, 0.3]}},
    ],
)
def test_malformed_values_rejected(overrides):
    with pytest.raises(ConfigurationError):
        scenario_from_dict(overrides)


def test_rejected_peak_parameters_name_their_key():
    schedule = [{"t_start": 0.0, "v_star": 20.0}, {"t_start": 100.0, "v_star": 70.0}]
    with pytest.raises(ConfigurationError, match=r"^schedule\[1\]: v_star = 70.0 outside"):
        scenario_from_dict({"schedule": schedule})
    schedule[1] = {"t_start": 100.0, "v_star": 20.0, "w_z": 0.0}
    with pytest.raises(ConfigurationError, match=r"^schedule\[1\]: w_z = 0.0 is below the curvature floor"):
        scenario_from_dict({"schedule": schedule})
    with pytest.raises(ConfigurationError, match=r"^ensemble\.prior: w_z = 0.01 is below the curvature floor"):
        scenario_from_dict({"ensemble": {"prior": {"w_z": 0.01}}})
    with pytest.raises(ConfigurationError, match=r"^ensemble\.prior: v_star = -1.0 outside"):
        scenario_from_dict({"ensemble": {"prior": {"v_star": -1.0}}})


def test_whole_numbers_load_as_int():
    for max_iters in (4.0, "4"):
        cfg = scenario_from_dict({"controller": {"solver": {"max_iters": max_iters}}})
        for value in (cfg.controller.solver.max_iters, cfg.raw["controller"]["solver"]["max_iters"]):
            assert type(value) is int and value == 4
    for seed in (2**60 + 1, str(2**60 + 1)):
        cfg = scenario_from_dict({"noise": {"seed": seed}})
        assert cfg.noise.seed == cfg.raw["noise"]["seed"] == 2**60 + 1


def test_load_config_from_yaml(tmp_path):
    path = tmp_path / "scen.yaml"
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump({"horizon_s": 10.0, "noise": {"seed": 42}}, fh)
    cfg = load_config(path)
    assert cfg.horizon_s == 10.0
    assert cfg.noise.seed == 42
    assert cfg.vehicle.dt == 0.1


def test_load_config_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/config.yaml")


def test_load_config_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigurationError):
        load_config(path)


def test_shipped_configs_parse():
    import os

    root = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("default.yaml", "noise_free.yaml"):
        cfg = load_config(os.path.join(root, name))
        assert cfg.n_steps > 0


def test_raw_echo_carries_full_schema():
    cfg = scenario_from_dict({"v0": 7.0})
    assert cfg.raw["v0"] == 7.0
    assert set(cfg.raw) == {
        "vehicle",
        "reward",
        "noise",
        "schedule",
        "horizon_s",
        "v0",
        "controller",
        "ensemble",
    }


def test_load_config_reads_an_empty_file_as_the_defaults_and_rejects_bad_yaml(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("", encoding="utf-8")
    assert load_config(path).raw == scenario_from_dict({}).raw
    path.write_text("vehicle: [1, 2\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="cannot parse config file"):
        load_config(path)


def test_schedule_entry_needs_v_star_and_v0_is_a_speed():
    with pytest.raises(ConfigurationError, match=r"^schedule\[0\] needs t_start and v_star"):
        scenario_from_dict({"schedule": [{"t_start": 0.0}]})
    with pytest.raises(ConfigurationError, match="v0 must be a nonnegative speed"):
        scenario_from_dict({"v0": -1})


def test_parameter_vectors_are_float_triples_that_cannot_be_written():
    # the true theta and the bank's prior and spread are tuples of Python
    # floats: the environment and the initial bank cannot change after the
    # config is built
    cfg = scenario_from_dict({})
    vectors = [seg.theta_true for seg in cfg.schedule] + [cfg.ensemble.prior, cfg.ensemble.spread]
    for theta in vectors:
        assert type(theta) is tuple and len(theta) == 3
        assert all(type(x) is float for x in theta)
        with pytest.raises(TypeError):
            theta[0] = -2.0
    assert cfg.schedule[0].theta_true == scenario_from_dict({}).schedule[0].theta_true
