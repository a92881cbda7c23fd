import ast
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
import yaml

import dcee
from dcee import acceptance
from dcee.cli import main
from dcee.config import CONTROLLER_TYPES, default_config, load_config, scenario_from_dict
from dcee.harness import run_closed_loop

from conftest import failing_reference


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump({**default_config(), "horizon_s": 20.0}), encoding="utf-8")
    return str(path)


def test_run_writes_csv(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    rc = main(["run", cfg_path, "--out", out, "--format", "csv"])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "run.csv"))
    assert "run[numerical_dcee]" in capsys.readouterr().out


def test_run_writes_json(cfg_path, tmp_path):
    out = str(tmp_path / "out")
    rc = main(["run", cfg_path, "--out", out, "--format", "json"])
    assert rc == 0
    payload = json.loads((tmp_path / "out" / "run.json").read_text(encoding="utf-8"))
    assert "metrics" in payload and "timing" in payload and "config" in payload


def test_run_seed_override_changes_output(cfg_path, tmp_path):
    assert main(["run", cfg_path, "--out", str(tmp_path / "a"), "--seed", "1"]) == 0
    assert main(["run", cfg_path, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert (tmp_path / "a" / "run.csv").read_bytes() != (tmp_path / "b" / "run.csv").read_bytes()


def test_run_byte_identical_replay(cfg_path, tmp_path):
    assert main(["run", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["run", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "run.csv").read_bytes() == (tmp_path / "b" / "run.csv").read_bytes()


# md5 of the CSV `dcee run` writes for each shipped config.  Every logged
# bit of a run goes into it, so the pin changes only in a change that says
# why its runs changed.  ESC's CSV is not pinned: ESC calls libm's sin and
# atan, whose last bit may differ between platforms.
RUN_CSV_MD5 = {
    "default.yaml": "928143b3db96286b34d6e63226ed81dd",
    "noise_free.yaml": "ab034c899cdf773b66aee6dfd993b686",
}


@pytest.mark.parametrize("config", sorted(RUN_CSV_MD5))
def test_run_csv_of_each_shipped_config_is_pinned(tmp_path, config):
    path = os.path.join(os.path.dirname(__file__), "..", "configs", config)
    assert main(["run", path, "--out", str(tmp_path)]) == 0
    assert hashlib.md5((tmp_path / "run.csv").read_bytes()).hexdigest() == RUN_CSV_MD5[config]


def test_run_requires_config(cfg_path):
    # every scenario command names its config one way: the positional path
    for argv in (["run"], ["compare"], ["bench"], ["audit"], ["run", "--config", cfg_path]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["horizon_s: .nan\n", "schedule: [5]\n", "ensemble: {seed: -1}\n"])
def test_run_rejects_malformed_config(tmp_path, capsys, bad):
    path = tmp_path / "bad.yaml"
    path.write_text(bad, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def _fresh_interpreter(code: str) -> list:
    """The lines code prints in a fresh interpreter that imports the same
    dcee as this test session."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dcee.__file__))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.splitlines()


def test_import_loads_no_scipy():
    package = os.path.dirname(dcee.__file__)
    modules = sorted(f"dcee.{name[:-3]}" for name in os.listdir(package)
                     if name.endswith(".py") and name != "__init__.py")
    assert "dcee.harness" in modules and "dcee.cli" in modules
    code = (f"import importlib, sys\nfor m in {modules!r}: importlib.import_module(m)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_interpreter(code) == ["[]"]


def test_import_and_config_load_no_numpy_random():
    # the noise generator is built on the first draw, not at import
    config = os.path.join(os.path.dirname(__file__), "..", "configs", "default.yaml")
    code = f"import sys, dcee.config; dcee.config.load_config({config!r}); print('numpy.random' in sys.modules)"
    assert _fresh_interpreter(code) == ["False"]


def test_import_loads_only_the_modules_it_needs():
    # the package imports none of its modules, a scenario loads neither the
    # loop nor the checks, and the command line loads the acceptance suite
    # only when check runs
    code = ("import sys\n"
            "def loaded(): print(sorted(m for m in sys.modules if m.startswith('dcee.')))\n"
            "import dcee; loaded()\nimport dcee.config; loaded()\nimport dcee.cli; loaded()\n")
    package, config, cli = map(ast.literal_eval, _fresh_interpreter(code))
    assert package == []
    assert "dcee.config" in config
    assert not {"dcee.harness", "dcee.diagnostics", "dcee.acceptance", "dcee.cli"} & set(config)
    assert "dcee.cli" in cli and "dcee.acceptance" not in cli


@pytest.mark.parametrize("command", ["run", "compare", "bench", "audit"])
def test_unusable_out_fails_before_any_work(cfg_path, tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory", encoding="utf-8")
    assert main([command, cfg_path, "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: cannot use --out")


def test_unwritable_json_is_an_input_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "audit"
    (out / "audit.json").mkdir(parents=True)
    assert main(["audit", cfg_path, "--samples", "5", "--out", str(out)]) == 2
    assert "error: cannot write" in capsys.readouterr().err


def test_compare(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "cmp")
    rc = main(["compare", cfg_path, "--controllers", "numerical_dcee,esc", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "compare[numerical_dcee]" in text and "compare[esc]" in text
    summary = json.loads((tmp_path / "cmp" / "compare_summary.json").read_text(encoding="utf-8"))
    assert set(summary) == {"numerical_dcee", "esc"}
    assert os.path.exists(os.path.join(out, "compare_numerical_dcee.csv"))
    raw = load_config(cfg_path).raw
    for controller in ("numerical_dcee", "esc"):
        cfg = scenario_from_dict({**raw, "controller": {**raw["controller"], "type": controller}})
        assert summary[controller]["metrics"] == run_closed_loop(cfg).metrics


def test_compare_without_controllers_runs_every_controller_type_in_order(cfg_path, monkeypatch):
    ran = []
    run = dcee.cli.run_closed_loop

    def spy(cfg):
        ran.append(cfg.controller.type)
        return run(cfg)

    monkeypatch.setattr(dcee.cli, "run_closed_loop", spy)
    assert main(["compare", cfg_path]) == 0
    assert tuple(ran) == CONTROLLER_TYPES


def test_compare_rejects_unknown_controller(cfg_path):
    assert main(["compare", cfg_path, "--controllers", "numerical_dcee,banana"]) == 2


@pytest.mark.parametrize("controllers", ["esc,esc", "numerical_dcee, grad_dcee,numerical_dcee"])
def test_compare_rejects_a_repeated_controller_before_any_run(cfg_path, tmp_path, capsys, monkeypatch,
                                                             controllers):
    def no_run(cfg):
        raise AssertionError("compare ran a controller")

    monkeypatch.setattr(dcee.cli, "run_closed_loop", no_run)
    out = str(tmp_path / "out")
    assert main(["compare", cfg_path, "--controllers", controllers, "--out", out]) == 2
    repeated = controllers.split(",")[0]
    assert f"names {repeated!r} more than once" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_compare_rejects_empty_controller_list(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert main(["compare", cfg_path, "--controllers", " , ", "--out", out]) == 2
    assert "names no controller" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_bench(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "bench")
    rc = main(["bench", cfg_path, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bench[analytic_gn]" in printed
    assert "thread CPU p99" in printed
    assert re.search(r"^bench\[speedup\]: fd_hessian_newton / analytic_gn = \d+\.\d\dx "
                     r"\(median per-step ratio of thread CPU times\)$", printed, re.M)
    assert "bench[exploration]: |u - u_exploit| max" in printed and " evaluations" in printed
    payload = json.loads((tmp_path / "bench" / "bench.json").read_text(encoding="utf-8"))
    assert "timing" in payload and "speedup_vs_analytic" in payload
    assert payload["explore_shift_checks"] == payload["agreement_checks"]
    assert payload["solver"]["evaluations"] >= payload["solver"]["solves"]


def test_bench_reports_no_speedup_when_no_reference_solve_completes(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(dcee.harness, "fd_hessian_newton", failing_reference)
    path = tmp_path / "short.yaml"
    path.write_text("horizon_s: 2.0\n", encoding="utf-8")
    out = tmp_path / "bench"
    assert main(["bench", str(path), "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if line.startswith("bench[speedup]")] == [
        "bench[speedup]: fd_hessian_newton / analytic_gn not measured: "
        "no fd_hessian_newton solve completed"]
    assert "bench[fd_hessian_newton]: not measured: no fd_hessian_newton solve completed" in printed
    payload = json.loads((out / "bench.json").read_text(encoding="utf-8"))
    assert payload["speedup_vs_analytic"] == {"fd_hessian_newton": None}
    assert payload["timing"]["fd_hessian_newton"] is None
    # 20 steps and, at the default stride of 10, 2 agreement checks: each fails
    assert payload["reference_failures"] == 22
    assert payload["agreement_checks"] == payload["explore_shift_checks"] == 0
    assert payload["solver"]["solves"] == 20


def test_check_prints_each_criterion_and_exits_by_the_result(monkeypatch, capsys):
    def stub(index, passed):
        return lambda: acceptance.CriterionResult(index, f"stub {index}", passed, "detail")

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (stub(1, True), stub(2, False)))
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] criterion 1 (stub 1): detail",
        "[FAIL] criterion 2 (stub 2): detail",
        "1/2 criteria passed",
    ]
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (stub(1, True), stub(2, True)))
    assert main(["check"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2/2 criteria passed"


def test_audit(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "audit")
    rc = main(["audit", cfg_path, "--samples", "25", "--out", out])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out.split("wrote")[0])
    assert payload["passed"] is True
    assert os.path.exists(os.path.join(out, "audit.json"))


def test_audit_prints_the_bytes_it_writes(cfg_path, tmp_path, capsys):
    # the printed report and audit.json come from one JSON formatter
    out = str(tmp_path / "audit")
    assert main(["audit", cfg_path, "--samples", "5", "--out", out]) == 0
    path = os.path.join(out, "audit.json")
    written = (tmp_path / "audit" / "audit.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == written + f"wrote {path}\n"
