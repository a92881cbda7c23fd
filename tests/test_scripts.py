import ast
import importlib.util
import json
import pathlib

import pytest

from dcee.config import scenario_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_script_is_loaded_by_a_test():
    tree = ast.parse(pathlib.Path(__file__).read_text(encoding="utf-8"))
    loaded = {node.args[0].value for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_load_script"}
    assert loaded == {path.stem for path in (ROOT / "scripts").glob("*.py")}


def test_standard_packages_compares_every_sampled_solve():
    # scipy is not a dependency of dcee; only this script needs it
    pytest.importorskip("scipy")
    script = _load_script("standard_packages")
    out = script.compare(scenario_from_dict({"horizon_s": 10.0}))
    assert set(out) == {"controller_step", *script.SOLVERS}
    for r in out.values():
        assert len(r["us"]) == 20
        assert r["failures"] == 0
    for name in script.SOLVERS:
        assert len(out[name]["rel"]) == 20
        assert all(abs(rel) < 1e-5 for rel in out[name]["rel"])
    rows = script.table(out).splitlines()[2:]
    assert len(rows) == len(out)


def test_seed_table_prints_one_row_per_seed(capsys):
    script = _load_script("seed_table")
    # through the first switch, at 300 s: each seed's one alarm follows it
    script.main(["--seeds", "2", "--horizon", "310", "--sigma", "0.01"])
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [row["seed"] for row in rows] == [20260811, 20260812]
    for row in rows:
        assert set(row) == {"seed", "regret", "iae_v", "e_v", "e_v_tail", "alarm_steps", "fallbacks"}
        assert row["fallbacks"] == 0
        (step,) = row["alarm_steps"]
        assert 3000 <= step < 3100


def test_seed_summary_tables_every_controller_and_level():
    script = _load_script("seed_summary")
    raw = scenario_from_dict({}).raw
    out = script.summary(raw, levels=((0.01, 2),), horizon=30.0)
    metrics, health = (block.splitlines() for block in out.split("\n\n"))
    assert [row.split(" | ")[1] for row in metrics[2:]] == ["`regret`", "`iae_v`", "`e_v_tail`"]
    for row in metrics[2:]:
        cells = row.strip("| ").split(" | ")
        assert cells[0] == "0.01, 2"
        assert len(cells[2].split(" / ")) == 3
        assert all(0 <= int(wins) <= 2 for wins in cells[3:])
    assert [row.split(" | ")[1] for row in health[2:]] == ["`numerical_dcee`", "`grad_dcee`", "`esc`"]
    for row in health[2:]:
        # no switch within 30 s: no alarm, and no solve falls back
        assert row.strip("| ").split(" | ")[2:] == ["0", "2", "0"]

