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


def _result_line(correct=True, failed=0, **values):
    return "workload ...\n" + json.dumps({"correct": correct, "attempted": 9000, "failed": failed, "metrics": {
        name: {"value": value, "unit": "-"} for name, value in values.items()}})


def test_bench_pairs_summarizes_canned_result_lines():
    script = _load_script("bench_pairs")
    end_to_end = [{"name": "step_us_p50", "better": "lower", "bound": 0.2},
                  {"name": "steps_per_s", "better": "higher", "bound": 0.2},
                  {"name": "regret", "better": "lower", "bound": 0.15}]

    def side(steps, rates, regrets, failed=0):
        return [script.parse_result(_result_line(failed=failed, step_us_p50=s, steps_per_s=r, regret=g))
                for s, r, g in zip(steps, rates, regrets)]

    parent = side([10.0, 11.0, 12.0, 13.0, 30.0], [100.0, 90.0, 80.0, 70.0, 60.0], [1.0, 2.0, 3.0, 4.0, 5.0])
    change = side([9.0, 12.0, 10.0, 12.0, 9.0], [110.0, 90.0, 70.0, 99.0, 61.0], [1.0, 2.0, 3.0, 4.0, 5.0],
                  failed=1)
    out = script.summarize(parent, change, end_to_end)
    assert out["pairs"] == 5 and out["failed_steps"] == {"parent": 0, "change": 5}
    step = out["step_us_p50"]
    assert (step["parent_median"], step["change_median"]) == (12.0, 10.0)
    # lower is better: 10 against 12 is 1/6 better, so worse_by is negative
    assert step["worse_by"] == round(-2.0 / 12.0, 4) and step["within_bound"]
    assert step["change_better_pairs"] == 4 and step["parent_iqr"] == 2.0
    assert step["parent"] == [10.0, 11.0, 12.0, 13.0, 30.0] and not step["identical_per_seed"]
    # higher is better: a median of 90 against 80 is 1/8 better
    rate = out["steps_per_s"]
    assert rate["worse_by"] == -0.125 and rate["change_better_pairs"] == 3
    assert out["regret"]["identical_per_seed"] and out["regret"]["worse_by"] == 0.0
    assert out["quality_identical"]
    worse = script.summarize(parent, side([20.0] * 5, [50.0] * 5, [1.0] * 5), end_to_end)
    assert worse["step_us_p50"]["worse_by"] == round(8.0 / 12.0, 4) and not worse["step_us_p50"]["within_bound"]
    assert worse["steps_per_s"]["worse_by"] == 0.375 and not worse["quality_identical"]
    # a gain needs 9 of 10 pairs better and medians apart by more than the parent's IQR
    assert not step["gain_met"] and not rate["gain_met"] and not out["regret"]["gain_met"]
    base = [10.0 + 0.5 * i for i in range(10)]  # median 12.25, IQR 2.25

    def gains(shift, worse_pairs):
        steps = [b - shift if i >= worse_pairs else b + 1.0 for i, b in enumerate(base)]
        out = script.summarize(side(base, [100.0 - b for b in base], [1.0] * 10),
                               side(steps, [100.0 - s for s in steps], [1.0] * 10), end_to_end)
        return out["step_us_p50"]["gain_met"], out["steps_per_s"]["gain_met"]

    assert gains(3.0, 1) == (True, True)
    assert gains(2.0, 1) == (False, False)  # medians 2.0 apart, within the IQR
    assert gains(3.0, 2) == (False, False)  # 8 of 10 pairs
    with pytest.raises(RuntimeError, match="not correct"):
        script.parse_result(_result_line(correct=False, regret=1.0))
