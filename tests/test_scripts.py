import importlib.util
import pathlib

import pytest

from dcee import scenario_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
