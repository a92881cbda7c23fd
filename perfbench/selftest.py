"""Self-test of the benchmark at a tiny horizon (about ten seconds).

    python3 perfbench/selftest.py

Checks that every workload runs correct in both modes and emits every metric
BENCHMARK.json names, with its unit; that the result line has exactly the
keys the contract names; that a wrapped name missing from dcee, or a harness
that no longer calls its layers through the wrapped names, fails loudly
instead of reporting zero; and that the benchmark refuses to run without the
dcee sources next to it.  Exits nonzero on the first failure.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

HORIZON_S = 2.0
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _tiny(workload: str, trace: bool) -> dict:
    return run.run_benchmark(workload, 0, 0.05, trace, horizon_s=HORIZON_S, setup_repeats=1)


def check_metrics_emitted() -> None:
    for wl in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = _tiny(wl["name"], trace)
            _expect(result["correct"], f"{wl['name']} trace={trace}: {result['report']}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            _expect(got == want, f"{wl['name']} trace={trace}: emitted {got}, BENCHMARK.json names {want}")
            for name, m in result["metrics"].items():
                _expect(isinstance(m["value"], float), f"{name} is not a float: {m['value']!r}")


def check_result_line() -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        orig = run.run_benchmark
        run.run_benchmark = functools.partial(orig, horizon_s=HORIZON_S, setup_repeats=1)
        try:
            code = run.main(["--workload", "baselines", "--seed", "3", "--seconds", "0.05"])
        finally:
            run.run_benchmark = orig
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    _expect(code == 0, f"exit code {code}")
    _expect(sorted(last) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(last)}")
    _expect(last["attempted"] >= 1 and last["failed"] == 0, f"attempted/failed {last}")


def check_missing_name_fails() -> None:
    import dcee.harness
    import probes

    saved = dcee.harness.measure
    del dcee.harness.measure
    try:
        _tiny("noisy_default", False)
    except probes.ProbeError as exc:
        _expect("dcee.harness.measure" in str(exc), f"unhelpful error: {exc}")
    else:
        raise AssertionError("a missing dcee.harness.measure did not fail the run")
    finally:
        dcee.harness.measure = saved


def check_bypassed_probe_fails() -> None:
    """A harness that calls its layers without going through its module
    attributes (as after a refactor) leaves the probes silent."""
    import dcee.harness
    import probes

    orig = dcee.harness.run_closed_loop
    frozen = dict(vars(dcee.harness))
    dcee.harness.run_closed_loop = types.FunctionType(orig.__code__, frozen, orig.__name__,
                                                      orig.__defaults__, orig.__closure__)
    try:
        for trace in (False, True):
            try:
                _tiny("noise_free", trace)
            except probes.ProbeError as exc:
                _expect("0 calls" in str(exc), f"unhelpful error: {exc}")
            else:
                raise AssertionError(f"trace={trace}: silent probes did not fail the run")
    finally:
        dcee.harness.run_closed_loop = orig


def check_refuses_without_sources() -> None:
    bare = run.OUT_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "noisy_default", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        _expect(proc.returncode != 0, "ran without the dcee sources")
        _expect("correct" not in proc.stdout, f"printed a result: {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    for check in (check_metrics_emitted, check_result_line, check_missing_name_fails,
                  check_bypassed_probe_fails, check_refuses_without_sources):
        check()
        print(f"ok  {check.__name__}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
