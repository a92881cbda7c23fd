"""Compare this checkout with a parent revision on perfbench's end-to-end
metrics, in alternating pairs, and write the summary as JSON.

    python scripts/bench_pairs.py --parent REV [--out BENCH.json] [--seed 4201]

REV is extracted with git archive into a new directory.  On each workload
of BENCHMARK.json, pair i of PAIRS = 10 runs perfbench/run.py --trace 0 for
BENCHMARK.json's run_seconds from both trees with the same seed, --seed + i,
the parent first in pairs 0, 2, 4, ... and the change first in the others,
so drift of the host's speed falls on both sides alike.  Any run whose
result line reads "correct": false, or that exits with another status than
0, stops the script.

Per workload and per metric of BENCHMARK.json's end_to_end list the summary
gives both sides' values in pair order, their medians, worse_by (the
change's median relative to the parent's, positive when worse in the
metric's better direction), the bound and whether worse_by is within it,
the pairs in which the change is strictly better, the interquartile range
of the parent's values, whether a gain may be claimed, and whether the two
sides are identical seed by seed; quality_identical says that of regret,
iae_v and e_v together.  gain_met is true when the change is strictly
better in at least nine tenths of the pairs and its median is better than
the parent's by more than the parent's interquartile range.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUALITY = ("regret", "iae_v", "e_v")
PAIRS = 10


def extract(rev: str, into: Path) -> Path:
    """The committed files of rev, extracted by git archive under into."""
    tree = into / "parent"
    tree.mkdir()
    archive = into / "parent.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), rev], check=True)
    with tarfile.open(archive) as tar:
        # extraction filters came with Python 3.10.12 and 3.11.4
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    archive.unlink()
    return tree


def parse_result(stdout: str) -> dict:
    """The JSON object on perfbench's last output line, which must read
    "correct": true."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"perfbench run is not correct: {stdout.strip().splitlines()[-1][:500]}")
    return result


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run from tree, as parse_result reads it."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench exited {proc.returncode} in {tree} ({workload}, seed {seed}):\n"
                           + (proc.stdout + proc.stderr)[-2000:])
    return parse_result(proc.stdout)


def summarize(parent: list, change: list, end_to_end: list) -> dict:
    """The summary of one workload from both sides' result objects, in pair
    order, for the metrics of end_to_end (BENCHMARK.json's entries)."""
    out = {
        "pairs": len(parent),
        "failed_steps": {"parent": sum(r["failed"] for r in parent), "change": sum(r["failed"] for r in change)},
    }
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        p_med, c_med = statistics.median(p), statistics.median(c)
        q1, _, q3 = statistics.quantiles(p, n=4, method="inclusive")
        diff = sign * (c_med - p_med)
        worse_by = diff / abs(p_med) if p_med else math.copysign(math.inf, diff) if diff else 0.0
        better = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        out[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "worse_by": round(worse_by, 4),
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
            "change_better_pairs": better,
            "parent_iqr": q3 - q1,
            "gain_met": 10 * better >= 9 * len(p) and -diff > q3 - q1,
            "identical_per_seed": p == c,
            "parent": p,
            "change": c,
        }
    out["quality_identical"] = all(out[name]["identical_per_seed"] for name in QUALITY if name in out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--out", help="write the JSON here (default: print it)")
    ap.add_argument("--seed", type=int, default=4201, help="seed of the first pair")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract(args.parent, Path(tmp)), "change": ROOT}
        summary = {}
        for workload in (w["name"] for w in bench["workloads"]):
            results = {"parent": [], "change": []}
            for i in range(PAIRS):
                seed = args.seed + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    results[side].append(run_one(trees[side], workload, seed, seconds))
                    print(f"{workload} pair {i} seed {seed} {side}: done", file=sys.stderr)
            summary[workload] = summarize(results["parent"], results["change"], bench["end_to_end"])
    payload = {
        "method": f"perfbench/run.py --seconds {seconds:g} --trace 0, {PAIRS} alternating pairs "
                  f"per workload (parent first in pairs 0, 2, ...), seeds {args.seed}-{args.seed + PAIRS - 1}; "
                  f"parent tree = git archive of {args.parent}, change tree = this checkout. worse_by is the "
                  "change's median relative to the parent's, positive when worse in the metric's direction.",
        "workloads": summary,
    }
    text = json.dumps(payload, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
