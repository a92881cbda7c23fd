"""Command-line harness: run, compare, bench, audit, check."""
from __future__ import annotations

import argparse
import os
import sys

from .config import CONTROLLER_TYPES, load_config, scenario_from_dict
from .errors import ConfigurationError, DceeError, InvalidInputError
from .harness import bench_solver, export, json_text, run_closed_loop, write_json


def _resolve_config(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        raw = dict(cfg.raw)
        raw["noise"] = dict(raw["noise"], seed=int(args.seed))
        cfg = scenario_from_dict(raw)
    return cfg


def _ensure_out(args):
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot use --out {args.out}: {exc}") from exc
    return args.out


def _print_solver_health(tag, health: dict):
    if health["solves"]:
        print(
            f"{tag}: {health['converged']}/{health['solves']} solves converged, "
            f"{health['escalations']} escalations, {health['fallbacks']} fallbacks, "
            f"iteration histogram {health['iteration_histogram']}, "
            f"{health['evaluations']} evaluations"
        )


def _print_metrics(tag, result):
    m = result.metrics
    t = result.timing
    print(
        f"{tag}: e_v={m['e_v']:.6g} m/s  IAE_v={m['iae_v']:.6g} m/s  Reg={m['regret']:.6g}  "
        f"solver mean {t['mean_ns']/1e6:.3f} ms / p99 {t['p99_ns']/1e6:.3f} ms / max {t['max_ns']/1e6:.3f} ms"
    )
    _print_solver_health(tag, result.solver.as_dict())


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    out = _ensure_out(args)
    result = run_closed_loop(cfg)
    _print_metrics(f"run[{cfg.controller.type}]", result)
    if out:
        path = export(result, os.path.join(out, f"run.{args.format}"), args.format)
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    # every controller's config is built, and so checked, before any runs
    configs = {}
    for controller in filter(None, (c.strip() for c in args.controllers.split(","))):
        if controller in configs:
            raise ConfigurationError(f"--controllers names {controller!r} more than once")
        raw = dict(cfg.raw, controller=dict(cfg.raw["controller"], type=controller))
        configs[controller] = scenario_from_dict(raw)
    if not configs:
        raise ConfigurationError(f"--controllers names no controller: {args.controllers!r}")
    out = _ensure_out(args)
    summary = {}
    for controller, ccfg in configs.items():
        result = run_closed_loop(ccfg)
        _print_metrics(f"compare[{controller}]", result)
        summary[controller] = result.summary()
        if out:
            path = export(result, os.path.join(out, f"compare_{controller}.csv"), "csv")
            print(f"wrote {path}")
    if out:
        print(f"wrote {write_json(os.path.join(out, 'compare_summary.json'), summary)}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _resolve_config(args)
    out = _ensure_out(args)
    report = bench_solver(cfg)
    for name, stats in report["timing"].items():
        if stats is None:
            print(f"bench[{name}]: not measured: no {name} solve completed")
            continue
        print(
            f"bench[{name}]: mean {stats['mean_ns']/1e6:.4f} ms  "
            f"p99 {stats['p99_ns']/1e6:.4f} ms  max {stats['max_ns']/1e6:.4f} ms"
        )
    gn = report["timing"]["analytic_gn"]
    print(
        f"bench[analytic_gn]: thread CPU p99 {gn['cpu_p99_ns']/1e3:.1f} us  "
        f"max {gn['cpu_max_ns']/1e3:.1f} us (the paper reports a maximum of 83 us)"
    )
    print(
        f"bench[analytic_gn]: {gn['gc_solves']} solves with a garbage collection inside; "
        f"thread CPU max over the others {gn['cpu_max_no_gc_ns']/1e3:.1f} us"
    )
    for name, ratio in report["speedup_vs_analytic"].items():
        if ratio is None:
            print(f"bench[speedup]: {name} / analytic_gn not measured: no {name} solve completed")
        else:
            print(f"bench[speedup]: {name} / analytic_gn = {ratio:.2f}x "
                  "(median per-step ratio of thread CPU times)")
    print(
        f"bench[agreement]: max relative objective spread {report['agreement_max_rel']:.2e} "
        f"over {report['agreement_checks']} checks"
    )
    if report["explore_shift_checks"]:
        print(
            f"bench[exploration]: |u - u_exploit| max {report['explore_shift_max_n']:.4g} N  "
            f"median {report['explore_shift_median_n']:.4g} N "
            f"over {report['explore_shift_checks']} checks"
        )
    _print_solver_health("bench[analytic_gn]", report["solver"])
    if out:
        print(f"wrote {write_json(os.path.join(out, 'bench.json'), report)}")
    return 0


def _cmd_audit(args) -> int:
    # imported here, so run and compare do not load the diagnostics
    from .diagnostics import derivative_audit

    cfg = _resolve_config(args)
    out = _ensure_out(args)
    report = derivative_audit(cfg.vehicle, cfg.reward, samples=args.samples, seed=cfg.noise.seed)
    payload = report.as_dict()
    payload["passed"] = report.passed
    print(json_text(payload), end="")
    if out:
        print(f"wrote {write_json(os.path.join(out, 'audit.json'), payload)}")
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    # the suite is imported here, so the other commands do not load it
    from .acceptance import run_all

    results = run_all()
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcee",
        description="Closed-loop eco-cruising harness for the structure-exploiting "
        "dual-control optimizer and its baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("config", help="scenario YAML file")
    scenario.add_argument("--out", metavar="DIR")
    scenario.add_argument("--seed", type=int, help="measurement-noise seed override; "
                          "audit also draws its random instances with it")

    p_run = sub.add_parser("run", parents=[scenario],
                           help="simulate one controller and export the trajectory")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", parents=[scenario],
                           help="run several controllers on the same scenario")
    p_cmp.add_argument("--controllers", default=",".join(CONTROLLER_TYPES))
    p_cmp.set_defaults(fn=_cmd_compare)

    p_bench = sub.add_parser("bench", parents=[scenario],
                             help="time the solver against internal references")
    p_bench.set_defaults(fn=_cmd_bench)

    p_audit = sub.add_parser("audit", parents=[scenario],
                             help="randomized derivative and decomposition audit, its "
                             "instances drawn with the noise seed (--seed)")
    p_audit.add_argument("--samples", type=int, default=100)
    p_audit.set_defaults(fn=_cmd_audit)

    p_check = sub.add_parser("check", help="run the acceptance criteria")
    p_check.set_defaults(fn=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except DceeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
