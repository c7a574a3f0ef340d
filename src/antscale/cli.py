"""Command line front end: run experiment plans, generate traces, validate scenarios."""

import argparse
import os
import sys

from . import traces
from .domain import ConfigError, load_scenario, validate_scenario
from .experiment import APPROACHES, ExperimentPlan, resolve_trace, run_experiment


def _load_checked(path: str):
    scenario = load_scenario(path)
    problems = validate_scenario(scenario)
    if problems:
        print(f"scenario {path} failed validation:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        raise SystemExit(2)
    return scenario


def _thread_count(flag: str | None) -> int:
    source, raw = "--threads", flag
    if raw is None:
        source, raw = "AUTOSCALE_THREADS", os.environ.get("AUTOSCALE_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"{source} must be a positive integer, got {raw!r}")
    return int(raw)


def cmd_run(args) -> int:
    threads = _thread_count(args.threads)
    scenario = _load_checked(args.scenario)
    trace = traces.load_trace_csv(args.trace) if args.trace else None
    approaches = tuple(a.strip() for a in args.approaches.split(",") if a.strip())
    plan = ExperimentPlan(
        name=scenario.name if args.name is None else args.name,
        scenario=scenario,
        trace=trace,
        approaches=approaches,
        intervals=args.intervals,
        warmup=args.warmup,
        runs=args.runs,
        seed=args.seed,
        time_budget_s=args.time_budget,
        out_dir=args.out,
        threads=threads,
        quiet=args.quiet,
    )
    result = run_experiment(plan)
    print(f"wrote {result['out'] / 'summary.csv'}")
    return 0


def cmd_gen_trace(args) -> int:
    scenario = _load_checked(args.scenario)
    plan = ExperimentPlan(
        name=scenario.name, scenario=scenario, intervals=args.intervals, seed=args.seed
    )
    traces.write_trace_csv(args.out, resolve_trace(plan))
    print(f"wrote {args.out}")
    return 0


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    problems = validate_scenario(scenario)
    if problems:
        print(f"{args.scenario}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"{args.scenario}: ok ({len(scenario.objectives)} objectives, "
          f"{len(scenario.primitives)} primitives)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antscale",
        description="Self-adaptive autoscaling decision experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment plan")
    run.add_argument("--scenario", required=True, help="scenario JSON file")
    run.add_argument("--trace", help="workload trace CSV; synthesized when omitted")
    run.add_argument("--approaches", default=",".join(APPROACHES),
                     help=f"comma list from {', '.join(APPROACHES)}")
    run.add_argument("--intervals", type=int, default=70)
    run.add_argument("--warmup", type=int, default=20,
                     help="intervals excluded from the summary metrics")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--time-budget", type=float, default=75.0,
                     help="per-decision wall clock budget in seconds")
    run.add_argument("--out", default="results")
    run.add_argument("--name", help="plan name; defaults to the scenario name")
    run.add_argument("--threads", default=None,
                     help="worker processes for repetitions; default $AUTOSCALE_THREADS or 1")
    run.add_argument("--quiet", action="store_true")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-trace", help="write a synthetic workload trace")
    gen.add_argument("--scenario", required=True)
    gen.add_argument("--intervals", type=int, default=70)
    gen.add_argument("--seed", type=int, default=1,
                     help="plan seed; writes the trace `run --seed` synthesizes")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(func=cmd_gen_trace)

    val = sub.add_parser("validate", help="check a scenario file")
    val.add_argument("--scenario", required=True)
    val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
