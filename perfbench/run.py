"""Benchmark of antscale's decide-and-simulate loop, with correctness checks.

Run from the repository root:

    python3 perfbench/run.py --workload moaco-triple --seed 1 --seconds 10 --trace 0

Each workload is one experiment plan driven through
``experiment.run_experiment`` in this process, with ``--seed`` as the plan
seed. With ``--trace 0`` the plan is run in whole rounds until ``--seconds``
have passed (at least one round) and the end-to-end metrics are reported.
With ``--trace 1`` one traced round (every layer wrapped, see tracing.py)
runs beside one untraced round in a child process, and the per-layer
metrics are reported. Either way the checks in checks.py run on what was
written, and their self-test must catch a corrupted input. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``. Each decision is one attempted operation.

The per-decision budget is far above any decision's colony phase, so no
deadline fires and a seed always gives the same work and the same outputs.
"""

import argparse
import dataclasses
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
TIME_BUDGET_S = 75.0
REFERENCE_TIMEOUT_S = 170.0
# The workload trace is part of the workload, so it is fixed: it is the trace
# `antscale run --seed 1` synthesizes from the scenario's trace block. --seed
# drives the observation noise and the deciders' random streams. Letting it
# also redraw the trace changes the number of scale-outs, and so the work of a
# moaco-triple plan by more than 2x between seeds.
TRACE_SEED = 1


@dataclasses.dataclass(frozen=True)
class Workload:
    scenario: str
    approach: str
    intervals: int
    warmup: int
    runs: int


WORKLOADS = {
    # the paper's arena: archives of ~750 entries, selection tails, scale-outs
    "moaco-triple": Workload("triple_vm.json", "moaco-cd", intervals=70, warmup=20, runs=1),
    # the same layers on tiny inputs, where fixed per-call costs dominate; left
    # out of BENCHMARK.json because its short decisions follow the shared
    # machine's speed too closely to give steady medians (see README.md)
    "moaco-smoke": Workload("smoke.json", "moaco-cd", intervals=60, warmup=10, runs=20),
    # no colony and no compromise selection; NSGA-II ranking instead
    "moga-triple": Workload("triple_vm.json", "moga", intervals=70, warmup=20, runs=6),
}


def process_age_s() -> float:
    """Seconds since this process started, from the kernel's start time."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_package():
    """Import antscale from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import antscale
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import antscale from {src}: {exc}")
    if Path(antscale.__file__).resolve().parent != src / "antscale":
        raise SystemExit(f"perfbench: antscale was imported from {antscale.__file__}, not {src}")


def run_dir(name: str, seed: int, kind: str) -> Path:
    return OUT / name / f"seed-{seed}" / kind


def make_plan(name: str, workload: Workload, seed: int, out_dir: Path, domain, experiment):
    """Load and validate the scenario and build the plan with its trace."""
    scenario_path = ROOT / "scenarios" / workload.scenario
    scenario = domain.load_scenario(scenario_path)
    problems = domain.validate_scenario(scenario)
    if problems:
        raise SystemExit(f"perfbench: {scenario_path} is invalid: {problems}")
    shutil.rmtree(out_dir, ignore_errors=True)
    plan = experiment.ExperimentPlan(
        name=name, scenario=scenario, approaches=(workload.approach,),
        intervals=workload.intervals, warmup=workload.warmup, runs=workload.runs,
        seed=seed, time_budget_s=TIME_BUDGET_S, out_dir=str(out_dir), threads=1, quiet=True,
    )
    trace = experiment.resolve_trace(dataclasses.replace(plan, seed=TRACE_SEED))
    return dataclasses.replace(plan, trace=trace)


def check_written(plan, workload: Workload, checks) -> tuple:
    """Check (a) on a finished round's files; returns (problems, inputs)."""
    plan_dir = Path(plan.out_dir) / plan.name
    summary = checks.read_summary(plan_dir / "summary.csv")
    recomputed = checks.recompute_summary(
        plan_dir, workload.approach, workload.runs, workload.warmup
    )
    return checks.summary_matches_interval_logs(summary, recomputed), summary, recomputed


def qos(logs, scenario, warmup: int) -> tuple:
    """(mean response time, mean summed cost per interval) after warm-up."""
    rt_ids = {oid for oid, o in scenario.objectives.items() if o.kind == "response_time"}
    cost_ids = {oid for oid, o in scenario.objectives.items() if o.kind == "cost"}
    rts, costs = [], {}
    for run_idx, log in enumerate(logs):
        for r in log.objective_records:
            if r.interval < warmup:
                continue
            if r.objective_id in rt_ids:
                rts.append(r.value)
            elif r.objective_id in cost_ids:
                key = (run_idx, r.interval)
                costs[key] = costs.get(key, 0.0) + r.value
    return sum(rts) / len(rts), sum(costs.values()) / len(costs)


def run_untraced(name, workload, seed, seconds, checks, domain, experiment):
    """Whole rounds until ``seconds`` pass; end-to-end metrics and checks."""
    plan = make_plan(name, workload, seed, run_dir(name, seed, "untraced"), domain, experiment)
    setup_s = process_age_s()

    latencies, walls, summaries = [], [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        result = experiment.run_experiment(plan)
        walls.append(time.perf_counter() - t0)
        summaries.append((Path(result["out"]) / "summary.csv").read_bytes())
        latencies.extend(
            r.seconds for log in result["logs"][workload.approach] for r in log.latency_records
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rt_ms, cost = qos(result["logs"][workload.approach], plan.scenario, workload.warmup)

    problems, summary, recomputed = check_written(plan, workload, checks)
    for i, later in enumerate(summaries[1:], start=1):
        problems += checks.same_bytes(f"round {i} against round 0", summaries[0], later)
    problems += checks.self_test(summary=summary, recomputed=recomputed,
                                 summary_bytes=summaries[0])

    _, p50, p75 = statistics.quantiles(latencies, n=4, method="inclusive")
    intervals = workload.intervals * workload.runs * len(walls)
    metrics = {
        "setup_s": (setup_s, "s"),
        "intervals_per_s": (intervals / sum(walls), "1/s"),
        "decision_p50_ms": (1000.0 * p50, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "qos_rt_ms": (rt_ms, "ms"),
        "qos_cost": (cost, "price/interval"),
    }
    print(f"[perfbench] {name} seed {seed}: {len(walls)} round(s) of "
          f"{workload.intervals * workload.runs} intervals, {len(latencies)} decisions, "
          f"round walls {', '.join(f'{w:.2f}' for w in walls)} s, "
          f"decision p75 {1000.0 * p75:.1f} ms (not gated, see README.md)")
    return problems, len(latencies), {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def untraced_reference(name: str, seed: int) -> subprocess.Popen:
    """Start a one-round untraced run of the same plan in a child process.

    It runs beside the traced round, so that a traced run of the longest
    plan still ends well inside its time limit on two cores.
    """
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )


def run_traced(name, workload, seed, checks, domain, experiment):
    """A traced round of the plan beside an untraced one; per-layer metrics and checks."""
    from tracing import Tracer

    reference = untraced_reference(name, seed)
    try:
        scenario = domain.load_scenario(ROOT / "scenarios" / workload.scenario)
        cost_owners = {oid: o.owner for oid, o in scenario.objectives.items() if o.kind == "cost"}
        tracer = Tracer(cost_owners)
        t0 = time.perf_counter()
        with tracer:
            # the traced round repeats the set-up so that its layers are measured too
            plan = make_plan(name, workload, seed, run_dir(name, seed, "traced"), domain, experiment)
            result = experiment.run_experiment(plan)
        traced_wall = time.perf_counter() - t0
        output, _ = reference.communicate(timeout=REFERENCE_TIMEOUT_S)
    finally:
        if reference.poll() is None:
            reference.kill()
            reference.communicate()

    lines = output.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    problems = []
    try:
        untraced = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        untraced = {"correct": False, "metrics": {}}
        problems.append(f"the untraced reference run printed no result (exit {reference.returncode})")
    if not untraced["correct"]:
        problems.append("the untraced reference run failed its checks")

    traced_summary = (Path(plan.out_dir) / name / "summary.csv").read_bytes()
    untraced_summary_path = run_dir(name, seed, "untraced") / name / "summary.csv"
    untraced_summary = untraced_summary_path.read_bytes() if untraced_summary_path.exists() else b""
    more, summary, recomputed = check_written(plan, workload, checks)
    problems += more
    problems += checks.costs_match_prices(tracer.steps, cost_owners)
    problems += checks.decisions_on_grid(tracer.decisions)
    problems += checks.moaco_choices_sound(tracer.moaco)
    problems += checks.moga_fronts_sound(tracer.moga)
    problems += checks.same_bytes("traced against untraced", untraced_summary, traced_summary)
    problems += checks.self_test(
        summary=summary, recomputed=recomputed, steps=tracer.steps, cost_owners=cost_owners,
        decisions=tracer.decisions, moaco=tracer.moaco, moga=tracer.moga,
        summary_bytes=traced_summary,
    )
    captured = tracer.moaco if workload.approach == "moaco-cd" else tracer.moga
    if not captured:
        problems.append(f"no {workload.approach} decision was captured for checks (d)/(e)")

    decisions = sum(len(log.latency_records) for log in result["logs"][workload.approach])
    rate = untraced["metrics"].get("intervals_per_s", {}).get("value")
    untraced_wall = workload.intervals * workload.runs / rate if rate else float("nan")
    print(f"[perfbench] {name} seed {seed}: {decisions} traced decisions; side by side, the "
          f"untraced round took {untraced_wall:.2f} s and the traced round {traced_wall:.2f} s")
    return problems, decisions, tracer.metrics()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    from antscale import domain, experiment
    import checks

    workload = WORKLOADS[args.workload]
    if args.trace:
        problems, attempted, metrics = run_traced(
            args.workload, workload, args.seed, checks, domain, experiment)
    else:
        problems, attempted, metrics = run_untraced(
            args.workload, workload, args.seed, args.seconds, checks, domain, experiment)
    for problem in problems:
        print(f"[perfbench] FAIL {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": 0, "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
