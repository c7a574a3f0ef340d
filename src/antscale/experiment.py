"""End-to-end experiment runs: simulate, decide, log, score, write CSV trees.

One plan covers several approaches over repeated seeded runs of the same
scenario and trace. Every run writes its interval log under
``<out>/<plan>/<approach>/run-XX/intervals.csv`` and the whole plan is
condensed into one ``summary.csv``. All randomness derives from the plan
seed, so re-running an identical plan reproduces every output byte.
"""

import concurrent.futures
import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import baselines, colony, traces
from .dominance import select_compromise
from .domain import ConfigError, Decision, Scenario, path_component
from .metrics import (
    ObjectiveRecord,
    ProvisionRecord,
    LatencyRecord,
    RunLog,
    c_metric,
    g_distance,
    merge_runs,
    provisioning_pct,
    violation_pct,
    write_runlog,
)
from .simulator import Simulator, detect_trigger

APPROACHES = ("moaco-cd", "moga", "rule", "hill", "random")


@dataclass
class ExperimentPlan:
    name: str
    scenario: Scenario
    trace: dict | None = None          # None: synthesize from scenario trace params
    approaches: tuple = APPROACHES
    intervals: int = 70
    warmup: int = 20
    runs: int = 10
    seed: int = 1
    time_budget_s: float = 75.0
    out_dir: str = "results"
    threads: int = 1
    quiet: bool = False


def derive_seed(*parts) -> int:
    """Stable 64-bit seed from arbitrary labels; independent of hash randomization."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def resolve_trace(plan: ExperimentPlan) -> dict:
    """The plan's trace, synthesized when none was supplied, checked for coverage and length."""
    if plan.intervals < 1:
        raise ConfigError(f"the horizon must be at least 1 interval, got {plan.intervals}")
    scenario = plan.scenario
    managed = [s.id for s in scenario.topology.services if s.managed]
    trace = plan.trace
    if trace is None:
        trace = traces.synthetic_trace(
            managed,
            plan.intervals,
            seed=derive_seed(plan.seed, "trace"),
            peak=scenario.trace_peak,
            noise=scenario.trace_noise,
            profiles=scenario.trace_profiles,
        )
    for sid in managed:
        if sid not in trace:
            raise ConfigError(f"trace has no series for managed service {sid}")
    length = min(len(v) for v in trace.values())
    if length < plan.intervals:
        raise ConfigError(
            f"trace covers {length} intervals but the plan needs {plan.intervals}"
        )
    return {k: list(v[: plan.intervals]) for k, v in trace.items()}


def decide(approach: str, runtime, trigger, observed: dict, scenario: Scenario,
           time_budget_s: float, rng) -> Decision:
    """Run one approach's decision process for a triggered region."""
    if approach == "rule":
        return baselines.rule_decide(runtime, trigger, observed)
    if approach == "moaco-cd":
        cfg = dataclasses.replace(scenario.moaco, time_budget_s=time_budget_s)
        archive = colony.optimize(
            runtime.model, runtime.env, runtime.current, runtime.grids, cfg, rng
        )
        return select_compromise(archive, runtime.model.direction_signs, rng).decision
    if approach == "moga":
        cfg = dataclasses.replace(scenario.moga, time_budget_s=time_budget_s)
        archive = baselines.moga_optimize(runtime, cfg, rng)
        best = baselines.weighted_best(archive.objectives, runtime.model.direction_signs)
        return archive.entry(best).decision
    if approach == "hill":
        return baselines.hill_climb(
            runtime, scenario.search_evaluations, rng, time_budget_s=time_budget_s
        )
    if approach == "random":
        return baselines.random_search(
            runtime, scenario.search_evaluations, rng, time_budget_s=time_budget_s
        )
    raise ConfigError(f"unknown approach {approach!r}; expected one of {APPROACHES}")


def run_single(scenario: Scenario, trace: dict, approach: str, run_idx: int,
               plan: ExperimentPlan) -> RunLog:
    """Simulate one seeded run of one approach and collect its log."""
    sim = Simulator(scenario, trace, seed=derive_seed(plan.seed, run_idx, "environment"))
    rng = np.random.default_rng(derive_seed(plan.seed, approach, run_idx, "decider"))
    log = RunLog(approach=approach)
    decision = None
    for _ in range(plan.intervals):
        result = sim.step(decision)
        t = result.env.interval_index
        for region in scenario.regions:
            for oid in region.objective_ids:
                obj = scenario.objectives[oid]
                log.objective_records.append(
                    ObjectiveRecord(t, oid, result.observed[oid], obj.threshold, obj.direction)
                )
            for pid in region.primitive_ids:
                spec = sim.prim_specs[pid]
                log.provision_records.append(
                    ProvisionRecord(
                        t, pid,
                        float(result.env.current_configuration[pid]),
                        float(result.demands.get(pid, 0.0)),
                        spec.resource,
                    )
                )
        merged = {}
        for region in scenario.regions:
            live_region = sim.region_model(region.id).region
            trigger = detect_trigger(
                result.env, live_region, result.observed, scenario.objectives, sim.prim_specs
            )
            if trigger is None:
                continue
            runtime = sim.region_runtime(region.id, result.env)
            started = time.perf_counter()
            chosen = decide(
                approach, runtime, trigger, result.observed,
                scenario, plan.time_budget_s, rng,
            )
            log.latency_records.append(LatencyRecord(t, time.perf_counter() - started))
            merged.update(chosen.assignments)
        decision = Decision(merged) if merged else None
    return log


def _task(args):
    scenario, trace, approach, run_idx, plan = args
    started = time.perf_counter()
    log = run_single(scenario, trace, approach, run_idx, plan)
    if not plan.quiet:
        print(
            f"[{plan.name}] {approach} run {run_idx}: "
            f"{len(log.latency_records)} decisions in {time.perf_counter() - started:.1f}s",
            flush=True,
        )
    return (approach, run_idx, log)


def run_experiment(plan: ExperimentPlan) -> dict:
    """Execute a full plan and write its CSV tree.

    Returns {"summary": rows, "logs": {approach: [RunLog per run]},
    "out": plan directory} for programmatic use. Repetitions may execute in
    parallel processes; outputs are assembled in plan order regardless.
    """
    if not plan.approaches:
        raise ConfigError(f"the plan names no approach; expected some of {APPROACHES}")
    if len(set(plan.approaches)) < len(plan.approaches):
        raise ConfigError(f"the plan names an approach twice: {','.join(plan.approaches)}")
    for approach in plan.approaches:
        if approach not in APPROACHES:
            raise ConfigError(f"unknown approach {approach!r}; expected one of {APPROACHES}")
    if not 0 <= plan.warmup < plan.intervals:
        raise ConfigError("warmup must lie inside the simulated horizon")
    if plan.runs < 1:
        raise ConfigError(f"runs must be at least 1, got {plan.runs}")
    path_component("the plan name", plan.name)
    # a NaN budget would turn every deadline check off
    if not plan.time_budget_s > 0:
        raise ConfigError(f"the time budget must be a number > 0, got {plan.time_budget_s}")
    trace = resolve_trace(plan)
    tasks = [
        (plan.scenario, trace, approach, run_idx, plan)
        for approach in plan.approaches
        for run_idx in range(plan.runs)
    ]
    logs = {approach: [None] * plan.runs for approach in plan.approaches}
    if plan.threads > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.threads) as pool:
            for approach, run_idx, log in pool.map(_task, tasks):
                logs[approach][run_idx] = log
    else:
        for task in tasks:
            approach, run_idx, log = _task(task)
            logs[approach][run_idx] = log

    plan_dir = Path(plan.out_dir) / plan.name
    for approach in plan.approaches:
        for run_idx, log in enumerate(logs[approach]):
            run_dir = plan_dir / approach / f"run-{run_idx:02d}"
            run_dir.mkdir(parents=True, exist_ok=True)
            write_runlog(run_dir / "intervals.csv", log)

    summary = summarize(plan, logs)
    with open(plan_dir / "summary.csv", "w", newline="") as fh:
        fh.write("approach,metric,target,value\n")
        for approach, metric, target, value in summary:
            fh.write(f"{approach},{metric},{target},{format(value, '.10g')}\n")
    return {"summary": summary, "logs": logs, "out": plan_dir}


def summarize(plan: ExperimentPlan, logs: dict) -> list:
    """Fixed-shape summary rows: (approach, metric, target, value).

    Only reproducible comparison metrics go here, which keeps the summary
    byte-identical across repeated runs of one plan. Decision latencies are
    wall-clock measurements and stay in the per-run interval logs; score them
    with :func:`antscale.metrics.overhead` after reading a log back.
    """
    scenario = plan.scenario
    objective_order = [
        oid for region in scenario.regions for oid in region.objective_ids
    ]
    services = [
        s.id for s in scenario.topology.services
        if any(o.owner == s.id for o in scenario.objectives.values())
    ]
    tails = {a: [log.tail(plan.warmup) for log in runs] for a, runs in logs.items()}
    merged = {a: merge_runs(runs) for a, runs in tails.items()}
    resources = tails[plan.approaches[0]][0].resources()

    rows = []
    for approach in plan.approaches:
        run_tails = tails[approach]
        per_objective = {
            oid: sum(violation_pct(t, oid) for t in run_tails) / len(run_tails)
            for oid in objective_order
        }
        for oid in objective_order:
            rows.append((approach, "violation_pct", oid, per_objective[oid]))
        per_service = [
            np.mean([
                per_objective[oid] for oid, obj in scenario.objectives.items()
                if obj.owner == sid and oid in per_objective
            ])
            for sid in services
        ]
        rows.append((approach, "violation_service_std", "aggregate", float(np.std(per_service))))
        for resource in resources:
            for mode in ("over", "under"):
                value = sum(
                    provisioning_pct(t.filter_resource(resource), mode) for t in run_tails
                ) / len(run_tails)
                rows.append((approach, f"{mode}_provision_pct", resource, value))
        rows.append((approach, "g_distance", "aggregate", g_distance(merged, approach)))
        for other in plan.approaches:
            if other != approach:
                rows.append((approach, "c_metric", other, c_metric(merged[approach], merged[other])))
    return rows
