"""Experiment harness wiring and the command-line entry points."""

import json

import numpy as np
import pytest

from antscale import cli
from antscale.domain import ConfigError, Decision
from antscale.experiment import (
    APPROACHES,
    ExperimentPlan,
    derive_seed,
    decide,
    resolve_trace,
    run_experiment,
)
from antscale.metrics import read_runlog, violation_pct
from antscale.simulator import Simulator, detect_trigger
from antscale.traces import load_trace_csv
from conftest import SMOKE_PATH, smoke_doc


def mini_plan(scenario, out_dir, approaches=("rule", "random"), runs=2, seed=11):
    return ExperimentPlan(
        name="mini",
        scenario=scenario,
        approaches=tuple(approaches),
        intervals=5,
        warmup=1,
        runs=runs,
        seed=seed,
        time_budget_s=10.0,
        out_dir=str(out_dir),
        quiet=True,
    )


# -- seeds and traces ------------------------------------------------------


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(1, "trace") == derive_seed(1, "trace")
    assert derive_seed(1, "trace") != derive_seed(2, "trace")
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
    assert 0 <= derive_seed("anything") < 2 ** 64


def test_resolve_trace_synthesizes_to_plan_length(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path)
    trace = resolve_trace(plan)
    assert set(trace) == {"s1", "s2"}
    assert all(len(v) == plan.intervals for v in trace.values())


def test_resolve_trace_rejects_short_supplied_trace(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path)
    plan.trace = {"s1": [50.0] * 3, "s2": [50.0] * 3}
    with pytest.raises(ConfigError):
        resolve_trace(plan)


def test_short_trace_fails_before_any_run(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path / "never")
    plan.trace = {"s1": [50.0] * 3, "s2": [50.0] * 3}
    with pytest.raises(ConfigError):
        run_experiment(plan)
    assert not (tmp_path / "never").exists()


def test_warmup_must_fit_inside_horizon(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path)
    plan.warmup = 5
    with pytest.raises(ConfigError):
        run_experiment(plan)


def test_unknown_approach_rejected(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path, approaches=("rule", "simulated-annealing"))
    with pytest.raises(ConfigError):
        run_experiment(plan)


# -- full runs -------------------------------------------------------------


def test_run_writes_expected_layout(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path)
    out = run_experiment(plan)
    base = tmp_path / "mini"
    assert out["out"] == base
    assert (base / "summary.csv").is_file()
    for approach in plan.approaches:
        for run_idx in range(plan.runs):
            assert (base / approach / f"run-{run_idx:02d}" / "intervals.csv").is_file()


def test_summary_row_count_is_fixed_by_plan_shape(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path)
    out = run_experiment(plan)
    k = len(plan.approaches)
    n_objectives = len(smoke_scenario.objectives)
    n_resources = 3     # cpu, memory, thread
    per_approach = n_objectives + 1 + 2 * n_resources + 1 + (k - 1)
    assert len(out["summary"]) == k * per_approach


def test_rule_only_plan_still_produces_valid_csvs(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path, approaches=("rule",), runs=1)
    out = run_experiment(plan)
    lines = (tmp_path / "mini" / "summary.csv").read_text().splitlines()
    assert lines[0] == "approach,metric,target,value"
    assert all(line.split(",")[0] == "rule" for line in lines[1:])
    log = read_runlog(tmp_path / "mini" / "rule" / "run-00" / "intervals.csv")
    assert log.objective_records


def test_identical_plans_produce_byte_identical_summaries(smoke_scenario, tmp_path):
    a = run_experiment(mini_plan(smoke_scenario, tmp_path / "a"))
    b = run_experiment(mini_plan(smoke_scenario, tmp_path / "b"))
    assert a["summary"] == b["summary"]
    bytes_a = (tmp_path / "a" / "mini" / "summary.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "mini" / "summary.csv").read_bytes()
    assert bytes_a == bytes_b


def test_parallel_execution_matches_sequential(smoke_scenario, tmp_path):
    seq = mini_plan(smoke_scenario, tmp_path / "seq")
    par = mini_plan(smoke_scenario, tmp_path / "par")
    par.threads = 2
    run_experiment(seq)
    run_experiment(par)
    bytes_seq = (tmp_path / "seq" / "mini" / "summary.csv").read_bytes()
    bytes_par = (tmp_path / "par" / "mini" / "summary.csv").read_bytes()
    assert bytes_seq == bytes_par


def test_summary_scores_only_post_warmup_intervals(smoke_scenario, tmp_path):
    plan = mini_plan(smoke_scenario, tmp_path, approaches=("rule",), runs=1)
    out = run_experiment(plan)
    log = read_runlog(tmp_path / "mini" / "rule" / "run-00" / "intervals.csv")
    tail = log.tail(plan.warmup)
    intervals = {r.interval for r in tail.objective_records}
    assert intervals == set(range(plan.warmup, plan.intervals))
    want = violation_pct(tail, "s1.rt")
    got = next(
        v for a, metric, target, v in out["summary"]
        if a == "rule" and metric == "violation_pct" and target == "s1.rt"
    )
    assert got == pytest.approx(want)


def test_decisions_respect_bounds_at_decision_time(smoke_scenario):
    trace = {"s1": [200.0] * 4, "s2": [200.0] * 4}
    for approach in ("moaco-cd", "rule"):
        sim = Simulator(smoke_scenario, trace, seed=1)
        rng = np.random.default_rng(2)
        decision = None
        decided = 0
        for _ in range(3):
            result = sim.step(decision)
            merged = {}
            for region in smoke_scenario.regions:
                runtime = sim.region_runtime(region.id, result.env)
                trigger = detect_trigger(
                    result.env, runtime.region, result.observed,
                    smoke_scenario.objectives, sim.prim_specs,
                )
                if trigger is None:
                    continue
                d = decide(approach, runtime, trigger, result.observed,
                           smoke_scenario, 5.0, rng)
                assert set(d.assignments) == set(runtime.region.primitive_ids)
                for pid, value in d.assignments.items():
                    assert sim.prim_specs[pid].on_grid(value)
                merged.update(d.assignments)
                decided += 1
            decision = Decision(merged) if merged else None
        assert decided > 0


def test_every_known_approach_produces_a_decision(smoke_scenario):
    trace = {"s1": [200.0] * 3, "s2": [200.0] * 3}
    for approach in APPROACHES:
        sim = Simulator(smoke_scenario, trace, seed=4)
        result = sim.step()
        region = smoke_scenario.regions[0]
        runtime = sim.region_runtime(region.id, result.env)
        trigger = detect_trigger(
            result.env, region, result.observed,
            smoke_scenario.objectives, sim.prim_specs,
        )
        assert trigger is not None
        d = decide(approach, runtime, trigger, result.observed,
                   smoke_scenario, 5.0, np.random.default_rng(1))
        assert set(d.assignments) == set(region.primitive_ids)


# -- command line ----------------------------------------------------------


def test_cli_validate_accepts_bundled_scenario(capsys):
    code = cli.main(["validate", "--scenario", str(SMOKE_PATH)])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out


def test_cli_validate_reports_problems(tmp_path, capsys):
    doc = smoke_doc()
    doc["primitives"][0]["initial"] = 21
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = cli.main(["validate", "--scenario", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert "initial" in captured.out + captured.err


def test_cli_run_rejects_invalid_scenario(tmp_path, capsys):
    doc = smoke_doc()
    doc["primitives"][0]["initial"] = 21
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SystemExit) as info:
        cli.main([
            "run", "--scenario", str(bad), "--approaches", "rule",
            "--intervals", "3", "--warmup", "1", "--runs", "1",
            "--out", str(tmp_path / "out"), "--quiet",
        ])
    assert info.value.code == 2
    assert "initial" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_missing_file_exits_cleanly(tmp_path, capsys):
    code = cli.main([
        "run", "--scenario", str(tmp_path / "absent.json"),
        "--approaches", "rule", "--out", str(tmp_path / "out"), "--quiet",
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_gen_trace_round_trips(tmp_path):
    path = tmp_path / "trace.csv"
    code = cli.main([
        "gen-trace", "--scenario", str(SMOKE_PATH),
        "--intervals", "8", "--seed", "3", "--out", str(path),
    ])
    assert code == 0
    trace = load_trace_csv(path)
    assert set(trace) == {"s1", "s2"}
    assert all(len(v) == 8 for v in trace.values())


def test_cli_run_end_to_end_with_supplied_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.csv"
    cli.main([
        "gen-trace", "--scenario", str(SMOKE_PATH),
        "--intervals", "6", "--seed", "3", "--out", str(trace_path),
    ])
    code = cli.main([
        "run", "--scenario", str(SMOKE_PATH), "--trace", str(trace_path),
        "--approaches", "rule,random", "--intervals", "4", "--warmup", "1",
        "--runs", "1", "--seed", "9", "--out", str(tmp_path / "out"), "--quiet",
    ])
    assert code == 0
    summary = (tmp_path / "out" / "smoke" / "summary.csv").read_text()
    assert summary.startswith("approach,metric,target,value")
    capsys.readouterr()


@pytest.mark.parametrize("env, flag", [
    ("two", None), ("0", None), ("-3", None), ("1", "two"), ("1", "0"), (None, "1.5"),
])
def test_cli_rejects_a_bad_thread_count(tmp_path, monkeypatch, capsys, env, flag):
    if env is None:
        monkeypatch.delenv("AUTOSCALE_THREADS", raising=False)
    else:
        monkeypatch.setenv("AUTOSCALE_THREADS", env)
    argv = [
        "run", "--scenario", str(SMOKE_PATH), "--approaches", "rule",
        "--intervals", "4", "--runs", "1", "--out", str(tmp_path), "--quiet",
    ]
    if flag is not None:
        argv += ["--threads", flag]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert ("--threads" if flag is not None else "AUTOSCALE_THREADS") in err
    assert not (tmp_path / "smoke").exists()


def test_cli_thread_count_reads_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AUTOSCALE_THREADS", "2")
    code = cli.main([
        "run", "--scenario", str(SMOKE_PATH),
        "--approaches", "rule", "--intervals", "4", "--warmup", "1",
        "--runs", "2", "--seed", "9", "--out", str(tmp_path / "env"), "--quiet",
    ])
    assert code == 0
    monkeypatch.delenv("AUTOSCALE_THREADS")
    code = cli.main([
        "run", "--scenario", str(SMOKE_PATH),
        "--approaches", "rule", "--intervals", "4", "--warmup", "1",
        "--runs", "2", "--seed", "9", "--out", str(tmp_path / "one"), "--quiet",
    ])
    assert code == 0
    assert (tmp_path / "env" / "smoke" / "summary.csv").read_bytes() == (
        tmp_path / "one" / "smoke" / "summary.csv"
    ).read_bytes()
    capsys.readouterr()
