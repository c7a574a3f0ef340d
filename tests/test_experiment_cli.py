"""Experiment harness wiring and the command-line entry points."""

import functools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antscale import cli
from antscale.domain import (
    ConfigError, Decision, ModelParams, MoacoConfig, MogaConfig, load_scenario,
)
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
from conftest import SMOKE_PATH, smoke_doc, smoke_without_vm_memory_doc, triple_split_doc


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


def test_cli_gen_trace_writes_the_trace_run_synthesizes(smoke_scenario, tmp_path):
    path = tmp_path / "trace.csv"
    assert cli.main([
        "gen-trace", "--scenario", str(SMOKE_PATH),
        "--intervals", "8", "--seed", "1", "--out", str(path),
    ]) == 0
    plan = ExperimentPlan(name="smoke", scenario=smoke_scenario, intervals=8, seed=1)
    want = {
        sid: [float(format(v, ".6g")) for v in series]
        for sid, series in resolve_trace(plan).items()
    }
    assert load_trace_csv(path) == want


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


@pytest.mark.parametrize("setting, value", [
    ("rho", 0.0), ("rho", 1.0), ("rho", 1.5), ("rho", -0.1),
    ("floor_ratio", 0.0), ("floor_ratio", 2.0), ("alpha", -1.0), ("beta", -0.5),
    ("max_ant", 0), ("max_iteration", -2), ("max_run", 2.5), ("max_ant", True),
    ("alpha", "4"), ("time_budget_s", 5.0),
])
def test_cli_run_rejects_a_bad_moaco_setting(tmp_path, capsys, setting, value):
    doc = smoke_doc()
    doc["algorithms"]["moaco"][setting] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main([
        "run", "--scenario", str(path), "--approaches", "moaco-cd",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: moaco: ") and setting in err
    assert not (tmp_path / "out").exists()
    assert cli.main(["validate", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: moaco: ") and setting in err


def assert_rule_plan_refused(tmp_path, capsys, block, setting, value):
    doc = smoke_doc()
    doc["algorithms"][block][setting] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli.main([
        "run", "--scenario", str(path), "--approaches", "rule",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {block}: ") and setting in err
    assert not (tmp_path / "out").exists()


def test_bad_moga_setting_fails_a_plan_that_does_not_run_moga(tmp_path, capsys):
    for setting, value in (
        ("population", 7), ("population", 0), ("generations", -2), ("generations", 2.5),
        ("crossover_rate", "0.5"), ("time_budget_s", 5.0),
    ):
        assert_rule_plan_refused(tmp_path, capsys, "moga", setting, value)


@pytest.mark.parametrize("value", [0, -3, 7.5, True, "200"])
def test_bad_search_evaluations_fail_a_plan_that_does_not_search(tmp_path, capsys, value):
    assert_rule_plan_refused(tmp_path, capsys, "search", "evaluations", value)


def exit_code(argv) -> int:
    """``cli.main``'s status, whether it returns it or exits with it."""
    try:
        return cli.main(argv)
    except SystemExit as stop:
        return stop.code


def smoke_entry(block, eid, key, value) -> dict:
    """The smoke document with ``key`` set on the entry ``eid`` of a list block."""
    doc = smoke_doc()
    entries = doc["topology"]["services"] if block == "services" else doc[block]
    next(e for e in entries if e["id"] == eid)[key] = value
    return doc


def smoke_with(*path) -> dict:
    """The smoke document with the value at the end of ``path`` set under its keys."""
    *keys, last, value = path
    doc = smoke_doc()
    block = doc
    for key in keys:
        block = block[key]
    block[last] = value
    return doc


def smoke_with_a_second(block: str, entry: dict) -> dict:
    """The smoke document with ``entry`` appended to the list ``block``."""
    doc = smoke_doc()
    entries = doc["topology"][block] if block in ("pms", "vms", "services") else doc[block]
    entries.append(entry)
    return doc


def smoke_unmanaged() -> dict:
    doc = smoke_doc()
    for service in doc["topology"]["services"]:
        service["managed"] = False
    return doc


def smoke_unmanaged_s2_profile() -> dict:
    doc = smoke_with("trace", "profiles", {"s2": 1.0})
    doc["topology"]["services"][1]["managed"] = False
    return doc


@pytest.mark.parametrize("make_doc, named", [
    (functools.partial(smoke_entry, "objectives", "s1.rt", "kind", "custom"), "s1.rt"),
    (functools.partial(smoke_entry, "objectives", "s1.cost", "model", "interference-queue"),
     "s1.cost"),
    (functools.partial(smoke_entry, "objectives", "s1.tp", "model", "price-sum"), "s1.tp"),
    (functools.partial(smoke_entry, "objectives", "s1.tp", "direction", "minimize"), "s1.tp"),
    (functools.partial(smoke_entry, "objectives", "s1.cost", "direction", "maximize"), "s1.cost"),
    (smoke_without_vm_memory_doc, "objectives[s1.rt]"),
    (lambda: smoke_with("algorithms", "moaco", {"rho": 1.5}), "rho"),
    (lambda: smoke_with("model", "cpu_rate", "nan"), "cpu_rate"),
    (triple_split_doc, "'s1.rt' reads primitive 'v2.cpu'"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "price", "nan"),
     "primitive v1.cpu: price must be a finite number"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "price", float("nan")),
     "primitive v1.cpu: price must be a finite number"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "step", 2.9),
     "primitive v1.cpu: step must be an integer"),
    (functools.partial(smoke_entry, "objectives", "s1.rt", "threshold", True),
     "objective s1.rt: threshold must be a finite number"),
    (functools.partial(smoke_entry, "services", "s2", "managed", "false"),
     "service s2: managed must be true or false"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "util_triger", 0.4),
     "primitive v1.cpu: unknown keys ['util_triger']"),
    (lambda: smoke_with("trace", "noise", float("nan")), "trace: noise must be a finite number"),
    (lambda: smoke_with("trace", "peak", "abc"), "trace: peak must be a finite number"),
    (lambda: smoke_with("trace", "peak", -1.0), "trace.peak: must be non-negative"),
    (lambda: smoke_with("trace", "spike", 2.0), "trace: unknown keys ['spike']"),
    (lambda: smoke_with("trace", "profiles", [1.0]), "trace.profiles: must be an object"),
    (lambda: smoke_with("trace", "profiles", {"s1": "1.0"}),
     "trace.profiles: s1 must be a finite number"),
    (lambda: smoke_with("trace", "profiles", {"s1": -0.5}),
     "trace.profiles[s1]: must be non-negative"),
    (lambda: smoke_with("trace", "profiles", {"s9": 1.0}),
     "trace.profiles[s9]: not a managed service"),
    (smoke_unmanaged_s2_profile, "trace.profiles[s2]: not a managed service"),
    (lambda: smoke_with("algorithms", "annealing", {}), "algorithms: unknown keys ['annealing']"),
    (lambda: smoke_with("algorithms", "search", "budget", 100), "search: unknown keys ['budget']"),
    (lambda: smoke_with("comment", "two services"), "scenario: unknown keys ['comment']"),
    (lambda: smoke_with("primitives", 0, ["v1.cpu"]),
     "primitives[0]: must be an object, got ['v1.cpu']"),
    (lambda: smoke_with("topology", "vms", 0, "v1"), "topology.vms[0]: must be an object, got 'v1'"),
    (lambda: smoke_with("objectives", 0, 5), "objectives[0]: must be an object, got 5"),
    (lambda: smoke_with("primitives", {"v1.cpu": smoke_doc()["primitives"][0]}),
     "primitives: must be a list"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "id", ["v1.cpu"]),
     "primitives[0]: id must be a string, got ['v1.cpu']"),
    (functools.partial(smoke_entry, "primitives", "v1.cpu", "resource", ["cpu"]),
     "primitive v1.cpu: resource must be a string, got ['cpu']"),
    (functools.partial(smoke_entry, "objectives", "s1.rt", "kind", ["response_time"]),
     "objective s1.rt: kind must be a string, got ['response_time']"),
    (lambda: smoke_with("regions", 0, "objectives", "s1.rt"),
     "region r1: objectives must be a list of strings, got 's1.rt'"),
    (lambda: smoke_with_a_second("primitives", dict(smoke_doc()["primitives"][0], price=0.5)),
     "primitives[4]: duplicate id 'v1.cpu'"),
    (lambda: smoke_with_a_second("regions", {"id": "r1", "objectives": [], "primitives": []}),
     "regions[1]: duplicate id 'r1'"),
    (lambda: smoke_with_a_second("pms", {"id": "pm1", "capacity": {}}),
     "topology.pms[1]: duplicate id 'pm1'"),
    (lambda: smoke_with("model", "noise_std", -0.05), "model.noise_std: must be non-negative"),
    (lambda: smoke_with("model", "cpu_contention_limit", 0),
     "model.cpu_contention_limit: must be positive, got 0.0"),
    (lambda: smoke_with("model", "min_capacity", -1.0), "model.min_capacity: must be positive"),
    (lambda: smoke_with("model", "rel_slope", -2.0), "model.rel_slope: must be non-negative"),
    (lambda: smoke_with("topology", "pms", 0, "capacity", "cpu", -5),
     "topology.pms[pm1].capacity.cpu: must be non-negative, got -5.0"),
    (smoke_unmanaged, "topology.services: no service is managed"),
    (lambda: smoke_with("name", "../escaped"),
     "scenario: name must be a single path component, got '../escaped'"),
    (lambda: smoke_with("name", "a/b"), "scenario: name must be a single path component"),
    (lambda: smoke_with("name", ".."), "scenario: name must be a single path component"),
    (lambda: smoke_with("name", ""), "scenario: name must be a single path component, got ''"),
    (lambda: smoke_with("name", 5), "scenario: name must be a single path component, got 5"),
], ids=[
    "custom-kind", "cost-model", "throughput-price-sum", "minimized-throughput",
    "maximized-cost", "no-vm-memory", "moaco-rho", "nan-model-coefficient", "triple-split",
    "nan-string-price", "nan-price", "fractional-step", "true-threshold", "string-managed",
    "primitive-key-typo", "nan-trace-noise", "string-trace-peak", "negative-trace-peak",
    "unknown-trace-key", "trace-profiles-list", "string-trace-profile", "negative-trace-profile",
    "unknown-service-profile", "unmanaged-service-profile", "unknown-algorithm",
    "unknown-search-key", "unknown-top-level-key", "list-primitive", "string-vm",
    "number-objective", "primitives-object", "list-primitive-id", "list-resource", "list-kind",
    "string-region-objectives", "duplicate-primitive", "duplicate-region", "duplicate-pm",
    "negative-noise", "zero-contention-limit", "negative-min-capacity", "negative-slope",
    "negative-pm-capacity", "no-managed-service", "escaping-name", "nested-name", "parent-name",
    "empty-name", "number-name",
])
def test_validate_and_run_both_refuse_a_bad_scenario(tmp_path, capsys, make_doc, named):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make_doc()))
    code = exit_code(["validate", "--scenario", str(path)])
    captured = capsys.readouterr()
    # the parser's refusal is an error and exits 2; a problem validate lists exits 1
    assert named in {2: captured.err, 1: captured.out}.get(code, "")
    assert exit_code([
        "run", "--scenario", str(path), "--approaches", "rule",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ]) == 2
    assert named in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]


def test_run_refuses_a_trace_without_a_managed_service(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("interval,service_id,req_per_min\n" + "".join(f"{t},s1,50\n" for t in range(4)))
    assert cli.main([
        "run", "--scenario", str(SMOKE_PATH), "--trace", str(trace), "--approaches", "rule",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ]) == 2
    assert "error: trace has no series for managed service s2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def leaf_paths(doc, path=()) -> list:
    """The key paths of every value in ``doc`` that is not a non-empty list or object."""
    if isinstance(doc, (dict, list)) and doc:
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [leaf for key, value in items for leaf in leaf_paths(value, path + (key,))]
    return [path]


# integers stay small: a grid bound near 10**9 would make a billion-value grid
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000), st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.one_of(
    JSON_SCALARS, st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3),
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(leaf=st.sampled_from(leaf_paths(smoke_doc())), value=JSON_VALUES)
def test_no_scenario_document_crashes_the_cli(leaf, value):
    # validate refuses or accepts; a plan on a document it accepts runs or refuses
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(smoke_with(*leaf, value)))
        code = exit_code(["validate", "--scenario", str(path)])
        assert code in (0, 1, 2)
        if code == 0:
            assert exit_code([
                "run", "--scenario", str(path), "--approaches", "rule", "--intervals", "4",
                "--warmup", "1", "--runs", "1", "--out", str(Path(tmp) / "out"), "--quiet",
            ]) in (0, 2)


def test_run_refuses_a_nan_trace_load(tmp_path, capsys):
    # validate takes no trace; run refuses it while loading, before any file
    trace = tmp_path / "trace.csv"
    trace.write_text("interval,service_id,req_per_min\n" + "".join(
        f"{t},{sid},{'nan' if (t, sid) == (2, 's2') else 50}\n"
        for t in range(4) for sid in ("s1", "s2")
    ))
    assert cli.main([
        "run", "--scenario", str(SMOKE_PATH), "--trace", str(trace), "--approaches", "rule",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ]) == 2
    assert f"error: trace {trace}:7: load nan is negative or not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--runs", "0", "runs must be at least 1, got 0"),
    ("--time-budget", "nan", "the time budget must be a number > 0, got nan"),
    ("--time-budget", "-1", "the time budget must be a number > 0, got -1.0"),
    ("--time-budget", "0", "the time budget must be a number > 0, got 0.0"),
    ("--name", "../escaped", "the plan name must be a single path component, got '../escaped'"),
    ("--name", "a/b", "the plan name must be a single path component, got 'a/b'"),
    ("--name", "..", "the plan name must be a single path component, got '..'"),
    ("--name", ".", "the plan name must be a single path component, got '.'"),
    ("--name", "", "the plan name must be a single path component, got ''"),
], ids=["no-runs", "nan-budget", "negative-budget", "zero-budget", "escaping-name",
        "nested-name", "parent-name", "dot-name", "empty-name"])
def test_run_refuses_a_bad_plan_value(tmp_path, capsys, flag, value, named):
    argv = [
        "run", "--scenario", str(SMOKE_PATH), "--approaches", "rule",
        "--intervals", "4", "--warmup", "1", "--runs", "1",
        "--out", str(tmp_path / "out"), "--quiet",
    ]
    assert cli.main(argv + [flag, value]) == 2
    assert f"error: {named}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_settings_are_read_once_when_the_scenario_loads(tmp_path, monkeypatch):
    scenario = load_scenario(SMOKE_PATH)
    reads = []
    for cls in (MoacoConfig, MogaConfig, ModelParams):
        def counted(doc, cls=cls, read=cls.from_dict):
            reads.append(cls.__name__)
            return read(doc)
        monkeypatch.setattr(cls, "from_dict", staticmethod(counted))
    result = run_experiment(ExperimentPlan(
        name="once", scenario=scenario, approaches=APPROACHES, intervals=6, warmup=1,
        runs=1, out_dir=str(tmp_path), quiet=True,
    ))
    assert all(log.latency_records for logs in result["logs"].values() for log in logs)
    assert reads == []
    load_scenario(SMOKE_PATH)
    assert sorted(reads) == ["MoacoConfig", "ModelParams", "MogaConfig"]
