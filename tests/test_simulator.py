"""Interval stepping, bound adaptation, triggers, and horizontal scaling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antscale import experiment
from antscale.domain import ControlPrimitiveSpec, Decision, is_replica, root_id, scenario_from_dict
from antscale.simulator import (
    TRIGGER_LOW_UTIL,
    TRIGGER_SLA,
    EnvironmentState,
    Simulator,
    TraceExhausted,
    adapt_bounds,
    detect_trigger,
)
from conftest import smoke_doc


def knob(**overrides) -> ControlPrimitiveSpec:
    base = dict(
        id="v1.cpu", scope="per-vm-shared", owner="v1", resource="cpu",
        unit="%", initial=30, step=1, base_lower=15, lower_bound=15,
        upper_bound=40, hard_min=10, hard_max=60, price=0.01,
        util_trigger=0.5, adapt_threshold=0.7, adapt_fraction=0.1,
    )
    base.update(overrides)
    return ControlPrimitiveSpec(**base)


# -- bound adaptation ------------------------------------------------------


def test_upper_bound_stretches_when_pressed():
    # gate is 0.7 * 40 = 28; both sides press against it
    spec = adapt_bounds(knob(), decided=39, observed=39.0)
    assert spec.upper_bound == 44
    assert spec.lower_bound == 39


def test_upper_bound_shrinks_when_idle():
    spec = adapt_bounds(knob(), decided=20, observed=20.0)
    assert spec.upper_bound == 36
    assert spec.lower_bound == 20


def test_straddling_observations_leave_upper_untouched():
    spec = adapt_bounds(knob(), decided=30, observed=20.0)
    assert spec.upper_bound == 40
    assert spec.lower_bound == 20


def test_upper_bound_clamps_at_hard_maximum():
    spec = adapt_bounds(knob(upper_bound=58), decided=58, observed=58.0)
    assert spec.upper_bound == 60


def test_lower_bound_relaxes_when_demand_recedes():
    spiked = adapt_bounds(knob(), decided=39, observed=39.0)
    assert spiked.lower_bound == 39
    relaxed = adapt_bounds(spiked, decided=20, observed=16.0)
    assert relaxed.lower_bound == 16
    assert relaxed.upper_bound >= relaxed.lower_bound


def test_lower_bound_never_leaves_configured_floor():
    spec = adapt_bounds(knob(), decided=20, observed=-5.0)
    assert spec.lower_bound == 15


def test_bounds_stay_ordered_and_on_phase_over_random_sequences():
    rng = np.random.default_rng(23)
    for trial in range(20):
        spec = knob(step=int(rng.integers(1, 6)))
        for _ in range(60):
            decided = int(rng.integers(spec.hard_min, spec.hard_max + 1))
            observed = float(rng.uniform(-10, 90))
            spec = adapt_bounds(spec, decided, observed)
            assert spec.hard_min <= spec.lower_bound <= spec.upper_bound <= spec.hard_max
            assert (spec.upper_bound - spec.base_lower) % spec.step == 0
            assert (spec.lower_bound - spec.base_lower) % spec.step == 0


# -- trigger detection -----------------------------------------------------


def test_sla_breach_beats_low_utilization(smoke_scenario):
    region = smoke_scenario.region_by_id("r1")
    config = smoke_scenario.initial_configuration()
    env = EnvironmentState(0, {"s1": 50.0, "s2": 50.0}, config,
                           {pid: 0.3 for pid in region.primitive_ids})
    observed = {"s1.rt": 3.0}   # threshold 2.5
    trigger = detect_trigger(env, region, observed,
                             smoke_scenario.objectives, smoke_scenario.primitives)
    assert trigger == TRIGGER_SLA


def test_low_utilization_detected_without_breach(smoke_scenario):
    region = smoke_scenario.region_by_id("r1")
    config = smoke_scenario.initial_configuration()
    utils = {pid: 0.9 for pid in region.primitive_ids}
    utils["v1.cpu"] = 0.3
    env = EnvironmentState(0, {"s1": 50.0, "s2": 50.0}, config, utils)
    observed = {"s1.rt": 2.0, "s1.tp": 120.0}
    trigger = detect_trigger(env, region, observed,
                             smoke_scenario.objectives, smoke_scenario.primitives)
    assert trigger == TRIGGER_LOW_UTIL


def test_quiet_interval_yields_no_trigger(smoke_scenario):
    region = smoke_scenario.region_by_id("r1")
    config = smoke_scenario.initial_configuration()
    env = EnvironmentState(0, {"s1": 50.0, "s2": 50.0}, config,
                           {pid: 0.9 for pid in region.primitive_ids})
    observed = {"s1.rt": 2.0}
    trigger = detect_trigger(env, region, observed,
                             smoke_scenario.objectives, smoke_scenario.primitives)
    assert trigger is None


# -- stepping --------------------------------------------------------------


def flat_trace(value=60.0, intervals=6):
    return {"s1": [value] * intervals, "s2": [value] * intervals}


def test_step_advances_interval_and_observes_all_objectives(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(), seed=1)
    result = sim.step()
    assert result.env.interval_index == 0
    assert set(result.observed) == set(smoke_scenario.objectives)
    before = dict(sim.config)
    result = sim.step()
    assert result.env.interval_index == 1
    assert dict(sim.config) == before   # no decision, no vertical change


def test_decision_applies_before_observation(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(), seed=1)
    sim.step()
    decision = Decision({**sim.config, "v1.cpu": 22})
    result = sim.step(decision)
    assert sim.config["v1.cpu"] == 22
    assert result.env.current_configuration["v1.cpu"] == 22


def test_unknown_primitive_in_decision_rejected(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(), seed=1)
    with pytest.raises(KeyError):
        sim.step(Decision({"ghost.knob": 5}))


def test_trace_exhaustion_raises(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(intervals=2), seed=1)
    sim.step()
    sim.step()
    with pytest.raises(TraceExhausted):
        sim.step()


def test_same_seed_reproduces_observations(smoke_scenario):
    a = Simulator(smoke_scenario, flat_trace(), seed=42)
    b = Simulator(smoke_scenario, flat_trace(), seed=42)
    for _ in range(4):
        ra, rb = a.step(), b.step()
        assert ra.observed == rb.observed
        assert ra.demands == rb.demands


def test_single_instance_carries_whole_trace_value(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(80.0), seed=0)
    result = sim.step()
    assert result.env.workloads["s1"] == pytest.approx(80.0)


def test_runtime_view_tracks_live_config(smoke_scenario):
    sim = Simulator(smoke_scenario, flat_trace(), seed=1)
    result = sim.step()
    runtime = sim.region_runtime("r1", result.env)
    assert list(runtime.region.primitive_ids) == [pid for pid in runtime.region.primitive_ids]
    for pid, value, grid in zip(runtime.region.primitive_ids, runtime.current, runtime.grids):
        assert value == sim.config[pid]
        spec = sim.prim_specs[pid]
        assert grid[0] == spec.lower_bound
        assert grid[-1] == spec.upper_bound


# -- horizontal scaling ----------------------------------------------------


def overloaded_doc():
    """Smoke variant whose single VM cannot fit its CPU upper bound."""
    doc = smoke_doc()
    doc["topology"]["pms"] = [
        {"id": "pm1", "capacity": {"cpu": 25, "memory": 2000}},
        {"id": "pm2", "capacity": {"cpu": 40, "memory": 2000}},
    ]
    doc["model"] = {"noise_std": 0.0, "mem_demand_base": 50.0}
    return doc


def test_scale_out_clones_vm_onto_free_machine():
    scenario = scenario_from_dict(overloaded_doc())
    sim = Simulator(scenario, flat_trace(200.0), seed=5)
    sim.step()                      # fires the capacity trigger
    result = sim.step()             # clone applied at the next interval
    vm_ids = {vm.id for vm in sim.topology.vms}
    assert "v1~r1" in vm_ids
    assert sim.topology.vm_by_id("v1~r1").pm == "pm2"
    assert any(e for e in result.events if "v1~r1" in e)
    # the replica service joins its root's group and splits the trace evenly
    assert [s.id for s in sim.topology.services if root_id(s.id) == "s1"] == ["s1", "s1~r1"]
    wl = result.env.workloads
    assert wl["s1"] == wl["s1~r1"] == 100.0
    # replica starts from the template's initial values
    assert sim.config["v1~r1.cpu"] == scenario.primitives["v1.cpu"].initial


def test_scale_out_fires_once_until_rearmed():
    scenario = scenario_from_dict(overloaded_doc())
    sim = Simulator(scenario, flat_trace(200.0, intervals=6), seed=5)
    for _ in range(6):
        sim.step()
    replicas = [vm.id for vm in sim.topology.vms if "~r" in vm.id]
    assert replicas == ["v1~r1"]


def test_scale_in_reclaims_idle_replica():
    scenario = scenario_from_dict(overloaded_doc())
    trace = {"s1": [200.0, 200.0, 1.0, 1.0, 1.0, 1.0],
             "s2": [200.0, 200.0, 1.0, 1.0, 1.0, 1.0]}
    sim = Simulator(scenario, trace, seed=5)
    sim.step()
    sim.step()                      # replica now present
    assert "v1~r1" in {vm.id for vm in sim.topology.vms}
    # drop the replica to its floors so the next quiet interval retires it
    for pid in ("v1~r1.cpu", "v1~r1.memory", "s1~r1.thread", "s2~r1.thread"):
        sim.config[pid] = sim.prim_specs[pid].lower_bound
    sim.step()                      # queues the removal
    result = sim.step()
    assert "v1~r1" not in {vm.id for vm in sim.topology.vms}
    assert [s.id for s in sim.topology.services] == ["s1", "s2"]
    assert result.env.workloads == {"s1": 1.0, "s2": 1.0}
    assert any("v1~r1" in e for e in result.events)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    busy=st.floats(20.0, 400.0),
    quiet=st.floats(0.0, 3.0),
)
def test_clone_then_reclaim_restores_the_pre_scale_out_state(seed, busy, quiet):
    scenario = scenario_from_dict(overloaded_doc())
    trace = {s: [busy, busy, quiet, quiet] for s in ("s1", "s2")}
    sim = Simulator(scenario, trace, seed=seed)
    sim.step()                      # fires the capacity trigger
    before = (set(sim.prim_specs), set(sim.config), sim.topology)
    sim.step()                      # clone applied
    replica_pids = [pid for pid in sim.prim_specs if is_replica(pid)]
    assert replica_pids
    # pin the replica to its floors; the quiet interval then retires it
    floors = Decision({pid: sim.prim_specs[pid].lower_bound for pid in replica_pids})
    sim.step(floors)                # queues the removal
    last = sim.step()               # removal applied
    after = (set(sim.prim_specs), set(sim.config), sim.topology)
    assert after == before
    # each root carries its whole trace value again
    assert last.env.workloads == {"s1": quiet, "s2": quiet}


def test_a_plan_scales_out_then_reclaims_the_replica(monkeypatch):
    # throughput cannot exceed the offered load, so at smoke's thresholds of
    # 100 every quiet interval breaches and this plan keeps its replica
    doc = overloaded_doc()
    for objective in doc["objectives"]:
        if objective["kind"] == "throughput":
            objective["threshold"] = 1.0
    scenario = scenario_from_dict(doc)
    intervals = 18
    trace = {s: [200.0] * 3 + [2.0] * (intervals - 3) for s in ("s1", "s2")}
    plan = experiment.ExperimentPlan(
        name="scale-in", scenario=scenario, trace=trace, approaches=("moaco-cd",),
        intervals=intervals, runs=1, seed=3, quiet=True,
    )
    steps = []     # (decision applied, events, primitive ids afterwards)
    step = Simulator.step

    def recording_step(sim, decision=None):
        result = step(sim, decision)
        steps.append((decision, result.events, set(sim.prim_specs)))
        return result

    monkeypatch.setattr(Simulator, "step", recording_step)
    experiment.run_single(scenario, trace, "moaco-cd", 0, plan)
    assert len(steps) == intervals

    kinds = [event[0] for _, events, _ in steps for event in events]
    assert "scale-out" in kinds and "scale-in" in kinds
    assert kinds.index("scale-out") < kinds.index("scale-in")
    reclaimed = next(
        t for t, (_, events, _) in enumerate(steps) if ("scale-in", "v1~r1") in events
    )
    # the decision applied with the reclaim was made while the replica lived
    decision, _, live = steps[reclaimed]
    assert {"v1~r1.cpu", "s1~r1.thread"} <= set(decision.assignments)
    assert not any(is_replica(pid) for pid in live)
    static = set(scenario.region_by_id("r1").primitive_ids)
    for decision, _, _ in steps[reclaimed + 1:]:
        assert decision is None or set(decision.assignments) == static
    assert any(decision is not None for decision, _, _ in steps[reclaimed + 1:])
