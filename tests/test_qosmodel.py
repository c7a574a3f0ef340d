"""Interference-aware QoS predictions: frozen values, clamps, monotonicity."""

import numpy as np
import pytest

from antscale.domain import ConfigError, Decision, scenario_from_dict
from antscale.qosmodel import DemandModel, ModelParams, RegionModel, utilization
from antscale.simulator import EnvironmentState, Simulator
from conftest import smoke_doc, triple_doc


def build_model(scenario, region_id="r1"):
    region = scenario.region_by_id(region_id)
    return RegionModel(scenario, region, scenario.topology, dict(scenario.primitives))


def make_env(scenario, workloads):
    return EnvironmentState(0, dict(workloads), scenario.initial_configuration(), {})


def triple_env(triple_scenario, rate=100.0):
    wl = {f"s{i}": float(rate) for i in range(1, 7)}
    return make_env(triple_scenario, wl)


def test_cost_is_priced_provision_sum(triple_scenario):
    # thread 5 * 0.017 + cpu 30 * 0.01 + memory 250 * 0.002
    model = build_model(triple_scenario)
    env = triple_env(triple_scenario)
    decision = Decision(triple_scenario.initial_configuration())
    j = model.objective_ids.index("s1.cost")
    assert model.predict_vector(decision, env)[j] == pytest.approx(0.885, abs=1e-12)


def test_cost_ignores_workload(triple_scenario):
    model = build_model(triple_scenario)
    decision = Decision(triple_scenario.initial_configuration())
    j = model.objective_ids.index("s3.cost")
    low = model.predict_vector(decision, triple_env(triple_scenario, 10.0))[j]
    high = model.predict_vector(decision, triple_env(triple_scenario, 400.0))[j]
    assert low == high


def test_predict_is_deterministic(triple_scenario):
    model = build_model(triple_scenario)
    env = triple_env(triple_scenario, 120.0)
    decision = Decision(triple_scenario.initial_configuration())
    assert np.array_equal(
        model.predict_vector(decision, env), model.predict_vector(decision, env)
    )


def test_predict_matrix_agrees_with_vector(triple_scenario):
    model = build_model(triple_scenario)
    env = triple_env(triple_scenario, 90.0)
    decision = Decision(triple_scenario.initial_configuration())
    row = model.decision_to_row(decision)
    stacked = model.predict_matrix(np.vstack([row, row]), env)
    assert np.array_equal(stacked[0], stacked[1])
    assert np.array_equal(stacked[0], model.predict_vector(decision, env))


def test_throughput_never_exceeds_workload(triple_scenario):
    model = build_model(triple_scenario)
    decision = Decision(triple_scenario.initial_configuration())
    for rate in (5.0, 80.0, 400.0):
        env = triple_env(triple_scenario, rate)
        vec = model.predict_vector(decision, env)
        for j, oid in enumerate(model.objective_ids):
            if oid.endswith(".tp"):
                assert vec[j] <= rate + 1e-9


def test_zero_workload_means_zero_throughput(triple_scenario):
    model = build_model(triple_scenario)
    env = triple_env(triple_scenario, 0.0)
    decision = Decision(triple_scenario.initial_configuration())
    vec = model.predict_vector(decision, env)
    for j, oid in enumerate(model.objective_ids):
        if oid.endswith(".tp"):
            assert vec[j] == 0.0


def test_noiseless_observation_equals_prediction():
    doc = smoke_doc()
    doc["model"] = {"noise_std": 0.0}
    scenario = scenario_from_dict(doc)
    model = build_model(scenario)
    env = make_env(scenario, {"s1": 60.0, "s2": 40.0})
    decision = Decision(scenario.initial_configuration())
    rng = np.random.default_rng(4)
    assert np.array_equal(
        model.observe_vector(decision, env, rng), model.predict_vector(decision, env)
    )


def test_observation_noise_is_seeded(smoke_scenario):
    model = build_model(smoke_scenario)
    env = make_env(smoke_scenario, {"s1": 60.0, "s2": 40.0})
    decision = Decision(smoke_scenario.initial_configuration())
    a = model.observe_vector(decision, env, np.random.default_rng(12))
    b = model.observe_vector(decision, env, np.random.default_rng(12))
    assert np.array_equal(a, b)


def test_observed_cost_stays_exact_under_noise():
    doc = smoke_doc()
    doc["model"] = {"noise_std": 0.5}
    scenario = scenario_from_dict(doc)
    model = build_model(scenario)
    env = make_env(scenario, {"s1": 60.0, "s2": 40.0})
    decision = Decision(scenario.initial_configuration())
    predicted = model.predict_vector(decision, env)
    observed = model.observe_vector(decision, env, np.random.default_rng(8))
    for j, oid in enumerate(model.objective_ids):
        if oid.endswith(".cost"):
            assert observed[j] == predicted[j]


def test_observation_clamps_hold_under_heavy_noise():
    doc = triple_doc()
    doc["model"] = {"noise_std": 2.0}
    scenario = scenario_from_dict(doc)
    model = build_model(scenario)
    env = triple_env(scenario, 150.0)
    decision = Decision(scenario.initial_configuration())
    rng = np.random.default_rng(31)
    kinds = {oid: scenario.objectives[oid].kind for oid in model.objective_ids}
    for _ in range(60):
        vec = model.observe_vector(decision, env, rng)
        for j, oid in enumerate(model.objective_ids):
            kind = kinds[oid]
            if kind == "response_time":
                assert vec[j] >= 0.01
            elif kind == "throughput":
                assert 0.0 <= vec[j] <= 150.0 + 1e-9
            elif kind in ("reliability", "availability"):
                assert 0.0 <= vec[j] <= 100.0


def test_neighbor_cpu_never_helps_and_contention_hurts(triple_scenario):
    """Raising a co-hosted VM's cap cannot improve another VM's service."""
    model = build_model(triple_scenario)
    base = Decision(triple_scenario.initial_configuration())
    row = model.decision_to_row(base)
    pids = list(model.region_pids)
    j_cpu2 = pids.index("v2.cpu")
    j_rt1 = list(model.objective_ids).index("s1.rt")

    # neighbors demand more CPU than any cap in the sweep, so the host PM
    # saturates; s1 itself stays below its ceiling so degradation shows up
    # in its response time
    wl = {f"s{i}": 170.0 for i in range(1, 7)}
    wl["s1"] = 100.0
    env = make_env(triple_scenario, wl)
    caps = np.arange(15, 41)
    rows = np.tile(row, (len(caps), 1))
    rows[:, j_cpu2] = caps
    rts = model.predict_matrix(rows, env)[:, j_rt1]

    assert (np.diff(rts) >= -1e-12).all()
    assert rts[-1] > rts[0]          # deep contention strictly degrades


def test_violation_counts_respect_direction(triple_scenario):
    model = build_model(triple_scenario)
    thresholds = np.array(
        [triple_scenario.objectives[oid].threshold for oid in model.objective_ids]
    )
    exact = thresholds[None, :].astype(float)
    assert model.violation_counts(exact)[0] == 0   # meeting exactly passes

    j_rt = list(model.objective_ids).index("s1.rt")
    j_tp = list(model.objective_ids).index("s2.tp")
    worse = exact.copy()
    worse[0, j_rt] += 0.1     # minimize: above threshold breaches
    worse[0, j_tp] -= 0.1     # maximize: below threshold breaches
    assert model.violation_counts(worse)[0] == 2


def test_demand_proxies(smoke_scenario):
    params = ModelParams.from_dict({})
    demand = DemandModel(params)
    topo = smoke_scenario.topology
    wl = {"s1": 100.0, "s2": 50.0}
    assert demand.demand(smoke_scenario.primitives["v1.cpu"], topo, wl) == pytest.approx(18.0)
    assert demand.demand(smoke_scenario.primitives["v1.memory"], topo, wl) == pytest.approx(202.5)
    assert demand.demand(smoke_scenario.primitives["s1.thread"], topo, wl) == pytest.approx(3.0)


def test_utilization_saturates_at_one(smoke_scenario):
    params = ModelParams.from_dict({})
    demand = DemandModel(params)
    topo = smoke_scenario.topology
    wl = {"s1": 100.0, "s2": 50.0}
    spec = smoke_scenario.primitives["v1.cpu"]
    d = demand.demand(spec, topo, wl)
    assert utilization(d, 20.0) == pytest.approx(0.9)
    assert utilization(d, 10.0) == 1.0
    assert utilization(d, 0.0) == 1.0


def test_model_params_reject_unknown_keys():
    with pytest.raises(ConfigError):
        ModelParams.from_dict({"cpu_rtae": 6.0})


def test_queue_service_needs_all_three_primitives():
    doc = smoke_doc()
    doc["primitives"] = [p for p in doc["primitives"] if p["id"] != "v1.memory"]
    doc["regions"][0]["primitives"].remove("v1.memory")
    scenario = scenario_from_dict(doc)
    sim = Simulator(scenario, {"s1": [50.0], "s2": [50.0]}, seed=0)
    with pytest.raises(ConfigError):
        sim.region_model("r1")
