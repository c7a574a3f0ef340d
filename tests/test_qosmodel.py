"""Interference-aware QoS predictions: frozen values, clamps, monotonicity."""

import dataclasses
import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antscale import colony, experiment
from antscale.colony import optimize
from antscale.domain import (
    SCOPE_SERVICE,
    ConfigError,
    Decision,
    is_replica,
    root_id,
    scenario_from_dict,
    validate_scenario,
)
from antscale.qosmodel import (
    ModelParams,
    RegionModel,
    _sigmoid,
    _sum_in_order,
    demand,
    utilization,
)
from antscale.simulator import EnvironmentState, Simulator
from conftest import smoke_doc, smoke_without_vm_memory_doc, triple_doc


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
    topo = smoke_scenario.topology
    wl = {"s1": 100.0, "s2": 50.0}
    prims = smoke_scenario.primitives
    assert demand(params, prims["v1.cpu"], topo, wl) == pytest.approx(18.0)
    assert demand(params, prims["v1.memory"], topo, wl) == pytest.approx(202.5)
    assert demand(params, prims["s1.thread"], topo, wl) == pytest.approx(3.0)


def test_utilization_saturates_at_one(smoke_scenario):
    params = ModelParams.from_dict({})
    topo = smoke_scenario.topology
    wl = {"s1": 100.0, "s2": 50.0}
    d = demand(params, smoke_scenario.primitives["v1.cpu"], topo, wl)
    assert utilization(d, 20.0) == pytest.approx(0.9)
    assert utilization(d, 10.0) == 1.0
    assert utilization(d, 0.0) == 1.0


def test_model_params_reject_unknown_keys():
    with pytest.raises(ConfigError):
        ModelParams.from_dict({"cpu_rtae": 6.0})


@pytest.mark.parametrize("value", ["nan", True, "1e400", float("nan"), float("inf"), 10**400],
                         ids=["nan-string", "true", "1e400-string", "nan", "inf", "10**400"])
def test_model_params_reject_a_value_that_is_not_a_finite_number(value):
    with pytest.raises(ConfigError, match="model: cpu_rate must be a finite number"):
        ModelParams.from_dict({"cpu_rate": value})


def test_queue_service_needs_all_three_primitives():
    # refused by validate_scenario, which both validate and run apply
    problems = validate_scenario(scenario_from_dict(smoke_without_vm_memory_doc()))
    assert [p for p in problems if "queue model" in p] == [
        f"objectives[{oid}]: the queue model needs a memory primitive on 'v1'"
        for oid in ("s1.rt", "s1.tp", "s2.rt", "s2.tp")
    ]


def test_objective_without_evaluator_fails_at_construction():
    # a kind without an evaluator is refused when the scenario is built
    doc = smoke_doc()
    doc["objectives"][0]["kind"] = "custom"
    with pytest.raises(ConfigError, match=r"objective s1\.rt: unknown kind 'custom'"):
        scenario_from_dict(doc)


# -- oracle: the model one objective at a time, in plain Python loops --------


def reference_predict_matrix(model, values, env, specs):
    """Objective matrix computed one objective at a time.

    A replica group's objective and a cost are sums that start at 0.0 and
    add their terms in order: the members' values, each times its share of
    the group's workload (equal shares when the group has none; throughput
    unweighted), or each priced primitive's value times its price.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    p = model.params
    base = np.array([float(env.current_configuration[pid]) for pid in model.all_pids])
    full = np.repeat(base[None, :], values.shape[0], axis=0)
    full[:, model._region_cols] = values
    wl = np.array([float(env.workloads.get(s, 0.0)) for s in model._service_ids])

    cap = np.where(model._cpu_col >= 0, full[:, model._cpu_col], 0.0)
    mem = np.where(model._mem_col >= 0, full[:, model._mem_col], 0.0)
    thr = np.where(model._thr_col >= 0, full[:, model._thr_col], 0.0)

    vm_wl = np.bincount(model._vm_of_service, weights=wl, minlength=len(model._vm_ids))
    cpu_demand = vm_wl * p.cpu_demand_per_req
    usage = np.minimum(cap, cpu_demand[None, :])
    pressure = np.zeros((values.shape[0], len(model.topology.pms)))
    np.add.at(pressure.T, model._pm_of_vm, usage.T)
    contention = np.maximum(1.0, pressure / p.cpu_contention_limit)
    cpu_eff = cap / contention[:, model._pm_of_vm]

    vm_threads = np.zeros_like(cap)
    np.add.at(vm_threads.T, model._vm_of_service, thr.T)
    saturation = p.thread_sat_per_mb * mem
    overload = np.maximum(0.0, vm_threads - saturation)

    share = cpu_eff / model._services_per_vm[None, :]
    capacity = (
        p.cpu_rate * share[:, model._vm_of_service]
        + p.thread_rate * thr
        - p.overload_penalty * overload[:, model._vm_of_service]
    )
    capacity = np.maximum(capacity, p.min_capacity)

    rho = np.minimum(wl[None, :] / capacity, 0.99)
    rt = p.rt_base_ms / (1.0 - rho)
    tp = np.minimum(wl[None, :], capacity)
    rel = 100.0 * _sigmoid(p.rel_slope * (model._rt_ref[None, :] - rt))
    avail = 100.0 * _sigmoid(p.avail_slope * (p.avail_rt_ref_ms - rt))

    def group_sum(arr, members):
        total = np.zeros(values.shape[0])
        for s in members:
            total = total + arr[:, s]
        return total

    def group_mean(arr, members):
        load = 0.0
        for s in members:
            load += wl[s]
        mean = np.zeros(values.shape[0])
        for s in members:
            weight = wl[s] / load if load > 0.0 else 1.0 / len(members)
            mean = mean + weight * arr[:, s]
        return mean

    def priced_sum(owner):
        topology = model.topology
        member_ids = {svc.id for svc in topology.services if root_id(svc.id) == owner}
        member_vms = {svc.vm for svc in topology.services if svc.id in member_ids}
        total = np.zeros(values.shape[0])
        for col, pid in enumerate(model.all_pids):
            spec = specs[pid]
            billed = spec.owner in (member_ids if spec.scope == SCOPE_SERVICE else member_vms)
            if billed and spec.price != 0.0:
                total = total + spec.price * full[:, col]
        return total

    out = np.empty((values.shape[0], len(model.objectives)))
    for j, (obj, kind) in enumerate(zip(model.objectives, model._kinds)):
        members = model._member_idx[j]
        if kind == "response_time":
            out[:, j] = group_mean(rt, members)
        elif kind == "throughput":
            out[:, j] = group_sum(tp, members)
        elif kind == "reliability":
            out[:, j] = group_mean(rel, members)
        elif kind == "availability":
            out[:, j] = group_mean(avail, members)
        else:
            out[:, j] = priced_sum(obj.owner)
    return out


def reference_violation_counts(model, vectors):
    """Breaches per row by the sign of the direction-adjusted threshold gap."""
    vectors = np.atleast_2d(vectors)
    signed_gap = (vectors - model.thresholds[None, :]) * model.direction_signs[None, :]
    return (signed_gap < 0).sum(axis=1)


ORACLE_CASES = ("smoke", "smoke-replica", "smoke-unpriced", "triple_vm", "triple_vm-replica")
WORKLOAD = st.one_of(st.just(0.0), st.floats(0.5, 500.0))


@functools.cache
def oracle_case(name):
    """(model, live configuration, per-column lower and upper value, specs) of a case.

    The replica cases step a simulator until its first scale-out clone is in
    place: the smoke one is test_simulator's overloaded scenario, the
    triple_vm one has a pm1 that cannot fit its three VMs' CPU bounds. The
    unpriced case prices only s1's threads, so s2.cost is a sum of no
    terms and s1.cost one of one.
    """
    base, _, variant = name.partition("-")
    replica = variant == "replica"
    doc = smoke_doc() if base == "smoke" else triple_doc()
    services = [svc["id"] for svc in doc["topology"]["services"]]
    if variant == "unpriced":
        for spec in doc["primitives"]:
            if spec["id"] in ("v1.cpu", "v1.memory", "s2.thread"):
                spec["price"] = 0
    if replica and base == "smoke":
        doc["topology"]["pms"] = [
            {"id": "pm1", "capacity": {"cpu": 25, "memory": 2000}},
            {"id": "pm2", "capacity": {"cpu": 40, "memory": 2000}},
        ]
        doc["model"] = {"noise_std": 0.0, "mem_demand_base": 50.0}
    elif replica:
        doc["topology"]["pms"][0]["capacity"]["cpu"] = 60
    sim = Simulator(scenario_from_dict(doc), {s: [200.0] * 3 for s in services}, seed=5)
    if replica:
        sim.step()                  # fires the capacity trigger
        sim.step()                  # clone applied
        assert any(is_replica(vm.id) for vm in sim.topology.vms)
    model = sim.region_model("r1")
    specs = [sim.prim_specs[pid] for pid in model.region_pids]
    low = np.array([s.hard_min for s in specs])
    high = np.array([s.hard_max for s in specs])
    return model, dict(sim.config), low, high, dict(sim.prim_specs)


def oracle_inputs(case, k, seed, loads):
    """(model, rows, env): k seeded rows between the hard limits, given workloads."""
    model, config, low, high, _ = oracle_case(case)
    rows = np.random.default_rng(seed).integers(low, high + 1, size=(k, len(low)))
    env = EnvironmentState(0, dict(zip(model._service_ids, loads)), config, {})
    return model, rows, env


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 3, 150]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
@example(case="triple_vm-replica", k=150, seed=0, loads=[0.0] * 10)
@example(case="smoke-replica", k=3, seed=1, loads=[0.0] * 10)
def test_predict_matrix_matches_the_per_objective_oracle(case, k, seed, loads):
    model, rows, env = oracle_inputs(case, k, seed, loads)
    assert np.array_equal(
        bits(model.predict_matrix(rows, env)),
        bits(reference_predict_matrix(model, rows, env, oracle_case(case)[-1])),
    )


@settings(max_examples=80, deadline=None)
@given(
    group_of=st.lists(st.integers(0, 4), min_size=1, max_size=12),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_order_sums_match_bincount(group_of, k, seed):
    # empty groups, and values of mixed magnitude, whose sums show any change
    # of order; padding with zeros leaves a sum's bits as they are
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((len(group_of), k)) * 10.0 ** rng.integers(-8, 9, (len(group_of), 1))
    group_of = np.array(group_of)
    expected = np.bincount(
        (np.arange(k)[:, None] * 5 + group_of).ravel(), weights=rows.T.ravel(), minlength=5 * k,
    ).reshape(k, 5).T
    for group in range(5):
        mine = rows[group_of == group]
        assert np.array_equal(bits(_sum_in_order(mine, (k,))), bits(expected[group]))
        padded = np.vstack([mine, np.zeros((2, k))])
        assert np.array_equal(bits(_sum_in_order(padded, (k,))), bits(expected[group]))


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 3, 150]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
def test_predict_matrix_reads_non_contiguous_values(case, k, seed, loads):
    # the model lays the configuration out by primitive; row-major, column-
    # major and strided views of the same rows must give the same bits
    model, rows, env = oracle_inputs(case, k, seed, loads)
    rows = rows.astype(float)
    expected = bits(reference_predict_matrix(model, rows, env, oracle_case(case)[-1]))
    transposed = np.ascontiguousarray(rows.T).T
    strided = np.repeat(rows, 2, axis=0)[::2]
    for values in (transposed, strided):
        assert k == 1 or not values.flags.c_contiguous
        assert np.array_equal(bits(model.predict_matrix(values, env)), expected)


@settings(max_examples=40, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 3, 150]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
def test_violation_counts_match_the_signed_gap_oracle(case, k, seed, loads):
    model, rows, env = oracle_inputs(case, k, seed, loads)
    vectors = model.predict_matrix(rows, env)
    # some entries meet their threshold exactly; then rows at every threshold,
    # all NaN and all infinite in each direction
    meet = np.random.default_rng(seed).random(vectors.shape) < 0.3
    vectors = np.where(meet, model.thresholds[None, :], vectors)
    vectors = np.vstack([
        vectors, model.thresholds, np.full_like(model.thresholds, np.nan),
        np.full_like(model.thresholds, np.inf), np.full_like(model.thresholds, -np.inf),
    ])
    counts = model.violation_counts(vectors)
    assert np.array_equal(counts, reference_violation_counts(model, vectors))
    assert counts[k] == 0 and counts[k + 1] == 0


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 7, 142, 150]),
    lead=st.sampled_from([(1,), (2,), (6,), (2, 3)]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
@example(case="triple_vm-replica", k=150, lead=(6,), seed=0, loads=[0.0] * 10)
@example(case="smoke-replica", k=7, lead=(2, 3), seed=1, loads=[0.0] * 10)
@example(case="triple_vm-replica", k=142, lead=(2,), seed=2,
         loads=[37.0, 410.0, 5.5, 260.0, 91.0, 150.0, 3.0, 480.0, 77.0, 12.0])
def test_stacked_predict_matrix_matches_each_slice(case, k, lead, seed, loads):
    # the colony stacks rounds in one call; each round must get the bits its
    # own 2-D call gives, from predict_matrix and, for the objective each
    # row carries, from own_objective; zero workloads take the replica
    # groups' equal shares
    model, rows, env = oracle_inputs(case, k * int(np.prod(lead)), seed, loads)
    m = len(model.objective_ids)
    objs = np.random.default_rng(seed).integers(0, m, k)
    stacked = rows.reshape(lead + (k, rows.shape[1]))
    out = model.predict_matrix(stacked, env)
    assert out.shape == lead + (k, m)
    own = model.own_objective(stacked, env, objs)
    assert own.shape == lead + (k,)
    for at in np.ndindex(*lead):
        alone = bits(model.predict_matrix(stacked[at], env))
        assert np.array_equal(bits(out[at]), alone)
        assert np.array_equal(bits(model.own_objective(stacked[at], env, objs)), alone[np.arange(k), objs])
    assert np.array_equal(bits(own), bits(out[..., np.arange(k), objs]))
    counts = model.violation_counts(out)
    assert counts.shape == lead + (k,)
    assert np.array_equal(counts.ravel(), model.violation_counts(out.reshape(-1, m)))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 3, 142, 150]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
@example(case="triple_vm-replica", k=150, seed=0, loads=[0.0] * 10)
def test_a_rows_bits_do_not_depend_on_the_other_rows(case, k, seed, loads):
    # a row's bits follow its values alone, not the other rows, its position
    # or the batch's row count: the colony evaluates rows it keeps again,
    # with other rows around it, so any replacement, permutation or split of
    # a batch gives each row the bits of one 2-D call on the whole batch
    model, rows, env = oracle_inputs(case, 2 * k, seed, loads)
    rng = np.random.default_rng(seed)
    m = len(model.objective_ids)
    mine, others = rows[:k], rows[k:]
    expected = bits(model.predict_matrix(mine, env))
    keep = rng.random(k) < 0.5
    for replacement in (others, np.zeros_like(others)):
        mixed = np.where(keep[:, None], mine, replacement)
        assert np.array_equal(bits(model.predict_matrix(mixed, env))[keep], expected[keep])

    whole = bits(model.predict_matrix(rows, env))
    obj_of = rng.integers(0, m, len(rows))
    order = rng.permutation(len(rows))
    assert np.array_equal(bits(model.predict_matrix(rows[order], env)), whole[order])
    cuts = np.sort(rng.integers(0, len(rows) + 1, rng.integers(0, 4)))
    for part in np.split(order, cuts):
        if part.size:
            assert np.array_equal(bits(model.predict_matrix(rows[part], env)), whole[part])
            own = model.own_objective(rows[part], env, obj_of[part])
            assert np.array_equal(bits(own), whole[part, obj_of[part]])


# -- footprints, own objectives and the unattainability certificate ----------


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(ORACLE_CASES),
    k=st.sampled_from([1, 3, 142, 150]),
    lead=st.sampled_from([(1,), (6,), (2, 3)]),
    round_robin=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
@example(case="triple_vm-replica", k=150, lead=(6,), round_robin=True, seed=0, loads=[0.0] * 10)
@example(case="smoke-replica", k=3, lead=(6,), round_robin=False, seed=1, loads=[0.0] * 10)
def test_own_objective_matches_the_predict_matrix_column(case, k, lead, round_robin, seed, loads):
    # each row's own objective, read off its footprint alone, has the bits
    # predict_matrix gives that row's column; zero workloads take the replica
    # groups' plain-mean branch
    model, rows, env = oracle_inputs(case, k * int(np.prod(lead)), seed, loads)
    rows = rows.astype(float).reshape(lead + (k, rows.shape[1]))
    m = len(model.objective_ids)
    objs = np.arange(k) % m if round_robin else np.random.default_rng(seed).integers(0, m, k)
    expected = model.predict_matrix(rows, env)[..., np.arange(k), objs]
    footprint_only = np.where(model.footprints[objs], rows, 0.0)
    for values in (rows, footprint_only):
        own = model.own_objective(values, env, objs)
        assert own.shape == lead + (k,)
        assert np.array_equal(bits(own), bits(expected))


def test_footprints_follow_the_topology(triple_scenario):
    model = build_model(triple_scenario)
    pids = np.array(model.region_pids)

    def read(oid):
        return set(pids[model.footprints[model.objective_ids.index(oid)]])

    # every VM shares pm1, so a service reads every VM's CPU
    cpus = {"v1.cpu", "v2.cpu", "v3.cpu"}
    assert read("s3.rt") == cpus | {"v2.memory", "s3.thread", "s4.thread"}
    assert read("s3.tp") == read("s3.rel") == read("s3.avail") == read("s3.rt")
    assert read("s3.cost") == {"v2.cpu", "v2.memory", "s3.thread"}


@settings(max_examples=30, deadline=None)
@given(
    k=st.sampled_from([1, 3, 150]),
    seed=st.integers(0, 2**32 - 1),
    loads=st.lists(WORKLOAD, min_size=10, max_size=10),
)
def test_an_unpriced_cost_is_zero_reads_nothing_and_is_never_unattainable(k, seed, loads):
    model, rows, env = oracle_inputs("smoke-unpriced", k, seed, loads)
    _, _, low, high, specs = oracle_case("smoke-unpriced")
    empty, single = (model.objective_ids.index(oid) for oid in ("s2.cost", "s1.cost"))
    assert not model.footprints[empty].any()
    assert [model.region_pids[c] for c in np.flatnonzero(model.footprints[single])] == ["s1.thread"]
    out = model.predict_matrix(rows, env)
    assert (bits(out[:, empty]) == 0).all()               # +0.0, not -0.0
    assert np.array_equal(out[:, single], rows[:, model.region_pids.index("s1.thread")]
                          * specs["s1.thread"].price)
    grids = [np.array([lo, hi], dtype=float) for lo, hi in zip(low, high)]
    assert not model.unattainable(env, grids)[empty]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_primitives_for_service_holds_every_primitive_the_model_reads(case):
    model, _, _, _, specs = oracle_case(case)
    # primitives_for_service reads only the topology and the primitives
    live = dataclasses.replace(scenario_from_dict(smoke_doc()), topology=model.topology,
                               primitives=specs)
    read_ids = np.append(model.all_pids, "")    # the trailing zero column
    for members in model._member_idx:
        reads = set(read_ids[model._unit_cols[:, members].ravel()]) - {""}
        allowed = set().union(
            *(live.primitives_for_service(model._service_ids[m]) for m in members)
        )
        assert reads <= allowed


def smoke_space(grids):
    """Every decision of a region as one row each."""
    return np.array(list(itertools.product(*grids)), dtype=float)


def assert_certificate_sound(model, env, grids):
    """Every flagged requirement is breached by every decision on the grids."""
    flagged = model.unattainable(env, grids)
    vectors = model.predict_matrix(smoke_space(grids), env)
    signed_gap = (vectors - model.thresholds) * model.direction_signs
    assert (signed_gap[:, flagged] < 0).all()
    return flagged


def test_certificate_is_sound_on_every_decision_of_a_smoke_plan(monkeypatch, tmp_path):
    # the decisions of a seeded smoke plan, each space enumerated in full
    flagged = []

    def checked(model, env, current_row, grids, cfg, rng, stats=None):
        flagged.append(assert_certificate_sound(model, env, grids))
        return optimize(model, env, current_row, grids, cfg, rng, stats)

    monkeypatch.setattr(colony, "optimize", checked)
    plan = experiment.ExperimentPlan(
        name="certified", scenario=scenario_from_dict(smoke_doc()), approaches=("moaco-cd",),
        intervals=30, warmup=0, runs=1, seed=1, out_dir=str(tmp_path), quiet=True,
    )
    experiment.run_experiment(plan)
    flagged = np.array(flagged)
    # the plan certifies some requirements and leaves others open
    assert flagged.any() and not flagged.all()


@settings(max_examples=60, deadline=None)
@given(
    loads=st.lists(WORKLOAD, min_size=2, max_size=2),
    scales=st.lists(st.floats(0.2, 1.5), min_size=6, max_size=6),
)
@example(loads=[0.0, 0.0], scales=[0.2, 1.0, 1.0, 0.2, 1.0, 1.0])
@example(loads=[120.0, 60.0], scales=[1.0, 1.0, 0.62, 1.0, 1.0, 0.62])
def test_certificate_is_sound_on_drawn_workloads_and_thresholds(loads, scales):
    # response-time thresholds down to the idle service time (a zero load
    # meets it exactly), throughput above and below the load, cost around
    # the cheapest decision
    doc = smoke_doc()
    for obj, scale in zip(doc["objectives"], scales):
        obj["threshold"] *= scale
    scenario = scenario_from_dict(doc)
    sim = Simulator(scenario, {"s1": [loads[0]] * 2, "s2": [loads[1]] * 2}, seed=0)
    env = EnvironmentState(0, {"s1": loads[0], "s2": loads[1]}, dict(sim.config), {})
    runtime = sim.region_runtime("r1", env)
    assert_certificate_sound(runtime.model, env, runtime.grids)


def test_certificate_flags_what_the_bounds_exclude(triple_scenario):
    model = build_model(triple_scenario)
    grids = [np.array(s.grid(), dtype=float)
             for s in (triple_scenario.primitives[pid] for pid in model.region_pids)]
    ids = np.array(model.objective_ids)
    # 40 req/min is below every throughput threshold, and nothing else fails
    assert set(ids[model.unattainable(triple_env(triple_scenario, 40.0), grids)]) == {
        f"s{i}.tp" for i in range(1, 7)
    }
    # past a model coefficient the bounds rely on, no service kind is flagged
    model.params = ModelParams(min_capacity=0.0)
    assert not model.unattainable(triple_env(triple_scenario, 40.0), grids).any()
