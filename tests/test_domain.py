"""Primitive grids, scenario structure checks, and replica naming."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from antscale.domain import (
    ConfigError,
    ControlPrimitiveSpec,
    is_replica,
    primitive_id,
    replica_id,
    root_id,
    scenario_from_dict,
    validate_scenario,
)
from conftest import smoke_doc, toy_doc, triple_split_doc


def cpu_spec(**overrides) -> ControlPrimitiveSpec:
    """A CPU cap knob shaped like the bundled scenarios use: 15..40 step 1."""
    base = dict(
        id="v1.cpu", scope="per-vm-shared", owner="v1", resource="cpu",
        unit="%", initial=30, step=1, base_lower=15, lower_bound=15,
        upper_bound=40, hard_min=10, hard_max=60, price=0.01,
        util_trigger=0.5, adapt_threshold=0.7, adapt_fraction=0.1,
    )
    base.update(overrides)
    return ControlPrimitiveSpec(**base)


def test_grid_enumerates_selectable_values():
    grid = cpu_spec().grid()
    assert grid[0] == 15
    assert grid[-1] == 40
    assert len(grid) == 26
    assert all(b - a == 1 for a, b in zip(grid, grid[1:]))


def test_grid_respects_step():
    spec = cpu_spec(step=5, initial=15, lower_bound=15, upper_bound=40)
    assert spec.grid() == [15, 20, 25, 30, 35, 40]


def test_on_grid_rejects_off_phase_and_out_of_range():
    spec = cpu_spec(step=5, initial=15)
    assert spec.on_grid(25)
    assert not spec.on_grid(26)      # off phase
    assert not spec.on_grid(10)      # below lower bound
    assert not spec.on_grid(45)      # above upper bound
    assert not spec.on_grid(15.5)    # not an integer value


def test_snap_rounds_to_nearest_grid_point():
    spec = cpu_spec(step=5, initial=15)
    assert spec.snap(26.0) == 25
    assert spec.snap(28.0) == 30
    assert spec.snap(3.0) == 15      # clamped to the lower bound
    assert spec.snap(99.0) == 40     # clamped to the upper bound
    assert spec.phase(3.0) == 5      # phase alone does not clamp
    assert spec.phase(99.0) == 100


def test_snap_lands_on_grid_for_arbitrary_inputs():
    spec = cpu_spec(step=3, initial=15, upper_bound=39)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-20, 80, size=300):
        assert spec.on_grid(spec.snap(float(x)))


def test_with_bounds_keeps_identity_and_moves_window():
    spec = cpu_spec()
    moved = spec.with_bounds(20, 44)
    assert moved.lower_bound == 20
    assert moved.upper_bound == 44
    assert moved.base_lower == spec.base_lower
    assert moved.id == spec.id
    assert spec.lower_bound == 15    # original untouched


def test_objective_direction_semantics():
    scenario = scenario_from_dict(toy_doc())
    rt = scenario.objectives["s1.rt"]
    cost = scenario.objectives["s1.cost"]
    assert rt.violated(2.5)
    assert not rt.violated(2.0)      # meeting the threshold exactly passes
    assert cost.violated(0.86)
    assert not cost.violated(0.85)


def test_bundled_scenarios_validate_clean(smoke_scenario, triple_scenario):
    assert validate_scenario(smoke_scenario) == []
    assert validate_scenario(triple_scenario) == []


def test_validate_catches_zero_step():
    doc = smoke_doc()
    doc["primitives"][0]["step"] = 0
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("v1.cpu" in p and "step" in p for p in problems)


def test_validate_catches_off_grid_initial():
    doc = smoke_doc()
    doc["primitives"][0]["initial"] = 21    # grid is 10..30 step 2
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("initial" in p for p in problems)


def test_validate_catches_inverted_bounds():
    doc = smoke_doc()
    doc["primitives"][0]["min"] = 32
    problems = validate_scenario(scenario_from_dict(doc))
    assert problems


def test_validate_catches_dangling_owner():
    doc = smoke_doc()
    doc["primitives"][2]["owner"] = "ghost"
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("ghost" in p for p in problems)


def test_validate_catches_region_member_outside_scenario():
    doc = smoke_doc()
    doc["regions"][0]["primitives"].append("nowhere.knob")
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("nowhere.knob" in p for p in problems)


def test_validate_catches_maximized_cost():
    # the kind fixes the direction, so the parser refuses the key
    doc = smoke_doc()
    for entry in doc["objectives"]:
        if entry["kind"] == "cost":
            entry["direction"] = "maximize"
            break
    with pytest.raises(ConfigError, match=r"objective s1\.cost: unknown keys \['direction'\]"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key, value", [
    ("model", "price-sum"), ("direction", "minimize"), ("unit", "req/min"),
])
def test_parser_refuses_an_objective_key_other_than_the_four(key, value):
    doc = smoke_doc()
    doc["objectives"][1][key] = value
    with pytest.raises(ConfigError, match=rf"objective s1\.tp: unknown keys \['{key}'\]"):
        scenario_from_dict(doc)


def test_initial_configuration_is_on_grid(triple_scenario):
    config = triple_scenario.initial_configuration()
    for pid, value in config.items():
        assert triple_scenario.primitives[pid].on_grid(value)


def test_primitives_for_service_includes_shared_vm_knobs(smoke_scenario):
    # s2 shares s1's VM, so its threads compete with s1's
    pids = set(smoke_scenario.primitives_for_service("s1"))
    assert pids == {"s1.thread", "s2.thread", "v1.cpu", "v1.memory"}


def test_region_check_covers_the_reads_interference_adds(triple_scenario):
    # every VM shares pm1: s1 reads every VM's CPU and s2's threads too
    assert set(triple_scenario.primitives_for_service("s1")) == {
        "v1.cpu", "v1.memory", "v2.cpu", "v3.cpu", "s1.thread", "s2.thread",
    }
    problems = validate_scenario(scenario_from_dict(triple_split_doc()))
    assert "regions[r1]: objective 's1.rt' reads primitive 'v2.cpu' outside the region" in problems
    assert "regions[r2]: objective 's3.rt' reads primitive 'v1.cpu' outside the region" in problems


def test_validate_catches_unknown_scope():
    doc = smoke_doc()
    doc["primitives"][0]["scope"] = "per-cluster"
    problems = validate_scenario(scenario_from_dict(doc))
    assert any("scope" in p for p in problems)


def test_missing_document_key_raises_config_error():
    doc = smoke_doc()
    del doc["primitives"][0]["step"]
    with pytest.raises(ConfigError):
        scenario_from_dict(doc)


# -- replica naming --------------------------------------------------------


@given(
    base=st.text(alphabet=st.characters(exclude_characters="~"), min_size=1),
    n=st.integers(1, 10**6),
)
def test_replica_ids_round_trip_to_their_root(base, n):
    replica = replica_id(base, n)
    assert root_id(replica) == base
    assert root_id(replica_id(replica, n + 1)) == base
    assert is_replica(replica)
    assert not is_replica(base)
    assert root_id(base) == base
    # a clone's primitives are "<owner>.<resource>" and stay replica ids
    assert primitive_id(replica, "cpu") == f"{replica}.cpu"
    assert is_replica(primitive_id(replica, "cpu"))
