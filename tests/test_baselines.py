"""Reactive rule, weighted-sum searches, and the genetic front optimizer."""

from types import SimpleNamespace

import numpy as np
import pytest

from antscale.baselines import (
    MogaConfig,
    crowding_distances,
    hill_climb,
    moga_optimize,
    nondominated_ranks,
    random_search,
    rule_decide,
    weighted_best,
)
from antscale.domain import ConfigError
from antscale.simulator import TRIGGER_LOW_UTIL, TRIGGER_SLA, EnvironmentState
from conftest import smoke_runtime, toy_runtime


class MappedModel:
    """Maps configuration rows to objective vectors through a fixed function."""

    def __init__(self, fn, directions, pids):
        self.objective_ids = [f"o{i}" for i in range(len(directions))]
        self.direction_signs = np.array(
            [1.0 if d == "max" else -1.0 for d in directions]
        )
        self.region_pids = list(pids)
        self._fn = fn

    def predict_matrix(self, rows, env):
        # (..., P) rows as RegionModel takes them: fn maps 2-D batches
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        out = self._fn(rows.reshape(-1, rows.shape[-1]))
        return out.reshape(rows.shape[:-1] + out.shape[-1:])

    def violation_counts(self, vectors):
        return np.zeros(np.atleast_2d(vectors).shape[:-1], dtype=int)


def stub_runtime(grids, current, fn, directions):
    pids = [f"p{i}" for i in range(len(grids))]
    return SimpleNamespace(
        region=SimpleNamespace(id="r", primitive_ids=pids),
        model=MappedModel(fn, directions, pids),
        env=None,
        grids=[np.asarray(g, dtype=float) for g in grids],
        current=np.asarray(current, dtype=float),
        specs=None,
    )


# -- weighted-sum scoring --------------------------------------------------


def test_weighted_best_balances_normalized_objectives():
    vectors = np.array([[1.0, 10.0], [2.0, 1.0], [3.0, 0.0]])
    assert weighted_best(vectors, signs=(-1.0, -1.0)) == 1


def test_weighted_best_single_objective_is_plain_argbest():
    vectors = np.array([[4.0], [1.0], [2.0]])
    assert weighted_best(vectors, signs=(-1.0,)) == 1
    assert weighted_best(vectors, signs=(1.0,)) == 0


# -- reactive rule ---------------------------------------------------------


def test_rule_steps_serving_primitives_up_on_breach():
    _, runtime, _ = smoke_runtime()
    observed = {"s1.rt": 99.0}    # far over threshold; s2 untouched
    decision = rule_decide(runtime, TRIGGER_SLA, observed)
    for pid, value, spec in zip(
        runtime.region.primitive_ids, runtime.current, runtime.specs
    ):
        if pid == "s2.thread":
            assert decision.assignments[pid] == int(value)
        else:
            assert decision.assignments[pid] == min(int(value) + spec.step, spec.upper_bound)


def test_rule_steps_underused_primitives_down():
    sim, runtime, result = smoke_runtime()
    env = EnvironmentState(
        result.env.interval_index, result.env.workloads,
        result.env.current_configuration,
        {pid: 0.2 for pid in runtime.region.primitive_ids},
    )
    runtime = sim.region_runtime("r1", env)
    decision = rule_decide(runtime, TRIGGER_LOW_UTIL, {})
    for pid, value, spec in zip(
        runtime.region.primitive_ids, runtime.current, runtime.specs
    ):
        assert decision.assignments[pid] == max(int(value) - spec.step, spec.lower_bound)


def test_rule_respects_bounds_at_the_edges():
    sim, runtime, result = smoke_runtime()
    for pid, spec in zip(runtime.region.primitive_ids, runtime.specs):
        sim.config[pid] = spec.upper_bound
    runtime = sim.region_runtime("r1", result.env)
    decision = rule_decide(runtime, TRIGGER_SLA, {"s1.rt": 99.0, "s2.rt": 99.0})
    for pid, spec in zip(runtime.region.primitive_ids, runtime.specs):
        assert decision.assignments[pid] == spec.upper_bound


def test_rule_keeps_live_values_without_trigger():
    _, runtime, _ = smoke_runtime()
    decision = rule_decide(runtime, None, {})
    for pid, value in zip(runtime.region.primitive_ids, runtime.current):
        assert decision.assignments[pid] == int(value)


# -- flat searches ---------------------------------------------------------


def test_random_search_singleton_space():
    runtime = stub_runtime(
        [[5.0]], [5.0], lambda rows: rows.copy(), ("min",)
    )
    decision = random_search(runtime, budget=10, rng=np.random.default_rng(0))
    assert decision.assignments == {"p0": 5}


def test_random_search_finds_small_space_optimum():
    # 27 decisions; 400 uniform draws miss the optimum with p ~ 4e-7
    target = np.array([1.0, 2.0, 0.0])

    def fn(rows):
        return ((rows - target[None, :]) ** 2).sum(axis=1, keepdims=True)

    runtime = stub_runtime(
        [[0.0, 1.0, 2.0]] * 3, [0.0, 0.0, 0.0], fn, ("min",)
    )
    for seed in range(30):
        decision = random_search(runtime, budget=400, rng=np.random.default_rng(seed))
        assert decision.assignments == {"p0": 1, "p1": 2, "p2": 0}


def test_random_search_is_seed_reproducible():
    runtime = toy_runtime()
    a = random_search(runtime, budget=300, rng=np.random.default_rng(6))
    b = random_search(runtime, budget=300, rng=np.random.default_rng(6))
    assert a.assignments == b.assignments


def test_hill_climb_with_unit_budget_returns_its_random_start():
    runtime = stub_runtime(
        [list(range(21))], [3.0],
        lambda rows: (rows - 17.0) ** 2, ("min",),
    )
    first_draw = int(np.random.default_rng(7).integers(21))
    decision = hill_climb(runtime, budget=1, rng=np.random.default_rng(7))
    assert decision.assignments == {"p0": first_draw}


def test_hill_climb_walks_convex_slope_to_optimum():
    runtime = stub_runtime(
        [list(range(21))], [3.0],
        lambda rows: (rows - 17.0) ** 2, ("min",),
    )
    decision = hill_climb(runtime, budget=500, rng=np.random.default_rng(0))
    assert decision.assignments == {"p0": 17}


def test_hill_climb_is_seed_reproducible():
    runtime = toy_runtime()
    a = hill_climb(runtime, budget=200, rng=np.random.default_rng(4))
    b = hill_climb(runtime, budget=200, rng=np.random.default_rng(4))
    assert a.assignments == b.assignments


def test_searches_emit_decisions_on_the_grids():
    runtime = toy_runtime()
    grids = {
        pid: set(int(v) for v in grid)
        for pid, grid in zip(runtime.region.primitive_ids, runtime.grids)
    }
    for seed in range(5):
        for decision in (
            random_search(runtime, 100, np.random.default_rng(seed)),
            hill_climb(runtime, 100, np.random.default_rng(seed)),
        ):
            for pid, value in decision.assignments.items():
                assert value in grids[pid]


# -- non-dominated sorting -------------------------------------------------


def sign_better(x, y, s):
    return s * x > s * y


def oracle_dominates(a, b, signs):
    as_good = all(not sign_better(y, x, s) for x, y, s in zip(a, b, signs))
    strict = any(sign_better(x, y, s) for x, y, s in zip(a, b, signs))
    return as_good and strict


def oracle_fronts(vectors, signs):
    remaining = set(range(len(vectors)))
    ranks = [None] * len(vectors)
    front = 0
    while remaining:
        members = [
            i for i in remaining
            if not any(
                oracle_dominates(vectors[j], vectors[i], signs)
                for j in remaining if j != i
            )
        ]
        for i in members:
            ranks[i] = front
        remaining -= set(members)
        front += 1
    return ranks


def test_ranks_match_peeling_oracle_on_random_sets():
    rng = np.random.default_rng(13)
    signs = (-1.0, 1.0, -1.0)
    for _ in range(15):
        vectors = rng.uniform(-3, 3, size=(25, 3))
        got = nondominated_ranks(vectors, signs)
        want = oracle_fronts([tuple(v) for v in vectors], signs)
        assert list(got) == want


def test_ranks_on_a_known_layered_set():
    vectors = np.array([
        [0.0, 10.0], [5.0, 5.0], [10.0, 0.0],    # front 0
        [6.0, 6.0], [1.0, 11.0],                 # front 1
        [7.0, 7.0],                              # front 2
    ])
    ranks = nondominated_ranks(vectors, (-1.0, -1.0))
    assert list(ranks) == [0, 0, 0, 1, 1, 2]


def test_crowding_rewards_isolation():
    vectors = np.array([[0.0, 10.0], [5.0, 5.0], [10.0, 0.0]])
    ranks = np.zeros(3, dtype=int)
    crowding = crowding_distances(vectors, ranks)
    assert np.isinf(crowding[0])
    assert np.isinf(crowding[2])
    assert crowding[1] == pytest.approx(2.0)


def test_tiny_fronts_are_all_boundary():
    vectors = np.array([[1.0, 2.0], [2.0, 1.0]])
    crowding = crowding_distances(vectors, np.zeros(2, dtype=int))
    assert np.isinf(crowding).all()


# -- genetic optimizer -----------------------------------------------------

TOY_TABLE = {
    0.0: (0.0, 10.0), 1.0: (5.0, 5.0), 2.0: (10.0, 0.0),
    3.0: (6.0, 6.0), 4.0: (1.0, 11.0), 5.0: (11.0, 1.0),
    6.0: (7.0, 7.0), 7.0: (12.0, 12.0),
}


def table_runtime():
    def fn(rows):
        return np.array([TOY_TABLE[float(r[0])] for r in rows])

    return stub_runtime([list(range(8))], [0.0], fn, ("min", "min"))


def toy_brute_front():
    vectors = [TOY_TABLE[float(x)] for x in range(8)]
    ranks = oracle_fronts(vectors, (-1.0, -1.0))
    return {x for x, r in enumerate(ranks) if r == 0}


def test_toy_front_is_three_points():
    assert toy_brute_front() == {0, 1, 2}


def test_moga_recovers_known_front_on_most_seeds():
    runtime = table_runtime()
    cfg = MogaConfig(population=8, generations=12)
    want = toy_brute_front()
    hits = 0
    for seed in range(50):
        archive = moga_optimize(runtime, cfg, np.random.default_rng(seed))
        got = {entry.decision.assignments["p0"] for entry in archive}
        hits += got == want
    assert hits >= 45


def test_moga_front_entries_are_mutually_nondominated():
    runtime = table_runtime()
    archive = moga_optimize(
        runtime, MogaConfig(population=8, generations=6), np.random.default_rng(3)
    )
    entries = archive.entries()
    for a in entries:
        for b in entries:
            assert not oracle_dominates(a.objectives, b.objectives, (-1.0, -1.0))


def test_moga_degenerate_space_yields_single_decision():
    runtime = stub_runtime(
        [[4.0], [9.0]], [4.0, 9.0],
        lambda rows: rows.sum(axis=1, keepdims=True), ("min",),
    )
    archive = moga_optimize(
        runtime, MogaConfig(population=4, generations=3), np.random.default_rng(0)
    )
    assert len(archive) == 1
    assert archive.entries()[0].decision.assignments == {"p0": 4, "p1": 9}


def test_moga_is_seed_reproducible():
    runtime = table_runtime()
    cfg = MogaConfig(population=8, generations=8)

    def run(seed):
        archive = moga_optimize(runtime, cfg, np.random.default_rng(seed))
        return [e.decision.assignments for e in archive]

    assert run(21) == run(21)


def test_moga_config_validation():
    with pytest.raises(ConfigError):
        MogaConfig.from_dict({"population": 7})
    with pytest.raises(ConfigError):
        MogaConfig.from_dict({"crossover_rate": 1.5})
    with pytest.raises(ConfigError):
        MogaConfig.from_dict({"mutation_rtae": 0.1})
    cfg = MogaConfig.from_dict({"population": 10, "generations": 3})
    assert cfg.population == 10
