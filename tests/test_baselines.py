"""Reactive rule, weighted-sum searches, and the genetic front optimizer."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antscale.baselines import (
    MogaConfig,
    RunningSpan,
    crowding_distances,
    hill_climb,
    moga_optimize,
    nondominated_ranks,
    peel_fronts,
    random_search,
    rule_decide,
    weighted_best,
)
from antscale.colony import grid_table
from antscale.domain import ConfigError
from antscale.dominance import DecisionArchive
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


@pytest.mark.parametrize("search", [random_search, hill_climb], ids=lambda f: f.__name__)
def test_search_singleton_space(search):
    # hill finds no move from the start, so every climb ends where it starts
    runtime = stub_runtime(
        [[5.0]], [5.0], lambda rows: rows.copy(), ("min",)
    )
    decision = search(runtime, budget=10, rng=np.random.default_rng(0))
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


def reference_random_rows(grids, n, rng):
    rows = np.empty((n, len(grids)))
    for a, grid in enumerate(grids):
        rows[:, a] = grid[rng.integers(len(grid), size=n)]
    return rows


def reference_decision(runtime, row):
    return {pid: int(v) for pid, v in zip(runtime.region.primitive_ids, row)}


def reference_random_search(runtime, budget, rng):
    """Uniform sampling on grid-value rows, in chunks of at most 4,096."""
    model = runtime.model
    span = RunningSpan(model.direction_signs)
    all_rows, all_vecs = [], []
    remaining = max(int(budget), 1)
    while remaining > 0:
        chunk = min(remaining, 4096)
        rows = reference_random_rows(runtime.grids, chunk, rng)
        vecs = model.predict_matrix(rows, runtime.env)
        span.update(vecs)
        all_rows.append(rows)
        all_vecs.append(vecs)
        remaining -= chunk
    rows = np.vstack(all_rows)
    best = int(np.argmin(span.score(np.vstack(all_vecs))))
    return reference_decision(runtime, rows[best])


def reference_hill_climb(runtime, budget, rng):
    """Restarted climbing on grid-value rows, finding each move's index by search."""
    model = runtime.model
    grids = runtime.grids
    span = RunningSpan(model.direction_signs)
    budget = max(int(budget), 1)
    evals = 0

    def evaluate(rows):
        nonlocal evals
        vecs = model.predict_matrix(rows, runtime.env)
        span.update(vecs)
        evals += rows.shape[0]
        return vecs

    current = reference_random_rows(grids, 1, rng)[0]
    cur_vec = evaluate(current[None, :])[0]
    ends_rows, ends_vecs = [], []
    while True:
        while evals < budget:
            rows = []
            for a, grid in enumerate(grids):
                idx = int(np.searchsorted(grid, current[a]))
                for nxt in (idx - 1, idx + 1):
                    if 0 <= nxt < len(grid):
                        row = current.copy()
                        row[a] = grid[nxt]
                        rows.append(row)
            if not rows:
                break
            vecs = evaluate(np.array(rows))
            scores = span.score(vecs)
            cur_score = span.score(cur_vec[None, :])[0]
            best = int(np.argmin(scores))
            if scores[best] < cur_score:
                current = np.array(rows[best])
                cur_vec = vecs[best]
            else:
                break
        ends_rows.append(current.copy())
        ends_vecs.append(cur_vec.copy())
        if evals >= budget:
            break
        current = reference_random_rows(grids, 1, rng)[0]
        cur_vec = evaluate(current[None, :])[0]
    best = int(np.argmin(span.score(np.array(ends_vecs))))
    return reference_decision(runtime, ends_rows[best])


def tied_runtime(sizes):
    """Every move away from the middle gains the same, so a batch's order decides."""
    middle = (np.array(sizes) - 1) / 2
    return stub_runtime(
        [np.arange(float(g)) for g in sizes], [0.0] * len(sizes),
        lambda rows: np.abs(rows - middle).sum(axis=1, keepdims=True), ("max",),
    )


SEARCH_ORACLES = {random_search: reference_random_search, hill_climb: reference_hill_climb}


@st.composite
def search_runtimes(draw):
    """A hashed or tied stub over sorted grids (singletons included), or toy or smoke."""
    kind = draw(st.sampled_from(("hashed", "tied", "toy", "smoke")))
    if kind == "toy":
        return toy_runtime()
    if kind == "smoke":
        return smoke_runtime(seed=draw(st.integers(0, 5)))[1]
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    if kind == "tied":
        return tied_runtime(sizes)
    return hashed_runtime(
        sizes, draw(st.lists(st.sampled_from(("min", "max")), min_size=1, max_size=4)),
        draw(st.sampled_from((0.0, 0.0, 0.3))), 0.0,
    )


@pytest.mark.parametrize("search", [random_search, hill_climb], ids=lambda f: f.__name__)
@settings(max_examples=60, deadline=None)
@given(
    runtime=search_runtimes(),
    # up to a budget spanning two of random search's 4,096-row chunks
    budget=st.one_of(st.integers(1, 300), st.integers(4097, 8192)),
    seed=st.integers(0, 2**32 - 1),
)
# a climb from the middle goes down first
@example(runtime=tied_runtime([3, 3]), budget=5, seed=0)
def test_index_searches_match_the_value_row_searches(search, runtime, budget, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    decision = search(runtime, budget, rng)
    assert decision.assignments == SEARCH_ORACLES[search](runtime, budget, oracle_rng)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


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
        got, _ = nondominated_ranks(vectors, signs)
        want = oracle_fronts([tuple(v) for v in vectors], signs)
        assert list(got) == want


def test_ranks_on_a_known_layered_set():
    vectors = np.array([
        [0.0, 10.0], [5.0, 5.0], [10.0, 0.0],    # front 0
        [6.0, 6.0], [1.0, 11.0],                 # front 1
        [7.0, 7.0],                              # front 2
    ])
    ranks, dominates = nondominated_ranks(vectors, (-1.0, -1.0))
    assert list(ranks) == [0, 0, 0, 1, 1, 2]
    assert dominates[1, 3] and dominates[3, 5] and not dominates[3, 1]
    keep = [5, 1, 3]
    assert list(peel_fronts(dominates[np.ix_(keep, keep)])) == [2, 0, 1]


def test_cyclic_dominance_falls_back_to_one_front():
    # NaN ties with every value: x beats y, y beats z and z beats x
    vectors = np.array([[1.0, np.nan, 0.0], [0.0, 0.0, np.nan], [np.nan, -1.0, 1.0]])
    ranks, dominates = nondominated_ranks(vectors, (1.0, 1.0, 1.0))
    assert dominates[0, 1] and dominates[1, 2] and dominates[2, 0]
    assert list(ranks) == [0, 0, 0]


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


def reference_crowding(vectors, ranks):
    """Crowding distance one front and one objective at a time."""
    vectors = np.atleast_2d(vectors)
    n, m = vectors.shape
    out = np.zeros(n)
    for front in np.unique(ranks):
        members = np.flatnonzero(ranks == front)
        if members.size <= 2:
            out[members] = np.inf
            continue
        for j in range(m):
            order = members[np.argsort(vectors[members, j], kind="stable")]
            column = vectors[order, j]
            span = column[-1] - column[0]
            out[order[0]] = np.inf
            out[order[-1]] = np.inf
            if span > 0:
                inner = (column[2:] - column[:-2]) / span
                out[order[1:-1]] += inner
    return out


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


# ties, signed zeros, infinities and NaN, plus spans that overflow
CROWDING_VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 2.0, -3.5, 1e308, -1e308, np.inf, -np.inf, np.nan)),
    st.floats(-100.0, 100.0, width=16),
)


@st.composite
def fronted_vectors(draw):
    """A matrix of up to 16 objectives with a front index per row."""
    n, m = draw(st.integers(1, 24)), draw(st.integers(1, 16))
    cells = draw(st.lists(CROWDING_VALUES, min_size=n * m, max_size=n * m))
    fronts = draw(st.integers(1, 4))
    ranks = draw(st.lists(st.integers(0, fronts - 1), min_size=n, max_size=n))
    return np.array(cells).reshape(n, m), np.array(ranks)


@settings(max_examples=150, deadline=None)
@given(fronted_vectors())
# row 1 bounds objective 0 and sits next to an infinite value in objective
# 1, whose NaN gap leaves it NaN
@example((np.array([[1.0, 0.0], [0.0, 5.0], [2.0, np.inf], [3.0, 1.0]]), np.zeros(4, int)))
# row 1's only gain is -0.0 - 0.0 = -0.0, which the loop adds to 0.0,
# so a sum has to start from 0.0 too
@example((np.array([[0.0], [0.0], [-0.0], [1.0]]), np.zeros(4, int)))
def test_crowding_matches_the_per_objective_loop(case):
    vectors, ranks = case
    got = crowding_distances(vectors, ranks)
    with np.errstate(over="ignore", invalid="ignore"):
        want = reference_crowding(vectors, ranks)
    assert np.array_equal(bits(got), bits(want))


def test_crowding_adds_gains_in_objective_order():
    # full-precision gains over 9 to 16 objectives, where a pairwise sum
    # would round differently from one objective at a time
    for seed in range(10):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(12, 9 + seed % 8))
        ranks = rng.integers(2, size=12)
        got = crowding_distances(vectors, ranks)
        assert np.array_equal(bits(got), bits(reference_crowding(vectors, ranks)))


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
        MogaConfig.from_dict({"mutation_rtae": 0.1})
    cfg = MogaConfig.from_dict({"population": 10, "generations": 3})
    assert cfg.population == 10
    cfg = MogaConfig.from_dict({"population": 2, "generations": 0, "crossover_rate": 1,
                                "mutation_rate": 0.0})
    assert (cfg.population, cfg.generations) == (2, 0)


@pytest.mark.parametrize("setting, value", [
    ("population", 7), ("population", 0), ("population", -4), ("population", 40.0),
    ("population", True), ("population", "40"),
    ("generations", -2), ("generations", 2.5), ("generations", False),
    ("crossover_rate", 1.5), ("crossover_rate", -0.1), ("crossover_rate", "0.5"),
    ("crossover_rate", float("nan")), ("crossover_rate", True),
    ("mutation_rate", 2.0), ("mutation_rate", "0.1"), ("mutation_rate", False),
])
def test_moga_config_rejects_a_bad_value(setting, value):
    with pytest.raises(ConfigError, match=f"moga: {setting}"):
        MogaConfig.from_dict({setting: value})


def reference_moga(runtime, cfg, rng):
    """The genetic search pair by pair, ranking every population afresh."""
    model = runtime.model
    signs = model.direction_signs
    values, valid = grid_table(runtime.grids)
    n_prims, sizes = valid.shape[0], valid.sum(axis=1)
    prims = np.arange(n_prims)
    pop_n = cfg.population
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n_prims

    def ranks_of(vectors):
        return nondominated_ranks(vectors, signs)[0]

    def tournament(ranks, crowding, i, j):
        if ranks[i] != ranks[j]:
            return i if ranks[i] < ranks[j] else j
        if crowding[i] != crowding[j]:
            return i if crowding[i] > crowding[j] else j
        return i

    genomes = np.empty((pop_n, n_prims), dtype=int)
    for a in range(n_prims):
        genomes[:, a] = rng.integers(sizes[a], size=pop_n)
    vectors = model.predict_matrix(values[prims, genomes], runtime.env)
    for _ in range(cfg.generations):
        ranks = ranks_of(vectors)
        crowding = reference_crowding(vectors, ranks)
        picks = rng.integers(pop_n, size=(pop_n, 2))
        parents = np.array([tournament(ranks, crowding, int(i), int(j)) for i, j in picks])
        children = genomes[parents].copy()
        for i in range(0, pop_n - 1, 2):
            if rng.random() < cfg.crossover_rate:
                swap = rng.random(n_prims) < 0.5
                a, b = children[i].copy(), children[i + 1].copy()
                children[i, swap] = b[swap]
                children[i + 1, swap] = a[swap]
        mutate = rng.random((pop_n, n_prims)) < mut_rate
        steps = rng.integers(0, 2, size=(pop_n, n_prims)) * 2 - 1
        mutated = np.clip(children + steps, 0, (sizes - 1)[None, :])
        children = np.where(mutate, mutated, children)

        child_vectors = model.predict_matrix(values[prims, children], runtime.env)
        combined = np.vstack([genomes, children])
        combined_vecs = np.vstack([vectors, child_vectors])
        ranks = ranks_of(combined_vecs)
        crowding = reference_crowding(combined_vecs, ranks)
        order = np.lexsort((-crowding, ranks))[:pop_n]
        genomes = combined[order]
        vectors = combined_vecs[order]
    front = ranks_of(vectors) == 0
    return DecisionArchive(
        model.region_pids, values[prims, genomes[front]], vectors[front],
        model.violation_counts(vectors[front]),
    )


def hashed_runtime(sizes, directions, nan_share, inf_share):
    """Objectives scattered pseudo-randomly over the rows, some NaN or infinite.

    Any objective may be NaN, so dominance can run in cycles. A row violates
    one requirement per objective above 7.
    """
    weights = np.array([12.9898, 78.233, 37.719, 4.581, 93.989])[:len(sizes)]

    def fn(rows):
        mixed = (rows * weights).sum(axis=1)

        def frac(shift):
            return np.modf(np.abs(np.sin(mixed + shift)) * 43758.5453)[0]
        columns = [
            np.where(frac(10.0 + o) < nan_share, np.nan, 10.0 * frac(o))
            for o in range(len(directions))
        ]
        columns[-1] = np.where(frac(20.0) < inf_share, np.inf, columns[-1])
        return np.stack(columns, axis=1)

    grids = [10.0 * a + np.arange(1.0, g + 1.0) for a, g in enumerate(sizes)]
    runtime = stub_runtime(grids, [g[0] for g in grids], fn, directions)
    runtime.model.violation_counts = lambda v: (np.atleast_2d(v) > 7.0).sum(axis=-1)
    return runtime


def assert_same_search(runtime, cfg, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    archive = moga_optimize(runtime, cfg, rng)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = reference_moga(runtime, cfg, oracle_rng)
    assert np.array_equal(archive.rows, expected.rows)
    assert np.array_equal(bits(archive.objectives), bits(expected.objectives))
    assert np.array_equal(archive.violations, expected.violations)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5),
    directions=st.lists(st.sampled_from(("min", "max")), min_size=1, max_size=4),
    population=st.integers(1, 8).map(lambda half: 2 * half),
    generations=st.integers(0, 6),
    crossover_rate=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)),
    mutation_rate=st.one_of(st.none(), st.floats(0.0, 1.0)),
    nan_share=st.sampled_from((0.0, 0.0, 0.3)),
    inf_share=st.sampled_from((0.0, 0.0, 0.2)),
)
def test_moga_matches_the_pair_by_pair_search(
        seed, sizes, directions, population, generations, crossover_rate, mutation_rate,
        nan_share, inf_share):
    runtime = hashed_runtime(sizes, directions, nan_share, inf_share)
    cfg = MogaConfig(population=population, generations=generations,
                     crossover_rate=crossover_rate, mutation_rate=mutation_rate)
    assert_same_search(runtime, cfg, seed)


CYCLE_TABLE = {
    0.0: (1.0, np.nan, 0.0), 1.0: (0.0, 0.0, np.nan), 2.0: (np.nan, -1.0, 1.0),
    3.0: (-1.0, -1.0, -1.0), 4.0: (0.5, np.nan, np.nan), 5.0: (-2.0, 2.0, -2.0),
}


def test_moga_matches_the_pair_by_pair_search_through_dominance_cycles():
    # rows 0 -> 1 -> 2 -> 0 dominate in a cycle, so peeling falls back to
    # taking every remaining row as one front
    def fn(rows):
        return np.array([CYCLE_TABLE[float(r[0])] for r in rows])

    runtime = stub_runtime([list(range(6))], [0.0], fn, ("max", "max", "max"))
    for seed in range(20):
        for crossover_rate in (0.0, 0.5, 1.0):
            cfg = MogaConfig(population=6, generations=5, crossover_rate=crossover_rate)
            assert_same_search(runtime, cfg, seed)
