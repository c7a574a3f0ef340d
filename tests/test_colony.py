"""Colony mechanics: heuristics, selection, pheromone updates, full runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antscale.colony import (
    MoacoConfig,
    OptimizeStats,
    clamp,
    compute_heuristics,
    deposit,
    grid_table,
    optimize,
    selection_cdfs,
    trail_bounds,
)
from antscale.domain import ConfigError
from antscale.dominance import DecisionArchive
from conftest import toy_runtime


class MappedModel:
    """Maps configuration rows to objective vectors through a fixed function."""

    def __init__(self, fn, directions, pids=("p0",), thresholds=None):
        self.objective_ids = [f"o{i}" for i in range(len(directions))]
        self.direction_signs = np.array(
            [1.0 if d == "max" else -1.0 for d in directions]
        )
        self.region_pids = list(pids)
        self._fn = fn
        self._thresholds = (
            None if thresholds is None else np.asarray(thresholds, dtype=float)
        )

    def predict_matrix(self, rows, env):
        return self._fn(np.atleast_2d(np.asarray(rows, dtype=float)))

    def violation_counts(self, vectors):
        vectors = np.atleast_2d(vectors)
        if self._thresholds is None:
            return np.zeros(vectors.shape[0], dtype=int)
        gaps = (vectors - self._thresholds[None, :]) * self.direction_signs[None, :]
        return (gaps < 0).sum(axis=1)


class RecordingModel(MappedModel):
    """MappedModel that keeps every batch of rows it is asked to predict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def predict_matrix(self, rows, env):
        self.calls.append(np.array(rows, dtype=float))
        return super().predict_matrix(rows, env)

    def constructed_rows(self, grids):
        """Rows sampled by ants: every batch after the heuristic's two calls."""
        assert self.calls[0].shape[0] == sum(len(g) for g in grids)
        assert self.calls[1].shape[0] == 1
        return np.vstack(self.calls[2:])


def table_model(table, directions, pids=("p0",), thresholds=None):
    """Model whose first primitive's value indexes a fixed outcome table."""
    lookup = {float(k): np.asarray(v, dtype=float) for k, v in table.items()}

    def fn(rows):
        return np.array([lookup[float(r[0])] for r in rows])

    return MappedModel(fn, directions, pids, thresholds)


# -- heuristic aggregation -------------------------------------------------


def test_heuristic_is_improvement_over_damped_degradation():
    # candidate 1 improves obj0 by 2x and worsens obj1 by 1x: 2 / (1 + 1) = 1
    model = table_model({0: (1.0, 1.0), 1: (3.0, 2.0)}, ("max", "min"))
    heur = compute_heuristics(model, None, np.array([0.0]), *grid_table([np.array([0.0, 1.0])]))
    assert heur[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_non_improving_candidate_falls_back_to_damped_minimum():
    # candidate 1 is the only improver (0.3 / 1.5 = 0.2); candidate 2 improves
    # nothing and three units of degradation damp the fallback to 0.05
    model = table_model(
        {0: (1.0, 1.0), 1: (1.3, 1.5), 2: (1.0, 4.0)}, ("max", "min")
    )
    heur = compute_heuristics(
        model, None, np.array([0.0]), *grid_table([np.array([0.0, 1.0, 2.0])])
    )
    assert heur[0, 0] == pytest.approx(0.2, rel=1e-9)    # current value
    assert heur[0, 1] == pytest.approx(0.2, rel=1e-9)
    assert heur[0, 2] == pytest.approx(0.05, rel=1e-9)


def test_neutral_landscape_scores_uniform_positive():
    model = MappedModel(
        lambda rows: np.ones((rows.shape[0], 2)), ("max", "min")
    )
    heur = compute_heuristics(
        model, None, np.array([0.0]), *grid_table([np.array([0.0, 1.0, 2.0])])
    )
    assert np.allclose(heur[0], 1.0)


def test_heuristic_strictly_positive_on_real_landscape():
    runtime = toy_runtime()
    values, valid = grid_table(runtime.grids)
    heur = compute_heuristics(runtime.model, runtime.env, runtime.current, values, valid)
    assert not valid.all()    # the toy grids differ in size, so some slots are padding
    assert (heur[valid] > 0).all()
    assert (heur[~valid] == 0).all()


# -- selection -------------------------------------------------------------


def moaco_cfg(**overrides):
    return MoacoConfig.from_dict(overrides)


def selection_increments(cdf):
    """Per-slot selection probabilities recovered from cumulative rows."""
    return np.diff(cdf, axis=2, prepend=0.0)


def test_selection_probability_ratio():
    trails = np.array([[[2.0, 1.0]]])
    cdf = selection_cdfs(trails, np.ones((1, 2)), np.ones((1, 2), dtype=bool),
                         moaco_cfg(alpha=1.0, beta=1.0))
    probs = selection_increments(cdf)[0, 0]
    assert probs == pytest.approx([2.0 / 3.0, 1.0 / 3.0], rel=1e-12)
    assert cdf[0, 0, -1] == 1.0


def test_padded_slots_get_no_weight_even_at_zero_exponents():
    # 0 ** 0 == 1, so only the mask keeps the padding out of the draw
    _, valid = grid_table([np.array([1.0, 2.0, 3.0]), np.array([5.0])])
    trails = np.ones((1,) + valid.shape)
    heur = np.where(valid, 1.0, 0.0)
    cdf = selection_cdfs(trails, heur, valid, moaco_cfg(alpha=0.0, beta=0.0))
    probs = selection_increments(cdf)[0]
    assert np.allclose(probs, [[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0]], rtol=1e-12, atol=0.0)


def test_uniform_weights_sample_uniformly():
    # constant outcomes give a flat heuristic, and fresh trails are flat too;
    # an unmeetable threshold keeps every ant sampling for all its retries
    model = RecordingModel(
        lambda rows: np.ones((rows.shape[0], 1)), ("min",), thresholds=(0.0,)
    )
    grids = [np.array([0.0, 1.0, 2.0, 3.0])]
    stats = OptimizeStats()
    cfg = moaco_cfg(max_ant=1000, max_iteration=1, max_run=100)
    optimize(model, None, np.array([0.0]), grids, cfg,
             np.random.default_rng(5), stats=stats)
    drawn = model.constructed_rows(grids)[:, 0]
    assert drawn.size == stats.constructions == 100_000
    counts = np.array([(drawn == v).sum() for v in grids[0]])
    assert np.allclose(counts / drawn.size, 0.25, atol=0.01)


def test_single_value_grid_always_selected():
    model = RecordingModel(
        lambda rows: np.ones((rows.shape[0], 1)), ("min",), thresholds=(0.0,)
    )
    grids = [np.array([4.0])]
    optimize(model, None, np.array([4.0]), grids,
             moaco_cfg(max_ant=10, max_iteration=2, max_run=5),
             np.random.default_rng(0))
    assert (model.constructed_rows(grids) == 4.0).all()


# -- pheromone updates -----------------------------------------------------


def test_deposit_amount_shrinks_with_gap_to_global_best():
    trails = np.ones((1, 1, 2))
    amount = deposit(trails, 0, [0], h_best=2.0, h_global=4.0, maximize=True, rho=0.1)
    assert amount == pytest.approx(0.8, rel=1e-12)


def test_deposit_is_full_when_iteration_matches_global():
    a = deposit(np.ones((1, 1, 2)), 0, [0], 3.0, 3.0, True, 0.1)
    b = deposit(np.ones((1, 1, 2)), 0, [0], 3.0, 3.0, False, 0.1)
    assert a == pytest.approx(1.0)
    assert b == pytest.approx(1.0)


def test_deposit_evaporates_everything_and_rewards_best():
    # two objectives over two primitives: only objective 1's slice changes,
    # and each primitive gains on exactly its rewarded index
    trails = np.ones((2, 2, 3))
    deposit(trails, 1, [0, 2], 2.0, 4.0, maximize=True, rho=0.1)
    assert trails[1] == pytest.approx(np.array([[1.7, 0.9, 0.9], [0.9, 0.9, 1.7]]), rel=1e-12)
    assert (trails[0] == 1.0).all()


def test_bounds_follow_iteration_best_maximizing():
    tau_min, tau_max = trail_bounds(h_best=10.0, maximize=True, rho=0.1, floor_ratio=0.5)
    assert tau_max == pytest.approx(11.1111, abs=5e-4)
    assert tau_min == pytest.approx(5.5556, abs=5e-4)


def test_bounds_follow_iteration_best_minimizing():
    _, tau_max = trail_bounds(h_best=2.0, maximize=False, rho=0.1, floor_ratio=0.5)
    assert tau_max == pytest.approx(0.5556, abs=5e-4)


def test_clamp_pulls_runaway_trails_into_bounds():
    # each objective is clipped into its own bounds
    trails = np.array([[[100.0, 8.0, 0.001]], [[100.0, 8.0, 0.001]]])
    bounds = [trail_bounds(10.0, True, 0.1, 0.5), (1.0, 2.0)]
    tau_min, tau_max = (np.array(b) for b in zip(*bounds))
    clamp(trails, tau_min, tau_max)
    assert trails[0, 0] == pytest.approx([11.1111, 8.0, 5.5556], abs=5e-4)
    assert trails[1, 0] == pytest.approx([2.0, 2.0, 1.0], abs=0.0)


# -- single-ant construction ----------------------------------------------


def single_ant(model, grids, current, max_run, seed):
    """One ant in one iteration; ``stats.constructions`` counts its retries."""
    stats = OptimizeStats()
    archive = optimize(
        model, None, np.asarray(current, dtype=float), grids,
        moaco_cfg(max_ant=1, max_iteration=1, max_run=max_run),
        np.random.default_rng(seed), stats=stats,
    )
    (entry,) = archive.entries()
    return entry, stats


def test_construction_returns_first_satisfying_decision():
    model = table_model(
        {0: (5.0,), 1: (1.0,)}, ("min",), thresholds=(10.0,)
    )
    entry, stats = single_ant(model, [np.array([0.0, 1.0])], [0.0], 30, 1)
    assert entry.violation_count == 0
    assert stats.constructions == 1


def test_construction_exhausts_retries_when_unsatisfiable():
    model = table_model(
        {0: (5.0,), 1: (7.0,)}, ("min",), thresholds=(2.0,)
    )
    entry, stats = single_ant(model, [np.array([0.0, 1.0])], [0.0], 8, 1)
    assert stats.constructions == 8
    assert entry.violation_count > 0
    # fallback is the best try for this ant's own objective
    assert entry.objectives[0] == 5.0


def test_construction_on_singleton_grids_is_forced():
    def fn(rows):
        return np.full((rows.shape[0], 1), 2.0)

    model = MappedModel(fn, ("min",), pids=("p0", "p1"))
    entry, _ = single_ant(
        model, [np.array([3.0]), np.array([7.0])], [3.0, 7.0], 100, 0
    )
    assert entry.decision.assignments == {"p0": 3, "p1": 7}


# -- archive ---------------------------------------------------------------


def test_archive_deduplicates_assignments():
    # the repeat of (3, 2) keeps its first objectives, and rows stay in
    # insertion order rather than sorted
    archive = DecisionArchive(
        ["p0", "p1"], [[3.0, 2.0], [3.0, 2.0], [1.0, 3.0]], [[0.5], [0.7], [0.6]], [0, 2, 1]
    )
    assert len(archive) == 2
    first, second = archive.entries()
    assert first.decision.assignments == {"p0": 3, "p1": 2}
    assert first.objectives == (0.5,) and first.violation_count == 0
    assert second.decision.assignments == {"p0": 1, "p1": 3}
    assert [e.objectives for e in archive] == [(0.5,), (0.6,)]


@pytest.mark.parametrize("bad", [0.5, 2.25, -1e-9, np.nan, np.inf])
def test_archive_rejects_non_integral_rows(bad):
    with pytest.raises(ValueError, match="integral"):
        DecisionArchive(["p0", "p1"], [[3.0, 2.0], [1.0, bad]], [[0.5], [0.6]], [0, 0])


def test_colony_on_float_grids_raises_instead_of_truncating():
    runtime = toy_runtime()
    grids = [np.linspace(0.0, 1.0, 5)] + list(runtime.grids[1:])
    with pytest.raises(ValueError, match="integral"):
        optimize(
            runtime.model, runtime.env, runtime.current, grids,
            moaco_cfg(max_ant=4, max_iteration=1, max_run=1), np.random.default_rng(0),
        )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=40))
def test_archive_keeps_first_occurrences_in_insertion_order(rows):
    archive = DecisionArchive(["p0", "p1"], rows, [[float(i)] for i in range(len(rows))],
                              [0] * len(rows))
    first = {}
    for i, row in enumerate(rows):
        first.setdefault(row, i)
    assert archive.rows.tolist() == [list(row) for row in first]
    assert archive.objectives[:, 0].tolist() == [float(i) for i in first.values()]


# -- full colony runs ------------------------------------------------------


def test_optimize_always_identifies_at_least_one_decision():
    runtime = toy_runtime()
    cfg = moaco_cfg(max_ant=1, max_iteration=1, max_run=3)
    archive = optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids,
        cfg, np.random.default_rng(0),
    )
    assert len(archive) >= 1


def test_optimize_is_seed_reproducible():
    runtime = toy_runtime()
    cfg = moaco_cfg(max_ant=10, max_iteration=3, max_run=10)

    def run(seed):
        archive = optimize(
            runtime.model, runtime.env, runtime.current, runtime.grids,
            cfg, np.random.default_rng(seed),
        )
        return [(e.decision.assignments, e.objectives) for e in archive.entries()]

    assert run(7) == run(7)
    assert run(7) != run(8) or len(run(7)) == 1


def test_optimize_decisions_stay_on_their_grids():
    runtime = toy_runtime()
    cfg = moaco_cfg(max_ant=8, max_iteration=2, max_run=5)
    archive = optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids,
        cfg, np.random.default_rng(3),
    )
    grids = {
        pid: set(int(v) for v in grid)
        for pid, grid in zip(runtime.model.region_pids, runtime.grids)
    }
    for entry in archive:
        for pid, value in entry.decision.assignments.items():
            assert value in grids[pid]


def test_trails_respect_bounds_after_each_iteration():
    runtime = toy_runtime()
    for iterations in (1, 2, 3, 4):
        stats = OptimizeStats()
        cfg = moaco_cfg(max_ant=6, max_iteration=iterations, max_run=4)
        optimize(
            runtime.model, runtime.env, runtime.current, runtime.grids,
            cfg, np.random.default_rng(11), stats=stats,
        )
        for o in range(len(runtime.model.objective_ids)):
            trails = stats.trails[o][stats.valid]
            assert (trails >= stats.tau_min[o] - 1e-12).all()
            assert (trails <= stats.tau_max[o] + 1e-12).all()


def test_global_best_never_worsens_across_iterations():
    runtime = toy_runtime()
    stats = OptimizeStats()
    cfg = moaco_cfg(max_ant=8, max_iteration=6, max_run=5)
    optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids,
        cfg, np.random.default_rng(2), stats=stats,
    )
    signs = runtime.model.direction_signs
    history = stats.global_history
    assert len(history) == stats.iterations
    for previous, current in zip(history, history[1:]):
        for o in range(len(signs)):
            if np.isnan(previous[o]):
                continue
            assert signs[o] * (current[o] - previous[o]) >= -1e-12


def test_selection_probabilities_normalized_after_full_run():
    runtime = toy_runtime()
    stats = OptimizeStats()
    cfg = moaco_cfg(max_ant=6, max_iteration=3, max_run=4)
    optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids,
        cfg, np.random.default_rng(9), stats=stats,
    )
    cdf = selection_cdfs(stats.trails, stats.heuristic, stats.valid, cfg)
    probs = selection_increments(cdf)
    for a, size in enumerate(stats.valid.sum(axis=1)):
        weights = (
            stats.trails[:, a, :size] ** cfg.alpha
            * stats.heuristic[None, a, :size] ** cfg.beta
        )
        expected = weights / weights.sum(axis=1, keepdims=True)
        assert np.allclose(probs[:, a, :size], expected, rtol=1e-9, atol=1e-12)
        assert (probs[:, a, size:] == 0.0).all()
        assert (np.abs(cdf[:, a, size - 1:] - 1.0) < 1e-12).all()


def test_config_rejects_unknown_and_nonpositive_settings():
    with pytest.raises(ConfigError):
        MoacoConfig.from_dict({"alhpa": 2.0})
    runtime = toy_runtime()
    with pytest.raises(ConfigError):
        optimize(
            runtime.model, runtime.env, runtime.current, runtime.grids,
            moaco_cfg(max_ant=0), np.random.default_rng(0),
        )


# -- properties ------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    max_ant=st.integers(1, 6),
    max_iteration=st.integers(1, 3),
    max_run=st.integers(1, 4),
    workload=st.floats(40.0, 200.0),
)
def test_archive_entries_are_on_grid_and_scored_by_the_model(
        seed, max_ant, max_iteration, max_run, workload):
    # lighter workloads leave several decisions feasible at once
    runtime = toy_runtime(workload)
    model = runtime.model
    stats = OptimizeStats()
    cfg = moaco_cfg(max_ant=max_ant, max_iteration=max_iteration, max_run=max_run)
    archive = optimize(
        model, runtime.env, runtime.current, runtime.grids,
        cfg, np.random.default_rng(seed), stats=stats,
    )
    assert stats.constructions <= max_iteration * max_ant * max_run
    assert len(archive) >= 1
    for entry in archive:
        row = model.decision_to_row(entry.decision)
        for value, grid in zip(row, runtime.grids):
            assert value in grid
        vec = model.predict_matrix(row[None, :], runtime.env)[0]
        # the cost column is a matrix product, whose last bit can depend on
        # how many rows share the batch
        assert entry.objectives == pytest.approx(tuple(vec), rel=1e-12, abs=0.0)
        assert entry.violation_count == int(model.violation_counts(vec)[0])


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
    alpha=st.sampled_from((0.0, 1.0, 4.0)),
    beta=st.sampled_from((0.0, 1.0, 4.0)),
    feasible=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_unequal_grids_never_draw_padding(sizes, alpha, beta, feasible, seed):
    # positive grid values, so a drawn padding slot (value 0) is off every grid
    grids = [10.0 * a + np.arange(1.0, g + 1.0) for a, g in enumerate(sizes)]
    model = RecordingModel(
        lambda rows: np.stack([rows.sum(axis=1), (rows ** 2).sum(axis=1)], axis=1),
        ("min", "max"), pids=[f"p{a}" for a in range(len(sizes))],
        thresholds=(1e9, 0.0) if feasible else (0.0, 1e9),
    )
    stats = OptimizeStats()
    cfg = moaco_cfg(alpha=alpha, beta=beta, max_ant=5, max_iteration=3, max_run=4)
    archive = optimize(model, None, np.array([g[0] for g in grids]), grids, cfg,
                       np.random.default_rng(seed), stats=stats)
    drawn = model.constructed_rows(grids)
    assert drawn.shape[0] == stats.constructions
    for a, grid in enumerate(grids):
        assert np.isin(drawn[:, a], grid).all()
        assert np.isin(archive.rows[:, a], grid).all()
    cdf = selection_cdfs(stats.trails, stats.heuristic, stats.valid, cfg)
    for a, size in enumerate(sizes):
        assert (np.abs(cdf[:, a, size - 1:] - 1.0) <= 1e-12).all()
