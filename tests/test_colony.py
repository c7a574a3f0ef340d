"""Colony mechanics: heuristics, selection, pheromone updates, full runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antscale.colony import (
    BLOCK_ROWS,
    GUIDE_BUCKETS,
    GuideSampler,
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
from antscale.domain import ConfigError, scenario_from_dict
from antscale.dominance import DecisionArchive
from antscale.simulator import EnvironmentState, Simulator
from conftest import toy_runtime, triple_doc


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
        # (..., P) rows as RegionModel takes them: fn maps 2-D batches
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        out = self._fn(rows.reshape(-1, rows.shape[-1]))
        return out.reshape(rows.shape[:-1] + out.shape[-1:])

    def violation_counts(self, vectors):
        vectors = np.atleast_2d(vectors)
        if self._thresholds is None:
            return np.zeros(vectors.shape[:-1], dtype=int)
        gaps = (vectors - self._thresholds) * self.direction_signs
        return (gaps < 0).sum(axis=-1)

    def unattainable(self, env, grids):
        # nothing certified, so the colony builds ants in speculative blocks
        return np.zeros(len(self.objective_ids), dtype=bool)


class RecordingModel(MappedModel):
    """MappedModel that keeps every batch of rows it is asked to predict."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def predict_matrix(self, rows, env):
        self.calls.append(np.array(rows, dtype=float))
        return super().predict_matrix(rows, env)

    def constructed_rows(self, grids):
        """Rows sampled by ants: every batch after the heuristic's two calls.

        Blocks of rounds are flattened, and rounds drawn after an ant closed
        in the block, which the colony discards, are included, as are the
        kept rows each iteration evaluates again at its end.
        """
        assert self.calls[0].shape[0] == sum(len(g) for g in grids)
        assert self.calls[1].shape[0] == 1
        return np.vstack([c.reshape(-1, c.shape[-1]) for c in self.calls[2:]])


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
    # the last 1,000 rows are the one iteration's kept rows, drawn again
    drawn = model.constructed_rows(grids)[:-cfg.max_ant, 0]
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
        # a row's bits do not depend on the batch it was evaluated in
        assert entry.objectives == tuple(vec)
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
    assert stats.constructions <= drawn.shape[0]
    assert stats.rows_evaluated == drawn.shape[0] + sum(sizes) + 1
    assert stats.model_calls == len(model.calls)
    for a, grid in enumerate(grids):
        assert np.isin(drawn[:, a], grid).all()
        assert np.isin(archive.rows[:, a], grid).all()
    cdf = selection_cdfs(stats.trails, stats.heuristic, stats.valid, cfg)
    for a, size in enumerate(sizes):
        assert (np.abs(cdf[:, a, size - 1:] - 1.0) <= 1e-12).all()


# -- oracle: round-by-round construction ------------------------------------


def reference_optimize(model, env, current_row, grids, cfg, rng):
    """The colony with one model call per round and the comparison draw.

    This is how :func:`optimize` built ants before it drew and evaluated
    rounds in speculative blocks (no deadline). Returns the archive, the
    number of constructions and the final trails.
    """
    m = len(model.objective_ids)
    signs = model.direction_signs
    values, valid = grid_table(grids)
    n_prims = values.shape[0]
    prims = np.arange(n_prims)
    n_ant = cfg.max_ant
    ant_obj = np.arange(n_ant) % m
    heuristic = compute_heuristics(model, env, current_row, values, valid)
    trails = np.ones((m,) + valid.shape)
    tau_max = np.ones(m)
    tau_min = np.full(m, cfg.floor_ratio)
    found = []
    global_h = np.full(m, np.nan)
    have_global = np.zeros(m, dtype=bool)
    constructions = 0
    for _ in range(cfg.max_iteration):
        cdf = selection_cdfs(trails, heuristic, valid, cfg)
        kept_idx = np.zeros((n_ant, n_prims), dtype=int)
        kept_vecs = np.zeros((n_ant, m))
        kept_viol = np.zeros(n_ant, dtype=int)
        kept_h = np.full(n_ant, -np.inf)
        kept = np.zeros(n_ant, dtype=bool)
        done = np.zeros(n_ant, dtype=bool)
        for _round in range(cfg.max_run):
            open_ants = np.flatnonzero(~done)
            if open_ants.size == 0:
                break
            u = rng.random((open_ants.size, n_prims))
            objs = ant_obj[open_ants]
            idx = (cdf[objs] >= u[:, :, None]).argmax(axis=2)
            vecs = model.predict_matrix(values[prims, idx], env)
            viols = model.violation_counts(vecs)
            constructions += open_ants.size
            h = vecs[np.arange(open_ants.size), objs] * signs[objs]
            ok = viols == 0
            better = ok | ~kept[open_ants] | (h > kept_h[open_ants])
            improved = open_ants[better]
            kept_idx[improved] = idx[better]
            kept_vecs[improved] = vecs[better]
            kept_viol[improved] = viols[better]
            kept_h[improved] = h[better]
            kept[improved] = True
            done[open_ants[ok]] = True
        found.append((kept_idx[kept], kept_vecs[kept], kept_viol[kept]))
        signed_h = np.where(kept, kept_vecs[np.arange(n_ant), ant_obj] * signs[ant_obj], -np.inf)
        for o in range(m):
            # only kept ants whose value is not NaN compete to lead
            members = [a for a in range(n_ant)
                       if ant_obj[a] == o and kept[a] and not np.isnan(signed_h[a])]
            if not members:
                continue
            leader = max(members, key=lambda a: (signed_h[a], -a))
            h_iter = float(kept_vecs[leader, o])
            if not have_global[o] or signs[o] * (h_iter - global_h[o]) > 0:
                global_h[o] = h_iter
                have_global[o] = True
            maximize = signs[o] > 0
            tau_min[o], tau_max[o] = trail_bounds(h_iter, maximize, cfg.rho, cfg.floor_ratio)
            deposit(trails, o, kept_idx[leader], h_iter, float(global_h[o]), maximize, cfg.rho)
        clamp(trails, tau_min, tau_max)
    indices, vectors, violations = (np.concatenate(part) for part in zip(*found))
    archive = DecisionArchive(model.region_pids, values[prims, indices], vectors, violations)
    return archive, constructions, trails


def hashed_model(n_prims, closing, nan_share, inf_share=0.0, levels=None):
    """Three objectives that scatter pseudo-randomly over the rows.

    About ``closing`` of all rows meet every requirement, about ``nan_share``
    of them predict NaN for the first objective, and about ``inf_share``
    predict -inf for the first and, independently, for the second. With
    ``levels``, the first two objectives take one of that many finite
    values, so equal values recur within and across blocks.
    """
    weights = np.array([12.9898, 78.233, 37.719, 4.581])[:n_prims]

    def fn(rows):
        # a row-wise sum, not a matrix product, whose bits follow the row count
        mixed = (rows * weights).sum(axis=1)

        def frac(shift):
            return np.modf(np.abs(np.sin(mixed + shift)) * 43758.5453)[0]

        def level(shift):
            value = frac(shift)
            return value if levels is None else np.floor(value * levels) / levels
        first = np.where(frac(4.0) < inf_share, -np.inf, 10.0 * level(0.0))
        first = np.where(frac(3.0) < nan_share, np.nan, first)
        second = np.where(frac(5.0) < inf_share, -np.inf, 5.0 * level(1.0))
        return np.stack([first, second, frac(2.0)], axis=1)

    return MappedModel(fn, ("min", "max", "min"), pids=[f"p{a}" for a in range(n_prims)],
                       thresholds=(np.inf, -np.inf, closing))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    max_ant=st.one_of(st.integers(1, 300),
                      st.sampled_from((BLOCK_ROWS, BLOCK_ROWS + 1, BLOCK_ROWS + 37))),
    max_run=st.integers(1, 12),
    max_iteration=st.integers(1, 3),
    closing=st.sampled_from((0.0, 0.001, 0.01, 0.1, 1.0)),
    nan_share=st.sampled_from((0.0, 0.0, 0.05)),
    inf_share=st.sampled_from((0.0, 0.0, 0.05)),
    levels=st.sampled_from((None, 2, 5)),
)
def test_block_construction_matches_round_by_round(
        seed, sizes, max_ant, max_run, max_iteration, closing, nan_share, inf_share, levels):
    # rounds close at varied points of a block: none, some or every ant
    # closes, on grids of one value too; equal, infinite and NaN objective
    # values test how a block's rounds are settled
    grids = [10.0 * a + np.arange(1.0, g + 1.0) for a, g in enumerate(sizes)]
    model = hashed_model(len(grids), closing, nan_share, inf_share, levels)
    current = np.array([g[0] for g in grids])
    cfg = moaco_cfg(max_ant=max_ant, max_run=max_run, max_iteration=max_iteration)
    rng = np.random.default_rng(seed)
    stats = OptimizeStats()
    archive = optimize(model, None, current, grids, cfg, rng, stats=stats)
    oracle_rng = np.random.default_rng(seed)
    expected, constructions, trails = reference_optimize(
        model, None, current, grids, cfg, oracle_rng)
    assert np.array_equal(archive.rows, expected.rows)
    assert np.array_equal(bits(archive.objectives), bits(expected.objectives))
    assert np.array_equal(archive.violations, expected.violations)
    assert stats.constructions == constructions
    assert np.array_equal(bits(stats.trails), bits(trails))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    # a NaN objective value leads no trail update
    assert np.isfinite(stats.trails).all()


def test_block_cap_carries_across_iterations():
    # ants close in the first rounds of every iteration here, so a block
    # sized anew each iteration would evaluate 2,984 rows for 292 constructions;
    # 1,504 rows are the heuristic's, the blocks' and 3 x 40 kept rows
    runtime = toy_runtime(130.0)
    cfg = moaco_cfg(max_ant=40, max_run=30, max_iteration=3)
    rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    stats = OptimizeStats()
    archive = optimize(runtime.model, runtime.env, runtime.current, runtime.grids, cfg, rng,
                       stats=stats)
    expected, constructions, _ = reference_optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids, cfg, oracle_rng)
    assert stats.constructions == constructions == 292
    assert stats.rows_evaluated == 1504
    assert np.array_equal(archive.rows, expected.rows)
    assert np.array_equal(bits(archive.objectives), bits(expected.objectives))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_block_construction_matches_round_by_round_on_a_live_region():
    # at this workload some ants meet both requirements within their retries
    runtime = toy_runtime(136.0)
    cfg = moaco_cfg(max_ant=40, max_run=30, max_iteration=3)
    rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
    stats = OptimizeStats()
    archive = optimize(runtime.model, runtime.env, runtime.current, runtime.grids, cfg, rng,
                       stats=stats)
    expected, constructions, trails = reference_optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids, cfg, oracle_rng)
    assert (archive.violations == 0).any() and (archive.violations > 0).any()
    assert np.array_equal(archive.rows, expected.rows)
    assert np.array_equal(bits(archive.objectives), bits(expected.objectives))
    assert stats.constructions == constructions
    assert stats.rows_evaluated > constructions     # some speculative rounds were discarded
    assert np.array_equal(bits(stats.trails), bits(trails))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def triple_runtime(loads):
    """Decision-time view of triple_vm's region under the given workloads."""
    sim = Simulator(scenario_from_dict(triple_doc()), {s: [w] * 4 for s, w in loads.items()},
                    seed=0)
    return sim.region_runtime("r1", EnvironmentState(0, dict(loads), dict(sim.config), {}))


def recorded_shapes(model):
    """Record the shape of every batch the model predicts in full."""
    shapes = []
    predict = model.predict_matrix

    def recording(values, env):
        shapes.append(np.shape(values))
        return predict(values, env)

    model.predict_matrix = recording
    return shapes


def test_footprint_construction_matches_round_by_round():
    # at 40 req/min no service reaches its throughput threshold, so no ant
    # can close, and each iteration draws and evaluates footprints only:
    # two blocks of rounds (20 and 10 at 150 ants), then the kept rows
    runtime = triple_runtime({f"s{i}": 40.0 for i in range(1, 7)})
    cfg = moaco_cfg(max_ant=150, max_run=30, max_iteration=2)
    rng, oracle_rng = np.random.default_rng(8), np.random.default_rng(8)
    stats = OptimizeStats()
    shapes = recorded_shapes(runtime.model)
    archive = optimize(runtime.model, runtime.env, runtime.current, runtime.grids, cfg, rng,
                       stats=stats)
    built = shapes[2:]
    expected, constructions, trails = reference_optimize(
        runtime.model, runtime.env, runtime.current, runtime.grids, cfg, oracle_rng)
    assert stats.footprint_only
    assert stats.unattainable == [f"s{i}.tp" for i in range(1, 7)]
    assert built == [(150, 12)] * 2
    assert stats.model_calls == 2 + 2 * 3
    # the heuristic's rows, then per iteration 30 rounds of own objectives and the kept rows
    assert stats.rows_evaluated == sum(len(g) for g in runtime.grids) + 1 + 2 * (30 * 150 + 150)
    assert np.array_equal(archive.rows, expected.rows)
    assert np.array_equal(bits(archive.objectives), bits(expected.objectives))
    assert np.array_equal(archive.violations, expected.violations)
    assert (archive.violations > 0).all()
    assert stats.constructions == constructions == 2 * 150 * 30
    assert np.array_equal(bits(stats.trails), bits(trails))
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_uncertified_decisions_build_ants_in_blocks():
    # at these loads every requirement is within some decision's reach, so
    # ants may close and rounds are evaluated in full, in stacked blocks
    runtime = triple_runtime({"s1": 95.0, "s2": 85.0, "s3": 68.0, "s4": 72.0, "s5": 75.0,
                              "s6": 85.0})
    assert not runtime.model.unattainable(runtime.env, runtime.grids).any()
    stats = OptimizeStats()
    shapes = recorded_shapes(runtime.model)
    optimize(runtime.model, runtime.env, runtime.current, runtime.grids,
             moaco_cfg(max_ant=150, max_run=12, max_iteration=1), np.random.default_rng(3),
             stats=stats)
    assert not stats.footprint_only and stats.unattainable == []
    blocks, kept_rows = shapes[2:-1], shapes[-1]
    assert (6, 150, 12) in blocks
    assert kept_rows == (150, 12)
    assert stats.model_calls == len(shapes)
    assert stats.iterations == 1
    # the heuristic's rows, the blocks' rounds, discarded ones too, and one
    # iteration's kept rows
    assert stats.rows_evaluated == (
        sum(len(g) for g in runtime.grids) + 1
        + sum(int(np.prod(shape[:-1])) for shape in blocks) + stats.iterations * 150
    )


# the loads of a footprint decision and of a block decision above
EXPIRY_LOADS = {
    "footprint": {f"s{i}": 40.0 for i in range(1, 7)},
    "blocks": {"s1": 95.0, "s2": 85.0, "s3": 68.0, "s4": 72.0, "s5": 75.0, "s6": 85.0},
}


@pytest.mark.parametrize("path", sorted(EXPIRY_LOADS))
def test_expired_budget_ends_after_one_iteration(path):
    # a zero budget has expired by the first block, so the first iteration
    # evaluates its kept rows and the colony stops
    runtime = triple_runtime(EXPIRY_LOADS[path])
    model = runtime.model
    cfg = MoacoConfig(max_ant=150, max_run=30, max_iteration=3, time_budget_s=0.0)
    stats = OptimizeStats()
    archive = optimize(model, runtime.env, runtime.current, runtime.grids, cfg,
                       np.random.default_rng(2), stats=stats)
    assert stats.footprint_only == (path == "footprint")
    assert stats.iterations == 1
    assert stats.model_calls == 2 + 2       # the heuristic's, one block's, the kept rows'
    assert len(archive) > 0
    vectors = model.predict_matrix(archive.rows, runtime.env)
    assert np.array_equal(bits(archive.objectives), bits(vectors))
    assert np.array_equal(archive.violations, model.violation_counts(vectors))


# -- guide-table sampler ----------------------------------------------------


def cdf_row(draw, slots):
    """A non-decreasing cdf row ending at 1.0, its points often on bucket edges."""
    buckets = GUIDE_BUCKETS
    edge = st.integers(0, buckets).map(lambda b: b / buckets)
    cluster = draw(st.integers(0, buckets - 1))
    inside = st.floats(0.0, 1.0, exclude_max=True).map(lambda f: (cluster + f) / buckets)
    point = st.one_of(edge, inside, st.floats(0.0, 1.0))
    points = sorted(draw(st.lists(point, min_size=slots - 1, max_size=slots - 1)))
    return points + [1.0]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_guide_sampler_matches_the_comparison_argmax(data):
    draw = data.draw
    m, n_prims, slots = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 9))
    cdf = np.empty((m, n_prims, slots))
    for o in range(m):
        for p in range(n_prims):
            kind = draw(st.sampled_from(("regular", "regular", "regular", "nan", "overflow")))
            if kind == "regular":
                cdf[o, p] = cdf_row(draw, slots)
            elif kind == "nan":                      # all weights vanished: 0 / 0
                cdf[o, p] = np.nan
            else:                                    # an infinite weight: x / inf, inf / inf
                finite = draw(st.integers(0, slots - 1))
                cdf[o, p, :finite] = 0.0
                cdf[o, p, finite:] = np.nan
    n_ants, n_rounds = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    objs = np.array(draw(st.lists(st.integers(0, m - 1), min_size=n_ants, max_size=n_ants)))
    points = [float(c) for c in cdf.ravel() if 0.0 <= c < 1.0]
    edge = st.integers(0, GUIDE_BUCKETS - 1).map(lambda b: b / GUIDE_BUCKETS)
    choices = [edge, st.floats(0.0, 1.0, exclude_max=True)]
    if points:
        on_point = st.sampled_from(points)
        choices += [on_point, on_point.map(lambda c: float(np.nextafter(c, 0.0)))]
    size = n_rounds * n_ants * n_prims
    u = np.array(draw(st.lists(st.one_of(*choices), min_size=size, max_size=size)))
    u = u.reshape(n_rounds, n_ants, n_prims)
    expected = (cdf[objs] >= u[..., None]).argmax(axis=-1)
    assert np.array_equal(GuideSampler(cdf).draw(u, objs), expected)


def test_guide_sampler_with_many_points_in_one_bucket():
    # all of a grid's points share bucket 0 except the closing 1.0
    slots = 40
    cdf = np.append(np.linspace(0.0, 0.99 / GUIDE_BUCKETS, slots - 1), 1.0)[None, None, :]
    u = np.random.default_rng(3).random((2, 500, 1)) / GUIDE_BUCKETS
    u[0, :slots - 1, 0] = cdf[0, 0, :-1]               # exactly on each point
    objs = np.zeros(500, dtype=int)
    expected = (cdf[objs] >= u[..., None]).argmax(axis=-1)
    assert np.array_equal(GuideSampler(cdf).draw(u, objs), expected)
