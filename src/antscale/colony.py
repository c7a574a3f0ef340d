"""Multi-pheromone ant optimizer for region-wide scaling decisions.

One colony serves all of a region's objectives at once: each objective keeps
its own pheromone trails over every primitive's value grid, ants are assigned
objectives round-robin, and a shared aggregated heuristic steers every ant
toward values that help more objectives than they hurt. Trails follow the
max-min scheme: only the iteration's best decision per objective deposits,
and all trails are clamped into adaptive bounds so no value's selection
probability collapses to zero.

Construction is batched across the ants of an iteration; an ant retries until
it finds a decision predicted to satisfy every requirement or its retry
budget runs out, in which case its best attempt for its own objective stands.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .domain import ConfigError, Decision
from .dominance import ScoredDecision

EPS = 1e-9


@dataclass
class MoacoConfig:
    """Tuning knobs for one optimizer invocation."""

    alpha: float = 4.0            # pheromone exponent in value selection
    beta: float = 1.0             # heuristic exponent
    rho: float = 0.1              # evaporation rate
    floor_ratio: float = 0.5      # trail floor as a fraction of the ceiling
    max_iteration: int = 5
    max_ant: int = 150
    max_run: int = 100            # construction retries per ant
    time_budget_s: float | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "MoacoConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"moaco: unknown parameters {sorted(unknown)}")
        return cls(**doc)


class PheromoneField:
    """Per-objective trails over each primitive's grid plus clamp bounds.

    Trails start at 1.0 with bounds [floor_ratio, 1.0]; bounds move each
    iteration from the iteration-best objective value.
    """

    def __init__(self, n_objectives: int, grid_sizes, initial: float = 1.0,
                 floor_ratio: float = 0.5):
        self.trails = [np.full((n_objectives, g), float(initial)) for g in grid_sizes]
        self.tau_max = np.full(n_objectives, float(initial))
        self.tau_min = np.full(n_objectives, floor_ratio * float(initial))
        self.floor_ratio = floor_ratio

    def clamp(self, objective: int) -> None:
        lo, hi = self.tau_min[objective], self.tau_max[objective]
        for t in self.trails:
            np.clip(t[objective], lo, hi, out=t[objective])


@dataclass
class HeuristicField:
    """Aggregated desirability per (primitive, grid value); strictly positive."""

    values: list = field(default_factory=list)


def compute_heuristics(model, env, current_row: np.ndarray, grids) -> HeuristicField:
    """Score every single-value change against the live configuration.

    For each candidate value the relative improvements and degradations it
    would cause across all objectives are summed; the heuristic is the
    improvement sum damped by the degradation sum. Candidates improving
    nothing fall back to the smallest non-zero heuristic found, similarly
    damped, so every value keeps a strictly positive selection weight. A
    neutral landscape (no improvement anywhere) falls back to 1.0, which
    makes the selection uniform up to pheromone differences.
    """
    rows = []
    for a, grid in enumerate(grids):
        for x in grid:
            row = current_row.copy()
            row[a] = x
            rows.append(row)
    preds = model.predict_matrix(np.array(rows), env)
    cur = model.predict_matrix(current_row[None, :], env)[0]
    signs = model.direction_signs

    signed = (preds - cur[None, :]) * signs[None, :]
    rel = np.abs(preds - cur[None, :]) / np.maximum(np.abs(cur[None, :]), EPS)
    improvement = np.where(signed > 0, rel, 0.0).sum(axis=1)
    degradation = np.where(signed < 0, rel, 0.0).sum(axis=1)

    raw = np.where(improvement > 0, improvement / (1.0 + degradation), 0.0)
    positive = raw[raw > 0]
    eta_min = float(positive.min()) if positive.size else 1.0
    eta = np.where(improvement > 0, raw, eta_min / (1.0 + degradation))

    out, offset = [], 0
    for grid in grids:
        out.append(eta[offset:offset + len(grid)].copy())
        offset += len(grid)
    return HeuristicField(out)


def selection_cdfs(pheromone: PheromoneField, heuristic: HeuristicField,
                   cfg: MoacoConfig) -> list:
    """Per primitive, one cumulative selection distribution per objective.

    Row ``o`` of entry ``a`` is the cdf over primitive ``a``'s grid of the
    weights trail^alpha * heuristic^beta under objective ``o``'s trails.
    """
    cdfs = []
    for trails, eta in zip(pheromone.trails, heuristic.values):
        w = trails ** cfg.alpha * (eta ** cfg.beta)[None, :]
        cdf = np.cumsum(w, axis=1)
        cdf /= cdf[:, -1:]
        cdfs.append(cdf)
    return cdfs


def deposit(pheromone: PheromoneField, objective: int, best_indices, h_best: float,
            h_global: float, maximize: bool, rho: float) -> float:
    """Evaporate one objective's trails and reward the iteration-best decision.

    The deposit shrinks with the gap between the iteration best and the
    global best objective value and is 1.0 when they coincide; values not in
    the best decision only evaporate. Returns the deposited amount.
    """
    for trails in pheromone.trails:
        trails[objective] *= 1.0 - rho
    if maximize:
        denom = 1.0 + 1.0 / max(h_best, EPS) - 1.0 / max(h_global, EPS)
    else:
        denom = 1.0 + h_best - h_global
    amount = 1.0 / denom if denom > 0 else 1.0
    amount = float(min(max(amount, 0.0), 1.0))
    for primitive, idx in enumerate(best_indices):
        pheromone.trails[primitive][objective, idx] += amount
    return amount


def update_bounds(pheromone: PheromoneField, objective: int, h_best: float,
                  maximize: bool, rho: float, floor_ratio: float | None = None) -> None:
    """Refresh the trail ceiling and floor from the iteration-best value."""
    if floor_ratio is None:
        floor_ratio = pheromone.floor_ratio
    if maximize:
        tau_max = 1.0 / ((1.0 / max(h_best, EPS)) * (1.0 - rho))
    else:
        tau_max = 1.0 / (max(h_best, EPS) * (1.0 - rho))
    pheromone.tau_max[objective] = tau_max
    pheromone.tau_min[objective] = floor_ratio * tau_max


class DecisionArchive:
    """Insertion-ordered, assignment-deduplicated set of scored decisions."""

    def __init__(self, primitive_ids):
        self.primitive_ids = list(primitive_ids)
        self._entries = {}

    def add(self, row, objectives, violation_count: int) -> bool:
        key = tuple(int(v) for v in row)
        if key in self._entries:
            return False
        decision = Decision(dict(zip(self.primitive_ids, key)))
        self._entries[key] = ScoredDecision(
            decision, tuple(float(v) for v in objectives), int(violation_count)
        )
        return True

    def entries(self) -> list:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries.values())


@dataclass
class OptimizeStats:
    """Phase timings and counters filled in by :func:`optimize`."""

    heuristic_seconds: float = 0.0
    construction_seconds: float = 0.0
    update_seconds: float = 0.0
    iterations: int = 0
    constructions: int = 0
    pheromone: PheromoneField | None = None
    heuristic: HeuristicField | None = None
    global_history: list = field(default_factory=list)   # per-iteration global bests


def optimize(model, env, current_row, grids, cfg: MoacoConfig, rng,
             stats: OptimizeStats | None = None) -> DecisionArchive:
    """Run the full colony and return every identified decision.

    Ants are assigned objectives round-robin within each iteration, so with
    ``max_ant >= m`` every objective is optimized every iteration. Retries are
    batched per round across all still-unsatisfied ants to keep model calls
    vectorized. The wall-clock budget is checked between rounds; on expiry
    the archive accumulated so far is returned (never empty, since the first
    round of the first iteration always completes).
    """
    start = time.perf_counter()
    m = len(model.objective_ids)
    n_prims = len(grids)
    if cfg.max_ant < 1 or cfg.max_iteration < 1 or cfg.max_run < 1:
        raise ConfigError("moaco: max_ant, max_iteration and max_run must be positive")
    signs = model.direction_signs
    grids = [np.asarray(g, dtype=float) for g in grids]
    current_row = np.asarray(current_row, dtype=float)
    ant_obj = np.arange(cfg.max_ant) % m
    deadline = None if cfg.time_budget_s is None else start + cfg.time_budget_s

    heur = compute_heuristics(model, env, current_row, grids)
    t_heur = time.perf_counter() - start

    pher = PheromoneField(m, [len(g) for g in grids], 1.0, cfg.floor_ratio)
    archive = DecisionArchive(model.region_pids)
    global_h = np.full(m, np.nan)
    have_global = np.zeros(m, dtype=bool)

    t_construct = 0.0
    t_update = 0.0
    iterations = 0
    constructions = 0
    out_of_time = False

    for _ in range(cfg.max_iteration):
        if out_of_time:
            break
        t0 = time.perf_counter()
        cdfs = selection_cdfs(pher, heur, cfg)

        n_ant = cfg.max_ant
        frozen_rows = np.zeros((n_ant, n_prims))
        frozen_vecs = np.zeros((n_ant, m))
        frozen_viol = np.zeros(n_ant, dtype=int)
        done = np.zeros(n_ant, dtype=bool)
        best_rows = np.zeros((n_ant, n_prims))
        best_vecs = np.zeros((n_ant, m))
        best_viol = np.zeros(n_ant, dtype=int)
        best_h = np.full(n_ant, -np.inf)
        has_best = np.zeros(n_ant, dtype=bool)

        for _round in range(cfg.max_run):
            open_ants = np.flatnonzero(~done)
            if open_ants.size == 0:
                break
            u = rng.random((open_ants.size, n_prims))
            rows = np.empty((open_ants.size, n_prims))
            objs = ant_obj[open_ants]
            for a in range(n_prims):
                row_cdfs = cdfs[a][objs]
                pick = (row_cdfs >= u[:, a:a + 1]).argmax(axis=1)
                rows[:, a] = grids[a][pick]
            vecs = model.predict_matrix(rows, env)
            viols = model.violation_counts(vecs)
            constructions += open_ants.size
            h = vecs[np.arange(open_ants.size), objs] * signs[objs]
            # each open ant appears once per round, so masked writes match
            # settling the ants one by one
            ok = viols == 0
            satisfied = open_ants[ok]
            done[satisfied] = True
            frozen_rows[satisfied] = rows[ok]
            frozen_vecs[satisfied] = vecs[ok]
            better = ~ok & (~has_best[open_ants] | (h > best_h[open_ants]))
            improved = open_ants[better]
            best_rows[improved] = rows[better]
            best_vecs[improved] = vecs[better]
            best_viol[improved] = viols[better]
            best_h[improved] = h[better]
            has_best[improved] = True
            if deadline is not None and time.perf_counter() > deadline:
                out_of_time = True
                break

        fallback = ~done & has_best
        frozen_rows[fallback] = best_rows[fallback]
        frozen_vecs[fallback] = best_vecs[fallback]
        frozen_viol[fallback] = best_viol[fallback]
        settled = done | fallback
        t_construct += time.perf_counter() - t0

        t0 = time.perf_counter()
        for ant in range(n_ant):
            if settled[ant]:
                archive.add(frozen_rows[ant], frozen_vecs[ant], frozen_viol[ant])

        signed_h = frozen_vecs[np.arange(n_ant), ant_obj] * signs[ant_obj]
        signed_h[~settled] = -np.inf
        for o in range(m):
            members = np.flatnonzero((ant_obj == o) & settled)
            if members.size == 0:
                continue
            leader = members[int(np.argmax(signed_h[members]))]
            h_iter = float(frozen_vecs[leader, o])
            if not have_global[o] or signs[o] * (h_iter - global_h[o]) > 0:
                global_h[o] = h_iter
                have_global[o] = True
            maximize = signs[o] > 0
            update_bounds(pher, o, h_iter, maximize, cfg.rho)
            indices = [
                int(np.searchsorted(grids[a], frozen_rows[leader, a]))
                for a in range(n_prims)
            ]
            deposit(pher, o, indices, h_iter, float(global_h[o]), maximize, cfg.rho)
            pher.clamp(o)
        t_update += time.perf_counter() - t0
        iterations += 1
        if stats is not None:
            stats.global_history.append(global_h.copy())
        if deadline is not None and time.perf_counter() > deadline:
            break

    if stats is not None:
        stats.heuristic_seconds = t_heur
        stats.construction_seconds = t_construct
        stats.update_seconds = t_update
        stats.iterations = iterations
        stats.constructions = constructions
        stats.pheromone = pher
        stats.heuristic = heur
    return archive
