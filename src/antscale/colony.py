"""Multi-pheromone ant optimizer for region-wide scaling decisions.

One colony serves all of a region's objectives at once: each objective keeps
its own pheromone trails over every primitive's value grid, ants are assigned
objectives round-robin, and a shared aggregated heuristic steers every ant
toward values that help more objectives than they hurt. Trails follow the
max-min scheme: only the iteration's best decision per objective deposits,
and all trails are clamped into adaptive bounds so no value's selection
probability collapses to zero.

The grids are held as one zero-padded ``(n_prims, G_max)`` value table with a
``valid`` mask; trails are one ``(m, n_prims, G_max)`` tensor and the
heuristic one ``(n_prims, G_max)`` table over the same slots. Ants draw grid
indices, and the mask gives every padded slot zero selection weight.

Construction is batched across the ants of an iteration; an ant retries until
it finds a decision predicted to satisfy every requirement or its retry
budget runs out, in which case its best attempt for its own objective stands.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .domain import ConfigError
from .dominance import DecisionArchive

EPS = 1e-9


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        # the plan's per-decision budget sets time_budget_s; a scenario may not
        known = set(cls.__dataclass_fields__) - {"time_budget_s"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"moaco: unknown parameters {sorted(unknown)}")
        cfg = cls(**doc)
        for name in ("max_iteration", "max_ant", "max_run"):
            value = getattr(cfg, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ConfigError(f"moaco: {name} must be a positive integer, got {value!r}")
        for name in ("alpha", "beta"):
            value = getattr(cfg, name)
            if not _is_real(value) or not 0 <= value < math.inf:
                raise ConfigError(f"moaco: {name} must be a finite number >= 0, got {value!r}")
        if not _is_real(cfg.rho) or not 0 < cfg.rho < 1:
            raise ConfigError(f"moaco: rho must lie in (0, 1), got {cfg.rho!r}")
        if not _is_real(cfg.floor_ratio) or not 0 < cfg.floor_ratio <= 1:
            raise ConfigError(f"moaco: floor_ratio must lie in (0, 1], got {cfg.floor_ratio!r}")
        return cfg


def grid_table(grids):
    """The grids as one zero-padded ``(n_prims, G_max)`` table and its valid mask."""
    sizes = np.array([len(g) for g in grids])
    valid = np.arange(sizes.max())[None, :] < sizes[:, None]
    values = np.zeros(valid.shape)
    values[valid] = np.concatenate(grids)
    return values, valid


def compute_heuristics(model, env, current_row: np.ndarray, values: np.ndarray,
                       valid: np.ndarray) -> np.ndarray:
    """Score every single-value change against the live configuration.

    For each candidate value the relative improvements and degradations it
    would cause across all objectives are summed; the heuristic is the
    improvement sum damped by the degradation sum. Candidates improving
    nothing fall back to the smallest non-zero heuristic found, similarly
    damped, so every value keeps a strictly positive selection weight. A
    neutral landscape (no improvement anywhere) falls back to 1.0, which
    makes the selection uniform up to pheromone differences. Returns a table
    shaped like ``values`` that is 0 on padded slots.
    """
    prims, slots = np.nonzero(valid)
    rows = np.repeat(current_row[None, :], prims.size, axis=0)
    rows[np.arange(prims.size), prims] = values[prims, slots]
    preds = model.predict_matrix(rows, env)
    cur = model.predict_matrix(current_row[None, :], env)[0]
    signs = model.direction_signs

    signed = (preds - cur[None, :]) * signs[None, :]
    rel = np.abs(preds - cur[None, :]) / np.maximum(np.abs(cur[None, :]), EPS)
    improvement = np.where(signed > 0, rel, 0.0).sum(axis=1)
    degradation = np.where(signed < 0, rel, 0.0).sum(axis=1)

    raw = np.where(improvement > 0, improvement / (1.0 + degradation), 0.0)
    positive = raw[raw > 0]
    eta_min = float(positive.min()) if positive.size else 1.0
    heuristic = np.zeros(valid.shape)
    heuristic[valid] = np.where(improvement > 0, raw, eta_min / (1.0 + degradation))
    return heuristic


def selection_cdfs(trails: np.ndarray, heuristic: np.ndarray, valid: np.ndarray,
                   cfg: MoacoConfig) -> np.ndarray:
    """``[o, a]``: objective ``o``'s cumulative selection distribution over grid ``a``.

    The weights are trail^alpha * heuristic^beta on valid slots and exactly 0
    on padded ones (``0 ** 0`` is 1, so the mask, not the power, zeroes them).
    Padding follows the valid slots, so each grid's cdf reaches 1 at its last
    value and stays there.
    """
    weights = np.where(valid, trails ** cfg.alpha * heuristic ** cfg.beta, 0.0)
    cdf = np.cumsum(weights, axis=2)
    cdf /= cdf[:, :, -1:]
    return cdf


def deposit(trails: np.ndarray, objective: int, best_indices, h_best: float,
            h_global: float, maximize: bool, rho: float) -> float:
    """Evaporate one objective's trails and reward the iteration-best decision.

    ``best_indices`` holds the rewarded grid index per primitive. The deposit
    shrinks with the gap between the iteration best and the global best
    objective value and is 1.0 when they coincide; values not in the best
    decision only evaporate. Returns the deposited amount.
    """
    trails[objective] *= 1.0 - rho
    if maximize:
        denom = 1.0 + 1.0 / max(h_best, EPS) - 1.0 / max(h_global, EPS)
    else:
        denom = 1.0 + h_best - h_global
    amount = 1.0 / denom if denom > 0 else 1.0
    amount = float(min(max(amount, 0.0), 1.0))
    trails[objective, np.arange(trails.shape[1]), best_indices] += amount
    return amount


def trail_bounds(h_best: float, maximize: bool, rho: float,
                 floor_ratio: float) -> tuple:
    """(floor, ceiling) of one objective's trails from its iteration-best value."""
    if maximize:
        tau_max = 1.0 / ((1.0 / max(h_best, EPS)) * (1.0 - rho))
    else:
        tau_max = 1.0 / (max(h_best, EPS) * (1.0 - rho))
    return floor_ratio * tau_max, tau_max


def clamp(trails: np.ndarray, tau_min: np.ndarray, tau_max: np.ndarray) -> None:
    """Clip each objective's trails into its [tau_min, tau_max], in place."""
    np.clip(trails, tau_min[:, None, None], tau_max[:, None, None], out=trails)


@dataclass
class OptimizeStats:
    """Phase timings and counters filled in by :func:`optimize`."""

    heuristic_seconds: float = 0.0
    construction_seconds: float = 0.0
    update_seconds: float = 0.0
    iterations: int = 0
    constructions: int = 0
    trails: np.ndarray | None = None       # (m, n_prims, G_max)
    tau_min: np.ndarray | None = None      # per-objective trail floor
    tau_max: np.ndarray | None = None      # per-objective trail ceiling
    heuristic: np.ndarray | None = None    # (n_prims, G_max)
    valid: np.ndarray | None = None        # (n_prims, G_max) real grid slots
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
    if cfg.max_ant < 1 or cfg.max_iteration < 1 or cfg.max_run < 1:
        raise ConfigError("moaco: max_ant, max_iteration and max_run must be positive")
    signs = model.direction_signs
    values, valid = grid_table(grids)
    n_prims = values.shape[0]
    prims = np.arange(n_prims)
    current_row = np.asarray(current_row, dtype=float)
    n_ant = cfg.max_ant
    ant_obj = np.arange(n_ant) % m
    deadline = None if cfg.time_budget_s is None else start + cfg.time_budget_s

    heuristic = compute_heuristics(model, env, current_row, values, valid)
    t_heur = time.perf_counter() - start

    trails = np.ones((m,) + valid.shape)
    tau_max = np.ones(m)
    tau_min = np.full(m, cfg.floor_ratio)
    found = []    # per iteration: settled ants' (indices, objectives, violations)
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
        cdf = selection_cdfs(trails, heuristic, valid, cfg)

        # each ant keeps its first satisfying draw, else its best for its objective
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
            # each open ant appears once per round, so masked writes match
            # settling the ants one by one
            ok = viols == 0
            better = ok | ~kept[open_ants] | (h > kept_h[open_ants])
            improved = open_ants[better]
            kept_idx[improved] = idx[better]
            kept_vecs[improved] = vecs[better]
            kept_viol[improved] = viols[better]
            kept_h[improved] = h[better]
            kept[improved] = True
            done[open_ants[ok]] = True
            if deadline is not None and time.perf_counter() > deadline:
                out_of_time = True
                break
        t_construct += time.perf_counter() - t0

        t0 = time.perf_counter()
        found.append((kept_idx[kept], kept_vecs[kept], kept_viol[kept]))
        signed_h = np.where(kept, kept_vecs[np.arange(n_ant), ant_obj] * signs[ant_obj], -np.inf)
        for o in range(m):
            members = np.flatnonzero((ant_obj == o) & kept)
            if members.size == 0:
                continue
            leader = members[int(np.argmax(signed_h[members]))]
            h_iter = float(kept_vecs[leader, o])
            if not have_global[o] or signs[o] * (h_iter - global_h[o]) > 0:
                global_h[o] = h_iter
                have_global[o] = True
            maximize = signs[o] > 0
            tau_min[o], tau_max[o] = trail_bounds(h_iter, maximize, cfg.rho, cfg.floor_ratio)
            deposit(trails, o, kept_idx[leader], h_iter, float(global_h[o]), maximize, cfg.rho)
        clamp(trails, tau_min, tau_max)
        t_update += time.perf_counter() - t0
        iterations += 1
        if stats is not None:
            stats.global_history.append(global_h.copy())
        if deadline is not None and time.perf_counter() > deadline:
            break

    indices, vectors, violations = (np.concatenate(part) for part in zip(*found))
    archive = DecisionArchive(model.region_pids, values[prims, indices], vectors, violations)
    if stats is not None:
        stats.heuristic_seconds = t_heur
        stats.construction_seconds = t_construct
        stats.update_seconds = t_update
        stats.iterations = iterations
        stats.constructions = constructions
        stats.trails = trails
        stats.tau_min = tau_min
        stats.tau_max = tau_max
        stats.heuristic = heuristic
        stats.valid = valid
    return archive
