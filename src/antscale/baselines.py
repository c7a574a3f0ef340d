"""Comparison deciders: reactive rules, weighted-sum searches, and a GA.

The single-objective searches collapse all objectives into one score: each
objective is min-max normalized over the values seen so far in the current
search and the normalized values are summed, so the score of a candidate can
shift as the search widens its view. The genetic optimizer keeps the
objectives separate and returns its final non-dominated front; callers
wanting one decision take the front member with the best normalized sum.
"""

import time
from dataclasses import dataclass

import numpy as np

from .colony import grid_table
from .domain import SCOPE_SERVICE, SCOPE_VM, ConfigError, Decision, root_id
from .dominance import DecisionArchive, pareto, wins
from .simulator import TRIGGER_LOW_UTIL, TRIGGER_SLA


class RunningSpan:
    """Per-objective min/max tracker giving direction-aware badness scores."""

    def __init__(self, signs):
        self.signs = np.asarray(signs, dtype=float)
        m = len(self.signs)
        self.lo = np.full(m, np.inf)
        self.hi = np.full(m, -np.inf)

    def update(self, vectors: np.ndarray) -> None:
        vectors = np.atleast_2d(vectors)
        self.lo = np.minimum(self.lo, vectors.min(axis=0))
        self.hi = np.maximum(self.hi, vectors.max(axis=0))

    def score(self, vectors: np.ndarray) -> np.ndarray:
        """Sum of normalized badness; 0 is the best seen per objective."""
        vectors = np.atleast_2d(vectors)
        span = self.hi - self.lo
        with np.errstate(invalid="ignore", divide="ignore"):
            toward_max = (self.hi[None, :] - vectors) / span[None, :]
            toward_min = (vectors - self.lo[None, :]) / span[None, :]
        badness = np.where(self.signs[None, :] > 0, toward_max, toward_min)
        badness = np.where(span[None, :] > 0, badness, 0.0)
        return badness.sum(axis=1)


def weighted_best(vectors: np.ndarray, signs) -> int:
    """Index of the best row under the sum normalized over the set."""
    vectors = np.atleast_2d(vectors)
    span = RunningSpan(signs)
    span.update(vectors)
    return int(np.argmin(span.score(vectors)))


# -- reactive rules --------------------------------------------------------


def rule_decide(runtime, trigger, observed: dict) -> Decision:
    """Step primitives one notch toward relieving the trigger.

    An SLA breach bumps every primitive serving a breached service to the
    next higher grid value; low utilization steps each under-used primitive
    down one. Values already at a bound stay put, and untouched primitives
    keep their live values so the decision still covers the region. Bound
    adaptation can leave a live value outside the current window, so every
    value is first snapped onto today's grid.
    """
    assignments = {
        pid: spec.snap(v)
        for pid, v, spec in zip(
            runtime.region.primitive_ids, runtime.current, runtime.specs
        )
    }
    if trigger == TRIGGER_SLA:
        breached_services = set()
        for obj in runtime.model.objectives:
            value = observed.get(obj.id)
            if value is not None and obj.violated(value):
                breached_services.add(obj.owner)
        # replicas answer for their root's objectives
        breached_vms = {
            svc.vm
            for svc in runtime.model.topology.services
            if root_id(svc.id) in breached_services
        }
        for pid, spec in zip(runtime.region.primitive_ids, runtime.specs):
            serves = (
                (spec.scope == SCOPE_SERVICE and root_id(spec.owner) in breached_services)
                or (spec.scope == SCOPE_VM and spec.owner in breached_vms)
            )
            if serves:
                assignments[pid] = min(assignments[pid] + spec.step, spec.upper_bound)
    elif trigger == TRIGGER_LOW_UTIL:
        for pid, spec in zip(runtime.region.primitive_ids, runtime.specs):
            util = runtime.env.utilizations.get(pid)
            if util is not None and util < spec.util_trigger:
                assignments[pid] = max(assignments[pid] - spec.step, spec.lower_bound)
    return Decision(assignments)


# -- weighted-sum searches -------------------------------------------------


def _random_rows(grids, n: int, rng) -> np.ndarray:
    rows = np.empty((n, len(grids)))
    for a, grid in enumerate(grids):
        rows[:, a] = grid[rng.integers(len(grid), size=n)]
    return rows


def random_search(runtime, budget: int, rng,
                  time_budget_s: float | None = None) -> Decision:
    """Uniform sampling over the grids; best normalized-sum row wins.

    Normalization bounds come from everything sampled, so scores are settled
    only once sampling ends.
    """
    model = runtime.model
    span = RunningSpan(model.direction_signs)
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    all_rows, all_vecs = [], []
    remaining = max(int(budget), 1)
    while remaining > 0:
        chunk = min(remaining, 4096)
        rows = _random_rows(runtime.grids, chunk, rng)
        vecs = model.predict_matrix(rows, runtime.env)
        span.update(vecs)
        all_rows.append(rows)
        all_vecs.append(vecs)
        remaining -= chunk
        if deadline is not None and time.perf_counter() > deadline:
            break
    rows = np.vstack(all_rows)
    best = int(np.argmin(span.score(np.vstack(all_vecs))))
    return _row_decision(runtime, rows[best])


def hill_climb(runtime, budget: int, rng,
               time_budget_s: float | None = None) -> Decision:
    """First-improvement climbing over one-notch moves, with random restarts.

    Every climb starts from a uniform-random decision. A climb ends at a
    local optimum of the running-normalized weighted sum; among all climb end
    points the one scoring best under the final normalization is returned.
    """
    model = runtime.model
    grids = runtime.grids
    span = RunningSpan(model.direction_signs)
    deadline = None if time_budget_s is None else time.perf_counter() + time_budget_s
    budget = max(int(budget), 1)
    evals = 0

    def evaluate(rows: np.ndarray) -> np.ndarray:
        nonlocal evals
        vecs = model.predict_matrix(rows, runtime.env)
        span.update(vecs)
        evals += rows.shape[0]
        return vecs

    def expired() -> bool:
        return (evals >= budget) or (
            deadline is not None and time.perf_counter() > deadline
        )

    current = _random_rows(grids, 1, rng)[0]
    cur_vec = evaluate(current[None, :])[0]
    ends_rows, ends_vecs = [], []
    while True:
        while not expired():
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
        if expired():
            break
        current = _random_rows(grids, 1, rng)[0]
        cur_vec = evaluate(current[None, :])[0]
    best = int(np.argmin(span.score(np.array(ends_vecs))))
    return _row_decision(runtime, ends_rows[best])


def _row_decision(runtime, row) -> Decision:
    return Decision(
        {pid: int(v) for pid, v in zip(runtime.region.primitive_ids, row)}
    )


# -- genetic front optimizer -----------------------------------------------


@dataclass
class MogaConfig:
    population: int = 100
    generations: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float | None = None   # default 1 / number of primitives
    time_budget_s: float | None = None

    @classmethod
    def from_dict(cls, doc: dict) -> "MogaConfig":
        # the plan's per-decision budget sets time_budget_s; a scenario may not
        known = set(cls.__dataclass_fields__) - {"time_budget_s"}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"moga: unknown parameters {sorted(unknown)}")
        cfg = cls(**doc)
        if cfg.population % 2 != 0:
            raise ConfigError(f"moga: population must be even, got {cfg.population}")
        if not 0 <= cfg.crossover_rate <= 1:
            raise ConfigError(f"moga: crossover_rate must lie in [0, 1], got {cfg.crossover_rate}")
        if cfg.mutation_rate is not None and not 0 <= cfg.mutation_rate <= 1:
            raise ConfigError(f"moga: mutation_rate must lie in [0, 1], got {cfg.mutation_rate}")
        return cfg


def nondominated_ranks(vectors: np.ndarray, signs) -> np.ndarray:
    """Front index per row (0 = non-dominated), by iterative peeling."""
    adjusted = np.atleast_2d(vectors) * np.asarray(signs)[None, :]
    won = wins(adjusted, adjusted)
    dominates = pareto(won, won.T)   # [i, j]: i dominates j
    dominators = dominates.sum(axis=0).astype(int)
    n = adjusted.shape[0]
    ranks = np.full(n, -1, dtype=int)
    remaining = np.ones(n, dtype=bool)
    front = 0
    while remaining.any():
        members = remaining & (dominators == 0)
        if not members.any():
            # numerical safety net; should not happen with a strict relation
            members = remaining
        ranks[members] = front
        remaining &= ~members
        dominators -= dominates[members].sum(axis=0)
        front += 1
    return ranks


def crowding_distances(vectors: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per-row crowding distance computed within each front."""
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


def _tournament(ranks, crowding, i, j) -> int:
    if ranks[i] != ranks[j]:
        return i if ranks[i] < ranks[j] else j
    if crowding[i] != crowding[j]:
        return i if crowding[i] > crowding[j] else j
    return i


def moga_optimize(runtime, cfg: MogaConfig, rng) -> DecisionArchive:
    """Elitist genetic search returning the final non-dominated front.

    Integer chromosomes index each primitive's grid. Standard machinery:
    binary tournaments on (front, crowding), uniform crossover, one-notch
    per-gene mutation, and environmental selection over parents plus
    offspring.
    """
    model = runtime.model
    values, valid = grid_table(runtime.grids)
    n_prims, sizes = valid.shape[0], valid.sum(axis=1)
    prims = np.arange(n_prims)
    pop_n = max(int(cfg.population), 2)
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n_prims
    deadline = (
        None if cfg.time_budget_s is None
        else time.perf_counter() + cfg.time_budget_s
    )

    genomes = np.empty((pop_n, n_prims), dtype=int)
    for a in range(n_prims):
        genomes[:, a] = rng.integers(sizes[a], size=pop_n)
    vectors = model.predict_matrix(values[prims, genomes], runtime.env)

    for _ in range(max(int(cfg.generations), 0)):
        if deadline is not None and time.perf_counter() > deadline:
            break
        ranks = nondominated_ranks(vectors, model.direction_signs)
        crowding = crowding_distances(vectors, ranks)
        picks = rng.integers(pop_n, size=(pop_n, 2))
        parents = np.array(
            [_tournament(ranks, crowding, int(i), int(j)) for i, j in picks]
        )
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
        ranks = nondominated_ranks(combined_vecs, model.direction_signs)
        crowding = crowding_distances(combined_vecs, ranks)
        order = np.lexsort((-crowding, ranks))[:pop_n]
        genomes = combined[order]
        vectors = combined_vecs[order]

    front = nondominated_ranks(vectors, model.direction_signs) == 0
    return DecisionArchive(
        model.region_pids, values[prims, genomes[front]], vectors[front],
        model.violation_counts(vectors[front]),
    )
