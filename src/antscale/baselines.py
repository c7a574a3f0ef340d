"""Comparison deciders: reactive rules, weighted-sum searches, and a GA.

The single-objective searches collapse all objectives into one score: each
objective is min-max normalized over the values seen so far in the current
search and the normalized values are summed, so the score of a candidate can
shift as the search widens its view. The genetic optimizer keeps the
objectives separate and returns its final non-dominated front; callers
wanting one decision take the front member with the best normalized sum.
Hill climbing, random search and the genetic optimizer all draw and move
integer index rows over the colony's grid table (:func:`colony.grid_table`);
grid values appear only in the batches sent to the model and in the result.
"""

import time

import numpy as np

from .colony import grid_table
from .domain import (
    SCOPE_SERVICE, SCOPE_VM, Decision, MogaConfig, root_id,
)
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
        # row-major, so each row's sum runs in numpy's pairwise order whatever
        # layout the model's objective matrix has
        vectors = np.ascontiguousarray(np.atleast_2d(vectors))
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


def random_indices(sizes, n: int, rng) -> np.ndarray:
    """``n`` uniform grid-index rows, one ``rng.integers`` call per primitive in order."""
    return np.column_stack([rng.integers(size, size=n) for size in sizes])


def random_search(runtime, budget: int, rng, time_budget_s: float = np.inf) -> Decision:
    """Uniform sampling over the grids; best normalized-sum row wins.

    Normalization bounds come from everything sampled, so scores are settled
    only once sampling ends.
    """
    model = runtime.model
    values, valid = grid_table(runtime.grids)
    sizes, prims = valid.sum(axis=1), np.arange(valid.shape[0])
    span = RunningSpan(model.direction_signs)
    deadline = time.perf_counter() + time_budget_s
    all_idx, all_vecs = [], []
    remaining = max(int(budget), 1)
    while remaining > 0:
        chunk = min(remaining, 4096)
        idx = random_indices(sizes, chunk, rng)
        vecs = model.predict_matrix(values[prims, idx], runtime.env)
        span.update(vecs)
        all_idx.append(idx)
        all_vecs.append(vecs)
        remaining -= chunk
        if time.perf_counter() > deadline:
            break
    best = int(np.argmin(span.score(np.vstack(all_vecs))))
    return _row_decision(runtime, values[prims, np.vstack(all_idx)[best]])


def hill_climb(runtime, budget: int, rng, time_budget_s: float = np.inf) -> Decision:
    """First-improvement climbing over one-notch moves, with random restarts.

    Every climb starts from a uniform-random decision. A climb ends at a
    local optimum of the running-normalized weighted sum; among all climb end
    points the one scoring best under the final normalization is returned.
    """
    model = runtime.model
    values, valid = grid_table(runtime.grids)
    sizes, prims = valid.sum(axis=1), np.arange(valid.shape[0])
    # one-notch moves, primitive by primitive and down before up: argmin takes
    # the first of equal scores, so the order breaks ties
    moves = np.repeat(np.eye(prims.size, dtype=int), 2, axis=0)
    moves[::2] *= -1
    span = RunningSpan(model.direction_signs)
    deadline = time.perf_counter() + time_budget_s
    budget = max(int(budget), 1)
    evals = 0

    def evaluate(idx: np.ndarray) -> np.ndarray:
        nonlocal evals
        vecs = model.predict_matrix(values[prims, idx], runtime.env)
        span.update(vecs)
        evals += idx.shape[0]
        return vecs

    def expired() -> bool:
        return evals >= budget or time.perf_counter() > deadline

    current = random_indices(sizes, 1, rng)[0]
    cur_vec = evaluate(current[None, :])[0]
    ends_idx, ends_vecs = [], []
    while True:
        while not expired():
            neighbours = current + moves
            neighbours = neighbours[((neighbours >= 0) & (neighbours < sizes)).all(axis=1)]
            if not len(neighbours):
                break
            vecs = evaluate(neighbours)
            scores = span.score(vecs)
            cur_score = span.score(cur_vec[None, :])[0]
            best = int(np.argmin(scores))
            if scores[best] < cur_score:
                current = neighbours[best]
                cur_vec = vecs[best]
            else:
                break
        ends_idx.append(current)
        ends_vecs.append(cur_vec)
        if expired():
            break
        current = random_indices(sizes, 1, rng)[0]
        cur_vec = evaluate(current[None, :])[0]
    best = int(np.argmin(span.score(np.array(ends_vecs))))
    return _row_decision(runtime, values[prims, ends_idx[best]])


def _row_decision(runtime, row) -> Decision:
    return Decision(
        {pid: int(v) for pid, v in zip(runtime.region.primitive_ids, row)}
    )


# -- genetic front optimizer -----------------------------------------------


def nondominated_ranks(vectors: np.ndarray, signs) -> tuple:
    """Front index per row (0 = non-dominated) and the dominance matrix.

    The matrix's ``[i, j]`` is True where row ``i`` dominates row ``j``, and
    the fronts are peeled from it by :func:`peel_fronts`. Dominance relates
    two rows alone, so the matrix of a subset of the rows is the matching
    sub-block of this one.
    """
    adjusted = np.atleast_2d(vectors) * np.asarray(signs)[None, :]
    won = wins(adjusted, adjusted)
    dominates = pareto(won, won.T)
    return peel_fronts(dominates), dominates


def peel_fronts(dominates: np.ndarray) -> np.ndarray:
    """Front index per row of a dominance matrix, by iterative peeling."""
    dominators = dominates.sum(axis=0).astype(int)
    n = dominates.shape[0]
    ranks = np.full(n, -1, dtype=int)
    remaining = np.ones(n, dtype=bool)
    front = 0
    while remaining.any():
        members = remaining & (dominators == 0)
        if not members.any():
            # NaN ties with every value, so dominance can run in a cycle
            members = remaining
        ranks[members] = front
        remaining &= ~members
        dominators -= dominates[members].sum(axis=0)
        front += 1
    return ranks


def crowding_distances(vectors: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Per-row crowding distance computed within each front.

    Per objective, a front's rows are sorted stably. The first and last are
    boundary rows; each other row gains the gap between its neighbours over
    the objective's span, when the span is positive. Gains add up in
    objective order. A boundary row is infinite plus the gains of the
    objectives after the last one it bounds, so a NaN gain there (the gap
    next to an infinite value) leaves it NaN. Fronts of one or two rows are
    all boundary.
    """
    vectors = np.atleast_2d(vectors)
    n, m = vectors.shape
    out = np.zeros(n)
    objectives = np.arange(m)
    for front in np.unique(ranks):
        members = np.flatnonzero(ranks == front)
        k = members.size
        if k <= 2:
            out[members] = np.inf
            continue
        block = vectors[members]
        order = np.argsort(block, axis=0, kind="stable")      # (k, m)
        column = block[order, objectives]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            span = column[-1] - column[0]
            inner = (column[2:] - column[:-2]) / span
        gains = np.zeros((m, k))
        gains[objectives, order[1:-1]] = np.where(span > 0, inner, 0.0)
        bounds = np.zeros((m, k), dtype=bool)
        bounds[objectives, order[0]] = True
        bounds[objectives, order[-1]] = True
        # [j, r]: row r bounds no objective from j on
        later = ~np.logical_or.accumulate(bounds[::-1], axis=0)[::-1]
        total = np.where(later, gains, 0.0).sum(axis=0)
        out[members] = np.where(later[0], total, np.inf + total)
    return out


def _crossover(children: np.ndarray, rate: float, rng) -> None:
    """Uniform crossover of consecutive pairs of rows, in place.

    Each pair draws one uniform that decides whether it crosses, and a
    crossing pair then one per gene that decides whether the gene swaps.
    The draws are made in one call, and the generator is set back to where
    drawing pair by pair would have left it.
    """
    n_pairs, n_genes = children.shape[0] // 2, children.shape[1]
    rewind = rng.bit_generator.state
    uniforms = rng.random(n_pairs * (1 + n_genes))
    crossing = np.zeros(n_pairs, dtype=bool)
    starts = np.zeros(n_pairs, dtype=int)
    used = 0
    for pair in range(n_pairs):
        crossing[pair] = uniforms[used] < rate
        starts[pair] = used + 1
        used += 1 + (n_genes if crossing[pair] else 0)
    if used < uniforms.size:
        rng.bit_generator.state = rewind
        rng.random(used)
    swap = np.zeros((n_pairs, n_genes), dtype=bool)
    swap[crossing] = uniforms[starts[crossing, None] + np.arange(n_genes)] < 0.5
    first, second = children[0:2 * n_pairs:2], children[1:2 * n_pairs:2]
    first[...], second[...] = np.where(swap, second, first), np.where(swap, first, second)


def moga_optimize(runtime, cfg: MogaConfig, rng) -> DecisionArchive:
    """Elitist genetic search returning the final non-dominated front.

    Integer chromosomes index each primitive's grid. Standard machinery:
    binary tournaments on (front, crowding), uniform crossover, one-notch
    per-gene mutation, and environmental selection over parents plus
    offspring. The survivors' fronts are peeled from the selection's
    dominance matrix, so only the initial population and each generation's
    parents plus offspring are compared afresh.
    """
    model = runtime.model
    signs = model.direction_signs
    values, valid = grid_table(runtime.grids)
    n_prims, sizes = valid.shape[0], valid.sum(axis=1)
    prims = np.arange(n_prims)
    pop_n = cfg.population
    mut_rate = cfg.mutation_rate if cfg.mutation_rate is not None else 1.0 / n_prims
    deadline = time.perf_counter() + cfg.time_budget_s

    genomes = random_indices(sizes, pop_n, rng)
    vectors = model.predict_matrix(values[prims, genomes], runtime.env)
    ranks, _ = nondominated_ranks(vectors, signs)

    for _ in range(cfg.generations):
        if time.perf_counter() > deadline:
            break
        crowding = crowding_distances(vectors, ranks)
        i, j = rng.integers(pop_n, size=(pop_n, 2)).T
        # the better front wins, then the larger crowding; ties go to i
        i_wins = (ranks[i] < ranks[j]) | ((ranks[i] == ranks[j]) & (crowding[i] >= crowding[j]))
        children = genomes[np.where(i_wins, i, j)]
        _crossover(children, cfg.crossover_rate, rng)
        mutate = rng.random((pop_n, n_prims)) < mut_rate
        steps = rng.integers(0, 2, size=(pop_n, n_prims)) * 2 - 1
        mutated = np.clip(children + steps, 0, (sizes - 1)[None, :])
        children = np.where(mutate, mutated, children)

        child_vectors = model.predict_matrix(values[prims, children], runtime.env)
        combined = np.vstack([genomes, children])
        combined_vecs = np.vstack([vectors, child_vectors])
        combined_ranks, dominates = nondominated_ranks(combined_vecs, signs)
        crowding = crowding_distances(combined_vecs, combined_ranks)
        order = np.lexsort((-crowding, combined_ranks))[:pop_n]
        genomes = combined[order]
        vectors = combined_vecs[order]
        ranks = peel_fronts(dominates[np.ix_(order, order)])

    front = ranks == 0
    return DecisionArchive(
        model.region_pids, values[prims, genomes[front]], vectors[front],
        model.violation_counts(vectors[front]),
    )
