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

An ant retries until it finds a decision predicted to satisfy every
requirement or its retry budget runs out, in which case its best attempt for
its own objective stands. Most ants use every retry, so construction is
speculative: the still-open ants' next rounds are drawn and scored in
blocks, and the rounds up to a block's first closing round are settled in
one array step that keeps what settling them in order would keep. Each ant
keeps only the uniforms of the round it would keep; once per iteration the
kept rows are drawn again and evaluated in full. A row's bits do not depend
on its batch, so they are those its own round gave.

A block is scored in one of two ways. When some ant may close,
:func:`score_rounds` draws every cell of about ``BLOCK_ROWS`` rows and
evaluates them in full; the first round in which some ant closes ends the
block, and the draws of the rounds after it are given back, so the colony
draws and decides as it would round by round. When
``RegionModel.unattainable`` certifies some requirement unattainable on the
grids, no ant can close, and its retries only pick the round it keeps, the
first holding its best own-objective value. :func:`score_footprints` then
draws each ant's footprint (the primitives its objective reads) alone and
evaluates its objective alone, in blocks of about ``FOOTPRINT_BLOCK_ROWS``
rows that nothing cuts short. Both make the same draws and build the same
archive; which one runs follows from each decision's model, grids and
workloads.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .domain import MoacoConfig
from .dominance import DecisionArchive

EPS = 1e-9
# model rows per speculative block of construction rounds (see optimize)
BLOCK_ROWS = 900
# rows per block of footprint-only construction, where no round is discarded:
# on three seed-1 triple_vm decisions, blocks of 2,700 to 5,400 rows built
# ants in 32-60 ms and blocks of 900 rows in 57-92 ms (2 shared cores)
FOOTPRINT_BLOCK_ROWS = 3000
# buckets per grid of the sampler's guide table; a power of two, so that
# scaling a uniform or a cdf value by it is exact
GUIDE_BUCKETS = 256


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
    # row-major, so each row's sums below run in numpy's pairwise order
    preds = np.ascontiguousarray(model.predict_matrix(rows, env))
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


class GuideSampler:
    """Draws grid indices from selection cdfs through a bucket guide table.

    :meth:`draw` returns ``(cdf[objs] >= u[..., None]).argmax(axis=-1)``
    without building that ``(..., n_prims, G_max)`` comparison. Bucket ``b``
    of a grid covers ``[b/B, (b+1)/B)``, and the table holds per grid
    ``lo[b]`` for ``b = 0..B``, the number of the grid's cdf points below
    ``b/B``. A uniform ``u`` in bucket ``b`` selects an index in
    ``[lo[b], lo[b+1]]``: every point before ``lo[b]`` lies below ``u`` and
    point ``lo[b+1]`` does not. Only a draw whose bucket holds cdf points
    compares ``u`` with them, one point per pass. Scaling by ``B``, a power
    of two, is exact, so every step is an exact comparison and the draws
    equal the comparison's bit for bit.

    That needs a cdf that does not decrease and ends at 1.0, as
    :func:`selection_cdfs` gives for finite weights. A grid whose cdf is not
    so (NaN from overflowing or vanishing weights) gets the span
    ``[0, G_max]`` for every draw, so its draws compare ``u`` with every
    point in turn; a draw that passes them all gets index 0, as ``argmax``
    of an all-false row.
    """

    def __init__(self, cdf: np.ndarray):
        m, n_prims, slots = cdf.shape
        buckets = GUIDE_BUCKETS
        regular = (
            (cdf[:, :, -1] == 1.0) & (np.diff(cdf, axis=2) >= 0.0).all(axis=2)
            & (cdf[:, :, 0] >= 0.0)
        )
        grid = np.arange(m * n_prims).reshape(m, n_prims)
        # floor(cdf * B) lies in [0, B], and a point at 1.0 sits past every
        # bucket. Along a grid the buckets do not decrease, so the last point
        # of each run of equal buckets writes the count of points up to it one
        # place past its bucket, and a running maximum over places 0..B gives
        # lo, all in the table's own narrow dtype
        point_bucket = (np.where(regular[:, :, None], cdf, 0.0) * buckets).astype(np.intp)
        point_bucket = point_bucket.reshape(grid.size, slots)
        run_end = np.ones(point_bucket.shape, dtype=bool)
        np.not_equal(point_bucket[:, 1:], point_bucket[:, :-1], out=run_end[:, :-1])
        grids, points = np.nonzero(run_end)
        marks = np.zeros((grid.size, buckets + 2), dtype=np.min_scalar_type(slots))
        marks[grids, point_bucket[grids, points] + 1] = points + 1
        self._lo = np.maximum.accumulate(marks[:, :-1], axis=1).ravel()
        self._cdf = np.ascontiguousarray(cdf).ravel()
        self._slots = slots
        self._table_base = grid * (buckets + 1)
        self._irregular = None if regular.all() else ~regular

    def draw(self, u: np.ndarray, objs: np.ndarray) -> np.ndarray:
        """Grid indices for uniforms ``u`` of shape ``(..., n_ants, n_prims)``.

        Ant ``a`` draws from objective ``objs[a]``'s distributions.
        """
        return self.draw_at(u, objs[:, None], np.arange(u.shape[-1]))

    def draw_at(self, u: np.ndarray, objs: np.ndarray, prims: np.ndarray) -> np.ndarray:
        """Grid indices for uniforms ``u`` of shape ``(..., n)``.

        Entry ``i`` draws from objective ``objs[i]``'s distribution over
        primitive ``prims[i]``'s grid (``objs`` and ``prims`` broadcast to
        ``u.shape[-n:]``). Each draw depends on its own uniform alone.
        """
        key = self._table_base[objs, prims] + (u * GUIDE_BUCKETS).astype(np.intp)
        lo = self._lo[key]
        hi = self._lo[key + 1]
        if self._irregular is not None:
            irregular = self._irregular[objs, prims]
            lo = np.where(irregular, 0, lo)
            hi = np.where(irregular, self._slots, hi)
        idx = lo.astype(np.intp, order="C")     # so that flat below is a view
        pos = np.flatnonzero(lo != hi)
        if pos.size:
            flat = idx.reshape(-1)
            j = flat[pos]
            hi = hi.reshape(-1)[pos]
            # key // (B + 1) is the draw's grid, whose cdf starts at grid * slots
            base = key.reshape(-1)[pos] // (GUIDE_BUCKETS + 1) * self._slots
            target = u.reshape(-1)[pos]
            while pos.size:
                # ``not >=`` rather than ``<``: a NaN point is passed over
                passed = ~(self._cdf[base + j] >= target)
                j += passed
                flat[pos] = j
                more = passed & (j < hi)
                pos, j, hi, base, target = pos[more], j[more], hi[more], base[more], target[more]
        if self._irregular is not None:
            idx[idx == self._slots] = 0
        return idx


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


def _settle(h: np.ndarray, kept: np.ndarray, kept_h: np.ndarray, ok: np.ndarray) -> tuple:
    """Settle a block of rounds at once, as settling them in order would.

    ``h[r, a]`` is open ant ``a``'s signed value for its own objective in
    round ``r``, ``kept`` and ``kept_h`` what each ant holds before the block,
    and ``ok`` whether it closes in the block's last round. In order, a round
    replaces the kept row when the ant closes in it, holds nothing yet, or
    beats ``kept_h`` strictly; NaN beats nothing and nothing beats NaN.
    Returns ``(slot, pick)``: the ants whose kept row the block replaces,
    and the round each of them keeps.
    """
    best = np.fmax.reduce(h, axis=0)      # the largest non-NaN h, NaN if none
    pick = (h == best).argmax(axis=0)     # its earliest round, else round 0
    # a first round of NaN, once kept, is never replaced
    pick[~kept & np.isnan(h[0])] = 0
    pick[ok] = h.shape[0] - 1
    slot = np.flatnonzero(ok | ~kept | (best > kept_h))
    return slot, pick[slot]


def score_rounds(model, env, values, sampler: GuideSampler, u, objs) -> tuple:
    """``(used, h, ok)`` of full rounds ``u``, scored in one ``predict_matrix`` call:
    the rounds up to the first in which an ant closes (all if none does), the
    open ants' signed values for their objectives ``objs`` in them, and
    whether each closes in the last.
    """
    vecs = model.predict_matrix(values[np.arange(values.shape[0]), sampler.draw(u, objs)], env)
    viols = model.violation_counts(vecs)
    closing = (viols == 0).any(axis=1)
    used = int(closing.argmax()) + 1 if closing.any() else u.shape[0]
    h = vecs[:used, np.arange(objs.size), objs] * model.direction_signs[objs]
    return used, h, viols[used - 1] == 0


def footprint_layout(model, values, ant_obj, rounds: int) -> tuple:
    """Per footprint cell of ants serving ``ant_obj``: ``(cells, objs, prims, slots, rows)``.

    A cell's place in a round's ``(n_ant, n_prims)``, its ant's objective,
    its primitive and that primitive's first slot in ``values.ravel()``; and
    ``rounds`` zeroed rounds of rows, where a primitive outside an ant's
    footprint stays 0.0, which its objective reads at most times a zero price.
    """
    n_prims = values.shape[0]
    ants, prims = np.nonzero(model.footprints[ant_obj])
    return (ants * n_prims + prims, ant_obj[ants], prims, prims * values.shape[1],
            np.zeros((rounds, ant_obj.size, n_prims)))


def score_footprints(model, env, values, sampler: GuideSampler, u, objs, layout) -> np.ndarray:
    """The ants' signed values for their own objectives ``objs`` in each round of ``u``.

    Only the footprints of ``layout`` are drawn, and one ``model.own_objective`` call scores them.
    """
    cells, cell_objs, prims, slots, rows = layout
    n_rounds = u.shape[0]
    block = rows[:n_rounds]
    drawn = sampler.draw_at(u.reshape(n_rounds, -1)[:, cells], cell_objs, prims)
    block.reshape(n_rounds, -1)[:, cells] = values.ravel()[slots + drawn]
    return model.own_objective(block, env, objs) * model.direction_signs[objs]


@dataclass
class OptimizeStats:
    """Phase timings and counters filled in by :func:`optimize`."""

    unattainable: list = field(default_factory=list)   # objective ids certified unattainable
    footprint_only: bool = False  # construction drew and evaluated footprints only
    heuristic_seconds: float = 0.0
    construction_seconds: float = 0.0
    update_seconds: float = 0.0
    iterations: int = 0
    constructions: int = 0
    model_calls: int = 0          # predict_matrix and own_objective calls, heuristic's too
    rows_evaluated: int = 0       # their rows: discarded speculative rounds and kept rows too
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
    ``max_ant >= m`` every objective is optimized every iteration. While
    ``n`` ants are open, a block takes ``max(1, rows // n)`` of their
    rounds, at most the retries left: :func:`score_rounds` scores
    ``BLOCK_ROWS`` rows and at most twice the rounds the previous block
    settled, or, when ``model.unattainable`` flags a requirement,
    :func:`score_footprints` scores ``FOOTPRINT_BLOCK_ROWS`` rows. The
    draws, the archive and the final generator state are those of a
    round-by-round construction. An objective's trails are updated from the
    kept ants whose value for it is not NaN; without any, they only keep
    their bounds. The wall-clock budget is checked between blocks; on
    expiry the iteration's kept rows are evaluated and the archive so far is
    returned (never empty: the first block always completes). ``stats``, if
    given, must be a fresh :class:`OptimizeStats`; the call fills it in place.
    """
    start = time.perf_counter()
    stats = OptimizeStats() if stats is None else stats
    m = len(model.objective_ids)
    signs = model.direction_signs
    values, valid = grid_table(grids)
    n_prims = values.shape[0]
    prims = np.arange(n_prims)
    current_row = np.asarray(current_row, dtype=float)
    n_ant = cfg.max_ant
    ant_obj = np.arange(n_ant) % m
    deadline = start + cfg.time_budget_s

    stats.heuristic = heuristic = compute_heuristics(model, env, current_row, values, valid)
    stats.heuristic_seconds = time.perf_counter() - start
    unattainable = model.unattainable(env, grids)
    stats.unattainable = [oid for oid, u in zip(model.objective_ids, unattainable) if u]
    stats.footprint_only = footprint_only = bool(unattainable.any())
    block_rows = FOOTPRINT_BLOCK_ROWS if footprint_only else BLOCK_ROWS
    if footprint_only:
        layout = footprint_layout(model, values, ant_obj, min(cfg.max_run, max(1, block_rows // n_ant)))
    # compute_heuristics' two calls: one row per grid value, then the live row
    stats.model_calls = 2
    stats.rows_evaluated = int(valid.sum()) + 1
    stats.valid = valid

    stats.trails = trails = np.ones((m,) + valid.shape)
    stats.tau_max = tau_max = np.ones(m)
    stats.tau_min = tau_min = np.full(m, cfg.floor_ratio)
    found = []    # per iteration: settled ants' (indices, objectives, violations)
    global_h = np.full(m, np.nan)     # NaN until an objective has a leader
    reach = cfg.max_run

    for _ in range(cfg.max_iteration):
        t0 = time.perf_counter()
        sampler = GuideSampler(selection_cdfs(trails, heuristic, valid, cfg))

        # each ant keeps the uniforms of its first satisfying round, else of
        # its first round holding its best value for its objective
        kept_u = np.zeros((n_ant, n_prims))
        kept_h = np.full(n_ant, -np.inf)
        kept = np.zeros(n_ant, dtype=bool)
        done = np.zeros(n_ant, dtype=bool)

        rounds_left = cfg.max_run
        while rounds_left and not done.all():
            open_ants = np.flatnonzero(~done)
            n_open = open_ants.size
            objs = ant_obj[open_ants]
            n_rounds = min(rounds_left, reach, max(1, block_rows // n_open))
            rewind = rng.bit_generator.state if n_rounds > 1 else None
            u = rng.random((n_rounds, n_open, n_prims))
            if footprint_only:
                # no ant can close, so every ant stays open
                h = score_footprints(model, env, values, sampler, u, objs, layout)
                used, ok = n_rounds, np.zeros(n_open, dtype=bool)
            else:
                used, h, ok = score_rounds(model, env, values, sampler, u, objs)
                # closings come in runs, so a block that closed early shortens
                # the next, and one that did not lets the next grow
                reach = 2 * used
            slot, pick = _settle(h, kept[open_ants], kept_h[open_ants], ok)
            improved = open_ants[slot]
            kept_u[improved] = u[pick, slot]
            kept_h[improved] = h[pick, slot]
            kept[improved] = True
            done[open_ants[ok]] = True
            stats.model_calls += 1
            stats.rows_evaluated += n_rounds * n_open
            stats.constructions += used * n_open
            rounds_left -= used
            if used < n_rounds:
                # give back the draws of the rounds after the closing one
                rng.bit_generator.state = rewind
                rng.random((used, n_open, n_prims))
            if time.perf_counter() > deadline:
                break
        # the kept rows in full: a row's bits do not depend on its batch, so
        # these are the values its round's full evaluation gave or would give
        kept_idx = sampler.draw(kept_u, ant_obj)
        kept_vecs = np.ascontiguousarray(model.predict_matrix(values[prims, kept_idx], env))
        kept_viol = model.violation_counts(kept_vecs)
        stats.model_calls += 1
        stats.rows_evaluated += n_ant
        stats.construction_seconds += time.perf_counter() - t0

        t0 = time.perf_counter()
        found.append((kept_idx[kept], kept_vecs[kept], kept_viol[kept]))
        signed_h = kept_vecs[np.arange(n_ant), ant_obj] * signs[ant_obj]
        # a NaN value leads no objective, so no trail bound or deposit is NaN
        leads = kept & ~np.isnan(signed_h)
        for o in range(m):
            members = np.flatnonzero((ant_obj == o) & leads)
            if members.size == 0:
                continue
            leader = members[int(np.argmax(signed_h[members]))]
            h_iter = float(kept_vecs[leader, o])
            if np.isnan(global_h[o]) or signs[o] * (h_iter - global_h[o]) > 0:
                global_h[o] = h_iter
            maximize = signs[o] > 0
            tau_min[o], tau_max[o] = trail_bounds(h_iter, maximize, cfg.rho, cfg.floor_ratio)
            deposit(trails, o, kept_idx[leader], h_iter, float(global_h[o]), maximize, cfg.rho)
        clamp(trails, tau_min, tau_max)
        stats.update_seconds += time.perf_counter() - t0
        stats.iterations += 1
        stats.global_history.append(global_h.copy())
        # the clock only moves on, so an expiry inside the loop ends it here too
        if time.perf_counter() > deadline:
            break

    indices, vectors, violations = (np.concatenate(part) for part in zip(*found))
    return DecisionArchive(model.region_pids, values[prims, indices], vectors, violations)
