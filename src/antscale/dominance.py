"""Choosing one decision out of many mutually non-comparable candidates.

The selection narrows a candidate set in stages: fewest requirement
violations, then least dominated in the classic Pareto sense, then least
dominated under a switching-count relation that still discriminates when
Pareto comparisons all tie, then closest to the per-objective best corner of
the surviving set, and finally a seeded uniform draw among exact ties.

Both dominance relations are predicates on one numpy kernel, ``wins``, which
counts per pair of sign-adjusted rows the objectives one row beats the other
on. Flipping a sign is exact, so each count is the sign test a pairwise loop
makes (NaN and equal values tie) and the ranks match such a loop exactly. The
distance stage stays a plain-float loop: its sequential sum decides exact ties.
"""

import math
from dataclasses import dataclass

import numpy as np

# rows ranked per kernel pass: each count matrix is at most ROW_BLOCK x n, so
# the memory a ranking holds grows linearly with the archive, not squared
ROW_BLOCK = 128


@dataclass(frozen=True)
class ScoredDecision:
    """A candidate with its predicted objective vector and violation count."""

    decision: object
    objectives: tuple
    violation_count: int


def wins(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j]: the number of objectives on which ``a[i]`` beats ``b[j]``.

    Both arrays are sign-adjusted rows, so larger is better everywhere.
    """
    counts = np.zeros((a.shape[0], b.shape[0]), dtype=np.min_scalar_type(a.shape[1]))
    for k in range(a.shape[1]):
        counts += a[:, k, None] > b[None, :, k]
    return counts


def pareto(won: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """Better somewhere and worse nowhere; equal rows dominate neither way."""
    return (won > 0) & (lost == 0)


def nash(won: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """Switching away loses more objectives than it gains.

    Irreflexive and antisymmetric but not transitive, so it is only used for
    ranking, never for building a consistent order.
    """
    return won > lost


def dominance_rank(vectors, signs, relation) -> list:
    """Rank each vector by how many of the others dominate it (0 = undominated).

    ``relation`` is ``pareto`` or ``nash``; ``signs`` holds +1 per objective
    where larger is better and -1 where smaller is.
    """
    rows = np.array(vectors, dtype=float) * signs
    ranks = np.empty(len(rows), dtype=int)
    for start in range(0, len(rows), ROW_BLOCK):
        block = rows[start:start + ROW_BLOCK]
        # [j, i]: row j dominates block row i; no row dominates itself
        dominated = relation(wins(rows, block), wins(block, rows).T)
        ranks[start:start + ROW_BLOCK] = dominated.sum(axis=0)
    return ranks.tolist()


def distance_select(candidates, signs) -> list:
    """Indices of the candidates closest to the surviving set's best corner.

    The reference point takes the best value per objective over the set,
    coordinates are normalized by the set's per-objective spread, and a
    zero-spread coordinate contributes nothing. All candidates attaining the
    minimal distance are returned, in input order.
    """
    if not candidates:
        raise ValueError("empty candidate set")
    m = len(signs)
    best, worst = [], []
    for o in range(m):
        column = [c[o] for c in candidates]
        if signs[o] > 0:
            best.append(max(column))
            worst.append(min(column))
        else:
            best.append(min(column))
            worst.append(max(column))
    distances = []
    for c in candidates:
        acc = 0.0
        for o in range(m):
            span = abs(worst[o] - best[o])
            if span > 0.0:
                coord = (c[o] - best[o]) / span
                acc += coord * coord
        distances.append(math.sqrt(acc))
    lowest = min(distances)
    return [i for i, d in enumerate(distances) if d == lowest]


def compromise_survivors(scored, signs) -> list:
    """Run the deterministic narrowing stages and return surviving entries.

    Args:
        scored: sequence of ScoredDecision.
        signs: +1 per objective where larger is better, -1 where smaller is.

    Returns:
        The subset (input order preserved) left after violation filtering,
        both dominance rankings and the distance stage.
    """
    if not scored:
        raise ValueError("nothing to select from")
    fewest = min(s.violation_count for s in scored)
    pool = [s for s in scored if s.violation_count == fewest]

    for relation in (pareto, nash):
        ranks = dominance_rank([s.objectives for s in pool], signs, relation)
        lowest = min(ranks)
        pool = [s for s, r in zip(pool, ranks) if r == lowest]

    keep = distance_select([s.objectives for s in pool], signs)
    return [pool[i] for i in keep]


def select_compromise(scored, signs, rng) -> ScoredDecision:
    """Full selection: narrowing stages plus a seeded uniform tie-break."""
    survivors = compromise_survivors(scored, signs)
    if len(survivors) == 1:
        return survivors[0]
    return survivors[int(rng.integers(len(survivors)))]
