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

The candidates arrive as a :class:`DecisionArchive` of arrays; the stages
work on its objective matrix and violation vector, and only the chosen row
becomes a :class:`ScoredDecision`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .domain import Decision


@dataclass(frozen=True)
class ScoredDecision:
    """A candidate with its predicted objective vector and violation count."""

    decision: object
    objectives: tuple
    violation_count: int


class DecisionArchive:
    """Scored decisions as arrays, one row per distinct assignment.

    ``rows`` holds each decision's grid values in ``primitive_ids`` order,
    ``objectives`` its predicted objective vector and ``violations`` its
    requirement violation count. A repeated assignment keeps its first
    occurrence, and rows keep their insertion order. Grid values are
    integers; a row holding any other value raises ``ValueError``.
    """

    def __init__(self, primitive_ids, rows, objectives, violations):
        rows = np.asarray(rows)
        if not (np.isfinite(rows) & (rows == np.trunc(rows))).all():
            raise ValueError("DecisionArchive: rows must hold integral grid values")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        # one opaque key per row: np.unique's stable sort keeps each first
        # occurrence, several times faster than np.unique(rows, axis=0)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first = np.unique(keys, return_index=True)
        keep = np.sort(first)
        self.primitive_ids = list(primitive_ids)
        self.rows = rows[keep]
        self.objectives = np.asarray(objectives, dtype=float)[keep]
        self.violations = np.asarray(violations, dtype=int)[keep]

    def entry(self, i: int) -> ScoredDecision:
        """Row ``i`` as a scored decision."""
        return ScoredDecision(
            Decision(dict(zip(self.primitive_ids, self.rows[i].tolist()))),
            tuple(self.objectives[i].tolist()),
            int(self.violations[i]),
        )

    def entries(self) -> list:
        return [self.entry(i) for i in range(len(self))]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return map(self.entry, range(len(self)))

    def __add__(self, other) -> list:
        """The entries followed by ``other``'s, as a plain list."""
        return self.entries() + list(other)


def wins(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[i, j]: the number of objectives on which ``a[i]`` beats ``b[j]``.

    Both arrays are sign-adjusted rows, so larger is better everywhere.
    """
    counts = np.zeros((a.shape[0], b.shape[0]), dtype=np.min_scalar_type(a.shape[1]))
    beats = np.empty(counts.shape, dtype=bool)
    # one contiguous objective column of each side per pass, into one buffer
    for col_a, col_b in zip(np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)):
        np.greater(col_a[:, None], col_b[None, :], out=beats)
        counts += beats
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
    # one n x n count matrix (n bytes per row up to 255 objectives; 0.56 MB
    # at a 750-row pool), whose transpose holds every count the other way
    won = wins(rows, rows)
    # [j, i]: row j dominates row i; no row dominates itself
    return relation(won, won.T).sum(axis=0).tolist()


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


def compromise_survivors(objectives, violations, signs) -> list:
    """Run the deterministic narrowing stages and return the surviving rows.

    Args:
        objectives: one predicted objective vector per candidate.
        violations: one requirement violation count per candidate.
        signs: +1 per objective where larger is better, -1 where smaller is.

    Returns:
        Indices of the candidates (ascending) left after violation
        filtering, both dominance rankings and the distance stage.
    """
    objectives = np.asarray(objectives, dtype=float)
    violations = np.asarray(violations)
    if violations.size == 0:
        raise ValueError("nothing to select from")
    pool = np.flatnonzero(violations == violations.min())

    for relation in (pareto, nash):
        ranks = np.asarray(dominance_rank(objectives[pool], signs, relation))
        pool = pool[ranks == ranks.min()]

    keep = distance_select(objectives[pool].tolist(), signs)
    return pool[keep].tolist()


def select_compromise(archive: DecisionArchive, signs, rng) -> ScoredDecision:
    """Full selection: narrowing stages plus a seeded uniform tie-break."""
    survivors = compromise_survivors(archive.objectives, archive.violations, signs)
    if len(survivors) == 1:
        return archive.entry(survivors[0])
    return archive.entry(survivors[int(rng.integers(len(survivors)))])
