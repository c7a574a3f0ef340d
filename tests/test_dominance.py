"""Dominance relations and compromise selection against brute-force answers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antscale.baselines import nondominated_ranks
from antscale.dominance import (
    DecisionArchive,
    ScoredDecision,
    compromise_survivors,
    distance_select,
    dominance_rank,
    nash,
    pareto,
    select_compromise,
    wins,
)
from test_baselines import oracle_fronts

MIN2 = ("minimize", "minimize")
MIN2_SIGNS = (-1.0, -1.0)


def signs_of(directions):
    return [-1.0 if d == "minimize" else 1.0 for d in directions]


# -- reference implementations, kept deliberately plain --------------------


def better(a, b, direction):
    return a < b if direction == "minimize" else a > b


def oracle_pareto(a, b, directions):
    at_least_as_good = all(
        not better(y, x, d) for x, y, d in zip(a, b, directions)
    )
    strictly = any(better(x, y, d) for x, y, d in zip(a, b, directions))
    return at_least_as_good and strictly


def oracle_nash(a, b, directions):
    lost_by_switching = sum(1 for x, y, d in zip(a, b, directions) if better(x, y, d))
    gained_by_switching = sum(1 for x, y, d in zip(a, b, directions) if better(y, x, d))
    return lost_by_switching > gained_by_switching


def oracle_rank(vectors, directions, relation):
    return [
        sum(1 for other in vectors if relation(other, v, directions))
        for v in vectors
    ]


def random_vectors(rng, n, m):
    return [tuple(float(x) for x in rng.uniform(-5, 5, size=m)) for _ in range(n)]


# -- frozen examples on two- and three-row inputs --------------------------


def relation_matrix(rows, directions, relation):
    """[i][j]: whether row i dominates row j, straight from the kernel."""
    adjusted = np.array(rows, dtype=float) * signs_of(directions)
    won = wins(adjusted, adjusted)
    return relation(won, won.T).tolist()


NEITHER = [[False, False], [False, False]]
FIRST_ONLY = [[False, True], [False, False]]


def test_pareto_strict_improvement_dominates():
    assert relation_matrix([(1.0, 1.0), (2.0, 2.0)], MIN2, pareto) == FIRST_ONLY


def test_pareto_equal_vectors_do_not_dominate():
    assert relation_matrix([(1.0, 2.0), (1.0, 2.0)], MIN2, pareto) == NEITHER


def test_pareto_trade_off_is_incomparable():
    assert relation_matrix([(1.0, 3.0), (2.0, 2.0)], MIN2, pareto) == NEITHER


def test_pareto_respects_direction():
    directions = ("maximize", "minimize")
    assert relation_matrix([(3.0, 1.0), (2.0, 1.0)], directions, pareto) == FIRST_ONLY


def test_nash_majority_vote():
    # switching away from the first loses two objectives and gains one
    directions = ("minimize",) * 3
    assert relation_matrix([(1.0, 2.0, 3.0), (2.0, 1.0, 4.0)], directions, nash) == FIRST_ONLY


def test_nash_tie_dominates_neither_way():
    assert relation_matrix([(1.0, 2.0), (2.0, 1.0)], MIN2, nash) == NEITHER


def test_nash_equal_vectors_do_not_dominate():
    assert relation_matrix([(1.0, 1.0), (1.0, 1.0)], MIN2, nash) == NEITHER


def test_relations_are_irreflexive_and_antisymmetric():
    rng = np.random.default_rng(2)
    directions = ("minimize", "maximize", "minimize")
    for a, b in zip(random_vectors(rng, 60, 3), random_vectors(rng, 60, 3)):
        for rel in (pareto, nash):
            matrix = relation_matrix([a, b], directions, rel)
            assert not matrix[0][0] and not matrix[1][1]
            assert not (matrix[0][1] and matrix[1][0])


def test_pareto_is_transitive():
    rng = np.random.default_rng(6)
    directions = ("minimize", "maximize")
    vectors = random_vectors(rng, 40, 2)
    for a in vectors[:12]:
        for b in vectors[:12]:
            for c in vectors[:12]:
                matrix = relation_matrix([a, b, c], directions, pareto)
                if matrix[0][1] and matrix[1][2]:
                    assert matrix[0][2]


# -- ranking ---------------------------------------------------------------


def test_rank_counts_dominators_along_a_chain():
    chain = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert dominance_rank(chain, MIN2_SIGNS, pareto) == [0, 1, 2]
    assert dominance_rank(chain, MIN2_SIGNS, nash) == [0, 1, 2]


def test_rank_all_zero_on_a_trade_off_front():
    front = [(1.0, 4.0), (2.0, 3.0), (3.0, 2.0), (4.0, 1.0)]
    assert dominance_rank(front, MIN2_SIGNS, pareto) == [0, 0, 0, 0]


def test_rank_matches_oracle_on_random_sets():
    rng = np.random.default_rng(17)
    directions = ("minimize", "maximize", "minimize", "maximize")
    for _ in range(10):
        vectors = random_vectors(rng, 30, 4)
        for rel, oracle in ((pareto, oracle_pareto), (nash, oracle_nash)):
            assert dominance_rank(vectors, signs_of(directions), rel) == oracle_rank(
                vectors, directions, oracle
            )


# -- properties: the kernel against the pairwise oracles --------------------


@st.composite
def vector_sets(draw):
    """Up to 300 rows, past one kernel row block, with ties and duplicates.

    Values come from a seeded generator: either a few integer levels, which
    make ties on single objectives common, or continuous draws. Some rows are
    then overwritten by copies of others.
    """
    m = draw(st.integers(1, 5))
    directions = draw(st.lists(st.sampled_from(["minimize", "maximize"]),
                               min_size=m, max_size=m))
    n = draw(st.integers(1, 300))
    levels = draw(st.sampled_from([2, 3, 5, None]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels is None:
        values = rng.uniform(-5, 5, size=(n, m))
    else:
        values = rng.integers(0, levels, size=(n, m)).astype(float)
    copies = draw(st.integers(0, n // 2))
    values[rng.integers(n, size=copies)] = values[rng.integers(n, size=copies)]
    return [tuple(float(v) for v in row) for row in values], directions


@settings(max_examples=25, deadline=None)
@given(vector_sets())
def test_rank_matches_oracle_property(case):
    vectors, directions = case
    signs = signs_of(directions)
    for rel, oracle in ((pareto, oracle_pareto), (nash, oracle_nash)):
        assert dominance_rank(vectors, signs, rel) == oracle_rank(vectors, directions, oracle)


@settings(max_examples=25, deadline=None)
@given(vector_sets())
def test_nondominated_ranks_match_peeling_oracle_property(case):
    vectors, directions = case
    signs = signs_of(directions)
    ranks, _ = nondominated_ranks(np.array(vectors), signs)
    assert ranks.tolist() == oracle_fronts(vectors, signs)


# -- distance to the ideal corner ------------------------------------------


def test_distance_picks_the_balanced_candidate():
    # ideal corner is (0, 0); both extremes sit 1.0 away, the middle 0.849
    candidates = [(0.0, 1.0), (1.0, 0.0), (0.6, 0.6)]
    assert distance_select(candidates, MIN2_SIGNS) == [2]


def test_distance_value_hand_check():
    # spans are both 1, so the middle candidate contributes 0.6^2 twice
    expected = math.sqrt(0.6 ** 2 + 0.6 ** 2)
    assert expected == pytest.approx(0.8485, abs=5e-4)


def test_distance_singleton_returns_itself():
    assert distance_select([(3.0, 4.0)], MIN2_SIGNS) == [0]


def test_distance_best_everywhere_stands_alone():
    candidates = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]
    assert distance_select(candidates, MIN2_SIGNS) == [0]


def test_distance_zero_span_objective_is_neutral():
    candidates = [(5.0, 1.0), (5.0, 2.0)]
    assert distance_select(candidates, MIN2_SIGNS) == [0]


def test_distance_keeps_exact_ties():
    candidates = [(0.0, 1.0), (1.0, 0.0)]
    assert distance_select(candidates, MIN2_SIGNS) == [0, 1]


# -- compromise pipeline ---------------------------------------------------


def scored(vectors, violations=None):
    """The oracle's candidates: each one's decision is its input position."""
    violations = violations or [0] * len(vectors)
    return [
        ScoredDecision(decision=i, objectives=tuple(v), violation_count=c)
        for i, (v, c) in enumerate(zip(vectors, violations))
    ]


def archive_of(vectors, violations=None):
    """An archive whose one primitive "i" holds each row's input position."""
    violations = violations or [0] * len(vectors)
    return DecisionArchive(["i"], [[i] for i in range(len(vectors))], vectors, violations)


def position(pick):
    return pick.decision.assignments["i"]


def oracle_survivors(candidates, directions):
    """Steps 1-4 re-derived: violations, pareto rank, nash rank, distance."""
    pool = list(candidates)

    least = min(c.violation_count for c in pool)
    pool = [c for c in pool if c.violation_count == least]

    p_ranks = {
        id(c): sum(
            1 for o in pool if oracle_pareto(o.objectives, c.objectives, directions)
        )
        for c in pool
    }
    best = min(p_ranks.values())
    pool = [c for c in pool if p_ranks[id(c)] == best]

    n_ranks = {
        id(c): sum(
            1 for o in pool if oracle_nash(o.objectives, c.objectives, directions)
        )
        for c in pool
    }
    best = min(n_ranks.values())
    pool = [c for c in pool if n_ranks[id(c)] == best]

    m = len(directions)
    ideal = []
    worst = []
    for j in range(m):
        column = [c.objectives[j] for c in pool]
        if directions[j] == "minimize":
            ideal.append(min(column))
            worst.append(max(column))
        else:
            ideal.append(max(column))
            worst.append(min(column))
    distances = []
    for c in pool:
        total = 0.0
        for j in range(m):
            span = abs(worst[j] - ideal[j])
            if span > 0:
                total += ((c.objectives[j] - ideal[j]) / span) ** 2
        distances.append(math.sqrt(total))
    best = min(distances)
    return [c for c, d in zip(pool, distances) if d == best]


def test_fewest_violations_wins_before_anything_else():
    survivors = compromise_survivors([(9.0, 9.0), (1.0, 1.0)], [0, 3], MIN2_SIGNS)
    assert survivors == [0]


def test_survivors_never_expand_the_pool():
    rng = np.random.default_rng(3)
    directions = ("minimize", "maximize", "minimize")
    for _ in range(25):
        vectors = random_vectors(rng, 12, 3)
        survivors = compromise_survivors(
            vectors, rng.integers(0, 3, size=12), signs_of(directions))
        assert survivors
        assert survivors == sorted(set(survivors))
        assert all(0 <= i < len(vectors) for i in survivors)


def test_survivors_match_oracle_on_random_pools():
    rng = np.random.default_rng(91)
    directions = ("minimize", "maximize", "minimize", "minimize")
    for _ in range(40):
        vectors = random_vectors(rng, 16, 4)
        violations = list(rng.integers(0, 2, size=16))
        got = compromise_survivors(vectors, violations, signs_of(directions))
        want = [s.decision for s in oracle_survivors(scored(vectors, violations), directions)]
        assert got == want


def test_unique_survivor_ignores_the_rng():
    archive = archive_of([(1.0, 1.0), (2.0, 2.0), (3.0, 1.5)])
    for seed in range(10):
        pick = select_compromise(archive, MIN2_SIGNS, np.random.default_rng(seed))
        assert position(pick) == 0
        assert pick == archive.entry(0)


def test_tied_survivors_resolved_by_seeded_draw():
    archive = archive_of([(0.0, 1.0), (1.0, 0.0)])
    picks = {
        position(select_compromise(archive, MIN2_SIGNS, np.random.default_rng(seed)))
        for seed in range(40)
    }
    assert picks == {0, 1}   # both reachable, choice is the rng's


def test_nine_to_one_trade_off_prefers_the_broad_winner():
    directions = ("minimize",) * 10
    a = (1.0,) * 9 + (5.0,)
    b = (2.0,) * 9 + (1.0,)
    assert not oracle_pareto(a, b, directions)
    assert not oracle_pareto(b, a, directions)
    archive = archive_of([b, a])
    for seed in range(20):
        pick = select_compromise(archive, signs_of(directions), np.random.default_rng(seed))
        assert pick.objectives == a
