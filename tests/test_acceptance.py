"""End-to-end acceptance gate for the package.

Every test here checks one numbered release criterion and prints a single
verdict line straight to the terminal, bypassing pytest's capture, so the
per-criterion outcome is always visible in a captured log. Oracles are
reimplemented locally from first principles rather than imported, so a bug
in the library cannot hide itself.

Criteria 5 and 6 share one comparative experiment over the bundled
three-VM scenario; it runs once per session and takes several minutes.
"""

import itertools
import time
from math import inf, sqrt

import numpy as np
import pytest

from antscale.colony import (
    MoacoConfig,
    OptimizeStats,
    compute_heuristics,
    grid_table,
    optimize,
    selection_cdfs,
)
from antscale.domain import MAXIMIZE, MINIMIZE, load_scenario
from antscale.dominance import (
    DecisionArchive,
    ScoredDecision,
    compromise_survivors,
    dominance_rank,
    nash,
    pareto,
    select_compromise,
)
from antscale.experiment import APPROACHES, ExperimentPlan, run_experiment
from antscale.metrics import (
    ObjectiveRecord,
    ProvisionRecord,
    RunLog,
    g_distance,
    provisioning_pct,
    violation_pct,
)
from conftest import SMOKE_PATH, TRIPLE_PATH, toy_runtime


def check(capsys, number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- local oracles, written the long way -----------------------------------


def _oracle_signs(directions):
    return [1.0 if d == MAXIMIZE else -1.0 for d in directions]


def oracle_pareto(a, b, signs) -> bool:
    better = False
    for x, y, s in zip(a, b, signs):
        gap = s * (x - y)
        if gap < 0:
            return False
        if gap > 0:
            better = True
    return better


def oracle_nash(a, b, signs) -> bool:
    to_b = sum(1 for x, y, s in zip(a, b, signs) if s * (y - x) > 0)
    to_a = sum(1 for x, y, s in zip(a, b, signs) if s * (x - y) > 0)
    return to_b < to_a


def oracle_ranks(vectors, signs, relation):
    ranks = []
    for i, vi in enumerate(vectors):
        count = 0
        for j, vj in enumerate(vectors):
            if j != i and relation(vj, vi, signs):
                count += 1
        ranks.append(count)
    return ranks


def oracle_survivors(scored, directions):
    """Narrowing stages recomputed independently of the library."""
    signs = _oracle_signs(directions)
    fewest = min(s.violation_count for s in scored)
    pool = [s for s in scored if s.violation_count == fewest]
    for relation in (oracle_pareto, oracle_nash):
        ranks = oracle_ranks([s.objectives for s in pool], signs, relation)
        low = min(ranks)
        pool = [s for s, r in zip(pool, ranks) if r == low]

    m = len(signs)
    best, worst = [], []
    for o in range(m):
        column = [s.objectives[o] for s in pool]
        hi, lo = max(column), min(column)
        best.append(hi if signs[o] > 0 else lo)
        worst.append(lo if signs[o] > 0 else hi)
    distances = []
    for s in pool:
        acc = 0.0
        for o in range(m):
            span = abs(worst[o] - best[o])
            if span > 0.0:
                coord = (s.objectives[o] - best[o]) / span
                acc += coord * coord
        distances.append(sqrt(acc))
    low = min(distances)
    return [s for s, d in zip(pool, distances) if d == low]


# -- criterion 1: ranking agrees with pairwise brute force ------------------


def test_criterion_01_rank_matches_bruteforce(capsys):
    rng = np.random.default_rng(101)
    directions = (MINIMIZE, MAXIMIZE, MINIMIZE, MAXIMIZE, MINIMIZE)
    signs = _oracle_signs(directions)
    started = time.perf_counter()
    vectors = [tuple(float(v) for v in rng.integers(0, 5, size=5))
               for _ in range(200)]
    pareto_ok = (
        dominance_rank(vectors, signs, pareto)
        == oracle_ranks(vectors, signs, oracle_pareto)
    )
    nash_ok = (
        dominance_rank(vectors, signs, nash)
        == oracle_ranks(vectors, signs, oracle_nash)
    )
    elapsed = time.perf_counter() - started
    check(
        capsys, 1, "rank oracle parity",
        pareto_ok and nash_ok and elapsed < 5.0,
        f"pareto={pareto_ok} nash={nash_ok} elapsed={elapsed:.2f}s",
    )


# -- criterion 2: survivor set agrees with staged brute force ---------------


def test_criterion_02_survivors_match_bruteforce(capsys):
    rng = np.random.default_rng(202)
    directions = (MINIMIZE, MAXIMIZE, MINIMIZE, MINIMIZE, MAXIMIZE)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 501))
        vectors = rng.integers(0, 10, size=(n, 5)).astype(float)
        if n >= 10:
            # force exact duplicates so ties exercise the distance stage
            clones = rng.integers(0, n, size=5)
            vectors[clones] = vectors[clones[0]]
        violations = rng.choice([0, 0, 1, 2], size=n)
        scored = [
            ScoredDecision(i, tuple(vectors[i]), int(violations[i]))
            for i in range(n)
        ]
        mine = compromise_survivors(vectors, violations, _oracle_signs(directions))
        theirs = oracle_survivors(scored, directions)
        if mine != [s.decision for s in theirs]:
            mismatches += 1
    check(capsys, 2, "knee survivor parity", mismatches == 0, f"{mismatches} of 100 trials differ")


# -- criterion 3: toy-scale search lands on the true front ------------------


def test_criterion_03_toy_archive_finds_front(capsys):
    runtime = toy_runtime()
    model = runtime.model
    signs = list(model.direction_signs)
    rows = np.array(list(itertools.product(*runtime.grids)), dtype=float)
    vecs = model.predict_matrix(rows, runtime.env)
    assert len(rows) == 9
    front = {
        tuple(rows[i])
        for i in range(len(rows))
        if not any(
            oracle_pareto(vecs[j], vecs[i], signs)
            for j in range(len(rows)) if j != i
        )
    }
    cfg = MoacoConfig.from_dict({"max_ant": 20, "max_iteration": 5})
    hits = 0
    for seed in range(50):
        archive = optimize(
            model, runtime.env, runtime.current, runtime.grids,
            cfg, np.random.default_rng(seed),
        )
        found = {
            tuple(float(e.decision.assignments[pid]) for pid in model.region_pids)
            for e in archive.entries()
        }
        hits += bool(found & front)
    check(capsys, 3, "toy front discovery", hits >= 48, f"front found in {hits}/50 runs")


# -- criterion 4: trail clamping and proper sampling distributions ----------


def test_criterion_04_trail_bounds_and_distributions(capsys):
    runtime = toy_runtime()
    model = runtime.model
    ok = True
    detail = ""
    # same seed, growing iteration cap: the run prefix is identical, so the
    # final state of each run is the state right after that many iterations
    for iterations in (1, 2, 3, 4, 5):
        stats = OptimizeStats()
        cfg = MoacoConfig.from_dict({"max_ant": 20, "max_iteration": iterations})
        optimize(
            model, runtime.env, runtime.current, runtime.grids,
            cfg, np.random.default_rng(17), stats=stats,
        )
        # padded slots of the shorter grids are never drawn, so only real
        # grid slots have to respect the bounds
        for o in range(len(model.objective_ids)):
            trails = stats.trails[o][stats.valid]
            if not ((trails >= stats.tau_min[o] - 1e-12).all()
                    and (trails <= stats.tau_max[o] + 1e-12).all()):
                ok = False
                detail = f"trail outside bounds after iteration {iterations}"
        if iterations == 5:
            # the sampled distribution is the cdf's increments; rebuild it
            # from trail^alpha * heuristic^beta independently, grid by grid
            cdfs = selection_cdfs(stats.trails, stats.heuristic, stats.valid, cfg)
            for a, size in enumerate(stats.valid.sum(axis=1)):
                cdf = cdfs[:, a, :size]
                probs = np.diff(cdf, axis=1, prepend=0.0)
                weights = (stats.trails[:, a, :size] ** cfg.alpha
                           * stats.heuristic[a, :size] ** cfg.beta)
                expected = weights / weights.sum(axis=1, keepdims=True)
                total = cdf[:, -1]
                if (np.abs(total - 1.0) > 1e-12).any():
                    ok = False
                    detail = f"probabilities sum to {total!r}"
                elif not np.allclose(probs, expected, rtol=1e-9, atol=1e-12):
                    ok = False
                    detail = f"primitive {a}: sampled distribution is not trail^a * eta^b"
    check(capsys, 4, "trail bounds and distributions", ok, detail)


# -- criteria 5 and 6: the comparative experiment ---------------------------


@pytest.fixture(scope="module")
def comparative(tmp_path_factory):
    plan = ExperimentPlan(
        name="acceptance",
        scenario=load_scenario(TRIPLE_PATH),
        approaches=APPROACHES,
        intervals=70,
        warmup=20,
        runs=10,
        seed=1,
        time_budget_s=5.0,
        out_dir=str(tmp_path_factory.mktemp("acceptance")),
        quiet=True,
    )
    started = time.perf_counter()
    result = run_experiment(plan)
    return result["summary"], time.perf_counter() - started


@pytest.mark.slow
def test_criterion_05_comparative_quality(comparative, capsys):
    rows, wall = comparative
    g = {a: v for a, metric, _, v in rows if metric == "g_distance"}
    c = {(a, t): v for a, metric, t, v in rows if metric == "c_metric"}
    vs_moga = c[("moaco-cd", "moga")]
    vs_rule = c[("moaco-cd", "rule")]
    g_best = min(g, key=g.get)
    ok = (
        vs_moga >= 0.6 and vs_rule >= 0.6
        and g_best == "moaco-cd"
        and wall <= 1800.0
    )
    check(
        capsys, 5, "comparative quality", ok,
        f"C(moaco-cd,moga)={vs_moga:.3f} C(moaco-cd,rule)={vs_rule:.3f} "
        f"g={ {a: round(v, 4) for a, v in sorted(g.items(), key=lambda kv: kv[1])} } "
        f"wall={wall:.0f}s",
    )


@pytest.mark.slow
def test_criterion_06_violation_balance(comparative, capsys):
    rows, _ = comparative
    spread = {a: v for a, metric, _, v in rows if metric == "violation_service_std"}
    balanced = min(spread, key=spread.get)
    check(
        capsys, 6, "violation balance", balanced == "moaco-cd",
        f"per-service violation std: "
        f"{ {a: round(v, 4) for a, v in sorted(spread.items(), key=lambda kv: kv[1])} }",
    )


# -- criterion 7: a lopsided non-dominated pair ------------------------------


def test_criterion_07_lopsided_pair_selects_majority_winner(capsys):
    directions = (MINIMIZE,) * 10
    # one primitive "pick" names the decision: 0 is A, 1 is B
    a = ([0], (1.0,) * 9 + (5.0,))
    b = ([1], (2.0,) * 9 + (1.0,))
    signs = _oracle_signs(directions)
    neither = not oracle_pareto(a[1], b[1], signs) and not oracle_pareto(b[1], a[1], signs)

    def pick(order, seed):
        archive = DecisionArchive(["pick"], [r for r, _ in order], [v for _, v in order],
                                  [0] * len(order))
        return select_compromise(archive, signs, np.random.default_rng(seed))

    always_a = all(
        pick(order, seed).decision.assignments == {"pick": 0}
        for seed in range(20)
        for order in ([a, b], [b, a])
    )
    check(capsys, 7, "lopsided pair selection", neither and always_a,
          f"mutually non-dominated={neither} deterministic A={always_a}")


# -- criterion 8: hand-checked metric values --------------------------------


def test_criterion_08_metric_hand_values(capsys):
    breach = RunLog(approach="x", objective_records=[
        ObjectiveRecord(0, "o", 3.0, 2.0, MINIMIZE),
        ObjectiveRecord(1, "o", 2.0, 2.0, MINIMIZE),
    ])
    over = RunLog(approach="x", provision_records=[
        ProvisionRecord(0, "p", 40.0, 20.0, "cpu"),
    ])
    best = RunLog(approach="best", objective_records=[
        ObjectiveRecord(0, "rt", 1.0, 2.0, MINIMIZE),
        ObjectiveRecord(0, "tp", 10.0, 5.0, MAXIMIZE),
    ])
    worse = RunLog(approach="worse", objective_records=[
        ObjectiveRecord(0, "rt", 2.0, 2.0, MINIMIZE),
        ObjectiveRecord(0, "tp", 5.0, 5.0, MAXIMIZE),
    ])
    v = violation_pct(breach, "o")
    p = provisioning_pct(over, "over")
    d = g_distance({"best": best, "worse": worse}, "best")
    ok = v == pytest.approx(25.0, abs=1e-12) and p == pytest.approx(100.0, abs=1e-12) \
        and d == pytest.approx(0.0, abs=1e-12)
    check(capsys, 8, "metric hand values", ok, f"violation={v} over={p} distance={d}")


# -- criterion 9: phase times scale linearly --------------------------------


class _FlatModel:
    """Vectorized stand-in whose evaluation cost is linear in the row count."""

    def __init__(self, n_prims, directions, thresholds=None):
        self.objective_ids = [f"o{i}" for i in range(len(directions))]
        self.direction_signs = np.array(
            [1.0 if d == MAXIMIZE else -1.0 for d in directions]
        )
        self.region_pids = [f"p{i}" for i in range(n_prims)]
        self._thresholds = thresholds
        self.rows = 0     # rows evaluated so far

    def predict_matrix(self, rows, env):
        # (..., P) rows as RegionModel takes them
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        self.rows += rows.size // rows.shape[-1]
        cols = [rows.sum(axis=-1) + 1.0, (rows ** 2).sum(axis=-1) + 1.0]
        return np.stack(cols[: len(self.objective_ids)], axis=-1)

    def violation_counts(self, vectors):
        vectors = np.atleast_2d(vectors)
        if self._thresholds is None:
            return np.zeros(vectors.shape[:-1], dtype=int)
        gaps = (vectors - self._thresholds) * self.direction_signs
        return (gaps < 0).sum(axis=-1)

    def unattainable(self, env, grids):
        # nothing certified, so the colony builds ants in speculative blocks
        return np.zeros(len(self.objective_ids), dtype=bool)


def _best_slopes(ladder, seconds, repeats=25):
    """Per rung, the least ``seconds(rung)`` over ``repeats`` per rung.

    The rungs are timed in interleaved sweeps, so a slow spell of a shared
    machine lands on every rung of one sweep rather than on one rung.
    """
    best = dict.fromkeys(ladder, inf)
    for _ in range(repeats):
        for rung in ladder:
            best[rung] = min(best[rung], seconds(rung))
    return [best[rung] for rung in ladder]


def test_criterion_09_phase_time_scaling(capsys):
    # the process's CPU time, not wall time, so time spent descheduled on a
    # shared machine does not read as a slope change
    heur_model = _FlatModel(4, (MINIMIZE, MAXIMIZE))

    def heuristic_seconds(total_grid):
        values, valid = grid_table([np.linspace(0.0, 1.0, total_grid // 4)] * 4)
        current = np.full(4, 0.5)
        before = heur_model.rows
        started = time.process_time()
        compute_heuristics(heur_model, None, current, values, valid)
        elapsed = time.process_time() - started
        # one row per grid value plus the live configuration
        assert heur_model.rows - before == total_grid + 1
        return elapsed

    heur_sizes = (2000, 4000, 8000, 16000)
    heur_slopes = [
        t / n for t, n in zip(_best_slopes(heur_sizes, heuristic_seconds), heur_sizes)
    ]

    # thresholds no construction can meet: every ant uses every retry, so
    # the construction count is exactly iterations x ants x retries
    build_model = _FlatModel(4, (MINIMIZE, MAXIMIZE), thresholds=np.array([0.0, inf]))
    grids = [np.arange(25.0)] * 4

    def colony_seconds(iterations):
        cfg = MoacoConfig.from_dict({
            "max_iteration": iterations, "max_ant": 16, "max_run": 50,
        })
        stats = OptimizeStats()
        started = time.process_time()
        optimize(
            build_model, None, np.full(4, 12.0), grids,
            cfg, np.random.default_rng(5), stats=stats,
        )
        elapsed = time.process_time() - started
        assert stats.constructions == iterations * 16 * 50
        return elapsed

    iteration_ladder = (2, 4, 8, 16)
    build_slopes = [
        t / (i * 16 * 50)
        for t, i in zip(_best_slopes(iteration_ladder, colony_seconds), iteration_ladder)
    ]

    heur_ratio = max(heur_slopes) / min(heur_slopes)
    build_ratio = max(build_slopes) / min(build_slopes)
    check(
        capsys, 9, "phase time scaling",
        heur_ratio <= 1.5 and build_ratio <= 1.5,
        f"heuristic slope spread {heur_ratio:.2f}x, "
        f"colony slope spread {build_ratio:.2f}x",
    )


# -- criterion 10: bit-for-bit reproducibility ------------------------------


def test_criterion_10_summary_determinism(tmp_path, capsys):
    scenario = load_scenario(SMOKE_PATH)

    def once(label):
        plan = ExperimentPlan(
            name="repeat",
            scenario=scenario,
            approaches=("moaco-cd", "rule"),
            intervals=10,
            warmup=3,
            runs=2,
            seed=42,
            time_budget_s=5.0,
            out_dir=str(tmp_path / label),
            quiet=True,
        )
        out = run_experiment(plan)["out"]
        return (out / "summary.csv").read_bytes()

    first, second = once("a"), once("b")
    check(capsys, 10, "summary determinism", first == second,
          f"summaries differ ({len(first)} vs {len(second)} bytes)")
