"""Correctness checks on a benchmark run, and a self-test that each can fail.

Every check returns a list of problems; an empty list is a pass. The checks
compare the program's outputs with an independent computation written here
in plain Python (or brute-force numpy), or with a property the method must
have. None compares against a stored copy of earlier output.

    (a) summary_matches_interval_logs: summary.csv's violation and
        provisioning rows equal a recomputation from the intervals.csv files.
    (b) costs_match_prices: each observed cost objective equals the
        price-weighted sum of its service's live primitives and replicas.
    (c) decisions_on_grid: every decision lies on its primitives' grids,
        inside their bounds at decision time.
    (d) moaco_choices_sound: every moaco-cd choice is an archive member with
        the fewest violations, undominated within that pool, and every
        colony ran all of its iterations.
    (e) moga_fronts_sound: every moga front is mutually non-dominated and
        holds the choice.
    (f) same_bytes: two summary.csv files are byte-identical.
"""

import csv
import dataclasses
import math
from pathlib import Path

import numpy as np

MINIMIZE = "minimize"
PROVISION_METRICS = ("over_provision_pct", "under_provision_pct")


# -- (a) summary against interval logs -------------------------------------


def read_summary(path) -> dict:
    """summary.csv as {(approach, metric, target): value text}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["approach", "metric", "target", "value"]:
        raise ValueError(f"{path}: unexpected header")
    return {(a, m, t): v for a, m, t, v in rows[1:]}


def recompute_summary(plan_dir, approach: str, runs: int, warmup: int) -> dict:
    """Violation and provisioning percentages from the written interval logs.

    Returns {(approach, metric, target): value}, each value the mean over
    runs of that run's percentage over the intervals from ``warmup`` on.
    """
    per_run = []
    for run_idx in range(runs):
        path = Path(plan_dir) / approach / f"run-{run_idx:02d}" / "intervals.csv"
        breach, count = {}, {}
        over, under, counted = {}, {}, {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for kind, interval, id_, value, aux, tag in reader:
                if int(interval) < warmup:
                    continue
                if kind == "objective":
                    observed, threshold = float(value), float(aux)
                    count[id_] = count.get(id_, 0) + 1
                    breached = (observed > threshold if tag == MINIMIZE
                                else observed < threshold)
                    gap = abs(observed - threshold) / abs(threshold) if breached else 0.0
                    breach[id_] = breach.get(id_, 0.0) + gap
                elif kind == "provision":
                    provision, demand = float(value), float(aux)
                    over.setdefault(tag, 0.0)
                    under.setdefault(tag, 0.0)
                    counted.setdefault(tag, 0)
                    if demand == 0:
                        continue
                    counted[tag] += 1
                    if provision > demand:
                        over[tag] += (provision - demand) / demand
                    elif provision < demand:
                        under[tag] += (demand - provision) / demand
        pct = {("violation_pct", oid): 100.0 * breach[oid] / count[oid] for oid in count}
        for resource, n in counted.items():
            pct[("over_provision_pct", resource)] = 100.0 * over[resource] / n if n else 0.0
            pct[("under_provision_pct", resource)] = 100.0 * under[resource] / n if n else 0.0
        per_run.append(pct)
    keys = per_run[0].keys()
    return {
        (approach, metric, target): sum(run[(metric, target)] for run in per_run) / runs
        for metric, target in keys
    }


def summary_matches_interval_logs(summary: dict, recomputed: dict) -> list:
    """(a) Equality up to the .10g rounding of both files' numbers."""
    problems = []
    scored = {
        key: text for key, text in summary.items()
        if key[1] == "violation_pct" or key[1] in PROVISION_METRICS
    }
    for key in sorted(set(scored) ^ set(recomputed)):
        problems.append(f"(a) {key} is in only one of summary and recomputation")
    for key in sorted(set(scored) & set(recomputed)):
        written, expected = float(scored[key]), recomputed[key]
        if not math.isclose(written, expected, rel_tol=1e-8, abs_tol=1e-8):
            problems.append(f"(a) {key}: summary {written!r}, recomputed {expected!r}")
    return problems


# -- (b) cost objectives ---------------------------------------------------


def expected_cost(owner: str, services, specs: dict, config: dict) -> float:
    """Price-weighted sum over a service, its replicas and their VMs."""
    members = {s.id for s in services if s.id == owner or s.id.startswith(owner + "~r")}
    vms = {s.vm for s in services if s.id in members}
    return sum(
        spec.price * config[pid]
        for pid, spec in specs.items()
        if (spec.scope == "per-service" and spec.owner in members)
        or (spec.scope == "per-vm-shared" and spec.owner in vms)
    )


def costs_match_prices(steps: list, cost_owners: dict) -> list:
    """(b) ``steps`` holds (interval, observed, services, specs, config) per step."""
    problems = []
    for interval, observed, services, specs, config in steps:
        for oid, owner in cost_owners.items():
            expected = expected_cost(owner, services, specs, config)
            if not math.isclose(observed[oid], expected, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(
                    f"(b) interval {interval} {oid}: observed {observed[oid]!r}, "
                    f"priced {expected!r}"
                )
    return problems


# -- (c) grid membership ---------------------------------------------------


def decisions_on_grid(decisions: list) -> list:
    """(c) ``decisions`` holds (interval, specs at decision time, assignments)."""
    problems = []
    for interval, specs, assignments in decisions:
        expected = {spec.id for spec in specs}
        if set(assignments) != expected:
            problems.append(f"(c) interval {interval}: decision covers {sorted(assignments)}")
        for spec in specs:
            value = assignments.get(spec.id)
            if value is None:
                continue
            if (value != int(value) or not spec.lower_bound <= value <= spec.upper_bound
                    or (int(value) - spec.base_lower) % spec.step):
                problems.append(
                    f"(c) interval {interval} {spec.id}={value}: off the grid "
                    f"{spec.lower_bound}..{spec.upper_bound} step {spec.step}"
                )
    return problems


# -- (d), (e) dominance ----------------------------------------------------


def dominated_rows(candidates: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Per candidate row, whether some row of ``others`` Pareto-dominates it.

    Both arrays are sign-adjusted so that larger is better everywhere.
    """
    ge = (others[None, :, :] >= candidates[:, None, :]).all(axis=2)
    gt = (others[None, :, :] > candidates[:, None, :]).any(axis=2)
    return (ge & gt).any(axis=1)


def _signs(directions) -> np.ndarray:
    return np.array([-1.0 if d == MINIMIZE else 1.0 for d in directions])


def moaco_choices_sound(records: list) -> list:
    """(d) ``records`` holds one dict per moaco-cd decision.

    Keys: interval, directions, archive (the ScoredDecisions handed to
    selection), chosen (selection's result), applied (the Decision returned
    by the decider), iterations and max_iteration.
    """
    problems = []
    for r in records:
        where = f"(d) interval {r['interval']}"
        archive, chosen = r["archive"], r["chosen"]
        keys = {tuple(sorted(e.decision.assignments.items())) for e in archive}
        if tuple(sorted(chosen.decision.assignments.items())) not in keys:
            problems.append(f"{where}: choice is not an archive member")
        if r["applied"].assignments != chosen.decision.assignments:
            problems.append(f"{where}: applied decision differs from the choice")
        fewest = min(e.violation_count for e in archive)
        if chosen.violation_count != fewest:
            problems.append(
                f"{where}: choice has {chosen.violation_count} violations, pool {fewest}"
            )
        signs = _signs(r["directions"])
        pool = np.array([e.objectives for e in archive if e.violation_count == fewest]) * signs
        if dominated_rows(np.array([chosen.objectives]) * signs, pool)[0]:
            problems.append(f"{where}: a pool member Pareto-dominates the choice")
        if r["iterations"] != r["max_iteration"]:
            problems.append(
                f"{where}: colony ran {r['iterations']} of {r['max_iteration']} iterations"
            )
    return problems


def moga_fronts_sound(records: list) -> list:
    """(e) ``records`` holds dicts with interval, directions, front, applied."""
    problems = []
    for r in records:
        where = f"(e) interval {r['interval']}"
        vectors = np.array([e.objectives for e in r["front"]]) * _signs(r["directions"])
        if dominated_rows(vectors, vectors).any():
            problems.append(f"{where}: the front holds a dominated member")
        if r["applied"].assignments not in [e.decision.assignments for e in r["front"]]:
            problems.append(f"{where}: the choice is not on the front")
    return problems


# -- (f) byte identity -----------------------------------------------------


def same_bytes(label: str, first: bytes, second: bytes) -> list:
    """(f) Byte-for-byte equality of two outputs."""
    if first == second:
        return []
    return [f"(f) {label}: the two summary.csv files differ"]


# -- self-test -------------------------------------------------------------


def _worse_copy(entry, directions):
    """A copy of ``entry`` one notch worse on its first objective."""
    objectives = list(entry.objectives)
    step = max(abs(objectives[0]), 1.0) * 1e-3
    objectives[0] += step if directions[0] == MINIMIZE else -step
    return dataclasses.replace(entry, objectives=tuple(objectives))


def self_test(summary=None, recomputed=None, steps=None, cost_owners=None,
              decisions=None, moaco=None, moga=None, summary_bytes=None) -> list:
    """Corrupt one real input per check and require the check to fail.

    Pass whatever the run captured; checks without captured input are
    skipped. Returns the checks that did not catch their corruption.
    """
    missed = []

    def expect_failure(name, problems):
        if not problems:
            missed.append(f"self-test: check {name} accepted a corrupted input")

    if summary:
        key = next(k for k in sorted(summary) if k[1] == "violation_pct")
        altered = dict(summary)
        altered[key] = format(float(summary[key]) * 1.001 + 1e-3, ".10g")
        expect_failure("(a)", summary_matches_interval_logs(altered, recomputed))
    if steps:
        interval, observed, services, specs, config = steps[-1]
        oid = next(iter(cost_owners))
        tampered = dict(observed, **{oid: observed[oid] * 1.01 + 1e-6})
        expect_failure("(b)", costs_match_prices(
            [(interval, tampered, services, specs, config)], cost_owners))
    if decisions:
        interval, specs, assignments = decisions[-1]
        spec = max(specs, key=lambda s: s.step)
        nudge = 1 if spec.step > 1 else spec.upper_bound - assignments[spec.id] + spec.step
        tampered = dict(assignments, **{spec.id: assignments[spec.id] + nudge})
        expect_failure("(c)", decisions_on_grid([(interval, specs, tampered)]))
    if moaco:
        r = moaco[-1]
        worse = _worse_copy(r["chosen"], r["directions"])
        swapped = dict(r, archive=r["archive"] + [worse], chosen=worse, applied=worse.decision)
        expect_failure("(d) dominated choice", moaco_choices_sound([swapped]))
        expect_failure("(d) short colony", moaco_choices_sound(
            [dict(r, iterations=r["max_iteration"] - 1)]))
    if moga:
        r = moga[-1]
        worse = _worse_copy(r["front"][0], r["directions"])
        expect_failure("(e) dominated member", moga_fronts_sound(
            [dict(r, front=r["front"] + [worse])]))
        pid, value = next(iter(r["applied"].assignments.items()))
        elsewhere = dataclasses.replace(
            r["applied"], assignments=dict(r["applied"].assignments, **{pid: value + 0.5})
        )
        expect_failure("(e) choice off the front", moga_fronts_sound(
            [dict(r, applied=elsewhere)]))
    if summary_bytes:
        flipped = bytearray(summary_bytes)
        flipped[-2] ^= 1
        expect_failure("(f)", same_bytes("self-test", summary_bytes, bytes(flipped)))
    return missed
