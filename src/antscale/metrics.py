"""Scoring finished runs: coverage, distance, violations, provisioning, overhead.

A RunLog keeps three record streams per run: observed objective values with
their targets, provisioned-versus-required amounts per primitive, and
decision latencies. Logs round-trip through a single long-format CSV so runs
can be compared offline without re-simulation.
"""

import csv
import math
from dataclasses import dataclass, field

from .domain import DIRECTIONS, MINIMIZE

RUNLOG_HEADER = ["record", "interval", "id", "value", "aux", "tag"]


@dataclass(frozen=True)
class ObjectiveRecord:
    interval: int
    objective_id: str
    value: float
    threshold: float
    direction: str


@dataclass(frozen=True)
class ProvisionRecord:
    interval: int
    primitive_id: str
    provision: float
    demand: float
    resource: str


@dataclass(frozen=True)
class LatencyRecord:
    interval: int
    seconds: float


@dataclass
class RunLog:
    """All measurements from one run of one approach."""

    approach: str = ""
    objective_records: list = field(default_factory=list)
    provision_records: list = field(default_factory=list)
    latency_records: list = field(default_factory=list)

    def tail(self, first_interval: int) -> "RunLog":
        """Copy with every record before ``first_interval`` dropped."""
        return RunLog(
            approach=self.approach,
            objective_records=[r for r in self.objective_records if r.interval >= first_interval],
            provision_records=[r for r in self.provision_records if r.interval >= first_interval],
            latency_records=[r for r in self.latency_records if r.interval >= first_interval],
        )

    def objective_means(self) -> dict:
        """{objective id: (interval average, direction)} in first-seen order, in one pass."""
        series = {}
        for r in self.objective_records:
            series.setdefault(r.objective_id, (r.direction, []))[1].append(r.value)
        return {oid: (sum(values) / len(values), direction)
                for oid, (direction, values) in series.items()}

    def filter_resource(self, resource: str) -> "RunLog":
        """Copy holding only the provision records of one resource."""
        return RunLog(
            approach=self.approach,
            provision_records=[r for r in self.provision_records if r.resource == resource],
        )

    def resources(self) -> list:
        """Resource labels of the provision records, in first-seen order."""
        return list(dict.fromkeys(r.resource for r in self.provision_records))


def c_metric(a: RunLog, b: RunLog) -> float:
    """Fraction of objectives where ``a``'s interval average beats or ties ``b``'s.

    Ties count for both sides, so c_metric(a, b) + c_metric(b, a) >= 1.
    """
    means_a, means_b = a.objective_means(), b.objective_means()
    if means_a.keys() != means_b.keys():
        raise ValueError("logs cover different objective sets")
    if not means_a:
        raise ValueError("logs contain no objective records")
    wins = 0
    for oid, (avg_a, direction) in means_a.items():
        avg_b = means_b[oid][0]
        wins += avg_a <= avg_b if direction == MINIMIZE else avg_a >= avg_b
    return wins / len(means_a)


def g_distance(logs: dict, target: str) -> float:
    """Normalized distance of one approach's averages from the per-objective best.

    For every objective the best and the maximal interval-average across all
    supplied approaches define the reference and the scale; an objective whose
    maximal average is zero contributes nothing. An approach that is best
    everywhere scores exactly zero.
    """
    if target not in logs:
        raise KeyError(target)
    means = {name: log.objective_means() for name, log in logs.items()}
    own = means[target]
    if any(m.keys() != own.keys() for m in means.values()):
        raise ValueError("logs cover different objective sets")
    acc = 0.0
    for oid, (average, direction) in own.items():
        averages = [m[oid][0] for m in means.values()]
        best = min(averages) if direction == MINIMIZE else max(averages)
        scale = max(averages)
        if scale == 0:
            continue
        coord = (average - best) / scale
        acc += coord * coord
    return math.sqrt(acc)


def violation_pct(log: RunLog, objective_id: str) -> float:
    """Average relative breach extent for one objective, as a percentage.

    An interval that meets its target contributes zero; a breaching interval
    contributes |observed - target| / target. A zero target cannot be scored
    and raises ValueError.
    """
    records = [r for r in log.objective_records if r.objective_id == objective_id]
    if not records:
        raise ValueError(f"no records for objective {objective_id}")
    total = 0.0
    for r in records:
        if r.threshold == 0:
            raise ValueError(f"objective {objective_id}: zero threshold is not scoreable")
        breached = r.value > r.threshold if r.direction == MINIMIZE else r.value < r.threshold
        if breached:
            total += abs(r.value - r.threshold) / abs(r.threshold)
    return 100.0 * total / len(records)


def provisioning_pct(log: RunLog, mode: str) -> float:
    """Average relative over- or under-shoot of provision against demand.

    ``mode`` is "over" (provision exceeds demand) or "under". Entries whose
    demand is zero are skipped entirely, on both sides of the average, since
    relative error against nothing is undefined.
    """
    if mode not in ("over", "under"):
        raise ValueError(f"mode must be 'over' or 'under', got {mode!r}")
    if not log.provision_records:
        raise ValueError("log has no provisioning records")
    total = 0.0
    counted = 0
    for r in log.provision_records:
        if r.demand == 0:
            continue
        counted += 1
        if mode == "over" and r.provision > r.demand:
            total += (r.provision - r.demand) / r.demand
        elif mode == "under" and r.provision < r.demand:
            total += (r.demand - r.provision) / r.demand
    if counted == 0:
        return 0.0
    return 100.0 * total / counted


def overhead(log: RunLog) -> tuple:
    """(fastest, slowest) decision latency in seconds."""
    if not log.latency_records:
        raise ValueError("log has no latency records")
    seconds = [r.seconds for r in log.latency_records]
    return (min(seconds), max(seconds))


def merge_runs(logs: list) -> RunLog:
    """Average repeated runs' objective values per (interval, id) into one log.

    The merged log holds objective records only, which is all the
    cross-approach comparisons read. All logs must share one approach label and
    one objective record structure.
    """
    if not logs:
        raise ValueError("nothing to merge")
    first = logs[0]
    if any(len(log.objective_records) != len(first.objective_records) for log in logs):
        raise ValueError("runs have mismatched record counts")
    merged = RunLog(approach=first.approach)
    n = len(logs)
    for i, r in enumerate(first.objective_records):
        total = 0.0
        for log in logs:
            peer = log.objective_records[i]
            if (peer.interval, peer.objective_id) != (r.interval, r.objective_id):
                raise ValueError("runs have mismatched objective records")
            total += peer.value
        merged.objective_records.append(
            ObjectiveRecord(r.interval, r.objective_id, total / n, r.threshold, r.direction)
        )
    return merged


def write_runlog(path, log: RunLog) -> None:
    """Serialize one run's records to long-format CSV, append order preserved."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUNLOG_HEADER)
        for r in log.objective_records:
            writer.writerow([
                "objective", r.interval, r.objective_id,
                format(r.value, ".10g"), format(r.threshold, ".10g"), r.direction,
            ])
        for r in log.provision_records:
            writer.writerow([
                "provision", r.interval, r.primitive_id,
                format(r.provision, ".10g"), format(r.demand, ".10g"), r.resource,
            ])
        for r in log.latency_records:
            writer.writerow([
                "latency", r.interval, "decision", format(r.seconds, ".10g"), "", "",
            ])


def read_runlog(path, approach: str = "") -> RunLog:
    log = RunLog(approach=approach)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RUNLOG_HEADER:
            raise ValueError(f"{path}: expected header {','.join(RUNLOG_HEADER)}")
        for row in reader:
            if not row:
                continue
            kind, interval, id_, value, aux, tag = row
            if kind == "objective":
                if tag not in DIRECTIONS:
                    raise ValueError(f"{path}: bad direction {tag!r}")
                log.objective_records.append(
                    ObjectiveRecord(int(interval), id_, float(value), float(aux), tag)
                )
            elif kind == "provision":
                log.provision_records.append(
                    ProvisionRecord(int(interval), id_, float(value), float(aux), tag)
                )
            elif kind == "latency":
                log.latency_records.append(LatencyRecord(int(interval), float(value)))
            else:
                raise ValueError(f"{path}: unknown record kind {kind!r}")
    return log
