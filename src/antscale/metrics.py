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

    def objective_ids(self) -> list:
        seen = {}
        for r in self.objective_records:
            seen.setdefault(r.objective_id, None)
        return list(seen)

    def series(self, objective_id: str) -> list:
        return [r.value for r in self.objective_records if r.objective_id == objective_id]

    def direction(self, objective_id: str) -> str:
        for r in self.objective_records:
            if r.objective_id == objective_id:
                return r.direction
        raise KeyError(objective_id)

    def filter_resource(self, resource: str) -> "RunLog":
        return RunLog(
            approach=self.approach,
            objective_records=list(self.objective_records),
            provision_records=[r for r in self.provision_records if r.resource == resource],
            latency_records=list(self.latency_records),
        )

    def resources(self) -> list:
        seen = {}
        for r in self.provision_records:
            seen.setdefault(r.resource, None)
        return list(seen)


def _mean(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("empty series")
    return sum(values) / len(values)


def c_metric(a: RunLog, b: RunLog) -> float:
    """Fraction of objectives where ``a``'s interval average beats or ties ``b``'s.

    Ties count for both sides, so c_metric(a, b) + c_metric(b, a) >= 1.
    """
    ids_a, ids_b = a.objective_ids(), b.objective_ids()
    if set(ids_a) != set(ids_b):
        raise ValueError("logs cover different objective sets")
    if not ids_a:
        raise ValueError("logs contain no objective records")
    wins = 0
    for oid in ids_a:
        avg_a = _mean(a.series(oid))
        avg_b = _mean(b.series(oid))
        if a.direction(oid) == MINIMIZE:
            wins += avg_a <= avg_b
        else:
            wins += avg_a >= avg_b
    return wins / len(ids_a)


def g_distance(logs: dict, target: str) -> float:
    """Normalized distance of one approach's averages from the per-objective best.

    For every objective the best and the maximal interval-average across all
    supplied approaches define the reference and the scale; an objective whose
    maximal average is zero contributes nothing. An approach that is best
    everywhere scores exactly zero.
    """
    if target not in logs:
        raise KeyError(target)
    ids = logs[target].objective_ids()
    for log in logs.values():
        if set(log.objective_ids()) != set(ids):
            raise ValueError("logs cover different objective sets")
    acc = 0.0
    for oid in ids:
        averages = {name: _mean(log.series(oid)) for name, log in logs.items()}
        direction = logs[target].direction(oid)
        best = min(averages.values()) if direction == MINIMIZE else max(averages.values())
        scale = max(averages.values())
        if scale == 0:
            continue
        coord = (averages[target] - best) / scale
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
    """Average repeated runs into one log for cross-approach comparisons.

    Objective values and provision/demand pairs are averaged per (interval,
    id); latencies are pooled. All logs must share one approach label and one
    record structure.
    """
    if not logs:
        raise ValueError("nothing to merge")
    first = logs[0]
    merged = RunLog(approach=first.approach)
    n = len(logs)
    for other in logs[1:]:
        if len(other.objective_records) != len(first.objective_records) or len(
            other.provision_records
        ) != len(first.provision_records):
            raise ValueError("runs have mismatched record counts")
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
    for i, r in enumerate(first.provision_records):
        prov = 0.0
        dem = 0.0
        for log in logs:
            peer = log.provision_records[i]
            if (peer.interval, peer.primitive_id) != (r.interval, r.primitive_id):
                raise ValueError("runs have mismatched provisioning records")
            prov += peer.provision
            dem += peer.demand
        merged.provision_records.append(
            ProvisionRecord(r.interval, r.primitive_id, prov / n, dem / n, r.resource)
        )
    pooled = [rec for log in logs for rec in log.latency_records]
    merged.latency_records = sorted(pooled, key=lambda rec: (rec.interval, rec.seconds))
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
