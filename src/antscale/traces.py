"""Workload traces: CSV ingestion and a synthetic day-in-the-life generator.

Trace files are long-format CSV with header ``interval,service_id,req_per_min``.
Intervals must be contiguous from zero and identical across services.
"""

import csv

import numpy as np

from .domain import ConfigError

TRACE_HEADER = ["interval", "service_id", "req_per_min"]

# Envelope of the synthetic shape as (horizon fraction, load fraction) knots.
# Slow morning ramp onto a plateau, a sharp spike around two thirds of the
# horizon, then decay; the spike-to-base ratio is what stresses deciders.
_SHAPE = [
    (0.00, 0.30),
    (0.18, 0.55),
    (0.32, 0.62),
    (0.50, 0.68),
    (0.60, 0.80),
    (0.66, 1.00),
    (0.72, 1.00),
    (0.78, 0.75),
    (0.90, 0.48),
    (1.00, 0.38),
]


def synthetic_trace(service_ids, intervals: int, seed: int, peak: float = 400.0,
                    noise: float = 0.04, profiles: dict | None = None) -> dict:
    """Generate per-service workload series with a ramp-plateau-spike shape.

    Args:
        service_ids: services to emit series for, in a stable order.
        intervals: number of 120 s intervals to cover.
        seed: generator seed; identical inputs give identical series.
        peak: requests per minute at the spike for a profile scale of 1.0.
        noise: relative jitter applied multiplicatively per interval.
        profiles: optional per-service scale factors (default 1.0 each).

    Returns:
        Mapping service id -> list of req/min values, one per interval.
    """
    if intervals < 1:
        raise ValueError("intervals must be >= 1")
    rng = np.random.default_rng(seed)
    xs = np.array([p[0] for p in _SHAPE])
    ys = np.array([p[1] for p in _SHAPE])
    frac = np.linspace(0.0, 1.0, intervals)
    envelope = np.interp(frac, xs, ys)
    out = {}
    profiles = profiles or {}
    for service_id in service_ids:
        scale = float(profiles.get(service_id, 1.0))
        jitter = np.clip(rng.normal(1.0, noise, size=intervals), 0.2, None)
        series = envelope * peak * scale * jitter
        out[service_id] = [float(max(v, 0.0)) for v in series]
    return out


def write_trace_csv(path, workloads: dict) -> None:
    """Write a workload mapping to long-format CSV, sorted for determinism."""
    lengths = {len(series) for series in workloads.values()}
    if len(lengths) > 1:
        raise ConfigError(f"trace series lengths differ: {sorted(lengths)}")
    n = lengths.pop() if lengths else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for interval in range(n):
            for service_id in sorted(workloads):
                writer.writerow([interval, service_id, format(workloads[service_id][interval], ".6g")])


def load_trace_csv(path) -> dict:
    """Read a trace CSV back into service -> series form, checking shape.

    Raises ConfigError on a malformed header, a repeated or missing interval,
    loads that are negative or not finite, or series of unequal length.
    """
    per_service = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != TRACE_HEADER:
            raise ConfigError(f"trace {path}: expected header {','.join(TRACE_HEADER)}")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                interval = int(row[0])
                service_id = row[1]
                load = float(row[2])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"trace {path}:{row_no}: malformed row {row!r}") from exc
            if not 0 <= load < np.inf:
                raise ConfigError(f"trace {path}:{row_no}: load {load} is negative or not finite")
            samples = per_service.setdefault(service_id, {})
            if interval in samples:
                raise ConfigError(
                    f"trace {path}:{row_no}: repeats interval {interval} of {service_id}"
                )
            samples[interval] = load
    if not per_service:
        raise ConfigError(f"trace {path}: no data rows")
    series = {}
    lengths = set()
    for service_id, samples in per_service.items():
        n = len(samples)
        if sorted(samples) != list(range(n)):
            raise ConfigError(f"trace {path}: intervals for {service_id} are not contiguous from 0")
        series[service_id] = [samples[i] for i in range(n)]
        lengths.add(n)
    if len(lengths) > 1:
        raise ConfigError(f"trace {path}: services cover different interval counts {sorted(lengths)}")
    return series
