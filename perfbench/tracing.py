"""Per-layer tracing by wrapping the package's public functions.

A Tracer replaces module attributes (and two class methods) with timing
wrappers, so the package runs unchanged while every call into a layer adds
to that layer's busy seconds and call count. The wrappers also keep what
the correctness checks need: each step's observed costs with the live
configuration, each decision with the bounds it was made under, and each
colony archive or genetic front with the choice taken from it.

Timed spans nest (``experiment.decide`` contains ``colony.optimize``), so
the seconds of different names overlap and do not add up to the wall time.
"""

import time
from collections import defaultdict

from antscale import baselines, colony, domain, dominance, experiment, traces
from antscale.colony import OptimizeStats
from antscale.qosmodel import RegionModel
from antscale.simulator import Simulator

# per-layer metrics in report order: name -> unit
LAYER_METRICS = {
    "domain.load_scenario.s": "s",
    "domain.validate_scenario.s": "s",
    "traces.synthetic_trace.s": "s",
    "qosmodel.predict_matrix.calls": "count",
    "qosmodel.predict_matrix.rows": "count",
    "qosmodel.predict_matrix.s": "s",
    "qosmodel.observe_vector.s": "s",
    "simulator.step.calls": "count",
    "simulator.step.s": "s",
    "simulator.region_runtime.s": "s",
    "simulator.scale_out.count": "count",
    "colony.optimize.calls": "count",
    "colony.optimize.s": "s",
    "colony.heuristic.s": "s",
    "colony.construction.s": "s",
    "colony.update.s": "s",
    "colony.constructions": "count",
    "colony.archive.entries": "count",
    "colony.feasible_per_construction": "ratio",
    "dominance.select_compromise.s": "s",
    "dominance.pool.entries": "count",
    "dominance.dominance_rank.calls": "count",
    "dominance.dominance_rank.s": "s",
    "dominance.distance_select.s": "s",
    "baselines.moga_optimize.s": "s",
    "baselines.nondominated_ranks.calls": "count",
    "baselines.nondominated_ranks.s": "s",
    "baselines.crowding_distances.s": "s",
    "experiment.decide.s": "s",
    "experiment.summarize.s": "s",
    "metrics.write_runlog.s": "s",
    "metrics.write_runlog.bytes": "B",
}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self, cost_owners: dict):
        self.cost_owners = cost_owners      # cost objective id -> owning service
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.steps = []        # (interval, observed, services, specs, config)
        self.decisions = []    # (interval, specs at decision time, assignments)
        self.moaco = []        # one record per moaco-cd decision, see checks (d)
        self.moga = []         # one record per moga decision, see checks (e)
        self._restore = []
        self._current = None   # record of the decision in progress

    # -- installing --------------------------------------------------------

    def __enter__(self):
        plain = [
            (domain, "load_scenario", "domain.load_scenario"),
            (domain, "validate_scenario", "domain.validate_scenario"),
            (traces, "synthetic_trace", "traces.synthetic_trace"),
            (RegionModel, "observe_vector", "qosmodel.observe_vector"),
            (Simulator, "region_runtime", "simulator.region_runtime"),
            (dominance, "dominance_rank", "dominance.dominance_rank"),
            (dominance, "distance_select", "dominance.distance_select"),
            (baselines, "nondominated_ranks", "baselines.nondominated_ranks"),
            (baselines, "crowding_distances", "baselines.crowding_distances"),
            (experiment, "summarize", "experiment.summarize"),
        ]
        for owner, attr, name in plain:
            self._install(owner, attr, self._timed(getattr(owner, attr), name))
        self._install(RegionModel, "predict_matrix", self._predict_matrix(RegionModel.predict_matrix))
        self._install(Simulator, "step", self._step(Simulator.step))
        self._install(colony, "optimize", self._optimize(colony.optimize))
        # experiment imported these by name, so its own references are the ones to wrap
        self._install(experiment, "select_compromise",
                      self._select(experiment.select_compromise))
        self._install(baselines, "moga_optimize", self._moga(baselines.moga_optimize))
        self._install(experiment, "decide", self._decide(experiment.decide))
        self._install(experiment, "write_runlog", self._write_runlog(experiment.write_runlog))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, original, name):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = original(*args, **kwargs)
            self.seconds[name] += time.perf_counter() - started
            self.counts[name] += 1
            return result
        return wrapper

    # -- wrappers that also record -----------------------------------------

    def _predict_matrix(self, original):
        timed = self._timed(original, "qosmodel.predict_matrix")

        def wrapper(model, values, env):
            self.counts["qosmodel.predict_matrix.rows"] += len(values) if values.ndim == 2 else 1
            return timed(model, values, env)
        return wrapper

    def _step(self, original):
        timed = self._timed(original, "simulator.step")

        def wrapper(sim, decision=None):
            result = timed(sim, decision)
            self.counts["simulator.scale_out.count"] += sum(
                1 for event in result.events if event[0] == "scale-out"
            )
            self.steps.append((
                result.env.interval_index, result.observed, sim.topology.services,
                dict(sim.prim_specs), result.env.current_configuration,
            ))
            return result
        return wrapper

    def _optimize(self, original):
        def wrapper(model, env, current_row, grids, cfg, rng, stats=None):
            stats = stats if stats is not None else OptimizeStats()
            started = time.perf_counter()
            archive = original(model, env, current_row, grids, cfg, rng, stats)
            self.seconds["colony.optimize"] += time.perf_counter() - started
            self.counts["colony.optimize"] += 1
            self.seconds["colony.heuristic"] += stats.heuristic_seconds
            self.seconds["colony.construction"] += stats.construction_seconds
            self.seconds["colony.update"] += stats.update_seconds
            self.counts["colony.constructions"] += stats.constructions
            self.counts["colony.archive.entries"] += len(archive)
            self.counts["colony.feasible"] += sum(1 for e in archive if e.violation_count == 0)
            self._current.update(iterations=stats.iterations, max_iteration=cfg.max_iteration)
            return archive
        return wrapper

    def _select(self, original):
        timed = self._timed(original, "dominance.select_compromise")

        def wrapper(scored, directions, rng):
            chosen = timed(scored, directions, rng)
            fewest = min(s.violation_count for s in scored)
            self.counts["dominance.pool.entries"] += sum(
                1 for s in scored if s.violation_count == fewest
            )
            self._current.update(archive=scored, chosen=chosen)
            return chosen
        return wrapper

    def _moga(self, original):
        timed = self._timed(original, "baselines.moga_optimize")

        def wrapper(runtime, cfg, rng):
            archive = timed(runtime, cfg, rng)
            self._current.update(front=archive.entries())
            return archive
        return wrapper

    def _decide(self, original):
        timed = self._timed(original, "experiment.decide")

        def wrapper(approach, runtime, trigger, observed, scenario, time_budget_s, rng):
            self._current = record = {
                "interval": runtime.env.interval_index,
                "directions": [o.direction for o in runtime.model.objectives],
            }
            applied = timed(approach, runtime, trigger, observed, scenario, time_budget_s, rng)
            record["applied"] = applied
            self.decisions.append((record["interval"], list(runtime.specs),
                                   dict(applied.assignments)))
            if approach == "moaco-cd":
                self.moaco.append(record)
            elif approach == "moga":
                self.moga.append(record)
            self._current = None
            return applied
        return wrapper

    def _write_runlog(self, original):
        timed = self._timed(original, "metrics.write_runlog")

        def wrapper(path, log):
            timed(path, log)
            self.counts["metrics.write_runlog.bytes"] += path.stat().st_size
        return wrapper

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as {name: {"value", "unit"}}."""
        values = {}
        for name, unit in LAYER_METRICS.items():
            if name == "colony.feasible_per_construction":
                constructions = self.counts["colony.constructions"]
                value = self.counts["colony.feasible"] / constructions if constructions else 0.0
            elif name.endswith(".s"):
                value = self.seconds[name[:-2]]
            elif name.endswith(".calls"):
                value = self.counts[name[:-6]]
            else:
                value = self.counts[name]
            values[name] = {"value": value, "unit": unit}
        return values
