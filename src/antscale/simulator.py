"""Discrete-interval environment for exercising autoscaling deciders.

Each step covers one 120 s interval: pending horizontal actions land first,
a decision (if any) is applied as instantaneous vertical scaling, the trace
advances, demand proxies produce utilizations, objective observations are
sampled with noise, primitive bounds adapt toward recent behavior, and
horizontal triggers are evaluated for the next interval.
"""

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from .domain import (
    SCOPE_SERVICE,
    SCOPE_VM,
    ControlPrimitiveSpec,
    Decision,
    Region,
    Scenario,
    ServiceInstance,
    Topology,
    VirtualMachine,
    is_replica,
    primitive_id,
    replica_id,
    root_id,
)
from .qosmodel import RegionModel, demand, utilization

TRIGGER_SLA = "sla-violation"
TRIGGER_LOW_UTIL = "low-utilization"


class TraceExhausted(Exception):
    """Signals that the workload trace has no further intervals."""


@dataclass
class EnvironmentState:
    """Snapshot of the environment at one interval."""

    interval_index: int
    workloads: dict = field(default_factory=dict)             # instance id -> req/min
    current_configuration: dict = field(default_factory=dict)  # primitive id -> value
    utilizations: dict = field(default_factory=dict)           # primitive id -> [0, 1]


@dataclass
class IntervalResult:
    env: EnvironmentState
    observed: dict = field(default_factory=dict)   # objective id -> measured value
    demands: dict = field(default_factory=dict)    # primitive id -> requirement proxy
    events: list = field(default_factory=list)


@dataclass
class RegionRuntime:
    """Everything a decider needs about one region at decision time."""

    region: Region
    model: RegionModel
    env: EnvironmentState
    grids: list                  # per primitive, ndarray of selectable values
    current: np.ndarray          # live configuration as a region-ordered row
    specs: list                  # ControlPrimitiveSpec per region primitive


def detect_trigger(env: EnvironmentState, region: Region, observed: dict,
                   objectives: dict, prim_specs: dict):
    """Classify the interval: SLA breach beats low utilization beats nothing."""
    for oid in region.objective_ids:
        obj = objectives[oid]
        if oid in observed and obj.violated(observed[oid]):
            return TRIGGER_SLA
    for pid in region.primitive_ids:
        util = env.utilizations.get(pid)
        if util is not None and util < prim_specs[pid].util_trigger:
            return TRIGGER_LOW_UTIL
    return None


def adapt_bounds(spec: ControlPrimitiveSpec, decided: int, observed: float) -> ControlPrimitiveSpec:
    """Move a primitive's selectable range toward recent behavior.

    ``observed`` is the raw requirement estimate, not yet snapped. The upper
    bound stretches by the configured fraction when both the decided value and
    the observation press against it (at or above threshold * upper) and
    shrinks by the same fraction when both sit clearly below; either way it is
    re-snapped to the grid phase and clamped to the physical maximum. The
    lower bound follows the latest observation, never below the configured
    floor and never above the upper bound, so it relaxes again once demand
    recedes.
    """
    t = spec.adapt_threshold
    k = spec.adapt_fraction
    upper = spec.upper_bound
    gate = t * upper
    if decided >= gate and observed >= gate:
        stretched = upper * (1.0 + k)
    elif decided < gate and observed < gate:
        stretched = upper * (1.0 - k)
    else:
        stretched = float(upper)

    # a shrink never undercuts the lower bound as it was when this ran
    new_upper = int(min(max(spec.phase(stretched), spec.lower_bound), spec.hard_max))
    # the hard clamp may land between grid points; settle on the phase below
    new_upper -= (new_upper - spec.base_lower) % spec.step
    new_lower = int(min(max(spec.base_lower, spec.phase(observed)), new_upper))
    return spec.with_bounds(new_lower, new_upper)


class Simulator:
    """Replays a workload trace against the synthetic environment."""

    def __init__(self, scenario: Scenario, trace: dict, seed: int = 0):
        self.scenario = scenario
        lengths = {len(v) for v in trace.values()}
        if len(lengths) != 1:
            raise ValueError("trace series must share one length")
        self.horizon = lengths.pop()
        for svc in scenario.topology.services:
            if svc.managed and svc.id not in trace:
                raise ValueError(f"trace has no series for managed service {svc.id}")
        self.trace = trace
        self.topology = scenario.topology
        self.prim_specs = dict(scenario.primitives)
        self.config = scenario.initial_configuration()
        self.params = scenario.model
        self.rng = np.random.default_rng(seed)
        self.interval = -1
        self._pending = []          # horizontal ops queued for the next step
        self._fired = set()         # (pm id, resource) pairs awaiting re-arm
        self._replica_seq = itertools.count(1)
        self._models = {}

    # -- deciders' view ----------------------------------------------------

    def effective_region(self, region_id: str) -> Region:
        """The region as deciders must see it right now.

        Scale-out registers clone primitives at runtime.  They feed the same
        objectives as their roots, so the region's decision space grows to
        include them; scale-in shrinks it back.  Static members keep their
        declared order, clones follow sorted by id.
        """
        region = self.scenario.region_by_id(region_id)
        owners = {self.prim_specs[pid].owner for pid in region.primitive_ids}
        extras = sorted(
            pid
            for pid, spec in self.prim_specs.items()
            if is_replica(spec.owner) and root_id(spec.owner) in owners
        )
        if not extras:
            return region
        return dataclasses.replace(
            region, primitive_ids=region.primitive_ids + tuple(extras)
        )

    def region_model(self, region_id: str) -> RegionModel:
        if region_id not in self._models:
            self._models[region_id] = RegionModel(
                self.scenario,
                self.effective_region(region_id),
                self.topology,
                self.prim_specs,
            )
        return self._models[region_id]

    def region_runtime(self, region_id: str, env: EnvironmentState) -> RegionRuntime:
        model = self.region_model(region_id)
        specs = [self.prim_specs[pid] for pid in model.region_pids]
        grids = [np.array(s.grid(), dtype=float) for s in specs]
        current = np.array([float(self.config[pid]) for pid in model.region_pids])
        return RegionRuntime(model.region, model, env, grids, current, specs)

    # -- stepping ----------------------------------------------------------

    def step(self, decision: Decision | None = None) -> IntervalResult:
        """Advance one interval, applying ``decision`` as vertical scaling."""
        if self.interval + 1 >= self.horizon:
            raise TraceExhausted(f"trace ends after {self.horizon} intervals")
        events = []
        self._apply_pending(events)
        decided = {}
        if decision is not None:
            for pid, value in decision.assignments.items():
                if pid not in self.config:
                    # a clone can be reclaimed between decision and apply
                    if is_replica(pid):
                        continue
                    raise KeyError(f"decision touches unknown primitive {pid}")
                self.config[pid] = int(value)
                decided[pid] = int(value)

        self.interval += 1
        workloads = self._split_workloads(self.interval)

        demands = {}
        utilizations = {}
        for pid, spec in self.prim_specs.items():
            d = demand(self.params, spec, self.topology, workloads)
            if d is None:
                continue
            demands[pid] = d
            utilizations[pid] = utilization(d, float(self.config[pid]))

        env = EnvironmentState(
            interval_index=self.interval,
            workloads=workloads,
            current_configuration=dict(self.config),
            utilizations=utilizations,
        )

        observed = {}
        for region in self.scenario.regions:
            model = self.region_model(region.id)
            live = Decision({pid: self.config[pid] for pid in model.region_pids})
            values = model.observe_vector(live, env, self.rng)
            for oid, value in zip(model.objective_ids, values):
                observed[oid] = float(value)

        if decided:
            for pid, value in decided.items():
                spec = self.prim_specs[pid]
                if pid in demands:
                    self.prim_specs[pid] = adapt_bounds(spec, int(value), demands[pid])

        self._evaluate_horizontal(env, events)
        return IntervalResult(env=env, observed=observed, demands=demands, events=events)

    # -- internals ---------------------------------------------------------

    def _split_workloads(self, interval: int) -> dict:
        """Each root's trace value, shared evenly by the root and its replicas."""
        members = {}
        for svc in self.topology.services:
            members.setdefault(root_id(svc.id), []).append(svc.id)
        workloads = {}
        for root, ids in members.items():
            series = self.trace.get(root)
            if series is None:
                continue
            share = float(series[interval]) / len(ids)
            for sid in ids:
                workloads[sid] = share
        return workloads

    def _owned(self, scope: str, owner: str) -> list:
        """Ids of the ``scope`` primitives that the VM or service ``owner`` holds."""
        return [
            pid for pid, s in self.prim_specs.items()
            if s.scope == scope and s.owner == owner
        ]

    def _hosted(self, vm_id: str) -> list:
        """A VM's own primitives, then those of each service it hosts."""
        return self._owned(SCOPE_VM, vm_id) + [
            pid for svc in self.topology.services_on_vm(vm_id)
            for pid in self._owned(SCOPE_SERVICE, svc.id)
        ]

    def _upper_sum(self, vms, resource: str) -> int:
        """Summed live upper bounds of the ``resource`` primitives of ``vms``."""
        return sum(
            self.prim_specs[pid].upper_bound
            for vm in vms
            for pid in self._owned(SCOPE_VM, vm.id)
            if self.prim_specs[pid].resource == resource
        )

    def _evaluate_horizontal(self, env: EnvironmentState, events: list) -> None:
        # scale-out: summed upper bounds crossing PM capacity, edge-triggered
        for pm in self.topology.pms:
            for resource, capacity in pm.capacity.items():
                key = (pm.id, resource)
                if self._upper_sum(self.topology.vms_on_pm(pm.id), resource) > capacity:
                    if key not in self._fired:
                        self._fired.add(key)
                        self._queue_scale_out(pm.id, resource, events)
                else:
                    self._fired.discard(key)

        # scale-in: a replica VM idling at its minimums is reclaimed next interval
        for vm in self.topology.vms:
            if not is_replica(vm.id):
                continue
            pids = self._hosted(vm.id)
            at_min = all(self.config[pid] <= self.prim_specs[pid].lower_bound for pid in pids)
            idle = all(
                env.utilizations.get(pid) is not None
                and env.utilizations[pid] < self.prim_specs[pid].util_trigger
                for pid in pids
            )
            if at_min and idle and pids:
                self._pending.append(("scale-in", vm.id))
                events.append(("scale-in-queued", vm.id))

    def _queue_scale_out(self, pm_id: str, resource: str, events: list) -> None:
        source = max(
            self.topology.vms_on_pm(pm_id), key=lambda vm: self._upper_sum([vm], resource)
        )
        target = self._placement_target(source)
        if target is None:
            events.append(("scale-out-skipped", pm_id, resource))
            return
        self._pending.append(("scale-out", source.id, target))
        events.append(("scale-out-queued", source.id, target))

    def _placement_target(self, source: VirtualMachine):
        """PM with the most headroom that can take a fresh clone of ``source``."""
        need = {}
        for pid in self._owned(SCOPE_VM, source.id):
            base = self.scenario.primitives.get(pid, self.prim_specs[pid])
            need[base.resource] = need.get(base.resource, 0) + base.upper_bound
        best, best_room = None, None
        for pm in self.topology.pms:
            if pm.id == source.pm:
                continue
            rooms = []
            ok = True
            for resource, amount in need.items():
                used = self._upper_sum(self.topology.vms_on_pm(pm.id), resource)
                capacity = pm.capacity.get(resource, 0.0)
                if used + amount > capacity:
                    ok = False
                    break
                rooms.append(capacity - used)
            if ok:
                room = min(rooms) if rooms else 0.0
                if best_room is None or room > best_room:
                    best, best_room = pm.id, room
        return best

    def _apply_pending(self, events: list) -> None:
        ops, self._pending = self._pending, []
        for op in ops:
            if op[0] == "scale-out":
                _, source_id, target_pm = op
                self._clone_vm(source_id, target_pm, events)
            elif op[0] == "scale-in":
                self._remove_vm(op[1], events)
        if ops:
            self._models = {}

    def _clone_vm(self, source_id: str, target_pm: str, events: list) -> None:
        n = next(self._replica_seq)
        new_vm = VirtualMachine(id=replica_id(source_id, n), pm=target_pm)
        sources = self.topology.services_on_vm(source_id)
        new_services = [
            ServiceInstance(id=replica_id(svc.id, n), vm=new_vm.id, managed=False)
            for svc in sources
        ]
        owners = [(SCOPE_VM, source_id, new_vm.id)] + [
            (SCOPE_SERVICE, svc.id, replica.id) for svc, replica in zip(sources, new_services)
        ]
        new_specs = {}
        for scope, owner, clone_owner in owners:
            for pid in self._owned(scope, owner):
                template = self.scenario.primitives.get(pid, self.prim_specs[pid])
                clone = dataclasses.replace(
                    template, id=primitive_id(clone_owner, template.resource), owner=clone_owner
                )
                new_specs[clone.id] = clone
        self.topology = Topology(
            pms=self.topology.pms,
            vms=self.topology.vms + (new_vm,),
            services=self.topology.services + tuple(new_services),
        )
        for pid, spec in new_specs.items():
            self.prim_specs[pid] = spec
            self.config[pid] = spec.initial
        events.append(("scale-out", source_id, new_vm.id, target_pm))

    def _remove_vm(self, vm_id: str, events: list) -> None:
        try:
            self.topology.vm_by_id(vm_id)
        except KeyError:
            return
        doomed_prims = self._hosted(vm_id)
        self.topology = Topology(
            pms=self.topology.pms,
            vms=tuple(vm for vm in self.topology.vms if vm.id != vm_id),
            services=tuple(svc for svc in self.topology.services if svc.vm != vm_id),
        )
        for pid in doomed_prims:
            self.prim_specs.pop(pid, None)
            self.config.pop(pid, None)
        events.append(("scale-in", vm_id))
