"""Core vocabulary for autoscaling decisions.

Control primitives are the knobs (CPU cap, memory, service threads), objectives
are the per-service quality and cost targets, and a region groups the
objectives that must be decided together with the primitives that drive them.
All grid values are integers in the primitive's smallest unit so that
equality, hashing and CSV round-trips stay exact.
"""

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass, field

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
DIRECTIONS = (MINIMIZE, MAXIMIZE)

SCOPE_SERVICE = "per-service"
SCOPE_VM = "per-vm-shared"
SCOPES = (SCOPE_SERVICE, SCOPE_VM)

# scale-out names a replica "<root>~r<n>"; clones of replicas stack suffixes
REPLICA_MARK = "~r"

KIND_RESPONSE_TIME = "response_time"
KIND_THROUGHPUT = "throughput"
KIND_RELIABILITY = "reliability"
KIND_AVAILABILITY = "availability"
KIND_COST = "cost"

# the optimization direction of each objective kind, and the kinds there are
KIND_DIRECTIONS = {
    KIND_RESPONSE_TIME: MINIMIZE,
    KIND_THROUGHPUT: MAXIMIZE,
    KIND_RELIABILITY: MAXIMIZE,
    KIND_AVAILABILITY: MAXIMIZE,
    KIND_COST: MINIMIZE,
}

# the resource labels the QoS model reads
RES_CPU = "cpu"
RES_MEMORY = "memory"
RES_THREAD = "thread"


class ConfigError(Exception):
    """Raised when a scenario document cannot be used as configured."""


# JSON true and false load as bools, which Python counts as integers; a
# setting that takes a count or a rate refuses them
def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def replica_id(base: str, n: int) -> str:
    """Id of the ``n``-th replica cloned from the VM or service ``base``."""
    return f"{base}{REPLICA_MARK}{n}"


def primitive_id(owner: str, resource: str) -> str:
    """Id of the ``resource`` primitive a cloned VM or service owns."""
    return f"{owner}.{resource}"


def root_id(instance_id: str) -> str:
    """The scenario-declared VM or service a (possibly replica) id derives from."""
    return instance_id.split(REPLICA_MARK)[0]


def is_replica(instance_id: str) -> bool:
    """True for replica VMs and services and for the primitives they own."""
    return REPLICA_MARK in instance_id


@dataclass(frozen=True)
class ControlPrimitiveSpec:
    """One scaling knob with its value grid and runtime-adaptive bounds.

    ``lower_bound``/``upper_bound`` move at runtime (functional updates via
    :func:`dataclasses.replace`); ``base_lower`` keeps the configured floor and
    anchors the grid phase, ``hard_min``/``hard_max`` are physical limits.
    """

    id: str
    scope: str
    owner: str            # service id or VM id, depending on scope
    resource: str         # capacity type label: "cpu", "memory", "thread", ...
    unit: str
    initial: int
    step: int
    base_lower: int
    lower_bound: int
    upper_bound: int
    hard_min: int
    hard_max: int
    price: float
    util_trigger: float   # utilization below this marks the primitive idle
    adapt_threshold: float
    adapt_fraction: float

    def grid(self) -> list[int]:
        """All selectable values from lower to upper bound, inclusive."""
        return list(range(self.lower_bound, self.upper_bound + 1, self.step))

    def on_grid(self, value) -> bool:
        if value != int(value):
            return False
        value = int(value)
        if value < self.lower_bound or value > self.upper_bound:
            return False
        return (value - self.base_lower) % self.step == 0

    def phase(self, value: float) -> int:
        """Nearest point of the grid's phase to ``value``, not clamped to bounds."""
        ticks = math.floor((value - self.base_lower) / self.step + 0.5)
        return self.base_lower + ticks * self.step

    def snap(self, value: float) -> int:
        """Nearest grid value to an arbitrary observation, clamped to bounds."""
        return int(min(max(self.phase(value), self.lower_bound), self.upper_bound))

    def with_bounds(self, lower: int, upper: int) -> "ControlPrimitiveSpec":
        return dataclasses.replace(self, lower_bound=int(lower), upper_bound=int(upper))


@dataclass(frozen=True)
class Decision:
    """A complete assignment of grid values to a region's primitives."""

    assignments: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ObjectiveSpec:
    """A single optimization target tied to one managed service.

    Its kind alone fixes its direction and its QoS model: a cost is an exact
    price sum, every other kind a noisy output of the queue model.
    """

    id: str
    kind: str
    owner: str
    threshold: float      # SLA level or budget, in the objective's unit

    @property
    def direction(self) -> str:
        return KIND_DIRECTIONS[self.kind]

    def violated(self, value: float) -> bool:
        """Direction-aware requirement check; meeting the threshold exactly passes."""
        if self.direction == MINIMIZE:
            return value > self.threshold
        return value < self.threshold


@dataclass(frozen=True)
class PhysicalMachine:
    id: str
    capacity: dict = field(default_factory=dict)   # resource label -> amount


@dataclass(frozen=True)
class VirtualMachine:
    id: str
    pm: str


@dataclass(frozen=True)
class ServiceInstance:
    id: str
    vm: str
    managed: bool = True


@dataclass(frozen=True)
class Topology:
    """Static deployment layout: PMs hosting VMs hosting service instances."""

    pms: tuple = ()
    vms: tuple = ()
    services: tuple = ()

    def pm_by_id(self, pm_id: str) -> PhysicalMachine:
        for pm in self.pms:
            if pm.id == pm_id:
                return pm
        raise KeyError(pm_id)

    def vm_by_id(self, vm_id: str) -> VirtualMachine:
        for vm in self.vms:
            if vm.id == vm_id:
                return vm
        raise KeyError(vm_id)

    def service_by_id(self, service_id: str) -> ServiceInstance:
        for svc in self.services:
            if svc.id == service_id:
                return svc
        raise KeyError(service_id)

    def vms_on_pm(self, pm_id: str) -> list[VirtualMachine]:
        return [vm for vm in self.vms if vm.pm == pm_id]

    def services_on_vm(self, vm_id: str) -> list[ServiceInstance]:
        return [svc for svc in self.services if svc.vm == vm_id]


@dataclass(frozen=True)
class Region:
    """Objectives that must be traded off together plus the primitives they read."""

    id: str
    objective_ids: tuple = ()
    primitive_ids: tuple = ()


@dataclass
class Scenario:
    """Everything needed to run one experiment: layout, knobs, targets, tuning."""

    name: str
    topology: Topology
    primitives: dict          # primitive id -> ControlPrimitiveSpec
    objectives: dict          # objective id -> ObjectiveSpec
    regions: list
    model_params: dict = field(default_factory=dict)
    algorithm_params: dict = field(default_factory=dict)
    trace_params: dict = field(default_factory=dict)

    def primitives_for_service(self, service_id: str) -> list[str]:
        """Ids of the primitives a service's objectives read.

        Its own and its VM's, plus what interference adds: the CPU of every
        VM on its VM's PM and the threads of every service on its VM.
        """
        topo = self.topology
        vm_id = topo.service_by_id(service_id).vm
        pms = {vm.pm for vm in topo.vms if vm.id == vm_id}
        shared = {(SCOPE_VM, vm.id, RES_CPU) for vm in topo.vms if vm.pm in pms}
        shared |= {(SCOPE_SERVICE, svc.id, RES_THREAD) for svc in topo.services_on_vm(vm_id)}
        return [
            pid for pid, spec in self.primitives.items()
            if (spec.scope, spec.owner) in ((SCOPE_SERVICE, service_id), (SCOPE_VM, vm_id))
            or (spec.scope, spec.owner, spec.resource) in shared
        ]

    def region_by_id(self, region_id: str) -> Region:
        for region in self.regions:
            if region.id == region_id:
                return region
        raise KeyError(region_id)

    def initial_configuration(self) -> dict:
        return {pid: spec.initial for pid, spec in self.primitives.items()}


def _primitive_from_dict(entry: dict) -> ControlPrimitiveSpec:
    lower = int(entry["min"])
    upper = int(entry["max"])
    return ControlPrimitiveSpec(
        id=entry["id"],
        scope=entry["scope"],
        owner=entry["owner"],
        resource=entry["resource"],
        unit=entry.get("unit", ""),
        initial=int(entry["initial"]),
        step=int(entry["step"]),
        base_lower=lower,
        lower_bound=lower,
        upper_bound=upper,
        hard_min=int(entry.get("hard_min", lower)),
        hard_max=int(entry.get("hard_max", upper)),
        price=float(entry.get("price", 0.0)),
        util_trigger=float(entry.get("util_trigger", 0.5)),
        adapt_threshold=float(entry.get("adapt_threshold", 0.7)),
        adapt_fraction=float(entry.get("adapt_fraction", 0.1)),
    )


def _objective_from_dict(entry: dict) -> ObjectiveSpec:
    # the kind fixes direction, model and noise, so no key may set them
    unknown = sorted(set(entry) - {"id", "kind", "owner", "threshold"})
    if unknown:
        raise ConfigError(f"objective {entry.get('id')}: unknown keys {unknown}")
    if entry["kind"] not in KIND_DIRECTIONS:
        raise ConfigError(f"objective {entry.get('id')}: unknown kind {entry['kind']!r}")
    return ObjectiveSpec(entry["id"], entry["kind"], entry["owner"], float(entry["threshold"]))


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document. Structural errors raise ConfigError."""
    try:
        topo_doc = doc["topology"]
        topology = Topology(
            pms=tuple(PhysicalMachine(p["id"], dict(p.get("capacity", {}))) for p in topo_doc["pms"]),
            vms=tuple(VirtualMachine(v["id"], v["pm"]) for v in topo_doc["vms"]),
            services=tuple(
                ServiceInstance(s["id"], s["vm"], bool(s.get("managed", True)))
                for s in topo_doc["services"]
            ),
        )
        primitives = {}
        for entry in doc["primitives"]:
            primitives[entry["id"]] = _primitive_from_dict(entry)
        objectives = {}
        for entry in doc["objectives"]:
            objectives[entry["id"]] = _objective_from_dict(entry)
        regions = [
            Region(r["id"], tuple(r["objectives"]), tuple(r["primitives"]))
            for r in doc["regions"]
        ]
    except KeyError as missing:
        raise ConfigError(f"scenario document is missing key {missing}") from missing
    return Scenario(
        name=doc.get("name", "scenario"),
        topology=topology,
        primitives=primitives,
        objectives=objectives,
        regions=regions,
        model_params=dict(doc.get("model", {})),
        algorithm_params=dict(doc.get("algorithms", {})),
        trace_params=dict(doc.get("trace", {})),
    )


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check referential and numeric consistency.

    Returns a list of human-readable violations, each prefixed with the path of
    the offending element. An empty list means the scenario is usable.
    """
    problems = []
    topo = scenario.topology

    pm_ids = [pm.id for pm in topo.pms]
    vm_ids = [vm.id for vm in topo.vms]
    svc_ids = [svc.id for svc in topo.services]
    for label, ids in (("pms", pm_ids), ("vms", vm_ids), ("services", svc_ids)):
        seen = set()
        for i, id_ in enumerate(ids):
            if id_ in seen:
                problems.append(f"topology.{label}[{i}]: duplicate id {id_!r}")
            seen.add(id_)
    for i, vm in enumerate(topo.vms):
        if vm.pm not in pm_ids:
            problems.append(f"topology.vms[{i}]: unknown pm {vm.pm!r}")
    for i, svc in enumerate(topo.services):
        if svc.vm not in vm_ids:
            problems.append(f"topology.services[{i}]: unknown vm {svc.vm!r}")

    for pid, spec in scenario.primitives.items():
        where = f"primitives[{pid}]"
        if spec.scope not in SCOPES:
            problems.append(f"{where}.scope: {spec.scope!r} not one of {SCOPES}")
        elif spec.scope == SCOPE_SERVICE and spec.owner not in svc_ids:
            problems.append(f"{where}.owner: unknown service {spec.owner!r}")
        elif spec.scope == SCOPE_VM and spec.owner not in vm_ids:
            problems.append(f"{where}.owner: unknown vm {spec.owner!r}")
        if spec.step < 1:
            problems.append(f"{where}.step: must be a positive integer, got {spec.step}")
            continue
        if not spec.hard_min <= spec.lower_bound <= spec.upper_bound <= spec.hard_max:
            problems.append(
                f"{where}: bounds must satisfy hard_min <= lower <= upper <= hard_max, "
                f"got {spec.hard_min} <= {spec.lower_bound} <= {spec.upper_bound} <= {spec.hard_max}"
            )
        if (spec.upper_bound - spec.lower_bound) % spec.step != 0:
            problems.append(f"{where}: upper bound {spec.upper_bound} is off the value grid")
        if not spec.on_grid(spec.initial):
            problems.append(f"{where}.initial: {spec.initial} is off the value grid")
        if spec.price < 0:
            problems.append(f"{where}.price: must be non-negative, got {spec.price}")
        if not 0 < spec.util_trigger < 1:
            problems.append(f"{where}.util_trigger: must lie in (0, 1), got {spec.util_trigger}")
        if not 0 < spec.adapt_threshold <= 1:
            problems.append(f"{where}.adapt_threshold: must lie in (0, 1], got {spec.adapt_threshold}")
        if not 0 < spec.adapt_fraction < 1:
            problems.append(f"{where}.adapt_fraction: must lie in (0, 1), got {spec.adapt_fraction}")
        if spec.scope == SCOPE_VM and spec.owner in vm_ids:
            pm = topo.pm_by_id(topo.vm_by_id(spec.owner).pm)
            if spec.resource not in pm.capacity:
                problems.append(
                    f"{where}.resource: {spec.resource!r} has no capacity entry on {pm.id}"
                )

    owned = {(spec.scope, spec.owner, spec.resource) for spec in scenario.primitives.values()}
    for oid, obj in scenario.objectives.items():
        where = f"objectives[{oid}]"
        if obj.owner not in svc_ids:
            problems.append(f"{where}.owner: unknown service {obj.owner!r}")
        elif obj.kind != KIND_COST:
            # the queue model reads its VM's cpu and memory and its threads
            vm = topo.service_by_id(obj.owner).vm
            reads = {(SCOPE_VM, vm, RES_CPU), (SCOPE_VM, vm, RES_MEMORY),
                     (SCOPE_SERVICE, obj.owner, RES_THREAD)}
            for _, owner, resource in sorted(reads - owned):
                problems.append(f"{where}: the queue model needs a {resource} primitive on {owner!r}")
        if not math.isfinite(obj.threshold) or obj.threshold <= 0:
            problems.append(f"{where}.threshold: must be finite and positive, got {obj.threshold}")

    seen_objs, seen_prims = set(), set()
    for region in scenario.regions:
        where = f"regions[{region.id}]"
        for oid in region.objective_ids:
            if oid not in scenario.objectives:
                problems.append(f"{where}: unknown objective {oid!r}")
            elif oid in seen_objs:
                problems.append(f"{where}: objective {oid!r} appears in more than one region")
            seen_objs.add(oid)
        for pid in region.primitive_ids:
            if pid not in scenario.primitives:
                problems.append(f"{where}: unknown primitive {pid!r}")
            elif pid in seen_prims:
                problems.append(f"{where}: primitive {pid!r} appears in more than one region")
            seen_prims.add(pid)
        # each objective's model inputs must all be decidable inside its region
        prim_set = set(region.primitive_ids)
        for oid in region.objective_ids:
            obj = scenario.objectives.get(oid)
            if obj is None or obj.owner not in svc_ids:
                continue
            for pid in scenario.primitives_for_service(obj.owner):
                if pid not in prim_set:
                    problems.append(
                        f"{where}: objective {oid!r} reads primitive {pid!r} outside the region"
                    )
    return problems

