"""Core vocabulary for autoscaling decisions.

Control primitives are the knobs (CPU cap, memory, service threads), objectives
are the per-service quality and cost targets, and a region groups the
objectives that must be decided together with the primitives that drive them.
All grid values are integers in the primitive's smallest unit so that
equality, hashing and CSV round-trips stay exact.

:func:`scenario_from_dict` is the one reader of a scenario document: it
checks every key and number once and builds the typed settings (the QoS
model's coefficients, the colony's and the genetic search's configs) that
every other module reads from the :class:`Scenario`.
"""

import dataclasses
import json
import math
import numbers
import os
import sys
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


_REQUIRED = object()


def _read(where: str, doc: dict, key: str, kind, default=_REQUIRED):
    """``doc[key]``, or ``default`` when it is absent, under the document's type rule.

    Every value in a scenario document follows one rule: an integer is
    integral (``is_integer``) and fits in 64 bits, a real is a finite
    ``is_real``, a flag is a bool and a name is a string. Anything else, a
    string, a bool where a number is due or a fraction where an integer is
    due, raises a ConfigError naming ``where`` and ``key``. A missing key
    without a default raises KeyError.
    """
    value = doc.get(key, default)
    if value is _REQUIRED:
        raise KeyError(key)
    if kind is bool:
        ok, due = isinstance(value, bool), "true or false"
    elif kind is str:
        ok, due = isinstance(value, str), "a string"
    elif kind is int:
        # numpy sizes and indexes with int64, so a larger count cannot run
        ok, due = is_integer(value) and -2**63 <= value < 2**63, "an integer that fits in 64 bits"
    else:
        # an exact compare, so an int too large for a float is refused too
        ok, due = is_real(value) and abs(value) <= sys.float_info.max, "a finite number"
    if not ok:
        raise ConfigError(f"{where}: {key} must be {due}, got {value!r}")
    return kind(value)


def _block(where: str, doc, known=None) -> dict:
    """``doc`` if it is an object whose keys all lie in ``known`` (any when None)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(known)) if known is not None else []
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return doc


def _reals(where: str, doc) -> dict:
    """An object of finite numbers under any keys, read as floats."""
    return {key: _read(where, doc, key, float) for key in _block(where, doc)}


def _settings(where: str, cls, doc) -> dict:
    """The fields of ``cls`` that ``doc`` sets: an int field as an integer, any other as a real.

    The plan's per-decision budget sets ``time_budget_s``; a scenario may not.
    """
    kinds = {f.name: f.type for f in dataclasses.fields(cls) if f.name != "time_budget_s"}
    doc = _block(where, doc, kinds)
    return {key: _read(where, doc, key, int if kinds[key] is int else float) for key in doc}


def _names(where: str, doc: dict, key: str) -> tuple:
    """``doc[key]``, a list of strings, as a tuple."""
    names = doc[key]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ConfigError(f"{where}: {key} must be a list of strings, got {names!r}")
    return tuple(names)


def _entries(path: str, label: str, docs, keys, cloned: bool = False) -> list:
    """``(where, entry)`` for each entry of the list ``docs`` found at ``path``.

    Every entry must be an object with keys from ``keys`` and a string
    ``id`` that no other entry of the list has; ``where`` names it as
    ``"<label> <id>"``. Scale-out clones the entries of a ``cloned`` list
    (VMs, services and their primitives) under ids that hold REPLICA_MARK,
    so a declared id there may not hold it.
    """
    if not isinstance(docs, list):
        raise ConfigError(f"{path}: must be a list, got {docs!r}")
    found = {}
    for i, entry in enumerate(docs):
        eid = _read(f"{path}[{i}]", _block(f"{path}[{i}]", entry), "id", str)
        if eid in found:
            raise ConfigError(f"{path}[{i}]: duplicate id {eid!r}")
        if cloned and REPLICA_MARK in eid:
            raise ConfigError(f"{path}[{i}]: id {eid!r} holds the replica mark {REPLICA_MARK!r}")
        found[eid] = _block(f"{label} {eid}", entry, keys)
    return [(f"{label} {eid}", entry) for eid, entry in found.items()]


def path_component(what: str, name) -> str:
    """``name`` if it is a string that names one directory, else a ConfigError.

    The name may not be empty, ``.`` or ``..``, or hold a path separator or NUL.
    """
    if (not isinstance(name, str) or name in ("", ".", "..")
            or any(mark and mark in name for mark in (os.sep, os.altsep, "\0"))):
        raise ConfigError(f"{what} must be a single path component, got {name!r}")
    return name


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


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the synthetic environment, all overridable per scenario."""

    cpu_rate: float = 6.0             # req/min served per effective CPU% share
    thread_rate: float = 14.0         # req/min served per service thread
    overload_penalty: float = 10.0    # req/min lost per thread beyond saturation
    thread_sat_per_mb: float = 0.04   # threads a VM's memory can back, per MB
    cpu_contention_limit: float = 95.0  # per-PM CPU use before contention bites
    rt_base_ms: float = 0.5           # service time at an idle queue
    rel_slope: float = 2.0            # steepness of the reliability response, per ms
    avail_slope: float = 2.0
    avail_rt_ref_ms: float = 4.0      # response level counted against availability
    rel_rt_ref_ms: float = 2.0        # fallback when the owner has no RT target
    min_capacity: float = 1.0
    noise_std: float = 0.05
    cpu_demand_per_req: float = 0.12  # demand proxies, per req/min of workload
    mem_demand_base: float = 180.0
    mem_demand_per_req: float = 0.15
    thread_demand_per_req: float = 0.03

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelParams":
        return cls(**_settings("model", cls, doc))


@dataclass(frozen=True)
class MoacoConfig:
    """Tuning knobs for one optimizer invocation."""

    alpha: float = 4.0            # pheromone exponent in value selection
    beta: float = 1.0             # heuristic exponent
    rho: float = 0.1              # evaporation rate
    floor_ratio: float = 0.5      # trail floor as a fraction of the ceiling
    max_iteration: int = 5
    max_ant: int = 150
    max_run: int = 100            # construction retries per ant
    time_budget_s: float = math.inf

    @classmethod
    def from_dict(cls, doc: dict) -> "MoacoConfig":
        cfg = cls(**_settings("moaco", cls, doc))
        for name in ("max_iteration", "max_ant", "max_run"):
            value = getattr(cfg, name)
            if value < 1:
                raise ConfigError(f"moaco: {name} must be a positive integer, got {value!r}")
        for name in ("alpha", "beta"):
            value = getattr(cfg, name)
            if value < 0:
                raise ConfigError(f"moaco: {name} must be a finite number >= 0, got {value!r}")
        if not 0 < cfg.rho < 1:
            raise ConfigError(f"moaco: rho must lie in (0, 1), got {cfg.rho!r}")
        if not 0 < cfg.floor_ratio <= 1:
            raise ConfigError(f"moaco: floor_ratio must lie in (0, 1], got {cfg.floor_ratio!r}")
        return cfg


@dataclass(frozen=True)
class MogaConfig:
    population: int = 100
    generations: int = 50
    crossover_rate: float = 0.9
    mutation_rate: float | None = None   # default 1 / number of primitives
    time_budget_s: float = math.inf

    @classmethod
    def from_dict(cls, doc: dict) -> "MogaConfig":
        cfg = cls(**_settings("moga", cls, doc))
        if cfg.population < 2 or cfg.population % 2:
            raise ConfigError(
                f"moga: population must be a positive even integer, got {cfg.population!r}")
        if cfg.generations < 0:
            raise ConfigError(
                f"moga: generations must be an integer >= 0, got {cfg.generations!r}")
        rates = {"crossover_rate": cfg.crossover_rate}
        if cfg.mutation_rate is not None:
            rates["mutation_rate"] = cfg.mutation_rate
        for name, value in rates.items():
            if not 0 <= value <= 1:
                raise ConfigError(f"moga: {name} must lie in [0, 1], got {value!r}")
        return cfg


@dataclass
class Scenario:
    """Everything needed to run one experiment: layout, knobs, targets, tuning.

    :func:`scenario_from_dict` reads every setting once, when the scenario
    loads; the QoS model, the deciders and trace synthesis take theirs from
    these fields.
    """

    name: str
    topology: Topology
    primitives: dict          # primitive id -> ControlPrimitiveSpec
    objectives: dict          # objective id -> ObjectiveSpec
    regions: list
    model: ModelParams
    moaco: MoacoConfig
    moga: MogaConfig
    search_evaluations: int   # hill and random's model rows per decision
    trace_peak: float         # synthetic trace: req/min at the spike
    trace_noise: float        # synthetic trace: relative jitter per interval
    trace_profiles: dict      # synthetic trace: managed service id -> load scale

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


_PRIMITIVE_KEYS = (
    "id", "scope", "owner", "resource", "unit", "initial", "step", "min", "max",
    "hard_min", "hard_max", "price", "util_trigger", "adapt_threshold", "adapt_fraction",
)


def _primitive_from_dict(where: str, entry: dict) -> ControlPrimitiveSpec:
    lower = _read(where, entry, "min", int)
    upper = _read(where, entry, "max", int)
    return ControlPrimitiveSpec(
        id=entry["id"],
        scope=_read(where, entry, "scope", str),
        owner=_read(where, entry, "owner", str),
        resource=_read(where, entry, "resource", str),
        unit=_read(where, entry, "unit", str, ""),
        initial=_read(where, entry, "initial", int),
        step=_read(where, entry, "step", int),
        base_lower=lower,
        lower_bound=lower,
        upper_bound=upper,
        hard_min=_read(where, entry, "hard_min", int, lower),
        hard_max=_read(where, entry, "hard_max", int, upper),
        price=_read(where, entry, "price", float, 0.0),
        util_trigger=_read(where, entry, "util_trigger", float, 0.5),
        adapt_threshold=_read(where, entry, "adapt_threshold", float, 0.7),
        adapt_fraction=_read(where, entry, "adapt_fraction", float, 0.1),
    )


def _objective_from_dict(where: str, entry: dict) -> ObjectiveSpec:
    # the kind fixes direction, model and noise, so no key may set them
    kind = _read(where, entry, "kind", str)
    if kind not in KIND_DIRECTIONS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    return ObjectiveSpec(entry["id"], kind, _read(where, entry, "owner", str),
                         _read(where, entry, "threshold", float))


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, reading every setting once.

    A missing or unknown key, a value that breaks the type rule of
    :func:`_read`, a list entry that is not an object with a unique string
    ``id``, a VM, service or primitive id that holds the replica mark, or a
    ``name`` that is not a single path component raises ConfigError. So
    does a ``moaco``, ``moga`` or ``search`` setting out of its range:
    :meth:`MoacoConfig.from_dict`, :meth:`MogaConfig.from_dict` and the
    ``evaluations`` check refuse those here. Every other range, and every
    reference, is left to :func:`validate_scenario`.
    """
    _block("scenario", doc, (
        "name", "topology", "primitives", "objectives", "regions", "model", "algorithms", "trace",
    ))
    try:
        topo_doc = _block("topology", doc["topology"], ("pms", "vms", "services"))
        topology = Topology(
            pms=tuple(
                PhysicalMachine(p["id"], _reals(f"{where} capacity", p.get("capacity", {})))
                for where, p in _entries("topology.pms", "pm", topo_doc["pms"], ("id", "capacity"))
            ),
            vms=tuple(
                VirtualMachine(v["id"], _read(where, v, "pm", str))
                for where, v in _entries("topology.vms", "vm", topo_doc["vms"], ("id", "pm"),
                                         cloned=True)
            ),
            services=tuple(
                ServiceInstance(s["id"], _read(where, s, "vm", str),
                                _read(where, s, "managed", bool, True))
                for where, s in _entries("topology.services", "service", topo_doc["services"],
                                         ("id", "vm", "managed"), cloned=True)
            ),
        )
        primitives = {
            entry["id"]: _primitive_from_dict(where, entry)
            for where, entry in _entries("primitives", "primitive", doc["primitives"],
                                         _PRIMITIVE_KEYS, cloned=True)
        }
        objectives = {
            entry["id"]: _objective_from_dict(where, entry)
            for where, entry in _entries("objectives", "objective", doc["objectives"],
                                         ("id", "kind", "owner", "threshold"))
        }
        regions = [
            Region(r["id"], _names(where, r, "objectives"), _names(where, r, "primitives"))
            for where, r in _entries("regions", "region", doc["regions"],
                                     ("id", "objectives", "primitives"))
        ]
    except KeyError as missing:
        raise ConfigError(f"scenario document is missing key {missing}") from missing
    algorithms = _block("algorithms", doc.get("algorithms", {}), ("moaco", "moga", "search"))
    moaco = MoacoConfig.from_dict(algorithms.get("moaco", {}))
    search = _block("search", algorithms.get("search", {}), ("evaluations",))
    # by default the flat searches get the colony's worst-case construction count
    evaluations = _read("search", search, "evaluations", int,
                        moaco.max_iteration * moaco.max_ant * moaco.max_run)
    if evaluations < 1:
        raise ConfigError(f"search: evaluations must be a positive integer, got {evaluations!r}")
    trace = _block("trace", doc.get("trace", {}), ("peak", "noise", "profiles"))
    return Scenario(
        name=path_component("scenario: name", doc.get("name", "scenario")),
        topology=topology,
        primitives=primitives,
        objectives=objectives,
        regions=regions,
        model=ModelParams.from_dict(doc.get("model", {})),
        moaco=moaco,
        moga=MogaConfig.from_dict(algorithms.get("moga", {})),
        search_evaluations=evaluations,
        trace_peak=_read("trace", trace, "peak", float, 400.0),
        trace_noise=_read("trace", trace, "noise", float, 0.04),
        trace_profiles=_reals("trace.profiles", trace.get("profiles", {})),
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
    for pm in topo.pms:
        for resource, amount in pm.capacity.items():
            if amount < 0:
                problems.append(f"topology.pms[{pm.id}].capacity.{resource}: "
                                f"must be non-negative, got {amount}")
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
            pm_id = topo.vm_by_id(spec.owner).pm     # an unknown PM is reported above
            if pm_id in pm_ids and spec.resource not in topo.pm_by_id(pm_id).capacity:
                problems.append(
                    f"{where}.resource: {spec.resource!r} has no capacity entry on {pm_id}"
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
        if obj.threshold <= 0:
            problems.append(f"{where}.threshold: must be positive, got {obj.threshold}")

    # the monotone form RegionModel.unattainable documents, and a usable noise level
    params = dataclasses.asdict(scenario.model)
    for key in ("min_capacity", "cpu_contention_limit"):
        if params[key] <= 0:
            problems.append(f"model.{key}: must be positive, got {params[key]}")
    for key in ("cpu_rate", "thread_rate", "overload_penalty", "rt_base_ms", "rel_slope",
                "avail_slope", "noise_std"):
        if params[key] < 0:
            problems.append(f"model.{key}: must be non-negative, got {params[key]}")

    managed = {svc.id for svc in topo.services if svc.managed}
    if not managed:
        problems.append("topology.services: no service is managed, so no trace drives a plan")
    for key, value in (("peak", scenario.trace_peak), ("noise", scenario.trace_noise)):
        if value < 0:
            problems.append(f"trace.{key}: must be non-negative, got {value}")
    for sid, scale in scenario.trace_profiles.items():
        if sid not in managed:
            problems.append(f"trace.profiles[{sid}]: not a managed service")
        elif scale < 0:
            problems.append(f"trace.profiles[{sid}]: must be non-negative, got {scale}")

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

