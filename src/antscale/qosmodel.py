"""Synthetic QoS models mapping configurations to per-service outcomes.

The queueing-with-interference model captures the two coupling channels that
make autoscaling a trade-off problem: co-hosted VMs contend for physical CPU
once their combined use crosses a contention limit, and co-located services
on one VM degrade each other when their combined thread count outgrows what
the VM's memory can back. Predictions are deterministic; observation noise is
applied only when sampling what the environment "measured".

Evaluation is batched: candidate decisions are rows of an integer matrix and
all of a region's objectives are produced in one numpy pass, which is what
keeps thousands of constructions per decision affordable. The fixed cost of
a call matters as much as its cost per row: how objectives are read off the
per-service results is planned once per model as index arrays, and a call
runs a fixed, short sequence of array operations. The pass is laid out by
primitive, service and objective rather than by row, so each step works on
long contiguous rows of one quantity across all candidates. Batches may also
be stacked, ``(..., k, n_primitives)``: the colony evaluates several rounds
of its ants in one call, and each ``(k, n_primitives)`` slice gets the bits a
call of its own would give.

The model also owns what the colony may skip. ``RegionModel.footprints``
says which primitives each objective reads, ``own_objective`` evaluates one
objective per row from its footprint with the bits ``predict_matrix`` gives,
and ``unattainable`` certifies, from best-case bounds over the grids, the
requirements that no decision can meet.
"""

from dataclasses import astuple, dataclass

import numpy as np

from .domain import (
    KIND_AVAILABILITY,
    KIND_RELIABILITY,
    KIND_RESPONSE_TIME,
    KIND_THROUGHPUT,
    MINIMIZE,
    MODEL_PRICE_SUM,
    MODEL_QUEUE,
    SCOPE_SERVICE,
    SCOPE_VM,
    ConfigError,
    Decision,
    Region,
    Scenario,
    Topology,
    root_id,
)

RES_CPU = "cpu"
RES_MEMORY = "memory"
RES_THREAD = "thread"
# relative slack by which a best-case bound must miss a threshold before
# RegionModel.unattainable flags it, far above any rounding in the model
UNATTAINABLE_MARGIN = 1e-9


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
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"model: unknown parameters {sorted(unknown)}")
        return cls(**{k: float(v) for k, v in doc.items()})


# per-service planes of predict_matrix, one per kind measured at a service;
# a replica group's objective averages (throughput: sums) its members' columns
_PLANES = {
    KIND_RESPONSE_TIME: 0,
    KIND_THROUGHPUT: 1,
    KIND_RELIABILITY: 2,
    KIND_AVAILABILITY: 3,
}


def _sigmoid(x, out=None):
    """``1 / (1 + exp(-clip(x, -60, 60)))``, into ``out`` when given."""
    # maximum and minimum are np.clip's result with less overhead per call
    out = np.minimum(np.maximum(x, -60.0, out=out), 60.0, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def _sum_plan(group_of: np.ndarray, n_groups: int) -> tuple:
    """``(n_groups, layers)`` for :func:`_in_order_sums`.

    Layer ``i`` pairs each group that has an ``i``-th item with that item,
    items counted in index order. An index list that steps evenly becomes a
    slice, so its layer adds views instead of gathered copies.
    """
    layers = []
    seen = np.zeros(n_groups, dtype=int)
    for item, group in enumerate(group_of):
        if seen[group] == len(layers):
            layers.append(([], []))
        layers[seen[group]][0].append(int(group))
        layers[seen[group]][1].append(item)
        seen[group] += 1
    return n_groups, [(_as_slice(groups), _as_slice(items)) for groups, items in layers]


def _as_slice(index: list):
    """A list of ints as a slice when it steps evenly upward, else as an array."""
    step = index[1] - index[0] if len(index) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(index, index[1:])):
        return slice(index[0], index[-1] + 1, step)
    return np.array(index)


def _in_order_sums(rows: np.ndarray, plan: tuple) -> np.ndarray:
    """Per-group sums of ``rows``, each starting at 0.0 and adding in row order.

    ``plan`` is ``(n_groups, layers)`` from :func:`_sum_plan`. A group
    without items sums to 0.0. These are the bits ``np.bincount`` gives.
    """
    n_groups, layers = plan
    sums = np.zeros((n_groups,) + rows.shape[1:])
    for groups, items in layers:
        sums[groups] += rows[items]
    return sums


def _in_order_rows(terms: np.ndarray) -> np.ndarray:
    """Sums over the last axis, starting at 0.0 and adding in order.

    The bits of :func:`_in_order_sums` for a group whose items are these
    terms; trailing ``+0.0`` terms, padding, leave them unchanged.
    """
    sums = np.zeros(terms.shape[:-1])
    for i in range(terms.shape[-1]):
        sums += terms[..., i]
    return sums


def _capacity_terms(p: ModelParams, cap, pressure, services, mem, threads) -> tuple:
    """``(cpu_rate * share, overload_penalty * overload)`` of a VM, elementwise.

    ``cap`` is the VM's CPU, ``pressure`` its PM's summed CPU use, ``services``
    the services it hosts, ``mem`` its memory and ``threads`` its summed
    service threads. The two terms of every service's capacity that its VM
    sets, whichever shape the arrays share.
    """
    contention = np.maximum(1.0, pressure / p.cpu_contention_limit)
    share = cap / contention / services
    overload = np.maximum(0.0, threads - p.thread_sat_per_mb * mem)
    return p.cpu_rate * share, p.overload_penalty * overload


def _service_planes(p: ModelParams, cpu_term, thr, overload_term, wl, rt_ref) -> np.ndarray:
    """Capacity and the four per-service planes, in ``_PLANES`` order.

    Elementwise over arrays of one shape (``wl`` and ``rt_ref`` may
    broadcast): the service's VM terms from :func:`_capacity_terms`, its
    threads, its workload and its response-time reference. Returns
    ``(4,) + shape``. :meth:`RegionModel.predict_matrix` calls it on
    ``(n_services, K)`` arrays, :meth:`RegionModel.own_objective` on one
    entry per row and member, and :meth:`RegionModel.unattainable` on the
    best case of each service; every step is the same IEEE operation.
    """
    capacity = np.maximum(cpu_term + p.thread_rate * thr - overload_term, p.min_capacity)
    planes = np.empty((4,) + capacity.shape)
    rt, tp, rel, avail = planes
    rho = np.minimum(wl / capacity, 0.99)
    np.divide(p.rt_base_ms, 1.0 - rho, out=rt)
    np.minimum(wl, capacity, out=tp)
    np.subtract(rt_ref, rt, out=rel)
    rel *= p.rel_slope
    np.subtract(p.avail_rt_ref_ms, rt, out=avail)
    avail *= p.avail_slope
    scores = planes[2:]
    _sigmoid(scores, out=scores)
    scores *= 100.0
    return planes


def _member_means(stacked: np.ndarray, w: np.ndarray, lead: tuple) -> np.ndarray:
    """Workload-weighted means over the members axis of ``(..., K, members)``.

    A plain mean when the members carry no workload. Otherwise one
    matrix-vector product per ``(k, members)`` slice of the ``lead`` batch
    shape, whose bits depend on the layout of ``stacked``: both callers
    pass a view with strides ``(., 8, 8K)`` (see :class:`RegionModel`).
    """
    total = w.sum()
    if total <= 0.0:
        return stacked.mean(axis=-1)
    per_slice = stacked.reshape(stacked.shape[:-2] + lead + stacked.shape[-1:])
    return (per_slice @ (w / total)).reshape(stacked.shape[:-1])


class RegionModel:
    """Batched evaluator for one region's objectives against a topology snapshot.

    Rebuild whenever the topology changes (replica VMs appear or retire); the
    construction cost is a few small loops, so rebuilding per decision call is
    also fine.

    The per-objective work is planned once here. :meth:`predict_matrix`
    holds the configuration as ``(n_primitives + 1, K)``, one row per
    primitive across the ``K`` candidate rows, computes capacity and one
    ``(n_services, K)`` plane per service-level kind (response time,
    throughput, reliability, availability), then fills an ``(m, K)``
    objective matrix from three plans:

    - an objective whose owner has no replicas reads its owner's row of its
      kind's plane, and all such objectives are filled by one gather;
    - the objectives of an owner with replicas are filled together: the sum
      of the members' throughput rows, and for the other kinds the members'
      rows weighted by their share of the group's workload (a plain mean
      when the group has no workload);
    - a cost objective is one matrix-vector product of the configuration
      rows with its price vector.

    It returns the ``(..., k, m)`` view of that matrix, without a copy. The
    plans give the same bits a loop over objectives gives: for a single
    member, its workload share is exactly 1.0 and the mean or sum of one
    value is that value, and replica groups keep the per-objective products
    and reductions. The per-PM CPU pressure and per-VM thread counts are
    in-order additions of rows starting at 0.0, the sums ``np.bincount``
    gives.

    Every step is elementwise or an in-order sum except the matrix-vector
    products, whose summation order can follow the number of rows and the
    layout of the operand. So each keeps its operand as it was when the
    pass was laid out by row, and runs once per ``(k, ...)`` slice of a
    stacked call, so each slice keeps the bits of a 2-D call on that slice
    alone. The cost products read row-major ``(k, n_primitives)``
    configuration rows. The replica-group products read the members'
    planes as ``(means, K, members)`` with strides ``(., 8, 8K)``: a
    C-contiguous copy would make BLAS sum in another order. A row's bits
    depend only on its values, its position in its slice and the slice's
    row count, not on the other rows.

    :meth:`own_objective` evaluates one objective per row from the same
    steps (:func:`_capacity_terms`, :func:`_service_planes`,
    :func:`_member_means`) on per-row gathers; :attr:`footprints` holds the
    region primitives each objective reads; :meth:`unattainable` bounds each
    requirement over the grids.
    """

    def __init__(self, scenario: Scenario, region: Region, topology: Topology,
                 prim_specs: dict):
        self.params = ModelParams.from_dict(scenario.model_params)
        self.region = region
        self.topology = topology
        self.objective_ids = list(region.objective_ids)
        self.objectives = [scenario.objectives[oid] for oid in self.objective_ids]
        self.thresholds = np.array([o.threshold for o in self.objectives])
        # +1 means larger is better; used wherever direction-aware compares vectorize
        self.direction_signs = np.array(
            [-1.0 if o.direction == MINIMIZE else 1.0 for o in self.objectives]
        )
        # acceptable range per objective: [threshold, inf] or [-inf, threshold]
        maximize = self.direction_signs > 0
        self._lower = np.where(maximize, self.thresholds, -np.inf)
        self._upper = np.where(maximize, np.inf, self.thresholds)

        self.all_pids = list(prim_specs)
        self._all_index = {pid: i for i, pid in enumerate(self.all_pids)}
        self.region_pids = list(region.primitive_ids)
        self._region_cols = np.array([self._all_index[pid] for pid in self.region_pids])
        # columns of _config_rows: the region's, then the rest and the zero
        self._region_rows = _as_slice(self._region_cols.tolist())
        in_region = set(self.region_pids)
        self._fixed_pids = [pid for pid in self.all_pids if pid not in in_region]
        self._fixed_rows = np.array(
            [self._all_index[pid] for pid in self._fixed_pids] + [len(self.all_pids)]
        )

        vms = list(topology.vms)
        self._vm_ids = [vm.id for vm in vms]
        vm_index = {vm.id: i for i, vm in enumerate(vms)}
        pm_ids = [pm.id for pm in topology.pms]
        pm_index = {pid: i for i, pid in enumerate(pm_ids)}
        self._pm_of_vm = np.array([pm_index[vm.pm] for vm in vms])

        cpu_idx, mem_idx = {}, {}
        thr_idx = {}
        for pid, spec in prim_specs.items():
            if spec.scope == SCOPE_VM and spec.resource == RES_CPU:
                cpu_idx[spec.owner] = self._all_index[pid]
            elif spec.scope == SCOPE_VM and spec.resource == RES_MEMORY:
                mem_idx[spec.owner] = self._all_index[pid]
            elif spec.scope == SCOPE_SERVICE and spec.resource == RES_THREAD:
                thr_idx[spec.owner] = self._all_index[pid]

        services = list(topology.services)
        self._service_ids = [svc.id for svc in services]
        svc_index = {svc.id: i for i, svc in enumerate(services)}
        needs_queue = {o.owner for o in self.objectives if o.model == MODEL_QUEUE}
        for svc in services:
            if svc.id in needs_queue:
                vm = svc.vm
                if vm not in cpu_idx or vm not in mem_idx or svc.id not in thr_idx:
                    raise ConfigError(
                        f"service {svc.id}: queue model needs a VM cpu, VM memory "
                        f"and service thread primitive"
                    )
        self._vm_of_service = np.array([vm_index[svc.vm] for svc in services])
        # only VMs that actually carry modelled services need cpu/mem columns
        self._cpu_col = np.array([cpu_idx.get(v, -1) for v in self._vm_ids])
        self._mem_col = np.array([mem_idx.get(v, -1) for v in self._vm_ids])
        self._thr_col = np.array([thr_idx.get(s, -1) for s in self._service_ids])
        self._services_per_vm = np.bincount(self._vm_of_service, minlength=len(vms)).astype(float)
        self._services_per_vm[self._services_per_vm == 0] = 1.0
        self._n_pms = len(pm_ids)
        # PM CPU pressure and VM thread counts, summed in VM and service order
        self._pm_sums = _sum_plan(self._pm_of_vm, self._n_pms)
        self._vm_sums = _sum_plan(self._vm_of_service, len(vms))

        # response-time reference per service for the reliability response
        rt_by_owner = {
            o.owner: o.threshold for o in scenario.objectives.values()
            if o.kind == KIND_RESPONSE_TIME
        }
        self._rt_ref = np.array(
            [rt_by_owner.get(root_id(s), self.params.rel_rt_ref_ms)
             for s in self._service_ids]
        )

        # a scaled-out service is measured across its whole replica group
        self._member_idx = [
            np.array([
                svc_index[svc.id] for svc in services
                if root_id(svc.id) == o.owner
            ])
            for o in self.objectives
        ]

        # price vectors for cost objectives, one column per cost objective;
        # replicas bill against the root service they serve
        self._cost_cols = []
        for obj in self.objectives:
            if obj.model != MODEL_PRICE_SUM:
                self._cost_cols.append(None)
                continue
            member_ids = {
                svc.id for svc in services if root_id(svc.id) == obj.owner
            }
            member_vms = {
                svc.vm for svc in services if svc.id in member_ids
            }
            weights = np.zeros(len(self.all_pids))
            for pid, spec in prim_specs.items():
                if (spec.scope == SCOPE_SERVICE and spec.owner in member_ids) or (
                    spec.scope == SCOPE_VM and spec.owner in member_vms
                ):
                    weights[self._all_index[pid]] = spec.price
            self._cost_cols.append(weights)

        self._kinds = [o.kind for o in self.objectives]
        self._noise_kinds = np.array([o.model == MODEL_QUEUE for o in self.objectives])

        # gather plans (see the class docstring), built once per model
        single_js, single_planes, single_cols = [], [], []
        groups = {}   # owner -> (members, throughput js, averaged js, their planes)
        self._cost_plans = []
        for j, (obj, members) in enumerate(zip(self.objectives, self._member_idx)):
            if obj.kind in _PLANES and len(members) == 1:
                single_js.append(j)
                single_planes.append(_PLANES[obj.kind])
                single_cols.append(members[0])
            elif obj.kind in _PLANES:
                _, sum_js, mean_js, mean_planes = groups.setdefault(
                    obj.owner, (members, [], [], [])
                )
                if obj.kind == KIND_THROUGHPUT:
                    sum_js.append(j)
                else:
                    mean_js.append(j)
                    mean_planes.append(_PLANES[obj.kind])
            elif self._cost_cols[j] is not None:
                self._cost_plans.append((j, self._cost_cols[j]))
            else:
                raise ConfigError(
                    f"objective {self.objective_ids[j]}: no evaluator for {obj.kind}"
                )
        self._single_js = np.array(single_js, dtype=int)
        self._single_planes = np.array(single_planes, dtype=int)
        self._single_cols = np.array(single_cols, dtype=int)
        # a group's averaged planes are read as planes[mean_planes[:, None], members]
        self._group_plans = [
            (members, np.array(sum_js, dtype=int), np.array(mean_js, dtype=int),
             (np.array(mean_planes, dtype=int)[:, None], members[None, :]))
            for members, sum_js, mean_js, mean_planes in groups.values()
        ]

        # what a service's planes read of a configuration row, as full-config
        # columns: the CPU of every VM on its PM, padded to the widest PM, its
        # VM's CPU and memory, the threads of every service on its VM, padded
        # likewise, and its own threads; padding reads the zero column
        n_cols = len(self.all_pids)
        cpu_cols, mem_cols, thr_cols = (
            np.where(c < 0, n_cols, c) for c in (self._cpu_col, self._mem_col, self._thr_col)
        )
        on_pm = [np.flatnonzero(self._pm_of_vm == pm) for pm in range(self._n_pms)]
        on_vm = [np.flatnonzero(self._vm_of_service == vm) for vm in range(len(vms))]
        self._pm_width = max(map(len, on_pm), default=0)
        vm_width = max(map(len, on_vm), default=0)
        unit_cols, unit_peers = [], []
        for s, vm in enumerate(self._vm_of_service):
            peers, mates = on_pm[self._pm_of_vm[vm]], on_vm[vm]
            # the VM index past the last reads a CPU demand of 0.0
            unit_peers.append(np.append(peers, [len(vms)] * (self._pm_width - len(peers))))
            unit_cols.append(np.concatenate([
                cpu_cols[peers], [n_cols] * (self._pm_width - len(peers)),
                [cpu_cols[vm], mem_cols[vm]],
                thr_cols[mates], [n_cols] * (vm_width - len(mates)),
                [thr_cols[s]],
            ]))
        self._unit_cols = np.array(unit_cols, dtype=int).reshape(len(services), -1)
        self._unit_peers = np.array(unit_peers, dtype=int).reshape(len(services), -1)

        # footprints[j, c]: objective j reads region column c (own_objective)
        region_of = np.full(n_cols + 1, -1)
        region_of[self._region_cols] = np.arange(len(self.region_pids))
        self.footprints = np.zeros((len(self.objectives), len(self.region_pids)), dtype=bool)
        for j, (obj, members) in enumerate(zip(self.objectives, self._member_idx)):
            if obj.kind in _PLANES:
                read = region_of[self._unit_cols[members]]
            else:
                read = region_of[np.flatnonzero(self._cost_cols[j])]
            self.footprints[j, read[read >= 0]] = True
        self._own_plans = {}    # objs.tobytes() -> plan, see _own_plan

    # -- batched core ------------------------------------------------------

    def _config_rows(self, values: np.ndarray, env) -> np.ndarray:
        """The configuration over every primitive, plus one trailing zero.

        Returns row-major ``(K, n_primitives + 1)`` configuration rows for
        ``(K, n_region)`` values. A gather index of -1 (a VM or service
        without that primitive) reads the zero.
        """
        fixed = np.zeros(len(self._fixed_pids) + 1)
        fixed[:-1] = np.fromiter(
            (env.current_configuration[pid] for pid in self._fixed_pids),
            dtype=float, count=len(self._fixed_pids),
        )
        rows = np.empty((values.shape[0], len(self.all_pids) + 1))
        rows[:, self._fixed_rows] = fixed
        rows[:, self._region_rows] = values
        return rows

    def _workloads(self, env) -> np.ndarray:
        return np.fromiter(
            (env.workloads.get(s, 0.0) for s in self._service_ids),
            dtype=float, count=len(self._service_ids),
        )

    def predict_matrix(self, values: np.ndarray, env) -> np.ndarray:
        """Objective matrix for candidate decisions.

        Args:
            values: integer array of shape (..., k, len(region.primitive_ids)),
                column order following the region's primitive order; a 1-D
                row is taken as one batch of one row.
            env: environment snapshot supplying workloads and the values of
                every primitive outside the region.

        Returns:
            float array of shape (..., k, len(region.objective_ids)), each
            (k, m) slice bit for bit what a call on that slice alone returns.
            It is a view of objective-major memory: numpy reduces along an
            axis in an order that follows the memory layout, so a caller
            that sums floats across objectives copies to row-major first.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        lead = values.shape[:-1]
        values = values.reshape(-1, values.shape[-1])
        p = self.params
        rows = self._config_rows(values, env)
        # (n_primitives + 1, K): one row per primitive
        config = np.ascontiguousarray(rows.T)
        wl = self._workloads(env)

        cap = config[self._cpu_col]
        mem = config[self._mem_col]
        thr = config[self._thr_col]

        vm_wl = np.bincount(self._vm_of_service, weights=wl, minlength=len(self._vm_ids))
        usage = np.minimum(cap, (vm_wl * p.cpu_demand_per_req)[:, None])
        pressure = _in_order_sums(usage, self._pm_sums)[self._pm_of_vm]
        cpu_term, overload_term = _capacity_terms(
            p, cap, pressure, self._services_per_vm[:, None], mem,
            _in_order_sums(thr, self._vm_sums),
        )
        planes = _service_planes(
            p, cpu_term[self._vm_of_service], thr, overload_term[self._vm_of_service],
            wl[:, None], self._rt_ref[:, None],
        )
        tp = planes[_PLANES[KIND_THROUGHPUT]]

        out = np.empty((len(self.objectives), values.shape[0]))
        out[self._single_js] = planes[self._single_planes, self._single_cols]
        for members, sum_js, mean_js, mean_at in self._group_plans:
            out[sum_js] = tp[members].sum(axis=0)
            # strides (., 8, 8K), as the class docstring explains
            out[mean_js] = _member_means(planes[mean_at].transpose(0, 2, 1), wl[members], lead)
        # one gemv per (k, n) slice of the row-major rows, so each slice
        # keeps the bits its own 2-D call gives: a gemv's summation order can
        # follow its row count
        slices = rows.reshape(lead + (rows.shape[1],))[..., :-1]
        for j, prices in self._cost_plans:
            out[j] = (slices @ prices).ravel()
        return out.T.reshape(lead + (out.shape[0],))

    def _own_plan(self, objs: np.ndarray) -> tuple:
        """How :meth:`own_objective` reads each row's objective, built once per ``objs``.

        A unit is one member service of one row's objective. Returns
        ``(gather, peers, services, singles, groups, costs)``: per unit its
        :attr:`_unit_cols` as flat indices into one slice of configuration
        rows, its PM's VMs and its service; the rows, units and planes of
        the objectives whose owner has no replicas; per replica group
        ``(members, n_means, n_slots, slots, rows, planes, units)``, one
        slot per objective of the group, its averaged kinds first, and per
        row that reads the group its slot, plane and ``(members, rows)``
        units; per cost objective its rows and price vector.
        """
        key = objs.tobytes()
        if key in self._own_plans:
            return self._own_plans[key]
        rows_of = [np.flatnonzero(objs == j) for j in range(len(self.objectives))]

        def rows_and_slots(js):
            slots = np.repeat(np.arange(len(js)), [rows_of[j].size for j in js])
            return np.concatenate([rows_of[j] for j in js] + [slots[:0]]), slots

        single_rows, single_slots = rows_and_slots(self._single_js)
        unit_rows = [single_rows]
        unit_services = [self._single_cols[single_slots]]
        singles = (single_rows, np.arange(single_rows.size), self._single_planes[single_slots])
        groups = []
        for members, sum_js, mean_js, (mean_planes, _) in self._group_plans:
            rows, slots = rows_and_slots(np.concatenate([mean_js, sum_js]))
            if rows.size == 0:
                continue
            first = sum(map(len, unit_rows))
            units = first + np.arange(members.size * rows.size).reshape(members.size, rows.size)
            unit_rows.append(np.tile(rows, members.size))
            unit_services.append(np.repeat(members, rows.size))
            planes = np.append(mean_planes[:, 0], [_PLANES[KIND_THROUGHPUT]] * sum_js.size)
            groups.append((members, mean_js.size, planes.size, slots, rows, planes[slots], units))
        costs = [(rows_of[j], prices) for j, prices in self._cost_plans if rows_of[j].size]
        services = np.concatenate(unit_services)
        gather = np.concatenate(unit_rows)[:, None] * (len(self.all_pids) + 1)
        gather = gather + self._unit_cols[services]
        plan = (gather, self._unit_peers[services], services, singles, groups, costs)
        self._own_plans[key] = plan
        return plan

    def own_objective(self, values: np.ndarray, env, objs: np.ndarray) -> np.ndarray:
        """Each row's value for one objective, ``objs[a]`` for row ``a`` of a slice.

        Args:
            values: array of shape (..., k, len(region.primitive_ids)), as
                :meth:`predict_matrix` takes it; every entry finite.
            env: environment snapshot, as for :meth:`predict_matrix`.
            objs: length-k objective index per row of each ``(k, n)`` slice.

        Returns:
            float array of shape (..., k): entry ``[..., a]`` is
            ``predict_matrix(values, env)[..., a, objs[a]]`` bit for bit.
            It depends only on the row's columns in ``footprints[objs[a]]``
            (a cost row's other columns have price zero), and on nothing
            else in the batch but the slice's shape and the row's position
            in it.

        Only the rows' member services get capacity and planes, one unit
        each, from their footprint columns through the steps
        :meth:`predict_matrix` takes per service. The in-order sums are
        padded with ``+0.0``, which leaves them unchanged. The replica
        groups' sums and the two matrix-vector products run on operands of
        the layout :meth:`predict_matrix` gives them, each row at its own
        position in a slice of ``k`` rows, the other rows zero or unused.
        """
        values = np.asarray(values, dtype=float)
        lead = values.shape[:-1]
        k = lead[-1]
        gather, peers, services, singles, groups, costs = self._own_plan(np.asarray(objs))
        p = self.params
        rows = self._config_rows(values.reshape(-1, values.shape[-1]), env)
        wl = self._workloads(env)
        read = rows.reshape(-1, k * rows.shape[1])[:, gather]     # (slices, units, columns)

        vm_wl = np.bincount(self._vm_of_service, weights=wl, minlength=len(self._vm_ids))
        demand = np.append(vm_wl * p.cpu_demand_per_req, 0.0)
        width = self._pm_width
        cpu_term, overload_term = _capacity_terms(
            p, read[..., width], _in_order_rows(np.minimum(read[..., :width], demand[peers])),
            self._services_per_vm[self._vm_of_service[services]], read[..., width + 1],
            _in_order_rows(read[..., width + 2:-1]),
        )
        planes = _service_planes(
            p, cpu_term, read[..., -1], overload_term, wl[services], self._rt_ref[services],
        )

        n_slices = read.shape[0]
        out = np.empty((n_slices, k))
        single_rows, single_units, single_planes = singles
        out[:, single_rows] = planes[single_planes, :, single_units].T
        for members, n_means, n_slots, slots, group_rows, group_planes, units in groups:
            # per slot (members, K) as predict_matrix holds them, the slot's rows filled in
            stacked = np.zeros((n_slots, members.size, n_slices, k))
            stacked[slots, np.arange(members.size)[:, None], :, group_rows] = planes[
                group_planes, :, units
            ]
            stacked = stacked.reshape(stacked.shape[:2] + (-1,))
            value = np.empty((n_slots, stacked.shape[2]))
            means = stacked[:n_means].transpose(0, 2, 1)
            value[:n_means] = _member_means(means, wl[members], lead)
            for slot in range(n_means, n_slots):
                value[slot] = stacked[slot].sum(axis=0)
            out[:, group_rows] = value.reshape(-1, n_slices, k)[slots, :, group_rows].T
        if costs:
            slices = rows.reshape(-1, k, rows.shape[1])[..., :-1]
            for cost_rows, prices in costs:
                out[:, cost_rows] = (slices @ prices)[:, cost_rows]
        return out.reshape(lead)

    def unattainable(self, env, grids) -> np.ndarray:
        """Requirements that no decision on the grids can meet, one bool per objective.

        Sound, not complete: a requirement is flagged only when a bound on
        its best value over the grid box, with each region primitive free in
        ``[min, max]`` of its grid and the rest at their ``env`` values,
        misses the threshold by more than a relative ``UNATTAINABLE_MARGIN``,
        so rounding cannot flag one that some decision meets. The bounds:

        - a service kind is evaluated by :func:`_service_planes` at the
          capacity upper bound, every VM's CPU at its maximum over an
          uncontended PM and every service's threads at their maximum
          without overload: response time, reliability and availability are
          monotone in capacity, and throughput is at most the offered load;
        - a replica group sums its members' throughput bounds, and its
          other kinds, weighted means, take the best member's bound;
        - a cost is the price vector times each primitive's cheapest value.

        The service bounds need the model's monotone form: finite
        coefficients, positive ``min_capacity`` and contention limit,
        non-negative rates, penalty and slopes, and finite, non-negative
        workloads. Otherwise no service requirement is flagged.
        """
        p = self.params
        low, high = self._config_rows(
            np.array([[grid.min() for grid in grids], [grid.max() for grid in grids]]), env,
        )
        wl = self._workloads(env)

        best = np.full(len(self.objectives), np.nan)
        for j, prices in self._cost_plans:
            best[j] = np.minimum(prices * low[:-1], prices * high[:-1]).sum()
        monotone = (
            np.isfinite(astuple(p)).all() and p.min_capacity > 0 and p.cpu_contention_limit > 0
            and min(p.cpu_rate, p.thread_rate, p.overload_penalty, p.rt_base_ms,
                    p.rel_slope, p.avail_slope) >= 0
            and np.isfinite(self._rt_ref).all() and np.isfinite(high).all()
            and np.isfinite(wl).all() and (wl >= 0).all()
        )
        if monotone:
            # contention 1 and no overload: pressure 0, memory and threads 0
            cpu_term, overload_term = _capacity_terms(
                p, np.maximum(high[self._cpu_col], 0.0), 0.0, self._services_per_vm, 0.0, 0.0,
            )
            planes = _service_planes(
                p, cpu_term[self._vm_of_service], high[self._thr_col], overload_term,
                wl, self._rt_ref,
            )
            best[self._single_js] = planes[self._single_planes, self._single_cols]
            for members, sum_js, mean_js, (mean_planes, _) in self._group_plans:
                best[sum_js] = planes[_PLANES[KIND_THROUGHPUT], members].sum()
                signs = self.direction_signs[mean_js, None]
                member_best = signs * planes[mean_planes, members[None, :]]
                best[mean_js] = signs[:, 0] * member_best.max(axis=1)
        margin = UNATTAINABLE_MARGIN * np.maximum(np.abs(best), np.abs(self.thresholds))
        # a NaN bound (not computed) compares false
        return self.direction_signs * (best - self.thresholds) < -margin

    # -- convenience forms -------------------------------------------------

    def decision_to_row(self, decision: Decision) -> np.ndarray:
        return np.array([decision.assignments[pid] for pid in self.region_pids], dtype=float)

    def predict_vector(self, decision: Decision, env) -> np.ndarray:
        return self.predict_matrix(self.decision_to_row(decision)[None, :], env)[0]

    def observe_vector(self, decision: Decision, env, rng) -> np.ndarray:
        """Noisy measurement of what a deployed decision would yield.

        Multiplicative Gaussian noise on queue-model outputs only; price sums
        are billing facts and come back exact. Results are clamped to each
        kind's valid range, throughput additionally to the offered load.
        """
        clean = self.predict_vector(decision, env)
        factors = rng.normal(1.0, self.params.noise_std, size=clean.shape)
        noisy = np.where(self._noise_kinds, clean * factors, clean)
        wl = self._workloads(env)
        for j, kind in enumerate(self._kinds):
            if kind == KIND_RESPONSE_TIME:
                noisy[j] = max(noisy[j], 0.01)
            elif kind == KIND_THROUGHPUT:
                offered = float(wl[self._member_idx[j]].sum())
                noisy[j] = min(max(noisy[j], 0.0), offered)
            elif kind in (KIND_RELIABILITY, KIND_AVAILABILITY):
                noisy[j] = min(max(noisy[j], 0.0), 100.0)
        return noisy

    def violation_counts(self, vectors: np.ndarray) -> np.ndarray:
        """Breached requirements per row of ``(..., m)`` objective vectors.

        Meeting a threshold exactly is a pass.
        """
        vectors = np.atleast_2d(vectors)
        return ((vectors < self._lower) | (vectors > self._upper)).sum(axis=-1)


def demand(params: ModelParams, spec, topology: Topology, workloads: dict):
    """Workload-driven requirement estimate for one primitive, or None if untracked.

    Demand is what the current workload would need of a primitive; dividing by
    the provisioned value gives :func:`utilization`. The same series doubles as
    the per-interval requirement record for over/under-provisioning accounting.
    """
    if spec.scope == SCOPE_VM:
        load = sum(
            float(workloads.get(svc.id, 0.0))
            for svc in topology.services_on_vm(spec.owner)
        )
        if spec.resource == RES_CPU:
            return load * params.cpu_demand_per_req
        if spec.resource == RES_MEMORY:
            return params.mem_demand_base + load * params.mem_demand_per_req
        return None
    if spec.resource == RES_THREAD:
        return float(workloads.get(spec.owner, 0.0)) * params.thread_demand_per_req
    return None


def utilization(demand: float, provision: float) -> float:
    """Share of a provisioned value the demand would use, saturating at one."""
    return 1.0 if provision <= 0 else min(1.0, demand / provision)
