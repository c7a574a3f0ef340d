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
"""

from dataclasses import dataclass

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
    C-contiguous copy would make BLAS sum in another order.
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
        # rows of _full_config's columns: the region's, then the rest and the zero row
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

    # -- batched core ------------------------------------------------------

    def _full_config(self, values: np.ndarray, env) -> tuple:
        """The configuration over every primitive, plus one trailing zero.

        Returns ``(columns, rows)``: ``columns`` is ``(n_primitives + 1, K)``,
        one row per primitive, and ``rows`` the same numbers as row-major
        ``(K, n_primitives + 1)`` configuration rows. A gather index of -1 (a
        VM or service without that primitive) reads the zero row.
        """
        fixed = np.zeros(len(self._fixed_pids) + 1)
        fixed[:-1] = np.fromiter(
            (env.current_configuration[pid] for pid in self._fixed_pids),
            dtype=float, count=len(self._fixed_pids),
        )
        columns = np.empty((len(self.all_pids) + 1, values.shape[0]))
        columns[self._fixed_rows] = fixed[:, None]
        columns[self._region_rows] = values.T
        return columns, np.ascontiguousarray(columns.T)

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
        config, rows = self._full_config(values, env)
        wl = self._workloads(env)

        cap = config[self._cpu_col]
        mem = config[self._mem_col]
        thr = config[self._thr_col]

        vm_wl = np.bincount(self._vm_of_service, weights=wl, minlength=len(self._vm_ids))
        cpu_demand = vm_wl * p.cpu_demand_per_req
        usage = np.minimum(cap, cpu_demand[:, None])
        contention = np.maximum(1.0, _in_order_sums(usage, self._pm_sums) / p.cpu_contention_limit)
        cpu_eff = cap / contention[self._pm_of_vm]

        saturation = p.thread_sat_per_mb * mem
        overload = np.maximum(0.0, _in_order_sums(thr, self._vm_sums) - saturation)

        share = cpu_eff / self._services_per_vm[:, None]
        capacity = (
            (p.cpu_rate * share)[self._vm_of_service]
            + p.thread_rate * thr
            - (p.overload_penalty * overload)[self._vm_of_service]
        )
        capacity = np.maximum(capacity, p.min_capacity)

        # one plane per service-level kind, in _PLANES order
        planes = np.empty((4,) + capacity.shape)
        rt, tp, rel, avail = planes
        rho = np.minimum(wl[:, None] / capacity, 0.99)
        np.divide(p.rt_base_ms, 1.0 - rho, out=rt)
        np.minimum(wl[:, None], capacity, out=tp)
        np.subtract(self._rt_ref[:, None], rt, out=rel)
        rel *= p.rel_slope
        np.subtract(p.avail_rt_ref_ms, rt, out=avail)
        avail *= p.avail_slope
        scores = planes[2:]
        _sigmoid(scores, out=scores)
        scores *= 100.0

        out = np.empty((len(self.objectives), values.shape[0]))
        out[self._single_js] = planes[self._single_planes, self._single_cols]
        for members, sum_js, mean_js, mean_at in self._group_plans:
            out[sum_js] = tp[members].sum(axis=0)
            # strides (., 8, 8K), as the class docstring explains
            stacked = planes[mean_at].transpose(0, 2, 1)
            w = wl[members]
            total = w.sum()
            if total <= 0.0:
                out[mean_js] = stacked.mean(axis=2)
            else:
                # one matrix-vector product per slice, as for the costs below
                per_slice = stacked.reshape(mean_js.shape + lead + members.shape)
                out[mean_js] = (per_slice @ (w / total)).reshape(mean_js.size, -1)
        # one gemv per (k, n) slice of the row-major rows, so each slice
        # keeps the bits its own 2-D call gives: a gemv's summation order can
        # follow its row count
        slices = rows.reshape(lead + (rows.shape[1],))[..., :-1]
        for j, prices in self._cost_plans:
            out[j] = (slices @ prices).ravel()
        return out.T.reshape(lead + (out.shape[0],))

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
