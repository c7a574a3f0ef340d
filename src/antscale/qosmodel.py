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
a call matters as much as its cost per row: each objective is one ordered
list of terms, laid out once per model as index tables, and a call runs a
fixed, short sequence of array operations. The pass is laid out by
primitive, service and objective rather than by row, so each step works on
long contiguous rows of one quantity across all candidates. Every step is
elementwise or a sum in a fixed order, so a row gets the same bits in any
batch: batches may be stacked, ``(..., k, n_primitives)``, split or
reordered freely. The pass makes no BLAS call.

The model also owns what the colony may skip. ``RegionModel.footprints``
says which primitives each objective reads, ``own_objective`` evaluates one
objective per row from its footprint with the bits ``predict_matrix`` gives,
and ``unattainable`` certifies, from best-case bounds over the grids, the
requirements that no decision can meet.
"""

from dataclasses import astuple

import numpy as np

from .domain import (
    KIND_AVAILABILITY,
    KIND_COST,
    KIND_RELIABILITY,
    KIND_RESPONSE_TIME,
    KIND_THROUGHPUT,
    MINIMIZE,
    RES_CPU,
    RES_MEMORY,
    RES_THREAD,
    SCOPE_SERVICE,
    SCOPE_VM,
    Decision,
    ModelParams,
    Region,
    Scenario,
    Topology,
    root_id,
)

# relative slack by which a best-case bound must miss a threshold before
# RegionModel.unattainable flags it, far above any rounding in the model
UNATTAINABLE_MARGIN = 1e-9


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


def _as_slice(index: list):
    """A list of ints as a slice when it steps evenly upward, else as an array."""
    step = index[1] - index[0] if len(index) > 1 else 1
    if step > 0 and all(b - a == step for a, b in zip(index, index[1:])):
        return slice(index[0], index[-1] + 1, step)
    return np.array(index)


def _padded(rows: list, fill: int) -> np.ndarray:
    """Ragged rows as the columns of one ``(widest, len(rows))`` array, padded with ``fill``."""
    width = max(map(len, rows), default=0)
    return np.array(
        [list(row) + [fill] * (width - len(row)) for row in rows], dtype=int,
    ).reshape(len(rows), width).T


def _sum_in_order(terms, shape: tuple) -> np.ndarray:
    """The sum of the arrays ``terms`` yields, starting at 0.0 and adding in order.

    Each term has ``shape`` or broadcasts to it. These are the bits
    ``np.bincount`` gives; trailing ``+0.0`` terms, padding, leave them
    unchanged. Each sum is elementwise, so no entry's bits depend on the
    others.
    """
    total = np.zeros(shape)
    for term in terms:
        total += term
    return total


def _sum_terms(out: np.ndarray, plan: tuple, reads: tuple, weights: np.ndarray) -> np.ndarray:
    """The sums a :meth:`RegionModel._sum_plan` lays out, one per entry of its objectives.

    ``reads`` maps a step's read columns to its terms, one row of ``out``
    each: first for the service kinds' steps, then for the price steps.
    Each term is weighed by its ``weights`` entry. A sum's first term is
    written into ``out`` and the rest added in place, in order; a sum
    without terms is 0.0. Each sum is elementwise, so no entry's bits
    depend on the others.
    """
    rank, stop, steps = plan
    out[stop:] = 0.0
    for first, part, rows, at, weight in steps:
        term = reads[part](*at)
        if first:
            np.multiply(term, weights[weight], out=out[rows])
        else:
            term *= weights[weight]
            out[rows] += term
    return out[rank]


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


class RegionModel:
    """Batched evaluator for one region's objectives against a topology snapshot.

    Rebuild whenever the topology changes (replica VMs appear or retire); the
    construction cost is a few small loops, so rebuilding per decision call is
    also fine.

    The per-objective work is planned once here. Each objective is one sum
    of terms in a fixed order (:attr:`_terms`):

    - a service kind's objective (response time, throughput, reliability,
      availability) sums its owner's replica group's rows of its kind's
      plane in member order, each times the member's share of the group's
      workload (equal shares when the group has none), or times 1.0 for
      throughput; an owner without replicas is a group of one, whose share
      is exactly 1.0;
    - a cost objective sums its priced primitives' configuration rows in
      primitive order, each times its price; with none priced it is 0.0.

    :meth:`predict_matrix` holds the configuration as ``(n_primitives + 1,
    K)``, one row per primitive across the ``K`` candidate rows, computes
    capacity and one ``(n_services, K)`` plane per service kind, then adds
    up an ``(m, K)`` objective matrix depth by depth: every sum's first
    term, then every second one, and so on (:meth:`_sum_plan`). It returns
    the ``(..., k, m)`` view of that matrix in objective order. Each sum writes
    its first term and adds the rest in order, each VM's PM CPU pressure
    and thread count start at 0.0 and add theirs in order (the sums
    ``np.bincount`` gives), and every other step is elementwise. So a row's
    bits depend only on its values: not on the other rows, its position,
    or the shape of its batch.

    :meth:`own_objective` evaluates one objective per row from the same
    steps (:func:`_capacity_terms`, :func:`_service_planes` and the same
    sums) on per-row gathers; :attr:`footprints` holds the region
    primitives each objective reads; :meth:`unattainable` bounds each
    requirement over the grids.
    """

    def __init__(self, scenario: Scenario, region: Region, topology: Topology,
                 prim_specs: dict):
        self.params = scenario.model
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

        services = list(topology.services)
        self._service_ids = [svc.id for svc in services]
        svc_index = {svc.id: i for i, svc in enumerate(services)}
        self._vm_of_service = np.array([vm_index[svc.vm] for svc in services])
        # each VM's cpu and memory and each service's threads, or -1 for none
        col_of = {(spec.scope, spec.owner, spec.resource): self._all_index[pid]
                  for pid, spec in prim_specs.items()}
        self._cpu_col = np.array([col_of.get((SCOPE_VM, v, RES_CPU), -1) for v in self._vm_ids])
        self._mem_col = np.array([col_of.get((SCOPE_VM, v, RES_MEMORY), -1) for v in self._vm_ids])
        self._thr_col = np.array(
            [col_of.get((SCOPE_SERVICE, s, RES_THREAD), -1) for s in self._service_ids]
        )
        self._services_per_vm = np.bincount(self._vm_of_service, minlength=len(vms)).astype(float)
        self._services_per_vm[self._services_per_vm == 0] = 1.0

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

        self._kinds = [o.kind for o in self.objectives]
        self._priced = np.array([o.kind == KIND_COST for o in self.objectives])

        # each service's replica group, and _weights without workloads
        roots = {}
        self._root_of = np.array(
            [roots.setdefault(root_id(s), len(roots)) for s in self._service_ids]
        )
        equal = 1.0 / np.bincount(self._root_of)[self._root_of]
        self._base_weights = np.concatenate([equal, [1.0], [s.price for s in prim_specs.values()]])

        # each objective's terms in summing order (see the class docstring):
        # (plane, service, weight) and (column, weight), weights per _weights
        n_services = len(services)
        self._terms = []
        for obj, members in zip(self.objectives, self._member_idx):
            if obj.kind in _PLANES:
                tp = obj.kind == KIND_THROUGHPUT
                self._terms.append([(_PLANES[obj.kind], s, n_services if tp else s)
                                    for s in members])
                continue
            # replicas bill against the root service they serve
            member_ids = {services[s].id for s in members}
            member_vms = {services[s].vm for s in members}
            self._terms.append(sorted(
                (col, n_services + 1 + col) for col, spec in enumerate(prim_specs.values())
                if spec.price and (
                    (spec.scope == SCOPE_SERVICE and spec.owner in member_ids)
                    or (spec.scope == SCOPE_VM and spec.owner in member_vms)
                )
            ))
        self._plan = self._sum_plan(np.arange(len(self.objectives)))

        # per VM, as (depth, VMs) tables summed in order: the VMs on its PM,
        # padded with the VM past the last, whose CPU and demand read 0.0,
        # and its services' thread columns, padded with the zero column
        n_cols = len(self.all_pids)
        cpu_cols, mem_cols, thr_cols = (
            np.where(c < 0, n_cols, c) for c in (self._cpu_col, self._mem_col, self._thr_col)
        )
        self._peer_cpu = np.append(cpu_cols, n_cols)
        self._peers = _padded(
            [np.flatnonzero(self._pm_of_vm == pm) for pm in self._pm_of_vm], len(vms)
        )
        self._mate_cols = _padded(
            [thr_cols[self._vm_of_service == vm] for vm in range(len(vms))], n_cols
        )
        # what a service's planes read of a configuration row, as full-config
        # columns: the CPU of every VM on its PM, its VM's CPU and memory, the
        # threads of every service on its VM, and its own threads; these and
        # the VMs on its PM as (depth, services) tables
        vm = self._vm_of_service
        self._unit_peers = self._peers[:, vm]
        self._unit_cols = np.vstack([
            self._peer_cpu[self._unit_peers], cpu_cols[vm], mem_cols[vm],
            self._mate_cols[:, vm], thr_cols,
        ])

        # footprints[j, c]: objective j reads region column c (own_objective)
        region_of = np.full(n_cols + 1, -1)
        region_of[self._region_cols] = np.arange(len(self.region_pids))
        self.footprints = np.zeros((len(self.objectives), len(self.region_pids)), dtype=bool)
        for j, terms in enumerate(self._terms):
            read = region_of[np.array([col for col, _ in terms], dtype=int) if self._priced[j]
                             else self._unit_cols[:, self._member_idx[j]]]
            self.footprints[j, read[read >= 0]] = True
        self._own_plans = {}    # objs.tobytes() -> plan, see _own_plan

    # -- batched core ------------------------------------------------------

    def _config_rows(self, values: np.ndarray, env, by_primitive: bool = False) -> np.ndarray:
        """The configuration over every primitive, plus one trailing zero.

        Returns row-major ``(K, n_primitives + 1)`` configuration rows for
        ``(K, n_region)`` values, or ``(n_primitives + 1, K)``, one row per
        primitive, when ``by_primitive``. A gather index of -1 (a VM or
        service without that primitive) reads the zero.
        """
        fixed = np.zeros(len(self._fixed_pids) + 1)
        fixed[:-1] = np.fromiter(
            (env.current_configuration[pid] for pid in self._fixed_pids),
            dtype=float, count=len(self._fixed_pids),
        )
        shape = (values.shape[0], len(self.all_pids) + 1)
        config = np.empty(shape[::-1] if by_primitive else shape)
        rows = config.T if by_primitive else config
        rows[:, self._fixed_rows] = fixed
        rows[:, self._region_rows] = values
        return config

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
            row bit for bit what a call on that row alone returns. It is a
            view of objective-major memory: numpy reduces along an axis in
            an order that follows the memory layout, so a caller that sums
            floats across objectives copies to row-major first.
        """
        values = np.atleast_2d(np.asarray(values, dtype=float))
        lead = values.shape[:-1]
        values = values.reshape(-1, values.shape[-1])
        p = self.params
        config = self._config_rows(values, env, by_primitive=True)
        wl = self._workloads(env)

        cpu = config[self._peer_cpu]        # every VM's CPU, then the padding VM's 0.0
        cap = cpu[:-1]
        mem = config[self._mem_col]
        thr = config[self._thr_col]

        vm_wl = np.bincount(self._vm_of_service, weights=wl, minlength=len(self._vm_ids))
        usage = np.minimum(cpu, np.append(vm_wl * p.cpu_demand_per_req, 0.0)[:, None])
        cpu_term, overload_term = _capacity_terms(
            p, cap, _sum_in_order(usage[self._peers], cap.shape), self._services_per_vm[:, None],
            mem, _sum_in_order(config[self._mate_cols], cap.shape),
        )
        planes = _service_planes(
            p, cpu_term[self._vm_of_service], thr, overload_term[self._vm_of_service],
            wl[:, None], self._rt_ref[:, None],
        )

        return _sum_terms(
            np.empty((len(self.objectives), values.shape[0])), self._plan,
            (lambda kinds, services: planes[kinds, services], lambda cols: config[cols]),
            self._weights(wl),
        ).T.reshape(lead + (len(self.objectives),))

    def _weights(self, wl: np.ndarray) -> np.ndarray:
        """The weight of every term: workload shares, then 1.0, then prices.

        Each service's share of its replica group's workload (equal shares
        when the group has none) weighs its plane in a service kind's sum,
        1.0 weighs it in a throughput's, and each primitive's price weighs
        its configuration row in a cost.
        """
        weights = self._base_weights.copy()
        total = np.bincount(self._root_of, weights=wl)[self._root_of]
        np.divide(wl, total, out=weights[:wl.size], where=total > 0.0)
        return weights

    def _sum_plan(self, objs: np.ndarray) -> tuple:
        """The sums of objectives ``objs``, one per entry, as steps depth by depth.

        Returns ``(rank, stop, steps)``. The sums are ranked with the
        service kinds' first, then the priced ones, then from ``stop`` on
        those without terms; each part runs by falling term count, so the
        sums that have a ``d``-th term lead their part, and ``rank[i]`` is
        entry ``i``'s place. A step is ``(first, part, rows, reads,
        weights)``: whether it holds the first terms, part 0 (service
        kinds) or 1 (prices), the slice of ranked sums it adds to, its
        terms' read columns, ``(planes, services)`` or ``(columns,)``, and
        their indices into :meth:`_weights`, as a column.
        """
        terms = [self._terms[j] for j in objs]
        count = np.array([len(t) for t in terms], dtype=int)
        order = np.lexsort((-count, self._priced[objs], count == 0))
        ranked = [terms[i] for i in order]
        split = int(np.count_nonzero(~self._priced[objs] & (count > 0)))
        steps = []
        for d in range(count.max(initial=0)):
            for part, start, sums in ((0, 0, ranked[:split]), (1, split, ranked[split:])):
                layer = [t[d] for t in sums if len(t) > d]
                if layer:
                    *at, weight = (np.array(column) for column in zip(*layer))
                    steps.append((d == 0, part, slice(start, start + len(layer)), tuple(at),
                                  weight[:, None]))
        return np.argsort(order), int(np.count_nonzero(count)), steps

    def _own_plan(self, objs: np.ndarray) -> tuple:
        """How :meth:`own_objective` reads each row's objective, built once per ``objs``.

        A unit is one service-kind term of one row's sum. Returns
        ``(gather, peers, services, plan)``: as ``(depth, units)`` tables,
        each unit's :attr:`_unit_cols` as flat indices into one slice of
        configuration rows and its PM's VMs, then each unit's service; and
        the rows' :meth:`_sum_plan`, its steps reading ``(planes, units)``
        and ``(flat configuration indices,)``.
        """
        key = objs.tobytes()
        if key in self._own_plans:
            return self._own_plans[key]
        rank, stop, steps = self._sum_plan(objs)
        order = np.argsort(rank)
        n_cols = len(self.all_pids) + 1
        services, unit_rows, own_steps = [], [], []
        for first, part, rows, at, weight in steps:
            if part == 0:
                kinds, members = at
                at = (kinds, np.arange(len(services), len(services) + members.size))
                services.extend(members)
                unit_rows.extend(order[rows])
            else:
                at = (order[rows] * n_cols + at[0],)
            own_steps.append((first, part, rows, at, weight))
        services = np.array(services, dtype=int)
        plan = (np.array(unit_rows, dtype=int) * n_cols + self._unit_cols[:, services],
                self._unit_peers[:, services], services, (rank, stop, own_steps))
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
            It depends only on the row's columns in ``footprints[objs[a]]``.

        Only the rows' member services get capacity and planes, one unit
        each, from their footprint columns through the steps
        :meth:`predict_matrix` takes per service, and each row's sum adds
        the same terms in the same order.
        """
        values = np.asarray(values, dtype=float)
        lead = values.shape[:-1]
        k = lead[-1]
        gather, peers, services, plan = self._own_plan(np.asarray(objs))
        p = self.params
        rows = self._config_rows(values.reshape(-1, values.shape[-1]), env)
        rows = rows.reshape(-1, k * rows.shape[1])                  # (slices, k * columns)
        wl = self._workloads(env)
        read = rows[:, gather]                                      # (slices, columns, units)

        vm_wl = np.bincount(self._vm_of_service, weights=wl, minlength=len(self._vm_ids))
        demand = np.append(vm_wl * p.cpu_demand_per_req, 0.0)
        width, per_unit = len(peers), read.shape[::2]
        cpu_term, overload_term = _capacity_terms(
            p, read[:, width],
            _sum_in_order((np.minimum(read[:, i], demand[at]) for i, at in enumerate(peers)),
                          per_unit),
            self._services_per_vm[self._vm_of_service[services]], read[:, width + 1],
            _sum_in_order(read[:, width + 2:-1].transpose(1, 0, 2), per_unit),
        )
        planes = _service_planes(
            p, cpu_term, read[:, -1], overload_term, wl[services], self._rt_ref[services],
        )

        return _sum_terms(
            np.empty((k, rows.shape[0])), plan,
            (lambda kinds, units: planes[kinds, :, units], lambda reads: rows[:, reads].T),
            self._weights(wl),
        ).T.reshape(lead)

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
        prices = self._base_weights
        for j, terms in enumerate(self._terms):
            if self._priced[j]:
                best[j] = sum(min(prices[w] * low[col], prices[w] * high[col]) for col, w in terms)
            elif monotone:
                member_best = np.array([planes[kind, s] for kind, s, _ in terms])
                sign = self.direction_signs[j]
                best[j] = (member_best.sum() if self._kinds[j] == KIND_THROUGHPUT
                           else sign * (sign * member_best).max())
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
        noisy = np.where(self._priced, clean, clean * factors)
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
