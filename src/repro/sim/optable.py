"""Vectorized per-op cost table (struct-of-arrays over the graph's ops).

One :class:`CostTable` batches every per-op quantity the simulation's hot
path needs — placement-duration estimates, CPU/GPU/prog timings, fixed- and
hybrid-kernel phase plans with their dispatch sync costs and normalized
work — into numpy array math evaluated once per (graph, policy signature,
system config) and memoized globally.  A simulation over ``steps`` training
steps then serves ``steps x ops`` scheduling decisions from O(1) lookups
instead of re-deriving costs per task (the XLA ``ElementaryOpCache``
pattern, applied to the whole op population at once).

Every run uses the table, fault-injected runs included.  Of the injected
faults only a DRAM derate changes a table-derived quantity: it scales the
in-stack bandwidth, which feeds the memory term of programmable-PIM phases
and the byte term of fixed-pool work.  Scale-at-lookup rule: table values
are exact while the scale is 1.0 (``x / (b * 1.0) == x / b``); under any
other scale the derate-sensitive quantity is recomputed by the scalar
formulas below (:meth:`CostTable.prog_phase`, :meth:`CostTable.norm_work`,
:meth:`CostTable.estimate`), which the table build also uses, so each
formula is written once per form (array and scalar).  The array
expressions follow the scalar ones term for term — same association order,
same zero guards (``0/x == 0.0`` for the positive rates involved),
IEEE-754 double throughout.  Every other fault (throttles, lost units or
PIMs, re-selection) acts at run time on the executors and on task
placements, never on the table, so a table is immutable once built and
shared by clean and faulted runs alike.

Scoping (cross-run-leakage fix): tables are keyed by graph identity plus
the *full* behavioural fingerprint of the run — ``policy.signature()``
(taken after ``prepare``) and the canonical encoding of the entire
``SystemConfig`` — so two runs differing only in frequency scale, PIM
counts or any other knob can never share a table.  Entries are evicted
when their graph is garbage-collected.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import SystemConfig
from ..errors import SchedulingError
from ..hardware.gpu import GpuModel
from ..nn.graph import Graph
from ..pimcl.kernel import BinaryKind, PhaseKind
from .cache import config_signature
from .policy import SchedulingPolicy
from .tracegen import compile_kernels

#: Tables per live graph: ``{id(graph): {(policy_sig, config_sig): table}}``.
#: The outer entry dies with the graph (weakref finalizer), so a recycled
#: ``id()`` can never surface a stale table.
_TABLES: Dict[int, Dict[tuple, "CostTable"]] = {}


class CostTable:
    """Precomputed per-op costs for one (graph, policy, config), with the
    scalar formulas that recompute them under a DRAM derate."""

    __slots__ = (
        "est",
        "gang",
        "priority",
        "places",
        "allowed",
        "cpu",
        "gpu_total",
        "prog",
        "fixed_plan",
        "hybrid_plan",
        "host_complex",
        "staging_s",
        "prog_rate",
        "prog_penalty",
        "stack_bw",
        "mac_rate",
        "byte_rate",
        "n_units",
        "fallback_limit",
    )

    def __init__(self, config: SystemConfig) -> None:
        #: ``{(place, id(op)): seconds}`` — the ``_estimate`` universe.
        self.est: Dict[Tuple[str, int], float] = {}
        #: ``{id(op): gang}`` — programmable-PIM gang sizes.
        self.gang: Dict[int, int] = {}
        self.priority: Dict[int, int] = {}
        self.places: Dict[int, Tuple[str, ...]] = {}
        #: ``{id(op): places}`` filtered by :meth:`guarded` at scale 1.0.
        self.allowed: Dict[int, Tuple[str, ...]] = {}
        #: ``{id(op): (operation_s, exposed_memory_s)}`` at 1/cpu_slots.
        self.cpu: Dict[int, Tuple[float, float]] = {}
        self.gpu_total: Dict[int, float] = {}
        #: ``{id(op): (flops, full_gang, full_gang_duration_s, traffic)}``.
        self.prog: Dict[int, Tuple[float, int, float, int]] = {}
        #: ``{id(op): [("mac", sync_s, macs, bytes_moved, work_unit_s),
        #: ...]}`` (the layout of a hybrid ``"mac"`` row), for the ops
        #: with a "fixed" placement.
        self.fixed_plan: Dict[int, List[tuple]] = {}
        #: ``{id(op): [row, ...]}`` where a row is either
        #: ``("mac", sync_s, macs, bytes_moved, work_unit_s)`` or
        #: ``("cpx", launch_s, prog_s, cpu_operation_s, cpu_exposed_s,
        #: bytes_moved, prog_flops)``, for the ops with a hybrid placement.
        self.hybrid_plan: Dict[int, List[tuple]] = {}
        #: ``{id(op): seconds}`` — the host-CPU complex term of the
        #: ``hybrid_host`` estimate (bandwidth-independent).
        self.host_complex: Dict[int, float] = {}
        #: GPU input-staging duration per step (None without a GPU lane).
        self.staging_s: Optional[float] = None
        prog_cfg = config.prog_pim
        fp = config.fixed_pim
        #: Programmable-PIM flops/s per PIM (PLL-scaled with the stack).
        self.prog_rate = (
            prog_cfg.cores_per_pim
            * config.prog_pim_frequency_hz
            * prog_cfg.flops_per_core_cycle
        )
        self.prog_penalty = prog_cfg.other_flop_penalty
        self.stack_bw = config.stack.bandwidth
        #: Fixed-pool per-unit rates: MACs/s one unit retires, and the
        #: bytes/s of in-stack bandwidth one unit's share provides.
        self.mac_rate = (
            fp.simd_width * fp.macs_per_lane_cycle * config.pim_frequency_hz
        )
        self.byte_rate = self.stack_bw / fp.reference_units
        self.n_units = fp.n_units
        self.fallback_limit = config.runtime.cpu_fallback_slowdown_limit

    def prog_phase(self, flops: float, nbytes: int, scale: float = 1.0) -> float:
        """Seconds of one programmable-PIM phase, with the in-stack
        bandwidth scaled by ``scale``."""
        compute_s = flops / self.prog_rate if flops else 0.0
        memory_s = nbytes / (self.stack_bw * scale) if nbytes else 0.0
        return max(compute_s, memory_s)

    def norm_work(self, macs: int, nbytes: int, scale: float = 1.0) -> float:
        """Fixed-pool work in unit-seconds (the per-unit compute/stream
        bound), with the in-stack bandwidth scaled by ``scale``."""
        mac_w = macs / self.mac_rate if macs else 0.0
        byte_w = nbytes / (self.byte_rate * scale) if nbytes else 0.0
        return max(mac_w, byte_w)

    def estimate(self, place: str, op, scale: float) -> float:
        """Duration estimate of ``op`` on ``place`` (ignoring queueing) at
        DRAM scale ``scale``: the ``est`` entry, recomputed when the scale
        makes it stale."""
        oid = id(op)
        value = self.est.get((place, oid))
        if value is None:
            raise SchedulingError(f"unknown placement {place!r}")
        if scale == 1.0 or place in ("cpu", "gpu"):
            return value
        if place == "prog":
            flops, gang, _, traffic = self.prog[oid]
            return self.prog_phase(flops / gang, traffic, scale)
        cost = op.cost
        units = max(1, min(cost.parallelism, self.n_units))
        fixed_s = self.norm_work(cost.macs, op.traffic_bytes, scale) / units
        if place == "hybrid":
            return fixed_s + self.prog_phase(
                cost.other_flops * self.prog_penalty, op.staging_bytes, scale
            )
        if place == "hybrid_host":
            return fixed_s + self.host_complex[oid]
        return fixed_s

    def guarded(self, op, places: Tuple[str, ...], scale: float = 1.0):
        """``places`` through the profile-aware fallback guard (principle
        2): spill to a secondary placement only when it is not dramatically
        slower than the (busy) preferred first one, by the estimates at
        DRAM scale ``scale`` — the runtime knows both from profiling."""
        if not places:
            return ()
        first = places[0]
        preferred = self.estimate(first, op, scale)
        if len(places) == 1:
            return places
        limit = self.fallback_limit
        return tuple(
            p
            for p in places
            if p == first
            or preferred <= 0
            or self.estimate(p, op, scale) <= limit * preferred
        )


def _build(
    graph: Graph, policy: SchedulingPolicy, config: SystemConfig
) -> CostTable:
    ops = list(graph.ops)
    table = CostTable(config)

    # ---- raw per-op columns (ints convert to float64 exactly: all are
    # far below 2**53) -------------------------------------------------
    mac_flops = np.array([op.cost.mac_flops for op in ops], dtype=np.float64)
    other_flops = np.array(
        [op.cost.other_flops for op in ops], dtype=np.float64
    )
    macs = np.array([op.cost.macs for op in ops], dtype=np.float64)
    traffic = np.array([op.traffic_bytes for op in ops], dtype=np.float64)
    host_traffic = np.array(
        [op.host_traffic_bytes for op in ops], dtype=np.float64
    )
    staging = np.array([op.staging_bytes for op in ops], dtype=np.float64)
    compute_eff = np.array(
        [op.info.cpu_compute_eff for op in ops], dtype=np.float64
    )
    mem_eff = np.array([op.info.cpu_mem_eff for op in ops], dtype=np.float64)
    parallelism = [op.cost.parallelism for op in ops]

    # ---- CPU timing at cores_fraction = 1/cpu_slots (CpuModel.op_timing)
    cpu_cfg = config.cpu
    fraction = 1.0 / policy.cpu_slots
    eff_flops = (cpu_cfg.effective_flops * compute_eff) * fraction
    cpu_flops = mac_flops + other_flops * cpu_cfg.other_flop_penalty
    cpu_compute = cpu_flops / eff_flops
    cpu_memory = host_traffic / (cpu_cfg.mem_bandwidth * mem_eff)
    cpu_total = np.maximum(cpu_compute, cpu_memory)
    cpu_exposed = np.maximum(0.0, cpu_memory - cpu_compute)
    cpu_operation = cpu_total - cpu_exposed

    # ---- GPU timing (roofline at the model's GPU utilization) -------
    gpu_model = GpuModel(config.gpu, graph.name)
    gpu_eff = gpu_model.effective_flops
    gpu_compute = (mac_flops + other_flops) / gpu_eff
    gpu_compute = gpu_compute + config.gpu.kernel_launch_overhead_s
    gpu_memory = traffic / config.gpu.mem_bandwidth
    gpu_total = np.maximum(gpu_compute, gpu_memory)

    # ---- programmable-PIM whole-kernel timing ------------------------
    prog_cfg = config.prog_pim
    prog_rate = table.prog_rate
    prog_penalty = table.prog_penalty
    stack_bw = table.stack_bw
    prog_slots = prog_cfg.n_pims
    limit = max(1, policy.prog_gang_limit)
    gangs = [max(1, min(limit, p, prog_slots)) for p in parallelism]
    gang_arr = np.array(gangs, dtype=np.float64)
    prog_flops = mac_flops + other_flops * prog_penalty
    prog_duration = np.maximum(
        (prog_flops / gang_arr) / prog_rate, traffic / stack_bw
    )

    # ---- fixed-pool normalized work (norm_work, vectorized) ----------
    fp = config.fixed_pim
    work = np.maximum(macs / table.mac_rate, traffic / table.byte_rate)
    units = np.array(
        [max(1, min(p, fp.n_units)) for p in parallelism], dtype=np.float64
    )
    fixed_est = work / units
    hybrid_complex = np.maximum(
        (other_flops * prog_penalty) / prog_rate, staging / stack_bw
    )
    host_complex = np.maximum(
        other_flops / cpu_cfg.effective_flops, staging / cpu_cfg.mem_bandwidth
    )
    hybrid_est = fixed_est + hybrid_complex
    hybrid_host_est = fixed_est + host_complex

    est = table.est
    cpu_total_l = cpu_total.tolist()
    gpu_total_l = gpu_total.tolist()
    prog_duration_l = prog_duration.tolist()
    fixed_est_l = fixed_est.tolist()
    hybrid_est_l = hybrid_est.tolist()
    hybrid_host_est_l = hybrid_host_est.tolist()
    cpu_operation_l = cpu_operation.tolist()
    cpu_exposed_l = cpu_exposed.tolist()
    prog_flops_l = prog_flops.tolist()
    host_complex_l = host_complex.tolist()

    # ---- phase plans (variable-length; tiny Python loops over the
    # table's scalar formulas) -----------------------------------------
    kernels = compile_kernels(graph)
    quota = int(fp.subkernel_macs)
    host_launch = fp.host_launch_overhead_s
    per_launch = (
        fp.pim_launch_overhead_s if policy.recursive_kernels else host_launch
    )
    rc = policy.recursive_kernels
    prog_host_launch = prog_cfg.host_launch_overhead_s
    pim_launch = fp.pim_launch_overhead_s
    cpu_full_flops = cpu_cfg.effective_flops
    cpu_bw = cpu_cfg.mem_bandwidth

    norm_work = table.norm_work

    def mac_sync(phase_macs: int, first: bool) -> float:
        """Launch/sync time to dispatch one MAC phase: one loadable
        micro-kernel per ``subkernel_macs`` (section II-C's "frequent
        operation-spawning"), each a host round trip unless the
        recursive-kernel runtime on the programmable PIM issues it
        in-stack; the first dispatch of any kernel is always a host
        action (section III-B)."""
        launches = max(1, -(-int(phase_macs) // quota))
        total = launches * per_launch
        if first:
            total += host_launch - per_launch
        return max(total, 0.0)

    # ---- per-op columns, keyed by op identity ------------------------
    oids = [id(op) for op in ops]
    places = [policy.placements(op) for op in ops]
    traffic_l = [op.traffic_bytes for op in ops]
    for column, values in (
        (table.priority, [policy.priority(op) for op in ops]),
        (table.places, places),
        (table.gang, gangs),
        (table.cpu, zip(cpu_operation_l, cpu_exposed_l)),
        (table.gpu_total, gpu_total_l),
        (table.prog, zip(prog_flops_l, gangs, prog_duration_l, traffic_l)),
        (table.host_complex, host_complex_l),
    ):
        column.update(zip(oids, values))
    for place, values in (
        ("cpu", cpu_total_l), ("gpu", gpu_total_l), ("prog", prog_duration_l),
        ("fixed", fixed_est_l), ("hybrid", hybrid_est_l),
        ("hybrid_host", hybrid_host_est_l),
    ):
        est.update(zip([(place, oid) for oid in oids], values))
    # the guard reads ``est``, so it comes last
    table.allowed.update(zip(oids, map(table.guarded, ops, places)))

    # plans only for ops that can run on the fixed pool: fault recovery
    # only ever removes placements
    for op, oid, op_places in zip(ops, oids, places):
        kernel = kernels[op.name]
        if "fixed" in op_places and kernel.has_binary(BinaryKind.FIXED_FULL):
            table.fixed_plan[oid] = [
                (
                    "mac",
                    mac_sync(phase.macs, j == 0),
                    phase.macs,
                    phase.bytes_moved,
                    norm_work(phase.macs, phase.bytes_moved),
                )
                for j, phase in enumerate(
                    kernel.binary(BinaryKind.FIXED_FULL).plan
                )
            ]
        if (
            "hybrid" in op_places or "hybrid_host" in op_places
        ) and kernel.has_binary(BinaryKind.PROG):
            rows: List[tuple] = []
            for j, phase in enumerate(kernel.binary(BinaryKind.PROG).plan):
                first = j == 0
                if phase.kind is PhaseKind.MAC:
                    rows.append(
                        (
                            "mac",
                            mac_sync(phase.macs, first),
                            phase.macs,
                            phase.bytes_moved,
                            norm_work(phase.macs, phase.bytes_moved),
                        )
                    )
                else:
                    launch = (
                        prog_host_launch if (first or not rc) else pim_launch
                    )
                    # host-CPU staging split (full-CPU roofline)
                    c = (
                        phase.other_flops / cpu_full_flops
                        if phase.other_flops
                        else 0.0
                    )
                    m = (
                        phase.bytes_moved / cpu_bw
                        if phase.bytes_moved
                        else 0.0
                    )
                    exposed = max(0.0, m - c)
                    operation = max(c, m) - exposed
                    flops = phase.other_flops * prog_penalty
                    rows.append(
                        (
                            "cpx",
                            launch,
                            table.prog_phase(flops, phase.bytes_moved),
                            operation,
                            exposed,
                            phase.bytes_moved,
                            flops,
                        )
                    )
            table.hybrid_plan[oid] = rows

    if policy.uses_gpu and graph.input_bytes > 0:
        table.staging_s = gpu_model.exposed_transfer_s(graph)
    return table


def cost_table(
    graph: Graph, policy: SchedulingPolicy, config: SystemConfig
) -> CostTable:
    """Memoized table for (graph, prepared policy, config)."""
    gid = id(graph)
    per_graph = _TABLES.get(gid)
    if per_graph is None:
        per_graph = {}
        _TABLES[gid] = per_graph
        weakref.finalize(graph, _TABLES.pop, gid, None)
    key = (policy.signature(), config_signature(config))
    table = per_graph.get(key)
    if table is None:
        table = _build(graph, policy, config)
        per_graph[key] = table
    return table
