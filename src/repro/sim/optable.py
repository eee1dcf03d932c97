"""Per-op cost table, built once per (graph, policy, config).

One :class:`CostTable` holds every per-op quantity the simulation's hot
path needs — placement-duration estimates, CPU/GPU/prog timings, fixed- and
hybrid-kernel phase plans with their dispatch sync costs and normalized
work — in dicts keyed by op identity, filled by one loop over the graph's
ops per (graph, policy signature, system config) and memoized globally.  A
simulation over ``steps`` training steps then serves ``steps x ops``
scheduling decisions from O(1) lookups instead of re-deriving costs per
task (the XLA ``ElementaryOpCache`` pattern, applied to the whole op
population at once).

Every run uses the table, fault-injected runs included.  Of the injected
faults only a DRAM derate changes a table-derived quantity: it scales the
in-stack bandwidth, which feeds the memory term of programmable-PIM phases
and the byte term of fixed-pool work.  Scale-at-lookup rule: table values
are exact while the scale is 1.0 (``x / (b * 1.0) == x / b``); under any
other scale the derate-sensitive quantity is recomputed by the same scalar
formulas the build evaluates at scale 1.0 (:meth:`CostTable.prog_phase`,
:meth:`CostTable.norm_work`, :meth:`CostTable.pim_estimates`), so each
formula is written once.  The CPU lane's roofline is the profiler's
(:meth:`repro.hardware.cpu.CpuModel.op_roofline`, split by
:func:`repro.hardware.cpu.overlap`) and the GPU lane's is
:meth:`repro.hardware.gpu.GpuModel.op_time`.  Maxima are written
``a if a >= b else b``, IEEE-754 double throughout.  Every other fault
(throttles, lost units or PIMs, re-selection) acts at run time on the
executors and on task placements, never on the table, so a table is
immutable once built and shared by clean and faulted runs alike.

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

from ..config import SystemConfig
from ..errors import SchedulingError
from ..hardware.cpu import CpuModel, overlap
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

#: The placements a table estimates every op on.
PLACES = ("cpu", "gpu", "prog", "fixed", "hybrid", "hybrid_host")
#: Index of each in-stack placement in :meth:`CostTable.pim_estimates`.
_PIM_PLACES = {"prog": 0, "fixed": 1, "hybrid": 2, "hybrid_host": 3}


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
        "max_units",
        "fallback_limit",
    )

    def __init__(self, config: SystemConfig) -> None:
        #: ``{place: {id(op): seconds}}`` for each of :data:`PLACES`.
        #: One dict per placement, keyed by op, spares the build a key
        #: tuple per estimate.
        self.est: Dict[str, Dict[int, float]] = {place: {} for place in PLACES}
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
        #: Most pool units one op's MAC core occupies (an op's
        #: parallelism is at least 1).
        self.max_units = max(1, fp.n_units)
        self.fallback_limit = config.runtime.cpu_fallback_slowdown_limit

    def prog_phase(self, flops: float, nbytes: int, scale: float = 1.0) -> float:
        """Seconds of one programmable-PIM phase, with the in-stack
        bandwidth scaled by ``scale``."""
        compute_s = flops / self.prog_rate if flops else 0.0
        memory_s = nbytes / (self.stack_bw * scale) if nbytes else 0.0
        return compute_s if compute_s >= memory_s else memory_s

    def norm_work(self, macs: int, nbytes: int, scale: float = 1.0) -> float:
        """Fixed-pool work in unit-seconds (the per-unit compute/stream
        bound), with the in-stack bandwidth scaled by ``scale``."""
        mac_w = macs / self.mac_rate if macs else 0.0
        byte_w = nbytes / (self.byte_rate * scale) if nbytes else 0.0
        return mac_w if mac_w >= byte_w else byte_w

    def pim_estimates(
        self, op, flops: float, gang: int, host_s: float, scale: float = 1.0
    ) -> Tuple[float, float, float, float]:
        """``(prog, fixed, hybrid, hybrid_host)`` duration estimates of
        ``op`` at DRAM scale ``scale``: ``flops`` programmable-PIM flops on
        ``gang`` PIMs, and the fixed pool's share plus the complex phases
        on the programmable PIM or (``host_s``) the host CPU."""
        cost = op.cost
        traffic = op.traffic_bytes
        units = min(cost.parallelism, self.max_units)
        fixed_s = self.norm_work(cost.macs, traffic, scale) / units
        return (
            self.prog_phase(flops / gang, traffic, scale),
            fixed_s,
            fixed_s
            + self.prog_phase(
                cost.other_flops * self.prog_penalty, op.staging_bytes, scale
            ),
            fixed_s + host_s,
        )

    def estimate(self, place: str, op, scale: float) -> float:
        """Duration estimate of ``op`` on ``place`` (ignoring queueing) at
        DRAM scale ``scale``: the ``est`` entry, recomputed when the scale
        makes it stale."""
        oid = id(op)
        try:
            value = self.est[place][oid]
        except KeyError:
            raise SchedulingError(f"unknown placement {place!r}") from None
        if scale == 1.0 or place in ("cpu", "gpu"):
            return value
        flops, gang, _, _ = self.prog[oid]
        estimates = self.pim_estimates(
            op, flops, gang, self.host_complex[oid], scale
        )
        return estimates[_PIM_PLACES[place]]

    def guarded(self, op, places: Tuple[str, ...], scale: float = 1.0):
        """``places`` through the profile-aware fallback guard (principle
        2): spill to a secondary placement only when it is not dramatically
        slower than the (busy) preferred first one, by the estimates at
        DRAM scale ``scale`` — the runtime knows both from profiling."""
        if not places:
            return ()
        first = places[0]
        preferred = self.estimate(first, op, scale)
        if len(places) == 1 or preferred <= 0:
            return places
        bound = self.fallback_limit * preferred
        estimate = self.estimate
        return tuple(
            [p for p in places if p == first or estimate(p, op, scale) <= bound]
        )


def _build(
    graph: Graph, policy: SchedulingPolicy, config: SystemConfig
) -> CostTable:
    table = CostTable(config)
    cpu_model = CpuModel(config.cpu)
    fraction = 1.0 / policy.cpu_slots
    full_roofline = cpu_model.full_roofline
    gpu_model = GpuModel(config.gpu, graph.name)
    prog_penalty = table.prog_penalty
    # an op's parallelism is at least 1
    max_gang = max(1, min(policy.prog_gang_limit, config.prog_pim.n_pims))
    fp = config.fixed_pim
    quota = int(fp.subkernel_macs)
    host_launch = fp.host_launch_overhead_s
    pim_launch = fp.pim_launch_overhead_s
    rc = policy.recursive_kernels
    per_launch = pim_launch if rc else host_launch
    prog_host_launch = config.prog_pim.host_launch_overhead_s
    prog_phase = table.prog_phase
    norm_work = table.norm_work
    pim_estimates = table.pim_estimates
    kernels = compile_kernels(graph)

    def mac_row(phase, first: bool) -> tuple:
        """A ``"mac"`` plan row.  Its sync cost dispatches one loadable
        micro-kernel per ``subkernel_macs`` (section II-C's "frequent
        operation-spawning"), each a host round trip unless the
        recursive-kernel runtime on the programmable PIM issues it
        in-stack; the first dispatch of any kernel is always a host action
        (section III-B)."""
        macs = phase.macs
        sync_s = max(1, -(-int(macs) // quota)) * per_launch
        if first:
            sync_s += host_launch - per_launch
        nbytes = phase.bytes_moved
        return ("mac", max(sync_s, 0.0), macs, nbytes, norm_work(macs, nbytes))

    est_cpu, est_gpu, est_prog, est_fixed, est_hybrid, est_host = (
        table.est[place] for place in PLACES
    )
    priority = table.priority
    places_col = table.places
    cpu_col = table.cpu
    gpu_col = table.gpu_total
    gang_col = table.gang
    host_col = table.host_complex
    prog_col = table.prog
    allowed = table.allowed
    guarded = table.guarded
    for op in graph.ops:
        oid = id(op)
        cost = op.cost
        places = places_col[oid] = policy.placements(op)
        priority[oid] = policy.priority(op)
        compute_s, memory_s = cpu_model.op_roofline(op, fraction)
        cpu_s, operation_s, exposed_s = overlap(compute_s, memory_s)
        cpu_col[oid] = (operation_s, exposed_s)
        gpu_s = gpu_col[oid] = gpu_model.op_time(op)
        gang = gang_col[oid] = min(cost.parallelism, max_gang)
        flops = cost.mac_flops + cost.other_flops * prog_penalty
        complex_s = host_col[oid] = full_roofline(
            cost.other_flops, op.staging_bytes
        )[0]
        prog_s, fixed_s, hybrid_s, hybrid_host_s = pim_estimates(
            op, flops, gang, complex_s
        )
        prog_col[oid] = (flops, gang, prog_s, op.traffic_bytes)
        est_cpu[oid] = cpu_s
        est_gpu[oid] = gpu_s
        est_prog[oid] = prog_s
        est_fixed[oid] = fixed_s
        est_hybrid[oid] = hybrid_s
        est_host[oid] = hybrid_host_s
        # the guard reads ``est``, so it comes after it
        allowed[oid] = guarded(op, places)

        # plans only for ops that can run on the fixed pool: fault
        # recovery only ever removes placements
        binaries = kernels[op.name].binaries
        if "fixed" in places and BinaryKind.FIXED_FULL in binaries:
            phases = binaries[BinaryKind.FIXED_FULL].plan.phases
            table.fixed_plan[oid] = [
                mac_row(phase, j == 0) for j, phase in enumerate(phases)
            ]
        if (
            "hybrid" in places or "hybrid_host" in places
        ) and BinaryKind.PROG in binaries:
            phases = binaries[BinaryKind.PROG].plan.phases
            rows: List[tuple] = []
            for j, phase in enumerate(phases):
                first = j == 0
                if phase.kind is PhaseKind.MAC:
                    rows.append(mac_row(phase, first))
                    continue
                nbytes = phase.bytes_moved
                _, operation_s, exposed_s = full_roofline(
                    phase.other_flops, nbytes
                )
                flops = phase.other_flops * prog_penalty
                rows.append(
                    (
                        "cpx",
                        prog_host_launch if (first or not rc) else pim_launch,
                        prog_phase(flops, nbytes),
                        operation_s,
                        exposed_s,
                        nbytes,
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
