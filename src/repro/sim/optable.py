"""Per-op cost table, built once per (graph, policy, config).

One :class:`CostTable` holds every per-op quantity the simulation's hot
path needs — placement-duration estimates, CPU/GPU/prog timings, fixed- and
hybrid-kernel phase plans with their dispatch sync costs and normalized
work.  Every one of them is a function of the op's *content*
(:attr:`repro.nn.ops.Op.content`: ``op_type`` plus ``cost``) and of the
table's (graph name, policy, config), so the table evaluates them once per
distinct content, into one shared :class:`CostRow` (the XLA
``ElementaryOpCache`` pattern: costs keyed by op content).  What the policy
answers for an op instance — its placements and scheduling priority, and
the placements through the profile-aware fallback guard — stays per
instance: :attr:`CostTable.entries` maps each op's identity to one
``(row, places, priority, allowed)`` tuple, one write per op.  A
simulation reads an op's entry once per run and its row once per start.

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

Scoping (cross-run-leakage fix): a table is memoized on its graph
(:attr:`repro.nn.graph.Graph.memo`, which every mutator drops) under the
*full* behavioural fingerprint of the run — ``policy.signature()`` (taken
after ``prepare``) and the canonical encoding of the entire
``SystemConfig`` — so two runs differing only in frequency scale, PIM
counts or any other knob can never share a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import SystemConfig
from ..errors import SchedulingError
from ..hardware.cpu import CpuModel, overlap
from ..hardware.gpu import GpuModel
from ..nn.graph import Graph
from ..nn.ops import Op
from ..pimcl.codegen import generate_binaries
from ..pimcl.kernel import BinaryKind, PhaseKind
from .cache import config_signature
from .policy import SchedulingPolicy

#: The placements a table estimates every op on, in :attr:`CostRow.est`
#: order.
PLACES = ("cpu", "gpu", "prog", "fixed", "hybrid", "hybrid_host")
_PLACE_INDEX = {place: i for i, place in enumerate(PLACES)}


@dataclass(slots=True, eq=False)
class CostRow:
    """The costs of every op of one content under one table.

    ``op`` is the first op of the content, whose derived fields (traffic
    bytes and the like) every op of the content shares.  ``est`` holds
    the duration estimate on each of :data:`PLACES`; ``cpu`` is
    ``(operation_s, exposed_memory_s)`` at ``1/cpu_slots`` of the host;
    ``prog`` is ``(flops, full_gang, full_gang_duration_s, traffic)`` with
    ``gang`` the programmable-PIM gang size; ``host_complex`` is the
    host-CPU complex term of the ``hybrid_host`` estimate
    (bandwidth-independent).  ``fixed_plan`` lists the fixed-pool rows
    ``("mac", sync_s, macs, bytes_moved, work_unit_s)`` of binary #2, and
    ``hybrid_plan`` the rows of binary #4, each either such a ``"mac"`` row
    or ``("cpx", launch_s, prog_s, cpu_operation_s, cpu_exposed_s,
    bytes_moved, prog_flops)``; either is None until an op of the content
    is placed on the fixed pool, or when it has no such binary.  A row is
    read-only once its table is built.
    """

    op: Op
    est: Tuple[float, ...]
    cpu: Tuple[float, float]
    gpu_total: float
    prog: Tuple[float, int, float, int]
    gang: int
    host_complex: float
    fixed_plan: Optional[List[tuple]] = None
    hybrid_plan: Optional[List[tuple]] = None


class CostTable:
    """Precomputed per-op costs for one (graph, policy, config), with the
    scalar formulas that recompute them under a DRAM derate."""

    __slots__ = (
        "entries",
        "rows",
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
        #: ``{id(op): (row, places, priority, allowed)}``: the op's shared
        #: row, its policy placements and priority, and ``places`` through
        #: :meth:`guarded` at scale 1.0.
        self.entries: Dict[int, Tuple[CostRow, Tuple[str, ...], int,
                                      Tuple[str, ...]]] = {}
        #: ``{op content: row}``, one row per distinct content.
        self.rows: Dict[tuple, CostRow] = {}
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

    def row(self, op) -> CostRow:
        """The row of ``op``, which must be an op of the table's graph."""
        try:
            return self.entries[id(op)][0]
        except KeyError:
            raise SchedulingError(
                f"op {op.name!r} is not in this cost table"
            ) from None

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
        DRAM scale ``scale``: the row's ``est`` entry, recomputed when the
        scale makes it stale."""
        return self._estimate(self.row(op), place, scale)

    def _estimate(self, row: CostRow, place: str, scale: float) -> float:
        i = _PLACE_INDEX.get(place)
        if i is None:
            raise SchedulingError(f"unknown placement {place!r}")
        if scale == 1.0 or i < 2:  # the CPU and GPU lanes never derate
            return row.est[i]
        estimates = self.pim_estimates(
            row.op, row.prog[0], row.gang, row.host_complex, scale
        )
        return estimates[i - 2]

    def guarded(self, op, places: Tuple[str, ...], scale: float = 1.0):
        """``places`` through the profile-aware fallback guard (principle
        2): spill to a secondary placement only when it is not dramatically
        slower than the (busy) preferred first one, by the estimates at
        DRAM scale ``scale`` — the runtime knows both from profiling."""
        return self._guard(self.row(op), places, scale)

    def _guard(self, row: CostRow, places: Tuple[str, ...], scale: float):
        if not places:
            return ()
        first = places[0]
        estimate = self._estimate
        preferred = estimate(row, first, scale)
        if len(places) == 1 or preferred <= 0:
            return places
        bound = self.fallback_limit * preferred
        return tuple(
            [p for p in places
             if p == first or estimate(row, p, scale) <= bound]
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

    def cpx_row(phase, first: bool) -> tuple:
        """A ``"cpx"`` plan row: the complex phase's launch, its duration
        on the programmable PIM and its split time on the host CPU."""
        nbytes = phase.bytes_moved
        _, operation_s, exposed_s = full_roofline(phase.other_flops, nbytes)
        flops = phase.other_flops * prog_penalty
        return (
            "cpx",
            prog_host_launch if (first or not rc) else pim_launch,
            prog_phase(flops, nbytes),
            operation_s,
            exposed_s,
            nbytes,
            flops,
        )

    def new_row(op) -> CostRow:
        cost = op.cost
        compute_s, memory_s = cpu_model.op_roofline(op, fraction)
        cpu_s, operation_s, exposed_s = overlap(compute_s, memory_s)
        gpu_s = gpu_model.op_time(op)
        gang = min(cost.parallelism, max_gang)
        flops = cost.mac_flops + cost.other_flops * prog_penalty
        complex_s = full_roofline(cost.other_flops, op.staging_bytes)[0]
        prog_s, fixed_s, hybrid_s, hybrid_host_s = pim_estimates(
            op, flops, gang, complex_s
        )
        return CostRow(
            op,
            (cpu_s, gpu_s, prog_s, fixed_s, hybrid_s, hybrid_host_s),
            (operation_s, exposed_s),
            gpu_s,
            (flops, gang, prog_s, op.traffic_bytes),
            gang,
            complex_s,
        )

    def plan(op, kind: BinaryKind) -> Optional[List[tuple]]:
        """The plan rows of ``op``'s binary ``kind`` (None without one)."""
        binary = generate_binaries(op).binaries.get(kind)
        if binary is None:
            return None
        return [
            (mac_row if phase.kind is PhaseKind.MAC else cpx_row)(phase, j == 0)
            for j, phase in enumerate(binary.plan.phases)
        ]

    rows = table.rows
    entries = table.entries
    # ``allowed`` by (content, places): the guard reads only the row
    guards: Dict[tuple, Tuple[str, ...]] = {}
    placements = policy.placements
    priority = policy.priority
    guard = table._guard
    for op in graph.ops:
        content = op.content
        row = rows.get(content)
        if row is None:
            row = rows[content] = new_row(op)
        places = placements(op)
        # plans only for contents an op can run on the fixed pool: fault
        # recovery only ever removes placements
        if row.fixed_plan is None and "fixed" in places:
            row.fixed_plan = plan(op, BinaryKind.FIXED_FULL)
        if row.hybrid_plan is None and (
            "hybrid" in places or "hybrid_host" in places
        ):
            row.hybrid_plan = plan(op, BinaryKind.PROG)
        guard_key = (content, places)
        allowed = guards.get(guard_key)
        if allowed is None:
            allowed = guards[guard_key] = guard(row, places, 1.0)
        entries[id(op)] = (row, places, priority(op), allowed)

    if policy.uses_gpu and graph.input_bytes > 0:
        table.staging_s = gpu_model.exposed_transfer_s(graph)
    return table


def cost_table(
    graph: Graph, policy: SchedulingPolicy, config: SystemConfig
) -> CostTable:
    """Table for (graph, prepared policy, config), memoized on the graph."""
    key = ("table", policy.signature(), config_signature(config))
    table = graph.memo.get(key)
    if table is None:
        table = graph.memo[key] = _build(graph, policy, config)
    return table
