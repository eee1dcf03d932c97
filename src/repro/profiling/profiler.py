"""Workload characterization: per-op CPU profiles (paper Table I).

Reproduces the paper's profiling methodology (section II-A): execute one
training step on the host CPU with inter-operation parallelism disabled
(operations run one by one, so per-op memory-access counts are not polluted
by co-running operations), recording execution time and main-memory
accesses per operation, then aggregate by operation type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import CPUConfig, SystemConfig
from ..hardware.cpu import CpuModel
from ..nn.graph import Graph
from ..nn.ops import Op
from .counters import CounterSample, sample_counters


@dataclass(frozen=True)
class OpProfile:
    """Profile of one operation instance."""

    op_name: str
    op_type: str
    time_s: float
    memory_bytes: int
    counters: CounterSample


@dataclass(frozen=True)
class TypeProfile:
    """Aggregated profile of one operation type (one Table I row)."""

    op_type: str
    invocations: int
    time_s: float
    memory_bytes: int
    time_share: float
    memory_share: float


@dataclass(frozen=True)
class WorkloadProfile:
    """Full one-step characterization of a training workload."""

    model_name: str
    step_time_s: float
    total_memory_bytes: int
    per_op: Tuple[OpProfile, ...]
    by_type: Tuple[TypeProfile, ...]

    def top_compute(self, n: int = 5) -> List[TypeProfile]:
        """Top-n op types by execution time ("Top 5 CI Ops" column)."""
        return sorted(self.by_type, key=lambda t: t.time_s, reverse=True)[:n]

    def top_memory(self, n: int = 5) -> List[TypeProfile]:
        """Top-n op types by main-memory accesses ("Top 5 MI Ops" column)."""
        return sorted(self.by_type, key=lambda t: t.memory_bytes, reverse=True)[:n]

    def type_profile(self, op_type: str) -> Optional[TypeProfile]:
        for t in self.by_type:
            if t.op_type == op_type:
                return t
        return None

    def coverage(self, op_types: List[str]) -> Tuple[float, float]:
        """(time share, memory share) jointly covered by ``op_types``."""
        selected = [t for t in self.by_type if t.op_type in op_types]
        return (
            sum(t.time_share for t in selected),
            sum(t.memory_share for t in selected),
        )


class WorkloadProfiler:
    """Profiles one training step on the host CPU, op by op."""

    def __init__(self, config: Optional[CPUConfig] = None):
        self.config = config if config is not None else SystemConfig().cpu
        self._cpu = CpuModel(self.config)

    def profile(self, graph: Graph) -> WorkloadProfile:
        """Characterize ``graph`` (one step, inter-op parallelism disabled).

        Timing and counters are functions of the op's content
        (:attr:`repro.nn.ops.Op.content`), so each distinct content is
        measured once and its sample shared by every op that has it."""
        per_op: List[OpProfile] = []
        samples: Dict[tuple, Tuple[float, int, CounterSample]] = {}
        for op in graph.topological_order():
            sample = samples.get(op.content)
            if sample is None:
                timing = self._cpu.op_timing(op)
                counters = sample_counters(op, timing, self.config)
                sample = samples[op.content] = (
                    timing.total_s,
                    # host traffic, floored by the counter model's clamped
                    # LLC misses: an op that touches memory contributes at
                    # least one cache line to the memory rank (for any op
                    # moving >= one line the two quantities agree, traffic
                    # being the larger)
                    max(op.host_traffic_bytes, counters.main_memory_bytes),
                    counters,
                )
            per_op.append(OpProfile(op.name, op.op_type, *sample))
        step_time = sum([p.time_s for p in per_op])
        total_mem = sum([p.memory_bytes for p in per_op])
        by_type = self._aggregate(per_op, step_time, total_mem)
        return WorkloadProfile(
            model_name=graph.name,
            step_time_s=step_time,
            total_memory_bytes=total_mem,
            per_op=tuple(per_op),
            by_type=tuple(by_type),
        )

    @staticmethod
    def _aggregate(
        per_op: List[OpProfile], step_time: float, total_mem: int
    ) -> List[TypeProfile]:
        times: Dict[str, float] = {}
        mems: Dict[str, int] = {}
        counts: Dict[str, int] = {}
        for p in per_op:
            times[p.op_type] = times.get(p.op_type, 0.0) + p.time_s
            mems[p.op_type] = mems.get(p.op_type, 0) + p.memory_bytes
            counts[p.op_type] = counts.get(p.op_type, 0) + 1
        return [
            TypeProfile(
                op_type=t,
                invocations=counts[t],
                time_s=times[t],
                memory_bytes=mems[t],
                time_share=times[t] / step_time if step_time else 0.0,
                memory_share=mems[t] / total_mem if total_mem else 0.0,
            )
            for t in sorted(times, key=lambda t: times[t], reverse=True)
        ]


def profile_workload(graph: Graph, config: CPUConfig) -> WorkloadProfile:
    """:meth:`WorkloadProfiler.profile` for ``graph`` under ``config``,
    memoized on the graph.  ``CPUConfig`` is a frozen, dict-free
    dataclass, hence hashable; profiling is a pure function of (graph, cpu
    config), so every policy ``prepare()`` across a figure sweep shares
    one characterization per pair."""
    key = ("profile", config)
    profile = graph.memo.get(key)
    if profile is None:
        profile = graph.memo[key] = WorkloadProfiler(config).profile(graph)
    return profile
