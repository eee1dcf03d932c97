"""Experiment E-FAM — modern workload families characterization.

Table-1-style profiling of the post-paper workload families (transformer
attention, GNN message passing, embedding recommendation): per family it
reports the dominant compute/memory op types, the Figure-2 classification
(with the unknown-op CPU-fallback count), the offload-candidate coverage
of step time and memory traffic, the time split across offload classes
(fixed / hybrid / prog / host), step time and dynamic energy under every
registered hardware backend, and a small fault-sweep overhead row — the
evidence that the new op vocabulary flows through the full stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..nn.models import MODERN_MODELS, workload_family
from ..nn.ops import OP_TYPES
from ..profiling import (
    OpCategory,
    WorkloadProfiler,
    classify_workload,
    unclassified_ops,
)
from ..runtime.selection import select_candidates
from . import faults as faults_experiment
from .common import cached_graph, resolve_configuration, run_points
from .compare import COMPARE_BACKENDS
from .report import TextTable, format_seconds

#: One model per new family.
FAMILY_MODELS = MODERN_MODELS

#: Small per-family fault sweep (0 = fault-free baseline).
FAULT_EVENT_COUNTS = (0, 1, 2)

#: Steps simulated per (model, backend) cell.
STEPS = 2


@dataclass(frozen=True)
class BackendCell:
    """One family's placement outcome on one hardware backend."""

    backend: str
    step_time_s: float
    dynamic_energy_j: float


@dataclass(frozen=True)
class FamilyReport:
    """Characterization of one workload family's representative model."""

    model: str
    family: str
    #: Top-3 op types by time share and by memory share.
    top_compute: Tuple[Tuple[str, float], ...]
    top_memory: Tuple[Tuple[str, float], ...]
    categories: Dict[str, OpCategory]
    unclassified: int
    #: Step-time / memory-traffic share covered by the offload candidates.
    offload_time_coverage: float
    offload_memory_coverage: float
    #: Time share by offload class ("fixed" / "hybrid" / "prog" / "host").
    class_time_shares: Dict[str, float]
    backends: Dict[str, BackendCell]
    #: Fault-sweep step-time overhead vs fault-free, by event count.
    fault_time_overheads: Dict[int, float]


def run(
    models: Tuple[str, ...] = FAMILY_MODELS,
    backends: Tuple[str, ...] = COMPARE_BACKENDS,
) -> Dict[str, FamilyReport]:
    points = {}
    for model in models:
        for backend in backends:
            config, policy = resolve_configuration(None, backend=backend)
            points[model, backend] = (cached_graph(model), policy, config, STEPS)
    runs = run_points(points)
    profiler = WorkloadProfiler()
    out: Dict[str, FamilyReport] = {}
    for model in models:
        graph = cached_graph(model)
        profile = profiler.profile(graph)

        flops_by_type: Dict[str, int] = {}
        for op in graph.ops:
            flops_by_type[op.op_type] = (
                flops_by_type.get(op.op_type, 0) + op.cost.flops
            )
        categories = classify_workload(profile, flops_by_type)

        selection = select_candidates(profile)
        _, mem_coverage = profile.coverage(selection.candidate_types)

        class_shares: Dict[str, float] = {}
        for t in profile.by_type:
            info = OP_TYPES.get(t.op_type)
            label = info.offload_class.value if info else "unknown"
            class_shares[label] = class_shares.get(label, 0.0) + t.time_share

        cells = {
            backend: BackendCell(
                backend=backend,
                step_time_s=runs[model, backend].step_time_s,
                dynamic_energy_j=runs[model, backend].step_dynamic_energy_j,
            )
            for backend in backends
        }

        sweep = faults_experiment.run(
            model=model, event_counts=FAULT_EVENT_COUNTS, steps=STEPS
        )
        out[model] = FamilyReport(
            model=model,
            family=workload_family(model) or "unknown",
            top_compute=tuple(
                (t.op_type, t.time_share) for t in profile.top_compute(3)
            ),
            top_memory=tuple(
                (t.op_type, t.memory_share) for t in profile.top_memory(3)
            ),
            categories=categories,
            unclassified=unclassified_ops(categories),
            offload_time_coverage=selection.time_coverage,
            offload_memory_coverage=mem_coverage,
            class_time_shares=class_shares,
            backends=cells,
            fault_time_overheads={
                n: cell.time_overhead for n, cell in sweep.items()
            },
        )
    return out


def format_result(result: Dict[str, FamilyReport]) -> str:
    blocks = []
    for model, report in result.items():
        table = TextTable(["Metric", "Value"])
        table.add_row("family", report.family)
        table.add_row(
            "top compute ops",
            ", ".join(f"{t} ({s:.1%})" for t, s in report.top_compute),
        )
        table.add_row(
            "top memory ops",
            ", ".join(f"{t} ({s:.1%})" for t, s in report.top_memory),
        )
        offload_targets = sorted(
            t for t, c in report.categories.items()
            if c is OpCategory.COMPUTE_AND_MEMORY_INTENSIVE
        )
        table.add_row("offload targets (cat 2)", ", ".join(offload_targets))
        table.add_row("unclassified op types", report.unclassified)
        table.add_row(
            "offload coverage (time)", f"{report.offload_time_coverage:.1%}"
        )
        table.add_row(
            "offload coverage (memory)",
            f"{report.offload_memory_coverage:.1%}",
        )
        table.add_row(
            "time by offload class",
            ", ".join(
                f"{label}={share:.1%}"
                for label, share in sorted(report.class_time_shares.items())
            ),
        )
        for backend, cell in report.backends.items():
            table.add_row(
                f"backend {backend}",
                f"{format_seconds(cell.step_time_s)} / "
                f"{cell.dynamic_energy_j:.3f} J/step",
            )
        table.add_row(
            "fault overhead",
            ", ".join(
                f"{n} events: {ovh:+.1%}"
                for n, ovh in sorted(report.fault_time_overheads.items())
            ),
        )
        blocks.append(f"== {model} ==\n{table.render()}")
    return "\n\n".join(blocks)


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
