"""The heterogeneous-PIM runtime scheduler (paper section III-C, step 2).

:class:`HeteroPimPolicy` realizes the paper's three scheduling principles:

1. **Prefer fixed-function PIMs**: candidate operations that decompose into
   multiply/add run on the fixed-function pool first; complex candidates
   run as recursive PIM kernels whose MAC cores still land on the pool.
2. **Prefer PIMs over CPU, but never idle the CPU**: every candidate
   placement list ends with ``"cpu"`` so that work falls back to the host
   when all suitable PIMs are busy.
3. **Respect data dependences**: enforced structurally by the simulator's
   task graph (tensors + parameter versions).

Non-candidate operations (outside the selected x% = 90 time coverage) stay
on the CPU, which keeps the host busy in parallel with the PIMs.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..nn.graph import Graph
from ..nn.ops import OffloadClass, Op
from ..profiling.profiler import profile_workload
from ..sim.policy import SchedulingPolicy
from .selection import SelectionResult, select_candidates


class HeteroPimPolicy(SchedulingPolicy):
    """Profiling-driven dynamic scheduler for the heterogeneous PIM."""

    def __init__(
        self,
        recursive_kernels: bool = True,
        operation_pipeline: bool = True,
        cpu_slots: Optional[int] = None,
        name: Optional[str] = None,
    ):
        self.recursive_kernels = recursive_kernels
        self.operation_pipeline = operation_pipeline
        self._cpu_slots_override = cpu_slots
        self.cpu_slots = cpu_slots if cpu_slots is not None else 2
        self.pipeline_depth = 1 if operation_pipeline else 0
        # prepare() overwrites both; signature() reports these
        self._constructed_slots_depth = (self.cpu_slots, self.pipeline_depth)
        self.uses_gpu = False
        if name is not None:
            self.name = name
        else:
            suffix = ""
            if not (recursive_kernels and operation_pipeline):
                tags = []
                if recursive_kernels:
                    tags.append("RC")
                if operation_pipeline:
                    tags.append("OP")
                suffix = f" ({'+'.join(tags) if tags else 'no RC/OP'})"
            self.name = f"Hetero PIM{suffix}"
        self.selection: Optional[SelectionResult] = None

    def prepare(self, graph: Graph, config: SystemConfig) -> None:
        """Step-1 profiling on the CPU followed by candidate selection.

        Both stages are pure functions of (graph, cpu config, coverage)
        and are memoized on the graph (:attr:`Graph.memo`, which every
        mutator drops), so a sweep re-preparing fresh policy instances
        over the same workload pays for one characterization.
        """
        coverage = config.runtime.offload_coverage
        key = ("selection", config.cpu, coverage)
        selection = graph.memo.get(key)
        if selection is None:
            selection = graph.memo[key] = select_candidates(
                profile_workload(graph, config.cpu), coverage
            )
        self.selection = selection
        if self._cpu_slots_override is None:
            self.cpu_slots = config.runtime.cpu_slots
            self.cpu_slots = max(1, self.cpu_slots)
        self.pipeline_depth = (
            config.runtime.pipeline_depth if self.operation_pipeline else 0
        )

    def placements(self, op: Op) -> Tuple[str, ...]:
        if self.selection is None:
            raise RuntimeError(
                f"{self.name}: prepare() must run before placements()"
            )
        cls = op.offload_class
        # Candidates (class 2 of Figure 2) are the primary offload targets;
        # non-candidate offloadable ops (class 1/3) are offloaded
        # opportunistically "when there are idling hardware units in PIMs" —
        # both resolve to PIM-first placement with a profile-guarded CPU
        # fallback (the simulator's slowdown limit realizes principle 2).
        if cls is OffloadClass.FIXED:
            return ("fixed", "cpu")
        if cls is OffloadClass.HYBRID:
            return ("hybrid", "cpu")
        if cls is OffloadClass.PROG:
            return ("prog", "cpu")
        return ("cpu",)

    def decision_log(self) -> Optional[dict]:
        """Offload-decision log of the last :meth:`prepare` (or None)."""
        if self.selection is None:
            return None
        return self.selection.to_dict()

    def publish_metrics(self, registry) -> None:
        """Publish selection decisions into an observability registry."""
        if self.selection is None:
            return
        registry.gauge("selection.target_coverage").set(
            self.selection.target_coverage
        )
        registry.gauge("selection.time_coverage").set(
            self.selection.time_coverage
        )
        registry.gauge("selection.candidate_types").set(
            len(self.selection.candidate_types)
        )
        registry.gauge("selection.candidate_ops").set(
            len(self.selection.candidates)
        )

    def signature(self) -> Tuple:
        # The base tuple's fields, with cpu_slots and pipeline_depth as
        # constructed: prepare() overwrites both from the (separately
        # fingerprinted) config, and one policy must fingerprint the same
        # before and after it has run.  The override joins the tuple
        # because cpu_slots alone is ambiguous: without one prepare()
        # replaces the value, with one it does not.
        cpu_slots, pipeline_depth = self._constructed_slots_depth
        return (
            type(self).__name__,
            self.name,
            cpu_slots,
            self.uses_gpu,
            self.recursive_kernels,
            self.operation_pipeline,
            pipeline_depth,
            self.prog_gang_limit,
            self._cpu_slots_override,
        )


class MixedWorkloadPolicy(HeteroPimPolicy):
    """Co-run scheduler for the mixed-workload study (section VI-F).

    The CNN model is scheduled normally (CPU + both PIM kinds); the co-run
    non-CNN model "executes on CPU or the programmable PIM, when they are
    idle" — its operations never touch the fixed-function pool.
    """

    def __init__(
        self,
        restricted_models: frozenset,
        restrict_untagged: bool = False,
        **kwargs,
    ):
        """``restrict_untagged`` restricts ops without a ``source_model``
        tag too — used to measure a non-CNN model's solo rate under the
        co-run resource class (CPU + programmable PIM only)."""
        super().__init__(name=kwargs.pop("name", "Hetero PIM (co-run)"), **kwargs)
        self.restricted_models = frozenset(restricted_models)
        self.restrict_untagged = restrict_untagged

    def _is_restricted(self, op: Op) -> bool:
        source = op.attrs.get("source_model")
        if source is None:
            return self.restrict_untagged
        return str(source) in self.restricted_models

    def placements(self, op: Op) -> Tuple[str, ...]:
        if self._is_restricted(op):
            if op.offload_class is OffloadClass.HOST:
                return ("cpu",)
            return ("cpu", "prog")
        return super().placements(op)

    def priority(self, op: Op) -> int:
        # the co-run tenant runs "when they are idle": strictly after the
        # primary model's ready work
        return 1 if self._is_restricted(op) else 0

    def signature(self) -> Tuple:
        return super().signature() + (
            tuple(sorted(self.restricted_models)),
            self.restrict_untagged,
        )
