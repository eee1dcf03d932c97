"""Scheduling-policy interface consumed by the simulator.

A policy answers one question per operation: *where may this operation
execute, in preference order?*  The simulator tries each placement in turn
against live resource availability and queues the task if none is free —
which realizes the paper's principle 2 ("in case all fixed-function or
programmable PIMs are busy, the runtime will schedule the candidate
operations to execute on CPU") when the policy lists ``cpu`` as a fallback.

Placement tokens:

* ``"cpu"`` — whole kernel on a host executor slot (binary #1);
* ``"gpu"`` — whole kernel on the discrete GPU (GPU baseline only);
* ``"prog"`` — whole kernel on one programmable PIM (binary #4);
* ``"fixed"`` — MAC kernel on the fixed-function pool, host-coordinated
  (binary #2);
* ``"hybrid"`` — recursive PIM kernel: complex phases on a programmable
  PIM, MAC sub-kernels on the pool (binaries #3 + #4);
* ``"hybrid_host"`` — complex phases on the host, MAC sub-kernels on the
  pool (the Fixed-PIM baseline's way of running complex ops).
"""

from __future__ import annotations

import abc
from typing import Tuple

from ..config import SystemConfig
from ..nn.graph import Graph
from ..nn.ops import Op

PLACEMENTS = ("cpu", "gpu", "prog", "fixed", "hybrid", "hybrid_host")


class SchedulingPolicy(abc.ABC):
    """Abstract placement policy for one system configuration."""

    #: Human-readable configuration name ("CPU", "Hetero PIM", ...).
    name: str = "abstract"
    #: Host executor slots available for operation execution.
    cpu_slots: int = 1
    #: Whether the discrete GPU participates (GPU baseline).
    uses_gpu: bool = False
    #: Recursive PIM kernels enabled (RC).
    recursive_kernels: bool = False
    #: Operation pipeline enabled (OP).
    operation_pipeline: bool = False
    #: Steps of lookahead the pipeline may draw backfill work from.
    pipeline_depth: int = 0
    #: Max programmable PIMs one kernel may gang together (the Progr-PIM
    #: baseline spreads a wide operation across several ARM PIMs).
    prog_gang_limit: int = 1

    def prepare(self, graph: Graph, config: SystemConfig) -> None:
        """Hook run once before simulation (profiling, selection)."""

    def __copy__(self) -> "SchedulingPolicy":
        # a shallow copy of the attributes, without the generic
        # ``__reduce_ex__`` round trip: every api call copies its memoized
        # policy (see ``repro.api.resolve_configuration``)
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        return clone

    @abc.abstractmethod
    def placements(self, op: Op) -> Tuple[str, ...]:
        """Preference-ordered placements for ``op`` (non-empty)."""

    def priority(self, op: Op) -> int:
        """Scheduling class of ``op``: lower runs first.  Mixed-workload
        policies deprioritize the co-run tenant so it only consumes idle
        resources (paper section VI-F)."""
        return 0

    def decision_log(self):
        """Serializable log of this policy's scheduling decisions, if any.

        Profile-driven policies (:class:`repro.runtime.HeteroPimPolicy`)
        return their offload-selection record; static policies return None.
        """
        return None

    def publish_metrics(self, registry) -> None:
        """Publish policy-level observability (no-op for static policies)."""

    def signature(self) -> Tuple:
        """Behavioral identity of this policy, for result-cache keying.

        Two policy instances with equal signatures must schedule every
        graph identically under the same :class:`SystemConfig`.  The base
        tuple covers the class and every placement-relevant flag;
        subclasses with extra behavioral state (e.g. the mixed-workload
        tenant restriction) must extend it.  State derived in
        :meth:`prepare` from (graph, config) needs no entry — both inputs
        are fingerprinted separately.
        """
        return (
            type(self).__name__,
            self.name,
            self.cpu_slots,
            self.uses_gpu,
            self.recursive_kernels,
            self.operation_pipeline,
            self.pipeline_depth,
            self.prog_gang_limit,
        )

    def validate(self) -> None:
        if self.cpu_slots < 1:
            raise ValueError(f"{self.name}: cpu_slots must be >= 1")
        if self.pipeline_depth < 0:
            raise ValueError(f"{self.name}: pipeline_depth must be >= 0")
