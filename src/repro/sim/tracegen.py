"""Operation-trace generation (the paper's Pin-based trace substitute).

The paper collects instruction traces with a Pin tool while running the
OpenCL kernel binaries on the CPU, then drives a Python trace-based
simulator with them.  Here the trace is generated directly from the
training-step graph: one entry per (step, operation) with its intra-step
dependences and the cross-step dependences induced by parameter updates.

The unrolled trace of a (graph, steps) pair is a :class:`TraceTemplate`,
built once and shared by every run of that pair.  It lists the trace
entries by *position* (``step * ops + topo index``) and holds each entry's
dependences and dependents as position tuples, its uid and its
``(model, step)`` key, so a run creates its tasks and wires them by index,
with no uid lookups.  :func:`generate_trace` expands a template into
:class:`TaskSpec` records for export and analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..errors import SimulationError
from ..nn.graph import Graph
from ..nn.ops import Op
from ..pimcl.codegen import generate_binaries
from ..pimcl.kernel import Kernel


def task_uid(step: int, op_name: str) -> str:
    return f"s{step}/{op_name}"


@dataclass(frozen=True)
class TaskSpec:
    """One operation execution in one training step."""

    uid: str
    step: int
    op: Op
    deps: FrozenSet[str]
    topo_index: int

    @property
    def sort_key(self) -> Tuple[int, int]:
        """Scheduling priority: earlier steps first, then graph order."""
        return (self.step, self.topo_index)


class TraceTemplate:
    """The unrolled trace of one (graph, steps), by position.

    Position ``i`` is step ``i // len(ops)`` of op ``ops[i % len(ops)]``
    (topological order).  ``deps[i]`` and ``dependents[i]`` are position
    tuples in increasing order, ``indeg[i] == len(deps[i])``.  ``keys[i]``
    is the entry's ``(model, step)``, ``model`` being the op's
    ``source_model`` in a merged co-run graph, else the graph's name.
    ``entries`` are the topo indexes of the ops without intra-step
    dependences, ``ops_per_model`` counts each model's ops (the graph's own
    model first), and ``model_keys`` maps each model to its per-step keys.
    """

    __slots__ = (
        "steps", "ops", "uids", "deps", "indeg", "dependents",
        "keys", "entries", "ops_per_model", "model_keys", "_sort_keys",
        "_specs",
    )

    def __init__(self, graph: Graph, steps: int) -> None:
        name = graph.name
        topo = graph.topological_order()
        preds = graph.predecessor_sets()
        n = len(topo)
        index = {op.name: i for i, op in enumerate(topo)}
        model_keys: Dict[str, Tuple[Tuple[str, int], ...]] = {
            name: tuple((name, step) for step in range(steps))
        }
        ops_per_model: Dict[str, int] = {}
        intra: List[Tuple[int, ...]] = []
        cross: List[Tuple[int, ...]] = []
        op_keys = []
        for op in topo:
            intra.append(tuple(sorted([index[pred] for pred in preds[op.name]])))
            previous = set()
            for param in graph.params_read_by(op.name):
                update = graph.param_update_op(param)
                if update is not None:
                    previous.add(index[update])
            if op.attrs.get("param_written") is not None:
                previous.add(index[op.name])
            cross.append(tuple(sorted(previous)))
            model = str(op.attrs.get("source_model", name))
            if model not in model_keys:
                model_keys[model] = tuple((model, step) for step in range(steps))
            ops_per_model[model] = ops_per_model.get(model, 0) + 1
            op_keys.append(model_keys[model])
        # the same dependences, seen from the other end
        intra_after: List[List[int]] = [[] for _ in topo]
        cross_after: List[List[int]] = [[] for _ in topo]
        for t in range(n):
            for j in intra[t]:
                intra_after[j].append(t)
            for j in cross[t]:
                cross_after[j].append(t)
        uids: List[str] = []
        deps: List[Tuple[int, ...]] = []
        dependents: List[Tuple[int, ...]] = []
        keys: List[Tuple[str, int]] = []
        for step in range(steps):
            base = step * n
            prefix = task_uid(step, "")
            last = step == steps - 1
            for t, op in enumerate(topo):
                uids.append(prefix + op.name)
                # a previous step's position precedes this step's, and
                # this step's the next step's
                own = tuple(map(base.__add__, intra[t]))
                if step and cross[t]:
                    own = tuple(map((base - n).__add__, cross[t])) + own
                deps.append(own)
                after = tuple(map(base.__add__, intra_after[t]))
                if not last and cross_after[t]:
                    after += tuple(map((base + n).__add__, cross_after[t]))
                dependents.append(after)
                keys.append(op_keys[t][step])
        self.steps = steps
        self.ops: Tuple[Op, ...] = tuple(topo)
        self.uids: Tuple[str, ...] = tuple(uids)
        self.deps: Tuple[Tuple[int, ...], ...] = tuple(deps)
        self.indeg: Tuple[int, ...] = tuple(map(len, deps))
        self.dependents: Tuple[Tuple[int, ...], ...] = tuple(dependents)
        self.keys: Tuple[Tuple[str, int], ...] = tuple(keys)
        self.entries: Tuple[int, ...] = tuple(
            [t for t, before in enumerate(intra) if not before]
        )
        self.ops_per_model = ops_per_model
        self.model_keys = model_keys
        self._sort_keys: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        self._specs: Optional[Tuple[TaskSpec, ...]] = None

    def sort_keys(self, priority: int) -> Tuple[Tuple[int, int, int], ...]:
        """``(priority, step, topo index)`` of every position (built once
        per priority, so a run's tasks share them)."""
        keys = self._sort_keys.get(priority)
        if keys is None:
            n = len(self.ops)
            keys = self._sort_keys[priority] = tuple([
                (priority, step, t)
                for step in range(self.steps)
                for t in range(n)
            ])
        return keys

    def specs(self) -> Tuple[TaskSpec, ...]:
        """The trace as :class:`TaskSpec` records (built on first use)."""
        if self._specs is None:
            n = len(self.ops)
            uids = self.uids
            self._specs = tuple(
                TaskSpec(
                    uid=uids[i],
                    step=i // n,
                    op=self.ops[i % n],
                    deps=frozenset(uids[j] for j in before),
                    topo_index=i % n,
                )
                for i, before in enumerate(self.deps)
            )
        return self._specs


def trace_template(graph: Graph, steps: int) -> TraceTemplate:
    """The :class:`TraceTemplate` of ``graph`` over ``steps``, memoized on
    the graph.  A template holds the graph's ops, never the graph."""
    if steps < 1:
        raise SimulationError(f"need at least one step, got {steps}")
    key = ("template", steps)
    template = graph.memo.get(key)
    if template is None:
        template = graph.memo[key] = TraceTemplate(graph, steps)
    return template


def compile_kernels(graph: Graph) -> Dict[str, Kernel]:
    """Run binary generation (Figure 4) for every op in the graph; ops of
    equal content share one compilation."""
    return {op.name: generate_binaries(op) for op in graph.ops}


def generate_trace(graph: Graph, steps: int) -> List[TaskSpec]:
    """Unroll ``graph`` over ``steps`` training steps.

    Dependences:

    * intra-step tensor dependences (graph edges);
    * an op reading parameters in step *s* depends on the step *s-1*
      optimizer updates of those parameters;
    * an optimizer update in step *s* depends on the same update in step
      *s-1* (parameter versions are serialized).

    These are exactly the constraints under which the paper's operation
    pipeline may schedule next-step work onto idle PIMs ("as long as the
    two operations do not depend on each other").
    """
    return list(trace_template(graph, steps).specs())


def trace_stats(tasks: List[TaskSpec]) -> Dict[str, int]:
    """Summary statistics of a generated trace (for reporting/tests)."""
    steps = {t.step for t in tasks}
    cross_step = sum(
        1
        for t in tasks
        for d in t.deps
        if not d.startswith(f"s{t.step}/")
    )
    return {
        "tasks": len(tasks),
        "steps": len(steps),
        "edges": sum(len(t.deps) for t in tasks),
        "cross_step_edges": cross_step,
    }
