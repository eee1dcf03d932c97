"""Operation-trace serialization (JSON).

The paper's methodology is *trace-driven*: traces are generated once (with
a Pin tool on real binaries) and replayed through the Python simulator.
This module provides the equivalent round trip for our operation traces —
export a generated trace to JSON, inspect or post-process it with external
tooling, and load it back for simulation-independent analysis.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from ..errors import SimulationError
from ..nn.graph import Graph
from ..nn.ops import Op, OpCost
from .tracegen import TaskSpec, generate_trace

TRACE_FORMAT_VERSION = 1


def _op_to_dict(op: Op) -> Dict:
    return {
        "name": op.name,
        "op_type": op.op_type,
        "cost": {
            "muls": op.cost.muls,
            "adds": op.cost.adds,
            "other_flops": op.cost.other_flops,
            "bytes_in": op.cost.bytes_in,
            "bytes_out": op.cost.bytes_out,
            "parallelism": op.cost.parallelism,
        },
        "attrs": {
            k: list(v) if isinstance(v, tuple) else v
            for k, v in op.attrs.items()
        },
    }


def _op_from_dict(data: Dict) -> Op:
    attrs = {
        k: tuple(v) if isinstance(v, list) else v
        for k, v in data["attrs"].items()
    }
    return Op(
        name=data["name"],
        op_type=data["op_type"],
        cost=OpCost(**data["cost"]),
        attrs=attrs,
    )


def export_trace(graph: Graph, steps: int, path: Union[str, Path]) -> int:
    """Generate and write the operation trace of ``graph`` to ``path``.

    Returns the number of task records written.
    """
    tasks = generate_trace(graph, steps)
    payload = {
        "format_version": TRACE_FORMAT_VERSION,
        "model": graph.name,
        "batch_size": graph.batch_size,
        "steps": steps,
        "tasks": [
            {
                "uid": t.uid,
                "step": t.step,
                "topo_index": t.topo_index,
                "deps": sorted(t.deps),
                "op": _op_to_dict(t.op),
            }
            for t in tasks
        ],
    }
    from ..experiments.common import write_atomic

    write_atomic(path, json.dumps(payload))
    return len(tasks)


def import_trace(path: Union[str, Path]) -> List[TaskSpec]:
    """Load a trace written by :func:`export_trace`.

    Ops are rebuilt from the embedded op descriptors, so an imported trace
    is directly usable for analysis and scheduling studies (compile an
    op's binaries with :func:`repro.pimcl.generate_binaries`).
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != TRACE_FORMAT_VERSION:
        raise SimulationError(
            f"unsupported trace format version {version!r} "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    return [
        TaskSpec(
            uid=record["uid"],
            step=record["step"],
            op=_op_from_dict(record["op"]),
            deps=frozenset(record["deps"]),
            topo_index=record["topo_index"],
        )
        for record in payload["tasks"]
    ]


def trace_summary(path: Union[str, Path]) -> Dict[str, Union[str, int]]:
    """Lightweight header inspection without materializing ops."""
    payload = json.loads(Path(path).read_text())
    return {
        "model": payload["model"],
        "batch_size": payload["batch_size"],
        "steps": payload["steps"],
        "tasks": len(payload["tasks"]),
    }
