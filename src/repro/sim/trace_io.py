"""Operation-trace serialization (JSON).

The paper's methodology is *trace-driven*: traces are generated once (with
a Pin tool on real binaries) and replayed through the Python simulator.
This module writes the equivalent for our operation traces: a generated
trace exported to JSON, one record per (step, operation) with its
dependences and op descriptor, for inspection or post-processing with
external tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from ..nn.graph import Graph
from ..nn.ops import Op
from .tracegen import generate_trace

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

