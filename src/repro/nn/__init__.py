"""Neural-network training substrate: op graphs, cost model, model zoo.

The numpy reference executor and gradient check live in
:mod:`repro.nn.numeric`, imported on its own so a simulation never loads
numpy.
"""

from .graph import Graph, merge_graphs
from .inference import backward_share, derive_inference_graph
from .layers import Activation, GraphBuilder
from .ops import OffloadClass, Op, OpCost, OpTypeInfo, OP_TYPES, op_type_info
from .tensor import TensorSpec

__all__ = [
    "Activation",
    "backward_share",
    "derive_inference_graph",
    "Graph",
    "GraphBuilder",
    "OffloadClass",
    "Op",
    "OpCost",
    "OpTypeInfo",
    "OP_TYPES",
    "TensorSpec",
    "merge_graphs",
    "op_type_info",
]
