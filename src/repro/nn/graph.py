"""Dataflow graph of one training step.

A :class:`Graph` mirrors the structure the paper's runtime consumes from
TensorFlow: operations with explicit input/output tensors ("Tensors provide
convenience in tracking data dependencies across operations", section
III-C), from which the scheduler derives operation-level dependences.

Cross-step dependences (needed by the operation-pipeline technique) are
expressed through parameter variables: an op carrying
``attrs["params_read"]`` in step *s+1* depends on the optimizer op that
updates those variables in step *s* (see :meth:`Graph.param_update_op`).
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..errors import GraphError
from .ops import Op, OpCost
from .tensor import TensorSpec


@dataclass
class Graph:
    """A named dataflow graph for one training step of one model.

    Attributes:
        name: Model name, e.g. ``"vgg-19"``.
        batch_size: Minibatch size the graph was built for.
        dataset: Human-readable training-dataset name.
    """

    name: str
    batch_size: int = 1
    dataset: str = "synthetic"
    #: Bytes of fresh input data (minibatch + labels) consumed per step;
    #: used for GPU host-device staging-traffic accounting.
    input_bytes: int = 0
    _tensors: Dict[str, TensorSpec] = field(default_factory=dict)
    _ops: Dict[str, Op] = field(default_factory=dict)
    _op_order: List[str] = field(default_factory=list)
    _producer: Dict[str, str] = field(default_factory=dict)
    _param_updates: Dict[str, str] = field(default_factory=dict)
    #: State other modules derive from this graph (its order, signature,
    #: profiles, selections, trace templates and cost tables), each under
    #: a key whose first element names the artifact.  Every mutator drops
    #: it, and copies and pickles start without it.
    memo: dict = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __getstate__(self) -> dict:
        # pickle, copy.copy and copy.deepcopy: a renamed replica must not
        # inherit name-dependent state, and a sha256 state cannot pickle
        return {**self.__dict__, "memo": {}}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        """Declare a tensor (external input, variable, or op output)."""
        if spec.name in self._tensors:
            raise GraphError(f"duplicate tensor {spec.name!r} in graph {self.name!r}")
        self._tensors[spec.name] = spec
        self.memo = {}
        return spec

    def add_op(self, op: Op) -> Op:
        """Add an operation; inputs must already exist, outputs must be new."""
        if op.name in self._ops:
            raise GraphError(f"duplicate op {op.name!r} in graph {self.name!r}")
        for tname in op.inputs:
            if tname not in self._tensors:
                raise GraphError(
                    f"op {op.name!r} consumes unknown tensor {tname!r}"
                )
        for tname in op.outputs:
            if tname not in self._tensors:
                raise GraphError(
                    f"op {op.name!r} produces undeclared tensor {tname!r}; "
                    "declare it with add_tensor first"
                )
            if tname in self._producer:
                raise GraphError(
                    f"tensor {tname!r} already produced by {self._producer[tname]!r}"
                )
        self._ops[op.name] = op
        self._op_order.append(op.name)
        self.memo = {}
        for tname in op.outputs:
            self._producer[tname] = op.name
        param = op.attrs.get("param_written")
        if param is not None:
            self._param_updates[str(param)] = op.name
        return op

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def ops(self) -> List[Op]:
        """Operations in insertion order."""
        return [self._ops[n] for n in self._op_order]

    @property
    def num_ops(self) -> int:
        return len(self._ops)

    def op(self, name: str) -> Op:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"unknown op {name!r} in graph {self.name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self._ops

    def tensor(self, name: str) -> TensorSpec:
        try:
            return self._tensors[name]
        except KeyError:
            raise GraphError(
                f"unknown tensor {name!r} in graph {self.name!r}"
            ) from None

    @property
    def tensors(self) -> Mapping[str, TensorSpec]:
        return dict(self._tensors)

    def producer_of(self, tensor_name: str) -> Optional[str]:
        """Name of the op producing ``tensor_name`` (None for externals)."""
        self.tensor(tensor_name)
        return self._producer.get(tensor_name)

    def predecessors(self, op_name: str) -> FrozenSet[str]:
        """Ops whose outputs this op consumes (intra-step dependences)."""
        self.op(op_name)
        return self.predecessor_sets()[op_name]

    def predecessor_sets(self) -> Mapping[str, FrozenSet[str]]:
        """:meth:`predecessors` of every op, derived once per structure."""
        preds = self.memo.get("preds")
        if preds is None:
            producer = self._producer
            preds = {}
            for name, op in self._ops.items():
                found = {producer[t] for t in op.inputs if t in producer}
                for dep in map(str, op.attrs.get("control_deps", ())):
                    self.op(dep)
                    found.add(dep)
                preds[name] = frozenset(found)
            self.memo["preds"] = preds
        return preds

    def successors(self, op_name: str) -> Set[str]:
        """Ops that consume this op's outputs."""
        produced = set(self.op(op_name).outputs)
        succs = set()
        for other in self.ops:
            if other.name == op_name:
                continue
            if produced.intersection(other.inputs):
                succs.add(other.name)
            elif op_name in set(map(str, other.attrs.get("control_deps", ()))):
                succs.add(other.name)
        return succs

    def param_update_op(self, param_name: str) -> Optional[str]:
        """The optimizer op updating ``param_name`` (cross-step dependence)."""
        return self._param_updates.get(param_name)

    @property
    def param_update_ops(self) -> Mapping[str, str]:
        return dict(self._param_updates)

    def params_read_by(self, op_name: str) -> Tuple[str, ...]:
        return tuple(map(str, self.op(op_name).attrs.get("params_read", ())))

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Op]:
        """Ops in dependency order; raises :class:`GraphError` on cycles.

        Derived once per structure (see :meth:`predecessor_sets`)."""
        topo = self.memo.get("topo")
        if topo is None:
            topo = self.memo["topo"] = self._derive_topological_order()
        return list(topo)

    def _derive_topological_order(self) -> Tuple[Op, ...]:
        indeg: Dict[str, int] = {name: 0 for name in self._ops}
        succs: Dict[str, List[str]] = defaultdict(list)
        for name, preds in self.predecessor_sets().items():
            for pred in preds:
                succs[pred].append(name)
            indeg[name] = len(preds)
        ready = deque(n for n in self._op_order if indeg[n] == 0)
        order: List[Op] = []
        while ready:
            name = ready.popleft()
            order.append(self._ops[name])
            for succ in succs[name]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._ops):
            stuck = sorted(n for n, d in indeg.items() if d > 0)
            raise GraphError(f"dependency cycle involving: {stuck[:8]}")
        return tuple(order)

    def validate(self) -> None:
        """Check structural invariants (acyclicity, tensor consistency)."""
        self.topological_order()

    def invocation_counts(self) -> Counter:
        """Operation invocations per type within one step (Table I column)."""
        return Counter(op.op_type for op in self.ops)

    def total_cost(self) -> OpCost:
        """Aggregate work vector over the whole step."""
        muls = adds = other = b_in = b_out = 0
        for op in self.ops:
            muls += op.cost.muls
            adds += op.cost.adds
            other += op.cost.other_flops
            b_in += op.cost.bytes_in
            b_out += op.cost.bytes_out
        return OpCost(
            muls=muls, adds=adds, other_flops=other,
            bytes_in=b_in, bytes_out=b_out, parallelism=1,
        )

    def ops_of_type(self, op_type: str) -> List[Op]:
        return [op for op in self.ops if op.op_type == op_type]

    def resident_bytes(self) -> int:
        """Per-step resident working set: forward tensors that must stay
        live until the backward pass consumes them (activations, inputs and
        parameters, excluding gradient tensors).  Determines whether a
        discrete GPU must swap activations over PCIe (ResNet-50 at batch
        128 exceeds an 11 GB device memory)."""
        return sum(
            spec.nbytes
            for name, spec in self._tensors.items()
            if not name.startswith("grad/")
        )

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __repr__(self) -> str:
        return (
            f"Graph(name={self.name!r}, batch={self.batch_size}, "
            f"ops={len(self._ops)}, tensors={len(self._tensors)})"
        )


def merge_graphs(name: str, graphs: Sequence[Graph]) -> Graph:
    """Combine independent model graphs into one co-run graph (Fig 16).

    Tensor and op names are prefixed with their source graph name, so the
    merged graph contains no cross-model dependences — exactly the property
    the paper exploits for mixed-workload scheduling.
    """
    merged = Graph(
        name=name,
        batch_size=max((g.batch_size for g in graphs), default=1),
        dataset="+".join(g.dataset for g in graphs),
        input_bytes=sum(g.input_bytes for g in graphs),
    )
    for g in graphs:
        prefix = f"{g.name}::"
        for tname, spec in g.tensors.items():
            merged.add_tensor(spec.with_name(prefix + tname))
        for op in g.ops:
            attrs = dict(op.attrs)
            if "params_read" in attrs:
                attrs["params_read"] = tuple(
                    prefix + str(p) for p in attrs["params_read"]
                )
            if "param_written" in attrs:
                attrs["param_written"] = prefix + str(attrs["param_written"])
            if "control_deps" in attrs:
                attrs["control_deps"] = tuple(
                    prefix + str(d) for d in attrs["control_deps"]
                )
            attrs["source_model"] = g.name
            merged.add_op(
                Op(
                    name=prefix + op.name,
                    op_type=op.op_type,
                    inputs=tuple(prefix + t for t in op.inputs),
                    outputs=tuple(prefix + t for t in op.outputs),
                    cost=op.cost,
                    attrs=attrs,
                )
            )
    return merged
