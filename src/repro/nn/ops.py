"""Operation definitions, the op-type registry and the per-op cost model.

The paper characterizes NN training at TensorFlow *operation* granularity
(Table I): each operation instance carries an execution-time cost, a
main-memory-access cost and a decomposition into multiply/add ("MAC") work —
offloadable to fixed-function PIMs — and "other" work (conditionals,
sampling, transcendental math, data staging) that needs a programmable
device.  This module defines:

* :class:`OffloadClass` — which compute devices can execute an op type,
  mirroring the paper's classification (section II-A / Figure 6):
  pure multiply-add ops (``FIXED``), complex ops with an extractable MAC
  core that become *recursive PIM kernels* (``HYBRID``), conditional or
  sampling ops for the programmable PIM (``PROG``), and host-only
  bookkeeping (``HOST``).
* :class:`OpTypeInfo` — static per-type properties, including TensorFlow
  CPU-kernel efficiency factors that reproduce the *measured* profile the
  authors obtained with VTune (Table I); see DESIGN.md section 2.
* :class:`OpCost` — the per-instance work/traffic vector.
* :class:`Op` — one operation instance in a training-step graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

from ..errors import UnknownOpError


class OffloadClass(enum.Enum):
    """Which devices may execute an operation type."""

    #: Pure multiply/add (or pure streaming) work: fully offloadable to the
    #: fixed-function PIMs, e.g. MatMul, Conv2D, BiasAdd.
    FIXED = "fixed"
    #: Complex operation with an extractable MAC core: executed as a
    #: recursive PIM kernel (programmable PIM + fixed-function sub-kernels),
    #: e.g. Conv2DBackpropFilter (paper Figure 6).
    HYBRID = "hybrid"
    #: Conditional / sampling / optimizer work for the programmable PIM,
    #: e.g. Relu, MaxPool, ApplyAdam.
    PROG = "prog"
    #: Host-only bookkeeping (shape manipulation, constants, control).
    HOST = "host"


@dataclass(frozen=True)
class OpTypeInfo:
    """Static properties of an operation type.

    Attributes:
        name: TensorFlow operation-type name (``"Conv2DBackpropFilter"``).
        offload_class: Device eligibility (see :class:`OffloadClass`).
        traffic_factor: Main-memory bytes per ideal (compulsory) byte for a
            well-tiled implementation (PIM kernels, GPU kernels); > 1 models
            cache-capacity spill of poorly blocked kernels.
        cpu_traffic_factor: Main-memory bytes per compulsory byte of the
            *TensorFlow CPU kernel* for this type — the quantity the paper's
            VTune counters measure (Table I).  Contemporary TF backward
            convolutions and reductions thrash the cache (factors far above
            1), while elementwise kernels run largely cache-resident behind
            their producers (factors below 1).  ``None`` means "same as
            ``traffic_factor``".
        cpu_compute_eff: Fraction of the host CPU's effective FLOP rate the
            TensorFlow kernel for this type achieves.  Backward convolution
            kernels are markedly less optimized than forward ones, which is
            why they dominate the paper's measured profile.
        cpu_mem_eff: Fraction of host memory bandwidth the kernel achieves
            on its main-memory traffic.
        mac_chunks: Number of fixed-function sub-kernels the MAC core is
            split into by binary generation (paper section IV-B); each chunk
            costs one kernel launch when executed without recursive calls.
        stages_bytes_factor: For HYBRID ops, the fraction of the op's ideal
            bytes that must be staged/rearranged by the complex phases
            (paper Figure 6 phases 1 and 2).
    """

    name: str
    offload_class: OffloadClass
    traffic_factor: float = 1.0
    cpu_traffic_factor: Optional[float] = None
    cpu_compute_eff: float = 1.0
    cpu_mem_eff: float = 1.0
    mac_chunks: int = 1
    stages_bytes_factor: float = 0.0

    @cached_property
    def host_traffic_factor(self) -> float:
        """Effective main-memory traffic factor on the host CPU."""
        return (
            self.traffic_factor
            if self.cpu_traffic_factor is None
            else self.cpu_traffic_factor
        )


def _registry() -> Dict[str, OpTypeInfo]:
    f = OffloadClass.FIXED
    h = OffloadClass.HYBRID
    p = OffloadClass.PROG
    o = OffloadClass.HOST
    infos = [
        # --- dense MAC ops: fixed-function targets ---------------------
        OpTypeInfo("MatMul", f, traffic_factor=1.15, cpu_compute_eff=0.90,
                   mac_chunks=2),
        # Batched MatMul (transformer attention): same dense-MAC profile as
        # MatMul, but contemporary TF batches the GEMMs with a strided
        # kernel that is slightly less cache-friendly than the single-GEMM
        # path.
        OpTypeInfo("BatchMatMul", f, traffic_factor=1.20,
                   cpu_traffic_factor=1.4, cpu_compute_eff=0.80,
                   mac_chunks=2),
        OpTypeInfo("Conv2D", f, traffic_factor=1.10, cpu_traffic_factor=2.0,
                   cpu_compute_eff=0.85, mac_chunks=2),
        OpTypeInfo("Conv2DTranspose", f, traffic_factor=1.20,
                   cpu_traffic_factor=5.0, cpu_compute_eff=0.55,
                   mac_chunks=2),
        OpTypeInfo("BiasAdd", f, cpu_traffic_factor=0.10, cpu_mem_eff=0.60),
        OpTypeInfo("BiasAddGrad", f, cpu_traffic_factor=20.0,
                   cpu_mem_eff=0.50),
        OpTypeInfo("Add", f, cpu_traffic_factor=0.10, cpu_mem_eff=0.70),
        OpTypeInfo("AddN", f, cpu_traffic_factor=0.10, cpu_mem_eff=0.60),
        OpTypeInfo("Sub", f, cpu_traffic_factor=0.10, cpu_mem_eff=0.70),
        OpTypeInfo("Mul", f, cpu_traffic_factor=0.10, cpu_mem_eff=0.70),
        OpTypeInfo("Sum", f, cpu_traffic_factor=0.50, cpu_mem_eff=0.50),
        OpTypeInfo("Mean", f, cpu_traffic_factor=0.50, cpu_mem_eff=0.50),
        OpTypeInfo("AvgPool", f, cpu_traffic_factor=0.30, cpu_mem_eff=0.50),
        OpTypeInfo("AvgPoolGrad", f, cpu_traffic_factor=0.80,
                   cpu_mem_eff=0.40),
        OpTypeInfo("Pad", f, cpu_traffic_factor=0.50, cpu_mem_eff=0.60),
        OpTypeInfo("Transpose", f, traffic_factor=1.3, cpu_mem_eff=0.35),
        OpTypeInfo("Slice", f, cpu_mem_eff=0.40),
        OpTypeInfo("ConcatV2", f, cpu_mem_eff=0.50),
        OpTypeInfo("L2Loss", f, cpu_traffic_factor=0.30, cpu_mem_eff=0.50),
        # --- complex ops with a MAC core: recursive PIM kernels --------
        OpTypeInfo("Conv2DBackpropFilter", h, traffic_factor=1.45,
                   cpu_traffic_factor=16.0, cpu_compute_eff=0.45,
                   mac_chunks=4, stages_bytes_factor=0.8),
        OpTypeInfo("Conv2DBackpropInput", h, traffic_factor=1.25,
                   cpu_traffic_factor=10.0, cpu_compute_eff=0.50,
                   mac_chunks=4, stages_bytes_factor=0.6),
        OpTypeInfo("FusedBatchNorm", f, cpu_traffic_factor=0.50,
                   cpu_mem_eff=0.50, mac_chunks=2),
        OpTypeInfo("FusedBatchNormGrad", f, traffic_factor=1.2,
                   cpu_traffic_factor=1.2, cpu_mem_eff=0.40, mac_chunks=3),
        # LayerNorm (transformer blocks): like FusedBatchNorm, the
        # normalize/scale/shift core is pure multiply-add with a small
        # per-row rsqrt residue, so both directions stay fixed-function
        # eligible.
        OpTypeInfo("LayerNorm", f, cpu_traffic_factor=0.50,
                   cpu_mem_eff=0.50, mac_chunks=2),
        OpTypeInfo("LayerNormGrad", f, traffic_factor=1.2,
                   cpu_traffic_factor=1.2, cpu_mem_eff=0.40, mac_chunks=3),
        OpTypeInfo("SparseSoftmaxCrossEntropyWithLogits", h,
                   cpu_traffic_factor=0.30, cpu_compute_eff=0.40,
                   mac_chunks=2, stages_bytes_factor=0.2),
        # --- conditional / sampling / optimizer: programmable PIM ------
        OpTypeInfo("Relu", p, cpu_traffic_factor=0.08, cpu_mem_eff=0.55),
        OpTypeInfo("ReluGrad", p, cpu_traffic_factor=0.10, cpu_mem_eff=0.45),
        OpTypeInfo("MaxPool", p, cpu_traffic_factor=0.30, cpu_mem_eff=0.45),
        OpTypeInfo("MaxPoolGrad", p, traffic_factor=1.2,
                   cpu_traffic_factor=1.5, cpu_mem_eff=0.50),
        OpTypeInfo("ApplyAdam", p, cpu_traffic_factor=0.15, cpu_mem_eff=0.50,
                   cpu_compute_eff=0.50),
        OpTypeInfo("ApplyGradientDescent", p, cpu_traffic_factor=0.15,
                   cpu_mem_eff=0.50),
        OpTypeInfo("Softmax", p, cpu_traffic_factor=0.30,
                   cpu_compute_eff=0.40),
        OpTypeInfo("SoftmaxGrad", p, cpu_traffic_factor=0.30,
                   cpu_compute_eff=0.45),
        OpTypeInfo("LRN", p, cpu_traffic_factor=0.20, cpu_compute_eff=0.30),
        OpTypeInfo("LRNGrad", p, cpu_traffic_factor=0.30,
                   cpu_compute_eff=0.20),
        OpTypeInfo("Sigmoid", p, cpu_traffic_factor=0.10,
                   cpu_compute_eff=0.30),
        OpTypeInfo("SigmoidGrad", p, cpu_traffic_factor=0.10,
                   cpu_compute_eff=0.35),
        OpTypeInfo("Tanh", p, cpu_traffic_factor=0.10, cpu_compute_eff=0.30),
        OpTypeInfo("TanhGrad", p, cpu_traffic_factor=0.10,
                   cpu_compute_eff=0.35),
        OpTypeInfo("Dropout", p, cpu_traffic_factor=0.15,
                   cpu_compute_eff=0.40),
        OpTypeInfo("DropoutGrad", p, cpu_traffic_factor=0.15,
                   cpu_compute_eff=0.45),
        OpTypeInfo("GatherV2", p, traffic_factor=1.6, cpu_mem_eff=0.20),
        OpTypeInfo("UnsortedSegmentSum", p, traffic_factor=1.8,
                   cpu_mem_eff=0.12),
        OpTypeInfo("NceLoss", p, cpu_traffic_factor=0.50,
                   cpu_compute_eff=0.40),
        # --- host bookkeeping -------------------------------------------
        OpTypeInfo("Reshape", o),
        OpTypeInfo("Identity", o),
        OpTypeInfo("Shape", o),
        OpTypeInfo("Const", o),
        OpTypeInfo("VariableV2", o),
        OpTypeInfo("NoOp", o),
        OpTypeInfo("Cast", o, cpu_mem_eff=0.60),
        OpTypeInfo("ExpandDims", o),
        OpTypeInfo("Tile", o, cpu_mem_eff=0.50),
    ]
    return {info.name: info for info in infos}


#: Singleton registry of every operation type the library understands.
OP_TYPES: Mapping[str, OpTypeInfo] = _registry()


def op_type_info(op_type: str) -> OpTypeInfo:
    """Look up static info for ``op_type``; raise :class:`UnknownOpError`."""
    try:
        return OP_TYPES[op_type]
    except KeyError:
        raise UnknownOpError(
            f"operation type {op_type!r} is not registered; known types: "
            f"{sorted(OP_TYPES)}"
        ) from None


@dataclass(frozen=True)
class OpCost:
    """Work and traffic vector of one operation instance.

    Attributes:
        muls / adds: Multiply and add counts (the fixed-function PIM work).
        other_flops: Non-MAC work units (comparisons, exp/sqrt/div,
            index arithmetic) that need a programmable device.
        bytes_in / bytes_out: Compulsory tensor traffic.
        parallelism: Maximum number of fixed-function PIM pairs the MAC
            core can occupy simultaneously, following the paper's
            granularity (e.g. an 11x11 convolution filter exposes one pair
            per filter tap — section III-C's pipeline example).
    """

    muls: int = 0
    adds: int = 0
    other_flops: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    parallelism: int = 1

    def __post_init__(self) -> None:
        for fname in ("muls", "adds", "other_flops", "bytes_in", "bytes_out"):
            if getattr(self, fname) < 0:
                raise ValueError(f"OpCost.{fname} must be non-negative")
        if self.parallelism < 1:
            raise ValueError("OpCost.parallelism must be >= 1")

    # Derived quantities are memoized: the simulator's placement estimator
    # reads them millions of times per run, and every field is frozen.
    # (``cached_property`` writes straight into the instance ``__dict__``,
    # which frozen dataclasses permit.)
    @cached_property
    def mac_flops(self) -> int:
        """Fixed-function-PIM-eligible floating point operations."""
        return self.muls + self.adds

    @cached_property
    def macs(self) -> int:
        """Multiply-accumulate count (one MAC = one mul + one add)."""
        return max(self.muls, self.adds)

    @cached_property
    def flops(self) -> int:
        return self.mac_flops + self.other_flops

    @cached_property
    def bytes_total(self) -> int:
        return self.bytes_in + self.bytes_out


@dataclass(frozen=True)
class Op:
    """One operation instance in a training-step dataflow graph.

    Attributes:
        name: Unique instance name, e.g. ``"conv3_1/Conv2DBackpropFilter"``.
        op_type: Registered type name (key into :data:`OP_TYPES`).
        inputs / outputs: Names of consumed / produced tensors.
        cost: Work vector for this instance.
        attrs: Optional free-form attributes (layer metadata).
    """

    name: str
    op_type: str
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    cost: OpCost = field(default_factory=OpCost)
    attrs: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        op_type_info(self.op_type)  # validates the type early

    # Memoized like OpCost's derived fields: every input is frozen and the
    # scheduler queries these on each placement attempt.
    @cached_property
    def info(self) -> OpTypeInfo:
        return op_type_info(self.op_type)

    @cached_property
    def content(self) -> Tuple:
        """``(op_type, *cost fields)``: everything a per-op cost formula or
        kernel plan reads (the type's :class:`OpTypeInfo` derives from
        ``op_type``).  Ops with equal content share compiled binaries,
        profile samples and cost-table rows; a flat tuple of a string and
        ints hashes without a Python call."""
        cost = self.cost
        return (
            self.op_type, cost.muls, cost.adds, cost.other_flops,
            cost.bytes_in, cost.bytes_out, cost.parallelism,
        )

    @cached_property
    def offload_class(self) -> OffloadClass:
        return self.info.offload_class

    @cached_property
    def traffic_bytes(self) -> int:
        """Estimated main-memory traffic (compulsory bytes x spill factor)."""
        return int(self.cost.bytes_total * self.info.traffic_factor)

    @cached_property
    def host_traffic_bytes(self) -> int:
        """Main-memory traffic of the TensorFlow CPU kernel — the quantity
        the paper's profiling counters measure (Table I)."""
        return int(self.cost.bytes_total * self.info.host_traffic_factor)

    @cached_property
    def staging_bytes(self) -> int:
        """Bytes rearranged by the complex phases of a HYBRID op."""
        return int(self.cost.bytes_total * self.info.stages_bytes_factor)


# ---------------------------------------------------------------------------
# Cost constructors used by the layer builders
# ---------------------------------------------------------------------------


def conv2d_cost(
    batch: int,
    out_h: int,
    out_w: int,
    c_in: int,
    c_out: int,
    kernel: Tuple[int, int],
    in_bytes: int,
    w_bytes: int,
    out_bytes: int,
    index_overhead: float = 0.0,
) -> OpCost:
    """Cost of a direct convolution (also used for its backprops).

    ``index_overhead`` adds ``other`` work proportional to the output size,
    modeling the rearrangement/control in complex backward kernels.
    """
    kh, kw = kernel
    out_elems = batch * out_h * out_w * c_out
    macs = out_elems * kh * kw * c_in
    return OpCost(
        muls=macs,
        adds=macs,
        other_flops=int(out_elems * index_overhead),
        bytes_in=in_bytes + w_bytes,
        bytes_out=out_bytes,
        parallelism=max(1, kh * kw * c_in),
    )


def matmul_cost(m: int, k: int, n: int, dtype_bytes: int = 4) -> OpCost:
    """Cost of an ``m x k`` by ``k x n`` dense matrix multiplication."""
    macs = m * k * n
    return OpCost(
        muls=macs,
        adds=macs,
        bytes_in=(m * k + k * n) * dtype_bytes,
        bytes_out=m * n * dtype_bytes,
        parallelism=max(1, k),
    )


def batch_matmul_cost(
    batch: int, m: int, k: int, n: int, dtype_bytes: int = 4
) -> OpCost:
    """Cost of ``batch`` independent ``m x k`` by ``k x n`` GEMMs.

    The attention pattern: every GEMM in the batch is independent, so the
    MAC core exposes one fixed-function pair per (batch, k) slice.
    """
    macs = batch * m * k * n
    return OpCost(
        muls=macs,
        adds=macs,
        bytes_in=batch * (m * k + k * n) * dtype_bytes,
        bytes_out=batch * m * n * dtype_bytes,
        parallelism=max(1, batch * k),
    )


def elementwise_cost(
    num_elements: int,
    n_inputs: int = 1,
    flops_per_element: float = 1.0,
    mac: bool = False,
    dtype_bytes: int = 4,
    parallelism: Optional[int] = None,
) -> OpCost:
    """Cost of an element-wise map (Relu, Mul, Add, ...).

    ``mac=True`` books the per-element work as multiply/add (eligible for
    fixed-function PIMs); otherwise it is "other" work.
    """
    work = int(num_elements * flops_per_element)
    par = parallelism if parallelism is not None else max(1, num_elements // 1024)
    if mac:
        half = work // 2
        return OpCost(
            muls=half,
            adds=work - half,
            bytes_in=num_elements * dtype_bytes * n_inputs,
            bytes_out=num_elements * dtype_bytes,
            parallelism=par,
        )
    return OpCost(
        other_flops=work,
        bytes_in=num_elements * dtype_bytes * n_inputs,
        bytes_out=num_elements * dtype_bytes,
        parallelism=par,
    )


def reduction_cost(
    in_elements: int,
    out_elements: int,
    mac: bool = True,
    dtype_bytes: int = 4,
) -> OpCost:
    """Cost of a reduction (BiasAddGrad, Sum, Mean): one add per input."""
    if mac:
        return OpCost(
            adds=in_elements,
            bytes_in=in_elements * dtype_bytes,
            bytes_out=out_elements * dtype_bytes,
            parallelism=max(1, out_elements),
        )
    return OpCost(
        other_flops=in_elements,
        bytes_in=in_elements * dtype_bytes,
        bytes_out=out_elements * dtype_bytes,
        parallelism=max(1, out_elements),
    )


def pool_cost(
    batch: int,
    out_h: int,
    out_w: int,
    channels: int,
    kernel: Tuple[int, int],
    in_bytes: int,
    out_bytes: int,
    flops_per_window_element: float = 1.0,
) -> OpCost:
    """Cost of a pooling op: one comparison/add per window element."""
    kh, kw = kernel
    windows = batch * out_h * out_w * channels
    return OpCost(
        other_flops=int(windows * kh * kw * flops_per_window_element),
        bytes_in=in_bytes,
        bytes_out=out_bytes,
        parallelism=max(1, channels),
    )


def data_movement_cost(nbytes: int, parallelism: int = 64) -> OpCost:
    """Cost of a pure data-movement op (Slice, ConcatV2, Pad, Transpose)."""
    return OpCost(bytes_in=nbytes, bytes_out=nbytes, parallelism=parallelism)


def adam_cost(n_params: int, dtype_bytes: int = 4) -> OpCost:
    """Cost of one ApplyAdam update over ``n_params`` parameters.

    Adam performs ~4 multiplies, ~3 adds and ~2 complex ops (sqrt, divide)
    per parameter, touching parameter, gradient and two moment tensors.
    """
    return OpCost(
        muls=4 * n_params,
        adds=3 * n_params,
        other_flops=2 * n_params,
        bytes_in=4 * n_params * dtype_bytes,
        bytes_out=3 * n_params * dtype_bytes,
        parallelism=max(1, n_params // 1024),
    )
