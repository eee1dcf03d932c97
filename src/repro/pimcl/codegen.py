"""Binary generation: extracting fixed-function sub-kernels (section IV-B).

``generate_binaries`` plays the role of the paper's compilation stage: for
each operation it emits the applicable subset of the four binaries of
Figure 4.  The interesting case is a HYBRID operation (e.g.
Conv2DBackpropFilter): its MAC core is split into ``mac_chunks``
sub-kernels (binary #3) and the surrounding complex phases become the
programmable-PIM binary (#4) whose plan interleaves COMPLEX staging phases
with calls to the sub-kernels — the recursive PIM kernel of Figure 6.

Every plan input derives from the op's content (``op_type`` plus ``cost``,
see :attr:`repro.nn.ops.Op.content`), so the binaries are compiled once per
distinct content and shared, read-only, by every op that has it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping

from ..errors import KernelBuildError
from ..nn.ops import OffloadClass, Op
from .kernel import BinaryKind, Kernel, KernelBinary, KernelPhase, PhaseKind, PhasePlan


def _whole_plan(op: Op) -> PhasePlan:
    """Single-phase plan carrying the op's full work (binaries #1/#2)."""
    if op.cost.macs and not op.cost.other_flops:
        phase = KernelPhase(
            kind=PhaseKind.MAC, macs=op.cost.macs, bytes_moved=op.traffic_bytes
        )
    else:
        phase = KernelPhase(
            kind=PhaseKind.COMPLEX,
            other_flops=op.cost.other_flops,
            bytes_moved=op.traffic_bytes,
        )
    return PhasePlan(phases=(phase,))


def _split_mac(total: int, chunks: int) -> List[int]:
    """Split ``total`` MACs into ``chunks`` near-equal positive pieces."""
    if chunks < 1:
        raise KernelBuildError(f"mac_chunks must be >= 1, got {chunks}")
    base, rem = divmod(total, chunks)
    return [base + (1 if i < rem else 0) for i in range(chunks)]


def _recursive_plan(op: Op) -> PhasePlan:
    """Interleaved COMPLEX/MAC plan for a HYBRID op (binary #4).

    Mirrors Figure 6: a leading complex phase, the extracted MAC
    sub-kernels, and a trailing complex phase; staging bytes and
    programmable work are split across the complex phases.
    """
    chunks = op.info.mac_chunks
    mac_sizes = _split_mac(op.cost.macs, chunks)
    n_complex = chunks + 1
    staging = op.staging_bytes
    other = op.cost.other_flops
    stage_bytes = _split_mac(staging, n_complex)
    stage_flops = _split_mac(other, n_complex)
    mac_bytes = _split_mac(max(0, op.traffic_bytes - staging), chunks)
    phases: List[KernelPhase] = []
    for i in range(chunks):
        phases.append(
            KernelPhase(
                kind=PhaseKind.COMPLEX,
                other_flops=stage_flops[i],
                bytes_moved=stage_bytes[i],
            )
        )
        phases.append(
            KernelPhase(
                kind=PhaseKind.MAC, macs=mac_sizes[i], bytes_moved=mac_bytes[i]
            )
        )
    phases.append(
        KernelPhase(
            kind=PhaseKind.COMPLEX,
            other_flops=stage_flops[chunks],
            bytes_moved=stage_bytes[chunks],
        )
    )
    return PhasePlan(phases=tuple(phases))


def _chunked_mac_plan(op: Op) -> PhasePlan:
    """MAC-only plan split into launch chunks (binary #2 for large ops).

    A FIXED-class op may carry a negligible scalar residue (e.g. batch
    normalization's per-channel rsqrt); it is folded into the MAC stream.
    """
    chunks = op.info.mac_chunks
    if op.cost.macs == 0:
        # pure data-movement FIXED op (Slice, ConcatV2): a single streaming
        # phase on the fixed-function device
        return PhasePlan(
            phases=(
                KernelPhase(kind=PhaseKind.MAC, macs=0,
                            bytes_moved=op.traffic_bytes),
            )
        )
    mac_sizes = _split_mac(op.cost.macs, chunks)
    byte_sizes = _split_mac(op.traffic_bytes, chunks)
    return PhasePlan(
        phases=tuple(
            KernelPhase(kind=PhaseKind.MAC, macs=m, bytes_moved=nb)
            for m, nb in zip(mac_sizes, byte_sizes)
        )
    )


def _prog_plan(op: Op) -> PhasePlan:
    """Whole-kernel programmable-PIM plan (binary #4 for PROG ops)."""
    phases: List[KernelPhase] = []
    if op.cost.macs:
        # PROG ops (e.g. ApplyAdam) may still carry MAC work, executed on
        # the programmable cores themselves — no sub-kernel extraction.
        phases.append(
            KernelPhase(
                kind=PhaseKind.COMPLEX,
                other_flops=op.cost.other_flops + op.cost.mac_flops,
                bytes_moved=op.traffic_bytes,
            )
        )
    else:
        phases.append(
            KernelPhase(
                kind=PhaseKind.COMPLEX,
                other_flops=op.cost.other_flops,
                bytes_moved=op.traffic_bytes,
            )
        )
    return PhasePlan(phases=tuple(phases))


#: Compiled binaries by op content.  A process compiles a few thousand
#: distinct contents at most (the whole zoo has 767); the memo is emptied
#: when it reaches :data:`_MAX_BINARIES` entries, so a long-lived process
#: fed ever-new graphs stays bounded.
_BINARIES: Dict[tuple, Mapping[BinaryKind, KernelBinary]] = {}
_MAX_BINARIES = 1 << 14


def generate_binaries(op: Op) -> Kernel:
    """Compile ``op`` into its applicable binaries (Figure 4), memoized by
    op content."""
    key = op.content
    binaries = _BINARIES.get(key)
    if binaries is None:
        if len(_BINARIES) >= _MAX_BINARIES:
            _BINARIES.clear()
        binaries = _BINARIES[key] = MappingProxyType(_compile(op))
    return Kernel(op=op, binaries=binaries)


def _compile(op: Op) -> Dict[BinaryKind, KernelBinary]:
    """The binaries of ``op``, evaluated afresh."""
    binaries = {BinaryKind.CPU: KernelBinary(BinaryKind.CPU, _whole_plan(op))}
    cls = op.offload_class
    if cls is OffloadClass.FIXED:
        binaries[BinaryKind.FIXED_FULL] = KernelBinary(
            BinaryKind.FIXED_FULL, _chunked_mac_plan(op)
        )
    elif cls is OffloadClass.HYBRID:
        plan = _recursive_plan(op)
        mac_only = PhasePlan(
            phases=tuple(p for p in plan if p.kind is PhaseKind.MAC)
        )
        binaries[BinaryKind.FIXED_SUB] = KernelBinary(BinaryKind.FIXED_SUB, mac_only)
        binaries[BinaryKind.PROG] = KernelBinary(BinaryKind.PROG, plan)
    elif cls is OffloadClass.PROG:
        binaries[BinaryKind.PROG] = KernelBinary(BinaryKind.PROG, _prog_plan(op))
        if op.cost.macs:
            # MAC-carrying PROG ops (optimizer updates) additionally
            # compile for the streaming MAC pool: in-DRAM-update backends
            # (GradPIM) execute them there.  Inert unless a policy places
            # the op on "fixed" — the paper's policies never do.
            binaries[BinaryKind.FIXED_FULL] = KernelBinary(
                BinaryKind.FIXED_FULL, _chunked_mac_plan(op)
            )
    # HOST ops carry only the CPU binary.
    return binaries
