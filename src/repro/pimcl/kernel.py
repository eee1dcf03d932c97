"""Kernels, binaries and execution phase plans.

Paper section III-B / Figure 4: given one OpenCL kernel per operation, the
build stage emits four binaries —

* **#1 CPU** — the whole kernel for the host.
* **#2 fixed-PIM** — the whole kernel, for operations that decompose
  entirely into multiplies/adds.
* **#3 fixed-PIM sub-kernels** — the extracted MAC cores of a complex
  kernel.
* **#4 programmable-PIM** — the complex kernel with extracted regions
  replaced by calls to the #3 sub-kernels (the *recursive PIM kernel*).

The :class:`PhasePlan` of a binary is what the simulator executes: an
alternation of COMPLEX phases (programmable device work: staging,
conditionals) and MAC phases (fixed-function sub-kernel launches).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Tuple

from ..errors import KernelBuildError
from ..nn.ops import OffloadClass, Op


class BinaryKind(enum.IntEnum):
    """The four binary files of Figure 4."""

    CPU = 1
    FIXED_FULL = 2
    FIXED_SUB = 3
    PROG = 4


class PhaseKind(enum.Enum):
    """Execution phase categories inside a kernel."""

    #: Non-MAC work: staging, rearrangement, conditionals, optimizer math.
    COMPLEX = "complex"
    #: A fixed-function sub-kernel: pure multiply/add work.
    MAC = "mac"


@dataclass(frozen=True)
class KernelPhase:
    """One phase of a kernel's execution plan.

    Attributes:
        kind: COMPLEX or MAC.
        macs: Multiply-accumulate count executed in this phase (MAC only).
        other_flops: Programmable-device work units (COMPLEX only).
        bytes_moved: Data staged/streamed during the phase.
    """

    kind: PhaseKind
    macs: int = 0
    other_flops: int = 0
    bytes_moved: int = 0

    def __post_init__(self) -> None:
        if self.kind is PhaseKind.MAC and self.other_flops:
            raise KernelBuildError("MAC phases carry no programmable work")
        if self.kind is PhaseKind.COMPLEX and self.macs:
            raise KernelBuildError("COMPLEX phases carry no MAC work")


@dataclass(frozen=True)
class PhasePlan:
    """Ordered phases of one kernel binary."""

    phases: Tuple[KernelPhase, ...]

    @property
    def n_mac_phases(self) -> int:
        return sum(1 for p in self.phases if p.kind is PhaseKind.MAC)

    @property
    def total_macs(self) -> int:
        return sum(p.macs for p in self.phases)

    @property
    def total_other_flops(self) -> int:
        return sum(p.other_flops for p in self.phases)

    def __iter__(self):
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)


@dataclass(frozen=True)
class KernelBinary:
    """One compiled artifact of a kernel."""

    kind: BinaryKind
    plan: PhasePlan


@dataclass(frozen=True)
class Kernel:
    """An operation's kernel with its generated binaries (a read-only
    mapping, shared by every op of equal content)."""

    op: Op
    binaries: Mapping[BinaryKind, KernelBinary]

    def binary(self, kind: BinaryKind) -> KernelBinary:
        try:
            return self.binaries[kind]
        except KeyError:
            raise KernelBuildError(
                f"kernel for {self.op.name!r} has no binary #{int(kind)} "
                f"({kind.name}); op class is {self.op.offload_class.value}"
            ) from None

    def has_binary(self, kind: BinaryKind) -> bool:
        return kind in self.binaries

    @property
    def offload_class(self) -> OffloadClass:
        return self.op.offload_class
