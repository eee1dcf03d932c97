"""pimcl — kernel binaries of the extended-OpenCL programming model.

Paper section III-B / Figure 4: every operation compiles to up to four
binaries (#1 CPU, #2 fixed-PIM whole kernel, #3 fixed-PIM sub-kernels,
#4 programmable-PIM kernel) with a phase plan for recursive kernels.
Trace generation and the cost table consume these plans; the rest of
the programming model (platform, queues, shared memory, Table III APIs)
is realized by the simulator or not modeled — see DESIGN.md §3.
"""

from .codegen import generate_binaries
from .kernel import (
    BinaryKind,
    Kernel,
    KernelBinary,
    KernelPhase,
    PhaseKind,
    PhasePlan,
)

__all__ = [
    "BinaryKind",
    "Kernel",
    "KernelBinary",
    "KernelPhase",
    "PhaseKind",
    "PhasePlan",
    "generate_binaries",
]
