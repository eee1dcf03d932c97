"""Host-CPU analytical timing model.

Roofline-style: an operation's time on the host is the maximum of its
compute time (scaled by the TensorFlow kernel-efficiency factor of its op
type) and its main-memory time (traffic divided by achieved bandwidth).
This model drives the runtime's profiling step (section III-C, "the
runtime profiles performance of all operations on CPU"); the simulated
CPU lane evaluates the same roofline over all ops at once
(:mod:`repro.sim.optable`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CPUConfig
from ..nn.ops import Op


@dataclass(frozen=True)
class OpTiming:
    """Compute/memory decomposition of one operation's device time.

    ``compute_s`` and ``memory_s`` overlap; the op occupies the device for
    ``max(compute_s, memory_s)``.  The *exposed* memory time (the part not
    hidden under compute) is what the paper's breakdown charts as "data
    movement".
    """

    compute_s: float
    memory_s: float

    @property
    def total_s(self) -> float:
        return max(self.compute_s, self.memory_s)

    @property
    def exposed_memory_s(self) -> float:
        return max(0.0, self.memory_s - self.compute_s)

    @property
    def operation_s(self) -> float:
        return self.total_s - self.exposed_memory_s


class CpuModel:
    """Per-op timing on the host CPU."""

    def __init__(self, config: CPUConfig):
        self.config = config

    def op_timing(self, op: Op, cores_fraction: float = 1.0) -> OpTiming:
        """Time of ``op`` using ``cores_fraction`` of the CPU's cores."""
        if not 0 < cores_fraction <= 1.0:
            raise ValueError(f"cores_fraction must be in (0, 1]: {cores_fraction}")
        info = op.info
        eff_flops = self.config.effective_flops * info.cpu_compute_eff
        eff_flops *= cores_fraction
        flops = op.cost.mac_flops + op.cost.other_flops * self.config.other_flop_penalty
        compute_s = flops / eff_flops if flops else 0.0
        bandwidth = self.config.mem_bandwidth * info.cpu_mem_eff
        memory_s = op.host_traffic_bytes / bandwidth if op.host_traffic_bytes else 0.0
        return OpTiming(compute_s=compute_s, memory_s=memory_s)

    def memory_accesses_bytes(self, op: Op) -> int:
        """Main-memory traffic of ``op`` — the hardware-counter quantity the
        profiling framework records (paper section II-A)."""
        return op.host_traffic_bytes
