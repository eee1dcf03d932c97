"""Host-CPU analytical timing model.

Roofline-style: an operation's time on the host is the maximum of its
compute time (scaled by the TensorFlow kernel-efficiency factor of its op
type) and its main-memory time (traffic divided by achieved bandwidth).
This model drives the runtime's profiling step (section III-C, "the
runtime profiles performance of all operations on CPU"), and the cost
table (:mod:`repro.sim.optable`) reads the simulated CPU lane's per-op
times from :meth:`CpuModel.op_roofline`, and splits them and the host's
share of hybrid complex phases with the same :func:`overlap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..config import CPUConfig
from ..nn.ops import Op


def overlap(compute_s: float, memory_s: float) -> Tuple[float, float, float]:
    """``(total_s, operation_s, exposed_memory_s)`` of compute overlapping
    memory time: the device is busy for the longer of the two, and the
    memory time not hidden under compute is exposed."""
    if compute_s >= memory_s:
        return compute_s, compute_s, 0.0
    exposed_s = memory_s - compute_s
    return memory_s, memory_s - exposed_s, exposed_s


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
        return overlap(self.compute_s, self.memory_s)[0]

    @property
    def exposed_memory_s(self) -> float:
        return overlap(self.compute_s, self.memory_s)[2]

    @property
    def operation_s(self) -> float:
        return overlap(self.compute_s, self.memory_s)[1]


class CpuModel:
    """Per-op timing on the host CPU."""

    def __init__(self, config: CPUConfig):
        self.config = config

    def op_timing(self, op: Op, cores_fraction: float = 1.0) -> OpTiming:
        """Time of ``op`` using ``cores_fraction`` of the CPU's cores."""
        if not 0 < cores_fraction <= 1.0:
            raise ValueError(f"cores_fraction must be in (0, 1]: {cores_fraction}")
        return OpTiming(*self.op_roofline(op, cores_fraction))

    def full_roofline(self, flops: float, nbytes: float) -> Tuple[float, float, float]:
        """:func:`overlap` of ``flops`` and ``nbytes`` on the whole CPU at its
        peak effective rates (no op-type efficiency): the host's share of
        a hybrid op's complex phases."""
        config = self.config
        return overlap(flops / config.effective_flops, nbytes / config.mem_bandwidth)

    def op_roofline(self, op: Op, cores_fraction: float) -> Tuple[float, float]:
        """``(compute_s, memory_s)`` of ``op`` on ``cores_fraction`` of the
        CPU's cores, at its op type's kernel efficiencies."""
        config = self.config
        info = op.info
        cost = op.cost
        flops = cost.mac_flops + cost.other_flops * config.other_flop_penalty
        eff_flops = (config.effective_flops * info.cpu_compute_eff) * cores_fraction
        nbytes = op.host_traffic_bytes
        bandwidth = config.mem_bandwidth * info.cpu_mem_eff
        return (
            flops / eff_flops if flops else 0.0,
            nbytes / bandwidth if nbytes else 0.0,
        )
