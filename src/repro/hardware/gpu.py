"""Discrete-GPU analytical timing model (GTX 1080 Ti baseline).

Effective throughput scaled by the per-model average utilization the
paper measured (section V-D), and the exposed fraction of the host-device
minibatch staging traffic — the "data movement time ... not hidden by the
computation" of Figure 8.  :meth:`GpuModel.op_time` is the per-op
roofline (plus a kernel-launch overhead per operation) that the cost
table (:mod:`repro.sim.optable`) records for the simulated GPU lane.
"""

from __future__ import annotations

from ..config import GPUConfig
from ..nn.graph import Graph
from ..nn.ops import Op


class GpuModel:
    """Throughput and per-step staging time of the discrete GPU."""

    def __init__(self, config: GPUConfig, model_name: str = "default"):
        self.config = config
        self.model_name = model_name
        self._utilization = config.utilization_for(model_name)
        #: Achieved FLOP/s at the model's utilization.
        self.effective_flops = (
            config.peak_flops * self._utilization * config.achieved_efficiency
        )

    @property
    def utilization(self) -> float:
        return self._utilization

    def op_time(self, op: Op) -> float:
        """Seconds of ``op`` on the GPU: the longer of its compute (plus one
        kernel launch) and its device-memory time."""
        cost = op.cost
        compute_s = (
            cost.mac_flops + cost.other_flops
        ) / self.effective_flops + self.config.kernel_launch_overhead_s
        memory_s = op.traffic_bytes / self.config.mem_bandwidth
        return compute_s if compute_s >= memory_s else memory_s

    def exposed_transfer_s(self, graph: Graph) -> float:
        """Host->device staging time not hidden behind computation.

        One minibatch (images + labels) crosses PCIe per step; most of it
        overlaps the previous step's kernels, the rest is exposed.
        Working sets beyond device memory add vDNN-style activation
        swapping (out during forward, back in during backward) — the
        capacity pressure that makes large-batch ResNet-50 slower on the
        GPU than on the PIM system (paper section VI-A).
        """
        full = graph.input_bytes / self.config.pcie_bandwidth
        exposed = full * self.config.exposed_transfer_fraction
        swap = self.swap_bytes(graph) / self.config.pcie_bandwidth
        exposed += swap * self.config.exposed_swap_fraction
        return exposed

    def swap_bytes(self, graph: Graph) -> int:
        """Per-step PCIe activation-swap traffic (0 when the model fits)."""
        overflow = graph.resident_bytes() - self.config.memory_bytes
        if overflow <= 0:
            return 0
        return 2 * int(overflow)  # swapped out during fwd, back in during bwd
