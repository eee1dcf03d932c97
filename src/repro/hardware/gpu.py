"""Discrete-GPU analytical timing model (GTX 1080 Ti baseline).

Effective throughput scaled by the per-model average utilization the
paper measured (section V-D), and the exposed fraction of the host-device
minibatch staging traffic — the "data movement time ... not hidden by the
computation" of Figure 8.  The per-op roofline (plus a kernel-launch
overhead per operation) is evaluated over all ops at once by
:mod:`repro.sim.optable`.
"""

from __future__ import annotations

from ..config import GPUConfig
from ..nn.graph import Graph


class GpuModel:
    """Throughput and per-step staging time of the discrete GPU."""

    def __init__(self, config: GPUConfig, model_name: str = "default"):
        self.config = config
        self.model_name = model_name
        self._utilization = config.utilization_for(model_name)

    @property
    def utilization(self) -> float:
        return self._utilization

    @property
    def effective_flops(self) -> float:
        return (
            self.config.peak_flops
            * self._utilization
            * self.config.achieved_efficiency
        )

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
