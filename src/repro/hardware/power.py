"""System power and energy model (paper section V-B).

The paper evaluates *whole-system* power: the host CPU is included even in
PIM configurations.  Dynamic energy integrates per-device busy time against
per-device dynamic power, plus per-byte memory-access energy (off-chip
CPU<->DRAM accesses cost several times an in-stack access — the root of the
PIM energy advantage).  Static energy integrates idle power over the run.

Frequency scaling (section VI-D/VI-G) multiplies the PIM dynamic power by
the PLL scale (P ~ C V^2 f with V held), while static power is unchanged —
which is why the paper finds higher frequency *more* energy-efficient in
EDP terms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict

from ..config import SystemConfig


@dataclass
class DeviceUsage:
    """Busy-time and traffic totals accumulated by one simulation run."""

    cpu_busy_s: float = 0.0
    gpu_busy_s: float = 0.0
    #: Busy unit-seconds of the fixed-function pool (one unit busy for one
    #: second = 1.0).
    fixed_unit_busy_s: float = 0.0
    #: Multiply-accumulate operations executed on the fixed-function pool.
    fixed_macs: float = 0.0
    #: Busy PIM-seconds of the programmable PIM cluster.
    prog_busy_s: float = 0.0
    #: Bytes moved over the off-chip CPU<->DRAM path.
    external_bytes: float = 0.0
    #: Bytes moved inside the memory stack (PIM accesses).
    internal_bytes: float = 0.0
    #: Bytes moved over the GPU's memory interface.
    gpu_bytes: float = 0.0

    def merged_with(self, other: "DeviceUsage") -> "DeviceUsage":
        return DeviceUsage(
            cpu_busy_s=self.cpu_busy_s + other.cpu_busy_s,
            gpu_busy_s=self.gpu_busy_s + other.gpu_busy_s,
            fixed_unit_busy_s=self.fixed_unit_busy_s + other.fixed_unit_busy_s,
            fixed_macs=self.fixed_macs + other.fixed_macs,
            prog_busy_s=self.prog_busy_s + other.prog_busy_s,
            external_bytes=self.external_bytes + other.external_bytes,
            internal_bytes=self.internal_bytes + other.internal_bytes,
            gpu_bytes=self.gpu_bytes + other.gpu_bytes,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "DeviceUsage":
        return cls(**data)


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy decomposition of one run."""

    dynamic_j: float
    static_j: float
    memory_j: float
    makespan_s: float
    by_device: Dict[str, float] = field(default_factory=dict)

    @property
    def total_j(self) -> float:
        return self.dynamic_j + self.static_j + self.memory_j

    @property
    def dynamic_total_j(self) -> float:
        """Dynamic + memory-access energy: the paper's "dynamic energy"."""
        return self.dynamic_j + self.memory_j

    @property
    def average_power_w(self) -> float:
        return self.total_j / self.makespan_s if self.makespan_s > 0 else 0.0

    def edp(self) -> float:
        """Energy-delay product (paper section VI-G metric)."""
        return self.total_j * self.makespan_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "dynamic_j": self.dynamic_j,
            "static_j": self.static_j,
            "memory_j": self.memory_j,
            "makespan_s": self.makespan_s,
            "by_device": dict(sorted(self.by_device.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EnergyBreakdown":
        # through ``__dict__``, as RunResult.from_dict: no frozen __init__
        fields = {
            "dynamic_j": data["dynamic_j"],
            "static_j": data["static_j"],
            "memory_j": data["memory_j"],
            "makespan_s": data["makespan_s"],
            "by_device": dict(data.get("by_device") or {}),
        }
        energy = object.__new__(cls)
        object.__setattr__(energy, "__dict__", fields)
        return energy


class EnergyModel:
    """Converts :class:`DeviceUsage` into an :class:`EnergyBreakdown`."""

    #: GDDR5X access energy, pJ/byte.
    GPU_PJ_PER_BYTE = 14.0
    #: Fraction of CPU dynamic power drawn by the host-side framework
    #: runtime (scheduling, synchronization polling) while the host's
    #: executor slots are otherwise idle — roughly one active core plus
    #: uncore.  The paper's power methodology measures the whole system.
    HOST_RUNTIME_POWER_FRACTION = 0.22

    def __init__(self, config: SystemConfig, gpu_present: bool = False):
        self.config = config
        self.gpu_present = gpu_present

    def energy(self, usage: DeviceUsage, makespan_s: float) -> EnergyBreakdown:
        """Energy of a run of length ``makespan_s`` with ``usage`` totals."""
        if makespan_s < 0:
            raise ValueError("makespan must be non-negative")
        cfg = self.config
        scale = cfg.stack.frequency_scale
        by_device: Dict[str, float] = {}

        by_device["cpu"] = usage.cpu_busy_s * cfg.cpu.dynamic_power_w
        # host framework runtime: active whenever the CPU executors are not
        by_device["host_runtime"] = (
            max(0.0, makespan_s - usage.cpu_busy_s)
            * cfg.cpu.dynamic_power_w
            * self.HOST_RUNTIME_POWER_FRACTION
        )
        by_device["gpu"] = usage.gpu_busy_s * cfg.gpu.dynamic_power_w
        # pool energy is work-based: pJ/MAC is voltage-determined and does
        # not change with the PLL (the same work just finishes sooner)
        by_device["fixed_pim"] = usage.fixed_macs * cfg.fixed_pim.pj_per_mac * 1e-12
        by_device["prog_pim"] = (
            usage.prog_busy_s * cfg.prog_pim.dynamic_power_w_per_pim * scale
        )
        dynamic_j = sum(by_device.values())

        memory_j = (
            usage.external_bytes * cfg.stack.external_pj_per_byte
            + usage.internal_bytes * cfg.stack.internal_pj_per_byte
            + usage.gpu_bytes * self.GPU_PJ_PER_BYTE
        ) * 1e-12
        if usage.internal_bytes > 0:
            # in-stack compute keeps DRAM banks active for the whole run
            by_device["stack_active"] = (
                cfg.stack.active_power_w * makespan_s
            )
            dynamic_j += by_device["stack_active"]

        static_w = cfg.cpu.static_power_w + cfg.stack.background_power_w
        if self.gpu_present:
            static_w += cfg.gpu.static_power_w
        static_j = static_w * makespan_s

        return EnergyBreakdown(
            dynamic_j=dynamic_j,
            static_j=static_j,
            memory_j=memory_j,
            makespan_s=makespan_s,
            by_device=by_device,
        )
