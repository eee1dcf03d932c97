"""Hardware models: 3D stack, PIMs, host CPU, GPU, power and area —
plus the pluggable backend registry (:mod:`repro.hardware.registry`)."""

from .area import DesignPoint, LogicDieBudget, explore_prog_pim_tradeoff, max_fixed_units
from .cpu import CpuModel, OpTiming
from .dram_timing import DramBandwidthModel, DramTimings
from .fixed_pim import FixedPIMPool
from .gpu import GpuModel
from .hmc import BankGeometry, BankZone, StackGeometry
from .placement import Placement, place_fixed_pims, validate_thermal
from .power import DeviceUsage, EnergyBreakdown, EnergyModel
from .registry import BackendDescriptor, HardwareBackend, list_backends, register

__all__ = [
    "BackendDescriptor",
    "BankGeometry",
    "BankZone",
    "CpuModel",
    "DramBandwidthModel",
    "DramTimings",
    "DesignPoint",
    "DeviceUsage",
    "EnergyBreakdown",
    "EnergyModel",
    "FixedPIMPool",
    "GpuModel",
    "HardwareBackend",
    "LogicDieBudget",
    "OpTiming",
    "Placement",
    "StackGeometry",
    "explore_prog_pim_tradeoff",
    "list_backends",
    "max_fixed_units",
    "place_fixed_pims",
    "register",
    "validate_thermal",
]
