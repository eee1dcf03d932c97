"""System configuration for the heterogeneous-PIM reproduction.

Two classes of constants live here (see DESIGN.md section 5):

* **Structural constants taken from the paper**: 444 fixed-function PIMs, 32
  memory banks, 312.5 MHz HMC 2.0 base frequency, a 4-core 2 GHz in-order ARM
  Cortex-A9 programmable PIM, the Xeon E5-2630 v3 host, the GTX 1080 Ti
  comparison GPU and its per-model utilizations (paper section V-D), and the
  x = 90% offload-coverage threshold of the runtime selection algorithm.

* **Calibrated constants**: effective throughputs, bandwidths, per-event
  overheads and energy coefficients.  The paper derives absolute numbers from
  RTL synthesis (Synopsys DC/PrimeTime) and real-machine measurements that
  cannot be rerun here; these constants are tuned so the *relative* results
  land inside the bands the paper reports (DESIGN.md section 4).  The most
  important calibrated value is ``FixedPIMConfig.simd_width``: the paper
  models each fixed-function PIM as a multiplier+adder pair, but the
  throughput implied by its end-to-end results requires each pair to process
  a short vector per cycle; we make that lane width explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from .errors import HardwareConfigError
from .units import GB, GB_S, GHZ, MHZ, US


@dataclass(frozen=True)
class CPUConfig:
    """Host processor model (paper Table IV: Intel Xeon E5-2630 v3)."""

    name: str = "Xeon E5-2630 v3"
    cores: int = 8
    frequency_hz: float = 2.4 * GHZ
    #: Effective FLOP/s for well-blocked dense kernels.  Peak AVX2 FMA on
    #: the 8-core Haswell is 614 GFLOP/s; MKL reaches ~80% on large GEMMs.
    #: Per-op-type TensorFlow kernel efficiencies (repro.nn.ops) scale this
    #: down for everything that is not a well-blocked forward kernel.
    effective_flops: float = 500e9
    #: Effective main-memory bandwidth available to one streaming operation.
    mem_bandwidth: float = 24 * GB_S
    #: Throughput penalty for "other" (non multiply-add) work relative to
    #: MAC work; branches and transcendental functions are slower.
    other_flop_penalty: float = 2.0
    dynamic_power_w: float = 45.0
    static_power_w: float = 23.0


@dataclass(frozen=True)
class GPUConfig:
    """Discrete GPU model (paper Table IV: NVIDIA GTX 1080 Ti)."""

    name: str = "GTX 1080 Ti"
    peak_flops: float = 11.3e12
    #: FLOP efficiency achieved *within* utilized periods (cuDNN kernels do
    #: not run at peak even when the SMs are busy).
    achieved_efficiency: float = 1.0
    mem_bandwidth: float = 484 * GB_S
    #: Host-device interconnect used for minibatch staging.
    pcie_bandwidth: float = 12 * GB_S
    #: Fraction of each step's host-device traffic *not* hidden behind
    #: computation (the paper's breakdown shows only the exposed part).
    exposed_transfer_fraction: float = 0.35
    #: Device-memory capacity; models whose per-step resident working set
    #: exceeds it swap activations over PCIe each step (vDNN-style).
    memory_bytes: float = 11 * GB  # capacities are binary; bandwidths (_S) decimal
    #: Fraction of swap traffic not hidden behind computation.
    exposed_swap_fraction: float = 0.35
    kernel_launch_overhead_s: float = 8 * US
    dynamic_power_w: float = 190.0
    static_power_w: float = 55.0
    #: Average utilization per training model measured by the authors
    #: (paper section V-D).  Models absent from the dict use ``default``.
    utilization: Dict[str, float] = field(
        default_factory=lambda: {
            "inception-v3": 0.62,
            "resnet-50": 0.44,
            "alexnet": 0.30,
            "vgg-19": 0.63,
            "dcgan": 0.28,
            "default": 0.45,
        }
    )

    def utilization_for(self, model_name: str) -> float:
        return self.utilization.get(model_name, self.utilization["default"])


@dataclass(frozen=True)
class StackConfig:
    """3D die-stacked memory (HMC 2.0 parameters, paper section V-A)."""

    banks: int = 32
    #: HMC 2.0 specification frequency, also the PIM working frequency.
    base_frequency_hz: float = 312.5 * MHZ
    #: Frequency multiplier applied by the PLL (paper section VI-D studies
    #: 1x / 2x / 4x).
    frequency_scale: float = 1.0
    #: Aggregate internal bandwidth available to in-stack compute at 1x.
    internal_bandwidth: float = 320 * GB_S
    #: Energy of an in-stack access vs. an off-chip CPU<->DRAM access.
    internal_pj_per_byte: float = 6.0
    #: DRAM-array activity power while in-stack compute keeps banks open
    #: (beyond the per-byte transfer energy).
    active_power_w: float = 8.0
    external_pj_per_byte: float = 22.0
    background_power_w: float = 6.0

    @property
    def frequency_hz(self) -> float:
        return self.base_frequency_hz * self.frequency_scale

    @property
    def bandwidth(self) -> float:
        """Internal bandwidth of the DRAM arrays.

        The PLL scales the logic-die clock (PIM compute); the DRAM banks
        themselves do not speed up, so in-stack bandwidth is flat across
        the frequency study — one reason the paper's gains from frequency
        scaling are sublinear.
        """
        return self.internal_bandwidth


@dataclass(frozen=True)
class FixedPIMConfig:
    """Pool of fixed-function PIMs (multiplier + adder pairs).

    The paper distributes 444 pairs over the 32 banks of the logic die
    (section IV-D).  ``simd_width`` is the calibrated per-pair vector lane
    count (see module docstring).
    """

    n_units: int = 444
    #: Per-unit streaming-port share is a hardware property of the bank
    #: interface, sized for the reference 444-unit design: one unit can
    #: stream at most ``stack.bandwidth / reference_units`` regardless of
    #: how many units a configuration instantiates.
    reference_units: int = 444
    simd_width: int = 32
    #: MACs retired per lane per cycle (a pair = one multiply + one add).
    macs_per_lane_cycle: float = 1.0
    #: Per-unit power at the base clock (area/power DSE); consistent with
    #: ``pj_per_mac`` x ``simd_width`` x 312.5 MHz.
    mw_per_unit: float = 120.0
    #: Energy per multiply-accumulate (32-bit FP pair incl. local SRAM
    #: traffic).  Work-based: at constant voltage the energy of one MAC
    #: does not change with the PLL setting — power rises with frequency
    #: because the same work completes sooner.
    pj_per_mac: float = 12.0
    area_mm2_per_unit: float = 0.055
    #: Host-initiated kernel launch / completion-sync latency.
    host_launch_overhead_s: float = 25 * US
    #: Launch from the programmable PIM (recursive kernel): in-stack, cheap.
    pim_launch_overhead_s: float = 0.6 * US
    #: MACs per loadable fixed-function sub-kernel: the pool executes
    #: fine-grained micro-kernels ("frequent operation-spawning", section
    #: II-C), so a large MAC core dispatches macs/quota launches — cheap
    #: from the programmable PIM, expensive as host round trips.
    subkernel_macs: float = 50e6

    def macs_per_second(self, frequency_hz: float, units: int) -> float:
        """Aggregate MAC throughput of ``units`` pairs at ``frequency_hz``."""
        if units < 0 or units > self.n_units:
            raise HardwareConfigError(
                f"requested {units} fixed-function units, pool has {self.n_units}"
            )
        return units * self.simd_width * self.macs_per_lane_cycle * frequency_hz


@dataclass(frozen=True)
class ProgPIMConfig:
    """Programmable PIM: ARM Cortex-A9, four 2 GHz in-order cores."""

    name: str = "ARM Cortex-A9"
    n_pims: int = 1
    cores_per_pim: int = 4
    frequency_hz: float = 2.0 * GHZ
    #: Sustained NEON FLOPs per core per cycle (in-order A9).
    flops_per_core_cycle: float = 4.0
    #: In-order cores handle branchy "other" work relatively well compared
    #: to their MAC throughput; penalty < CPU's.
    other_flop_penalty: float = 1.5
    dynamic_power_w_per_pim: float = 9.0
    area_mm2_per_pim: float = 4.4
    host_launch_overhead_s: float = 25 * US
    sync_overhead_s: float = 1.2 * US

    @property
    def flops(self) -> float:
        """Aggregate FLOP/s across all programmable PIMs."""
        return (
            self.n_pims
            * self.cores_per_pim
            * self.frequency_hz
            * self.flops_per_core_cycle
        )


@dataclass(frozen=True)
class RuntimeConfig:
    """Software runtime parameters (paper section III-C)."""

    #: The selection algorithm offloads top global-index operations covering
    #: this fraction of one profiled step's execution time (x = 90).
    offload_coverage: float = 0.90
    #: Recursive PIM kernel calls (RC) enabled.
    recursive_kernels: bool = True
    #: Operation pipeline (OP) across steps enabled.
    operation_pipeline: bool = True
    #: Number of future steps the pipeline may draw backfill work from.
    pipeline_depth: int = 1
    #: Number of simulated steps per measurement (steady state).
    measured_steps: int = 3
    #: CPU-side executor slots for concurrent operations (inter-op
    #: parallelism of the host runtime).
    cpu_slots: int = 2
    #: A candidate operation falls back from a busy PIM to the CPU only if
    #: its profiled CPU time is within this factor of its PIM time —
    #: principle 2's "avoid CPU idling" without moving 100x-slower work to
    #: the host (the runtime knows both costs from step-1 profiling).
    cpu_fallback_slowdown_limit: float = 4.0


#: Rates the cost model divides by, per sub-config; each must be positive.
_RATES = {
    "cpu": ("effective_flops", "mem_bandwidth"),
    "gpu": ("peak_flops", "achieved_efficiency", "mem_bandwidth", "pcie_bandwidth"),
    "stack": ("base_frequency_hz", "frequency_scale", "internal_bandwidth"),
    "fixed_pim": (
        "reference_units", "simd_width", "macs_per_lane_cycle", "subkernel_macs"
    ),
    "prog_pim": ("cores_per_pim", "frequency_hz", "flops_per_core_cycle"),
}


@dataclass(frozen=True)
class SystemConfig:
    """Complete system: host + GPU + 3D stack with heterogeneous PIMs."""

    cpu: CPUConfig = field(default_factory=CPUConfig)
    gpu: GPUConfig = field(default_factory=GPUConfig)
    stack: StackConfig = field(default_factory=StackConfig)
    fixed_pim: FixedPIMConfig = field(default_factory=FixedPIMConfig)
    prog_pim: ProgPIMConfig = field(default_factory=ProgPIMConfig)
    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    #: Hardware backend this configuration belongs to (a name registered in
    #: :mod:`repro.hardware.registry`).  Participates in cache/optable
    #: fingerprints so two backends with numerically identical sub-configs
    #: never share cached results.
    backend: str = "hmc-hetero"

    def validate(self) -> None:
        """Reject a zero or negative rate that the cost model divides by
        (:class:`~repro.sim.simulation.Simulation` calls this first)."""
        for part, names in _RATES.items():
            sub = getattr(self, part)
            for name in names:
                value = getattr(sub, name)
                if not value > 0:
                    raise HardwareConfigError(
                        f"{part}.{name} must be positive: {value!r}"
                    )
        for model, share in self.gpu.utilization.items():
            if not share > 0:
                raise HardwareConfigError(
                    f"gpu.utilization[{model!r}] must be positive: {share!r}"
                )

    def with_backend(self, backend: str) -> "SystemConfig":
        """Return a copy tagged as belonging to ``backend``."""
        return replace(self, backend=backend)

    def with_frequency_scale(self, scale: float) -> "SystemConfig":
        """Return a copy with the PIM/stack PLL set to ``scale`` (1, 2, 4)."""
        if scale <= 0:
            raise HardwareConfigError(f"frequency scale must be positive: {scale}")
        return replace(self, stack=replace(self.stack, frequency_scale=scale))

    def with_stacks(self, n_stacks: int) -> "SystemConfig":
        """Return a copy scaled to ``n_stacks`` memory stacks.

        An extension beyond the paper's single-stack evaluation: each
        additional stack contributes its own logic die (another 444
        fixed-function units and another programmable PIM), its own
        internal bandwidth, and its own background power.  The host-side
        runtime and CPU are shared.
        """
        if n_stacks < 1:
            raise HardwareConfigError("at least one memory stack is required")
        return replace(
            self,
            stack=replace(
                self.stack,
                internal_bandwidth=self.stack.internal_bandwidth * n_stacks,
                background_power_w=self.stack.background_power_w * n_stacks,
                active_power_w=self.stack.active_power_w * n_stacks,
            ),
            fixed_pim=replace(
                self.fixed_pim,
                n_units=self.fixed_pim.n_units * n_stacks,
                reference_units=self.fixed_pim.reference_units * n_stacks,
            ),
            prog_pim=replace(
                self.prog_pim, n_pims=self.prog_pim.n_pims * n_stacks
            ),
        )

    def with_prog_pims(self, n_pims: int, area_trade_units: int = 8) -> "SystemConfig":
        """Return a copy with ``n_pims`` programmable PIMs at constant area.

        The logic-die area is fixed (paper section VI-D): every programmable
        PIM beyond the first displaces ``area_trade_units`` fixed-function
        pairs.
        """
        if n_pims < 1:
            raise HardwareConfigError("at least one programmable PIM is required")
        displaced = (n_pims - 1) * area_trade_units
        remaining = self.fixed_pim.n_units - displaced
        if remaining <= 0:
            raise HardwareConfigError(
                f"{n_pims} programmable PIMs displace all fixed-function units"
            )
        return replace(
            self,
            prog_pim=replace(self.prog_pim, n_pims=n_pims),
            fixed_pim=replace(self.fixed_pim, n_units=remaining),
        )

    @property
    def pim_frequency_hz(self) -> float:
        """Working frequency of the fixed-function PIMs (= stack clock)."""
        return self.stack.frequency_hz

    @property
    def prog_pim_frequency_hz(self) -> float:
        """Programmable-PIM clock; scales with the same PLL as the stack."""
        return self.prog_pim.frequency_hz * self.stack.frequency_scale

    def fixed_pool_macs_per_second(self, units: int | None = None) -> float:
        n = self.fixed_pim.n_units if units is None else units
        return self.fixed_pim.macs_per_second(self.pim_frequency_hz, n)


#: Frequency-scaling design points studied in the paper (section VI-D).
FREQUENCY_SCALES: Tuple[float, ...] = (1.0, 2.0, 4.0)

#: Programmable-PIM scaling design points (1P / 4P / 16P, section VI-D).
PROG_PIM_COUNTS: Tuple[int, ...] = (1, 4, 16)


_DEFAULT_CONFIG = SystemConfig()


def default_config() -> SystemConfig:
    """The paper's baseline system configuration.

    One shared instance: ``SystemConfig`` is frozen, so variants are
    derived with :func:`dataclasses.replace` or the ``with_*`` helpers,
    and sharing it lets the id-keyed memos (config signatures, cost
    tables) hit for every caller.  ``gpu.utilization`` is a dict; treat
    it as read-only.
    """
    return _DEFAULT_CONFIG
