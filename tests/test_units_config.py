"""Units helpers and system-configuration invariants."""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import (
    FREQUENCY_SCALES,
    PROG_PIM_COUNTS,
    SystemConfig,
    default_config,
)
from repro.errors import HardwareConfigError
from repro.units import (
    GB,
    GB_S,
    GHZ,
    KB,
    KB_S,
    MB,
    MB_S,
    MHZ,
    TB,
    seconds_per_cycle,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestUnits:
    def test_frequency_constants(self):
        assert GHZ == 1e9
        assert MHZ == 1e6

    def test_sizes_are_binary_bandwidths_decimal(self):
        # the module docstring's convention, spelled out
        assert (KB, MB, GB, TB) == (1024, 1024**2, 1024**3, 1024**4)
        assert (KB_S, MB_S, GB_S) == (1e3, 1e6, 1e9)
        # the ~7% gap the convention exists to guard
        assert GB / GB_S == pytest.approx(1.0737, abs=1e-3)

    def test_no_raw_binary_exponents_outside_units_module(self):
        """Lint: spell sizes with KB/MB/GB/TB, not 1024**n or 1 << 10n.

        A raw exponent is where decimal/binary mixups hide; units.py is
        the single place allowed to define them.
        """
        raw = re.compile(r"1024\s*\*\*|<<\s*[123]0\b")
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "units.py":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if raw.search(line.split("#", 1)[0]):
                    offenders.append(f"{path.relative_to(SRC)}:{lineno}")
        assert not offenders, (
            "raw binary size exponents (use repro.units constants): "
            + ", ".join(offenders)
        )

    def test_seconds_per_cycle(self):
        assert seconds_per_cycle(1 * GHZ) == pytest.approx(1e-9)

    def test_seconds_per_cycle_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            seconds_per_cycle(0)
        with pytest.raises(ValueError):
            seconds_per_cycle(-1 * GHZ)


class TestSystemConfig:
    def test_paper_structural_constants(self):
        cfg = default_config()
        assert cfg.fixed_pim.n_units == 444
        assert cfg.stack.banks == 32
        assert cfg.stack.base_frequency_hz == pytest.approx(312.5 * MHZ)
        assert cfg.prog_pim.cores_per_pim == 4
        assert cfg.prog_pim.frequency_hz == pytest.approx(2 * GHZ)
        assert cfg.runtime.offload_coverage == pytest.approx(0.90)

    def test_frequency_scaling_points(self):
        assert FREQUENCY_SCALES == (1.0, 2.0, 4.0)
        assert PROG_PIM_COUNTS == (1, 4, 16)

    def test_with_frequency_scale(self):
        cfg = default_config().with_frequency_scale(4.0)
        assert cfg.pim_frequency_hz == pytest.approx(4 * 312.5 * MHZ)
        # DRAM-array bandwidth does NOT follow the logic PLL
        assert cfg.stack.bandwidth == pytest.approx(
            default_config().stack.internal_bandwidth
        )
        # the programmable PIM shares the PLL
        assert cfg.prog_pim_frequency_hz == pytest.approx(8 * GHZ)

    def test_with_frequency_scale_rejects_nonpositive(self):
        with pytest.raises(HardwareConfigError):
            default_config().with_frequency_scale(0.0)

    @pytest.mark.parametrize(
        "part, field",
        [
            ("cpu", "effective_flops"),
            ("cpu", "mem_bandwidth"),
            ("gpu", "peak_flops"),
            ("gpu", "achieved_efficiency"),
            ("gpu", "mem_bandwidth"),
            ("gpu", "pcie_bandwidth"),
            ("stack", "base_frequency_hz"),
            ("stack", "frequency_scale"),
            ("stack", "internal_bandwidth"),
            ("fixed_pim", "reference_units"),
            ("fixed_pim", "simd_width"),
            ("fixed_pim", "macs_per_lane_cycle"),
            ("fixed_pim", "subkernel_macs"),
            ("prog_pim", "cores_per_pim"),
            ("prog_pim", "frequency_hz"),
            ("prog_pim", "flops_per_core_cycle"),
        ],
    )
    def test_zero_rate_rejected(self, part, field):
        """Every rate the cost table divides by must be positive, so no
        formula divides by zero."""
        cfg = default_config()
        bad = replace(cfg, **{part: replace(getattr(cfg, part), **{field: 0})})
        with pytest.raises(HardwareConfigError, match=f"{part}.{field}"):
            bad.validate()

    def test_zero_gpu_utilization_rejected(self):
        cfg = default_config()
        gpu = replace(cfg.gpu, utilization={"default": 0.0})
        with pytest.raises(HardwareConfigError, match="utilization"):
            replace(cfg, gpu=gpu).validate()

    def test_simulation_rejects_zero_rate(self):
        """The check runs before anything divides: profiling, then the
        cost table."""
        from repro.api import simulate

        cfg = default_config()
        bad = replace(cfg, cpu=replace(cfg.cpu, mem_bandwidth=0))
        with pytest.raises(HardwareConfigError, match="cpu.mem_bandwidth"):
            simulate("lstm", base=bad)

    def test_with_prog_pims_trades_fixed_units(self):
        base = default_config()
        cfg = base.with_prog_pims(16, area_trade_units=8)
        assert cfg.prog_pim.n_pims == 16
        assert cfg.fixed_pim.n_units == base.fixed_pim.n_units - 15 * 8

    def test_with_prog_pims_one_is_identity(self):
        base = default_config()
        cfg = base.with_prog_pims(1)
        assert cfg.fixed_pim.n_units == base.fixed_pim.n_units

    def test_with_prog_pims_rejects_displacing_everything(self):
        with pytest.raises(HardwareConfigError):
            default_config().with_prog_pims(100, area_trade_units=8)

    def test_with_prog_pims_rejects_zero(self):
        with pytest.raises(HardwareConfigError):
            default_config().with_prog_pims(0)

    def test_fixed_pool_rate_scales_with_units_and_frequency(self):
        cfg = default_config()
        full = cfg.fixed_pool_macs_per_second()
        half = cfg.fixed_pool_macs_per_second(cfg.fixed_pim.n_units // 2)
        assert full > half
        fast = cfg.with_frequency_scale(2.0)
        assert fast.fixed_pool_macs_per_second() == pytest.approx(2 * full)

    def test_fixed_pool_rate_rejects_over_allocation(self):
        cfg = default_config()
        with pytest.raises(HardwareConfigError):
            cfg.fixed_pim.macs_per_second(cfg.pim_frequency_hz, 445)

    def test_gpu_utilization_lookup(self):
        cfg = default_config()
        assert cfg.gpu.utilization_for("vgg-19") == pytest.approx(0.63)
        assert cfg.gpu.utilization_for("unknown-model") == pytest.approx(
            cfg.gpu.utilization["default"]
        )

    def test_configs_are_immutable(self):
        cfg = default_config()
        with pytest.raises(AttributeError):
            cfg.cpu.cores = 16  # type: ignore[misc]
