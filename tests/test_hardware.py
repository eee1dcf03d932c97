"""Hardware models: stack geometry, placement, area DSE, device timing."""

import pytest

from repro.config import StackConfig, default_config
from repro.errors import HardwareConfigError, PlacementError, SchedulingError
from repro.hardware.area import (
    LogicDieBudget,
    explore_prog_pim_tradeoff,
    max_fixed_units,
)
from repro.hardware.cpu import CpuModel, OpTiming
from repro.hardware.fixed_pim import FixedPIMPool
from repro.hardware.gpu import GpuModel
from repro.hardware.hmc import BankZone, StackGeometry
from repro.hardware.placement import (
    ZONE_WEIGHTS,
    place_fixed_pims,
    validate_thermal,
)
from repro.nn.ops import Op, OpCost


class TestStackGeometry:
    def test_32_banks_in_4x8_grid(self):
        geo = StackGeometry(StackConfig())
        corners, edges, centers = geo.zone_counts()
        assert corners == 4
        assert edges == 16
        assert centers == 12
        assert corners + edges + centers == 32

    def test_zone_classification(self):
        geo = StackGeometry(StackConfig())
        assert geo.bank(0).zone is BankZone.CORNER
        assert geo.bank(7).zone is BankZone.CORNER
        assert geo.bank(1).zone is BankZone.EDGE
        assert geo.bank(9).zone is BankZone.CENTER

    def test_grid_must_match_bank_count(self):
        with pytest.raises(HardwareConfigError):
            StackGeometry(StackConfig(), rows=5, cols=5)

    def test_bank_index_bounds(self):
        geo = StackGeometry(StackConfig())
        with pytest.raises(HardwareConfigError):
            geo.bank(32)


class TestPlacement:
    def test_paper_unit_count_distributes_exactly(self):
        geo = StackGeometry(StackConfig())
        placement = place_fixed_pims(geo, 444)
        assert placement.total_units == 444
        validate_thermal(placement, geo)

    def test_cool_zones_get_more_units(self):
        geo = StackGeometry(StackConfig())
        placement = place_fixed_pims(geo, 444)
        corner = placement.units_in(0)
        center = placement.units_in(9)
        assert corner > center

    def test_zone_weights_ordering(self):
        assert (
            ZONE_WEIGHTS[BankZone.CORNER]
            > ZONE_WEIGHTS[BankZone.EDGE]
            > ZONE_WEIGHTS[BankZone.CENTER]
        )

    def test_zero_units(self):
        geo = StackGeometry(StackConfig())
        assert place_fixed_pims(geo, 0).total_units == 0

    def test_negative_rejected(self):
        geo = StackGeometry(StackConfig())
        with pytest.raises(PlacementError):
            place_fixed_pims(geo, -1)


class TestAreaDSE:
    def test_derives_papers_444_units(self):
        cfg = default_config()
        point = max_fixed_units(LogicDieBudget(), cfg.fixed_pim, cfg.prog_pim)
        assert point.n_fixed_units == 444
        assert point.feasible(LogicDieBudget())

    def test_more_prog_pims_displace_fixed_units(self):
        cfg = default_config()
        points = explore_prog_pim_tradeoff(
            LogicDieBudget(), cfg.fixed_pim, cfg.prog_pim, max_prog_pims=4
        )
        units = [p.n_fixed_units for p in points]
        assert units == sorted(units, reverse=True)

    def test_negative_prog_pims_rejected(self):
        cfg = default_config()
        with pytest.raises(HardwareConfigError):
            max_fixed_units(LogicDieBudget(), cfg.fixed_pim, cfg.prog_pim, -1)


class TestCpuModel:
    def _op(self, **cost):
        return Op(name="o/MatMul", op_type="MatMul", cost=OpCost(**cost))

    def test_compute_bound_op(self):
        cpu = CpuModel(default_config().cpu)
        op = self._op(muls=10**9, adds=10**9, bytes_in=1000)
        t = cpu.op_timing(op)
        assert t.compute_s > t.memory_s
        assert t.total_s == pytest.approx(t.compute_s)
        assert t.exposed_memory_s == 0.0

    def test_memory_bound_op(self):
        cpu = CpuModel(default_config().cpu)
        op = Op(
            name="o/BiasAddGrad", op_type="BiasAddGrad",
            cost=OpCost(adds=10, bytes_in=10**9),
        )
        t = cpu.op_timing(op)
        assert t.memory_s > t.compute_s
        assert t.exposed_memory_s == pytest.approx(t.memory_s - t.compute_s)

    def test_cores_fraction_scales_compute(self):
        cpu = CpuModel(default_config().cpu)
        op = self._op(muls=10**9, adds=10**9)
        full = cpu.op_timing(op, cores_fraction=1.0)
        half = cpu.op_timing(op, cores_fraction=0.5)
        assert half.compute_s == pytest.approx(2 * full.compute_s)

    def test_invalid_fraction_rejected(self):
        cpu = CpuModel(default_config().cpu)
        with pytest.raises(ValueError):
            cpu.op_timing(self._op(muls=1), cores_fraction=0.0)

    def test_optiming_properties(self):
        t = OpTiming(compute_s=1.0, memory_s=3.0)
        assert t.total_s == 3.0
        assert t.exposed_memory_s == 2.0
        assert t.operation_s == 1.0


class TestGpuModel:
    def test_utilization_scales_throughput(self):
        cfg = default_config().gpu
        fast = GpuModel(cfg, "vgg-19")       # util 0.63
        slow = GpuModel(cfg, "alexnet")      # util 0.30
        assert fast.effective_flops > slow.effective_flops

    def test_swap_traffic_only_over_capacity(self):
        from repro.nn.models import build_model
        gpu = GpuModel(default_config().gpu, "resnet-50")
        resnet = build_model("resnet-50")
        alexnet = build_model("alexnet")
        assert gpu.swap_bytes(resnet) > 0
        assert gpu.swap_bytes(alexnet) == 0
        assert gpu.exposed_transfer_s(resnet) > gpu.exposed_transfer_s(alexnet)


class TestFixedPIMPool:
    def test_allocate_release_cycle(self):
        pool = FixedPIMPool(10)
        assert pool.allocate("k1", 6, now=0.0) == 6
        assert pool.free_units == 4
        assert pool.allocate("k2", 8, now=1.0) == 4  # partial grant
        assert pool.free_units == 0
        assert pool.release("k1", now=2.0) == 6
        assert pool.free_units == 6

    def test_busy_integral_accounts_held_time(self):
        pool = FixedPIMPool(10)
        pool.allocate("k", 5, now=0.0)
        pool.release("k", now=2.0)
        assert pool.busy_unit_seconds(3.0) == pytest.approx(10.0)  # 5u x 2s

    def test_expand_toward_want(self):
        pool = FixedPIMPool(10)
        pool.allocate("k", 4, now=0.0)
        assert pool.expand("k", 8, now=1.0) == 8
        assert pool.expand("k", 100, now=2.0) == 10  # capped by pool

    def test_double_allocate_rejected(self):
        pool = FixedPIMPool(10)
        pool.allocate("k", 2, now=0.0)
        with pytest.raises(SchedulingError):
            pool.allocate("k", 2, now=1.0)

    def test_release_unknown_rejected(self):
        with pytest.raises(SchedulingError):
            FixedPIMPool(10).release("ghost", now=0.0)

    def test_time_backwards_rejected(self):
        pool = FixedPIMPool(10)
        pool.allocate("k", 2, now=5.0)
        with pytest.raises(SchedulingError):
            pool.release("k", now=1.0)

    def test_utilization_window(self):
        pool = FixedPIMPool(10)
        start = pool.busy_unit_seconds(0.0)
        pool.allocate("k", 10, now=0.0)
        pool.release("k", now=1.0)
        assert pool.utilization(0.0, 2.0, start) == pytest.approx(0.5)
