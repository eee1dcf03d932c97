"""Simulated device executors: slot devices and the processor-sharing pool."""

import pytest

from repro.config import default_config
from repro.errors import SchedulingError, SimulationError
from repro.hardware.fixed_pim import FixedPIMPool
from repro.sim.devices import FixedPoolExecutor, SlotDevice
from repro.sim.engine import Engine
from repro.sim.optable import CostTable


def make_pool(engine, units=10, pipeline=True):
    return FixedPoolExecutor(
        engine=engine, pool=FixedPIMPool(units), pipeline=pipeline
    )


class TestSlotDevice:
    def test_acquire_release(self):
        engine = Engine()
        dev = SlotDevice(engine, "cpu", 2)
        assert dev.try_acquire()
        assert dev.try_acquire()
        assert not dev.try_acquire()
        dev.release()
        assert dev.free_slots == 1

    def test_multi_slot_acquire_atomic(self):
        dev = SlotDevice(Engine(), "prog", 4)
        assert dev.try_acquire(3)
        assert not dev.try_acquire(2)
        assert dev.try_acquire(1)
        dev.release(4)
        assert dev.free_slots == 4

    def test_busy_integral(self):
        engine = Engine()
        dev = SlotDevice(engine, "cpu", 2)
        dev.try_acquire()
        engine.at(3.0, dev.release)
        engine.run()
        assert dev.busy_seconds() == pytest.approx(3.0)

    def test_over_release_rejected(self):
        dev = SlotDevice(Engine(), "cpu", 1)
        with pytest.raises(SchedulingError):
            dev.release()

    def test_zero_slots_rejected(self):
        with pytest.raises(SimulationError):
            SlotDevice(Engine(), "cpu", 0)


class TestFixedPoolExecutor:
    def test_single_job_duration(self):
        engine = Engine()
        pool = make_pool(engine, units=10)
        done = []
        # 10 unit-seconds of work on 10 units -> 1 second
        assert pool.try_submit("k", 10, lambda: done.append(engine.now), work=10.0)
        engine.run()
        assert done == [pytest.approx(1.0)]

    def test_byte_bound_job(self):
        # the cost table's work formula takes the streaming bound when the
        # bytes dominate, with the bandwidth derated by the DRAM scale
        table = CostTable(default_config())
        nbytes = int(10 * table.byte_rate)
        for scale in (1.0, 0.5):
            work = table.norm_work(1, nbytes, scale)
            assert work == pytest.approx(10.0 / scale)
            engine = Engine()
            pool = make_pool(engine, units=10)
            done = []
            pool.try_submit("k", 10, lambda: done.append(engine.now), work=work)
            engine.run()
            assert done == [pytest.approx(1.0 / scale)]

    def test_processor_sharing_expansion(self):
        engine = Engine()
        pool = make_pool(engine, units=10)
        done = {}
        # job A wants all 10 units: 40 unit-seconds
        pool.try_submit("a", 10, lambda: done.setdefault("a", engine.now), work=40.0)
        engine.run(until=0.0)
        # nothing free for B yet
        assert not pool.try_submit(
            "b", 5, lambda: done.setdefault("b", engine.now), work=1.0
        )
        engine.run()
        assert done["a"] == pytest.approx(4.0)

    def test_expansion_accelerates_running_job(self):
        engine = Engine()
        pool = make_pool(engine, units=10)
        done = {}
        # A gets 5 units (wants 10); B holds the other 5 briefly
        pool.try_submit("b", 5, lambda: done.setdefault("b", engine.now), work=2.5)
        pool.try_submit("a", 10, lambda: done.setdefault("a", engine.now), work=40.0)
        engine.run()
        # B: 2.5/5 = 0.5s. A: 5 units for 0.5s (2.5 of its 40 unit-seconds
        # done), then 10 units -> finishes sooner than 8s
        assert done["b"] == pytest.approx(0.5)
        assert done["a"] < 8.0 - 1e-9
        # busy integral equals total normalized work
        assert pool.busy_unit_seconds() == pytest.approx(42.5)

    def test_no_pipeline_token_exclusivity(self):
        engine = Engine()
        pool = make_pool(engine, pipeline=False)
        assert pool.try_take_token("op1")
        assert not pool.try_take_token("op2")
        assert pool.try_take_token("op1")  # re-entrant
        pool.drop_token("op1")
        assert pool.try_take_token("op2")

    def test_no_pipeline_submit_blocked_by_token(self):
        engine = Engine()
        pool = make_pool(engine, pipeline=False)
        pool.try_take_token("op1")
        assert not pool.try_submit("op2", 5, lambda: None, work=1.0)
        assert pool.try_submit("op1", 5, lambda: None, work=1.0)

    def test_drop_foreign_token_rejected(self):
        pool = make_pool(Engine(), pipeline=False)
        pool.try_take_token("op1")
        with pytest.raises(SchedulingError):
            pool.drop_token("op2")

    def test_duty_window_utilization(self):
        engine = Engine()
        pool = make_pool(engine, units=10)
        pool.window_enter()
        pool.try_submit("k", 5, lambda: pool.window_exit(), work=5.0)
        engine.run()
        # 5 busy units over a 1s window on a 10-unit pool
        assert pool.utilization() == pytest.approx(0.5)

    def test_window_underflow_rejected(self):
        pool = make_pool(Engine())
        with pytest.raises(SimulationError):
            pool.window_exit()

    def test_units_freed_callback(self):
        engine = Engine()
        calls = []
        pool = FixedPoolExecutor(
            engine=engine,
            pool=FixedPIMPool(4),
            pipeline=True,
            on_units_freed=lambda: calls.append(engine.now),
        )
        pool.try_submit("k", 4, lambda: None, work=1.0)
        engine.run()
        assert calls  # fired at completion
