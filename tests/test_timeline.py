"""Schedule timeline recording and validation."""

import pytest

from repro.baselines import build_configuration
from repro.errors import SimulationError
from repro.nn.models import build_model
from repro.sim.simulation import Simulation
from repro.sim.timeline import Timeline, TimelineEntry, validate_schedule


def entry(uid, device, start, end, step=0, op_type="MatMul"):
    return TimelineEntry(
        uid=uid, op_type=op_type, device=device, step=step,
        start_s=start, end_s=end,
    )


class TestTimelineBasics:
    def test_entry_duration(self):
        e = entry("a", "cpu", 1.0, 3.0)
        assert e.duration_s == 2.0

    def test_entry_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            entry("a", "cpu", 3.0, 1.0)

    def test_device_and_step_filters(self):
        tl = Timeline()
        tl.add(entry("a", "cpu", 0, 1, step=0))
        tl.add(entry("b", "fixed", 0, 2, step=1))
        assert len(tl.on_device("cpu")) == 1
        assert len(tl.for_step(1)) == 1
        assert tl.makespan_s == 2.0
        assert tl.device_busy_s("fixed") == 2.0

    def test_concurrency_profile(self):
        tl = Timeline()
        tl.add(entry("a", "cpu", 0, 2))
        tl.add(entry("b", "cpu", 1, 3))
        tl.add(entry("c", "cpu", 2.5, 4))
        assert tl.concurrency_profile("cpu") == 2

    def test_render_empty(self):
        assert Timeline().render() == "(empty timeline)"

    def test_render_contains_devices(self):
        tl = Timeline()
        tl.add(entry("a", "cpu", 0, 1))
        tl.add(entry("b", "fixed", 0, 1, op_type="Conv2D"))
        out = tl.render(width=40)
        assert "[cpu]" in out and "[fixed]" in out


class TestValidateSchedule:
    def test_capacity_respected(self):
        tl = Timeline()
        tl.add(entry("a", "cpu", 0, 2))
        tl.add(entry("b", "cpu", 1, 3))
        validate_schedule(tl, {"cpu": 2})  # no raise
        with pytest.raises(SimulationError):
            validate_schedule(tl, {"cpu": 1})


class TestRecordedSimulation:
    @pytest.fixture(scope="class")
    def sim(self):
        cfg, pol = build_configuration("hetero-pim")
        sim = Simulation(
            build_model("dcgan"), pol, cfg, record_timeline=True
        )
        sim.run()
        return sim

    def test_every_task_recorded(self, sim):
        assert len(sim.timeline.entries) == len(sim._tasks)

    def test_intervals_within_makespan(self, sim):
        for e in sim.timeline.entries:
            assert 0.0 <= e.start_s <= e.end_s <= sim.engine.now + 1e-9

    def test_hetero_uses_all_devices(self, sim):
        devices = {e.device for e in sim.timeline.entries}
        assert {"cpu", "prog", "fixed"} <= devices

    def test_dependences_respected_in_schedule(self, sim):
        ends = {e.uid: e.end_s for e in sim.timeline.entries}
        starts = {e.uid: e.start_s for e in sim.timeline.entries}
        for task in sim._tasks:
            for j in task.dependents:
                dependent = sim._tasks[j]
                assert ends[task.uid] <= starts[dependent.uid] + 1e-9, (
                    f"{dependent.uid} started before its dependence "
                    f"{task.uid} finished"
                )

    def test_cpu_capacity_respected(self, sim):
        from repro.sim.timeline import validate_schedule

        # CPU whole-op tasks never exceed the slot count (complex phases of
        # hybrid kernels are tracked under "fixed")
        cpu_only = Timeline()
        for e in sim.timeline.entries:
            if e.device == "cpu":
                cpu_only.add(e)
        validate_schedule(cpu_only, {"cpu": sim.policy.cpu_slots})

    def test_disabled_by_default(self):
        cfg, pol = build_configuration("cpu")
        sim = Simulation(build_model("dcgan"), pol, cfg)
        sim.run()
        assert sim.timeline is None
