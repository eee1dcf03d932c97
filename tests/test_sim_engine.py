"""Discrete-event engine and activity tracker."""

import pytest

from repro.errors import SimulationError
from repro.sim.activity import COMPUTE, DATA_MOVEMENT, SYNC, ActivityTracker
from repro.sim.engine import Engine


class TestEngine:
    def test_events_fire_in_time_order(self):
        engine = Engine()
        log = []
        engine.at(2.0, lambda: log.append("b"))
        engine.at(1.0, lambda: log.append("a"))
        engine.at(3.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_ties_fire_in_schedule_order(self):
        engine = Engine()
        log = []
        engine.at(1.0, lambda: log.append("first"))
        engine.at(1.0, lambda: log.append("second"))
        engine.run()
        assert log == ["first", "second"]

    def test_after_is_relative(self):
        engine = Engine()
        times = []
        engine.at(5.0, lambda: engine.after(2.0, lambda: times.append(engine.now)))
        engine.run()
        assert times == [7.0]

    def test_cancellation(self):
        engine = Engine()
        log = []
        handle = engine.at(1.0, lambda: log.append("x"))
        handle.cancel()
        engine.run()
        assert log == []
        assert handle.cancelled

    def test_past_scheduling_rejected(self):
        engine = Engine()
        engine.at(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().after(-1.0, lambda: None)

    def test_run_until(self):
        engine = Engine()
        log = []
        engine.at(1.0, lambda: log.append(1))
        engine.at(10.0, lambda: log.append(10))
        engine.run(until=5.0)
        assert log == [1]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_event_budget_guards_livelock(self):
        engine = Engine()

        def rearm():
            engine.after(0.0, rearm)

        engine.after(0.0, rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_cancel_one_of_tied_events(self):
        # cancellation must not disturb the (time, seq) order of survivors
        engine = Engine()
        log = []
        engine.at(1.0, lambda: log.append("a"))
        b = engine.at(1.0, lambda: log.append("b"))
        engine.at(1.0, lambda: log.append("c"))
        b.cancel()
        engine.run()
        assert log == ["a", "c"]

    def test_cancel_from_callback_of_tied_event(self):
        # a callback may cancel an event scheduled for the same instant
        engine = Engine()
        log = []
        later = engine.at(1.0, lambda: log.append("late"))
        engine.at(1.0, lambda: later.cancel())  # fires first? no: seq order
        engine.run()
        # "late" was scheduled first, so it fires before the canceller
        assert log == ["late"]

        engine2 = Engine()
        log2 = []
        victim = [None]
        engine2.at(1.0, lambda: victim[0].cancel())
        victim[0] = engine2.at(1.0, lambda: log2.append("late"))
        engine2.run()
        assert log2 == []

    def test_cancel_and_reschedule(self):
        # the fixed-pool executor's pattern: cancel a completion, schedule
        # a new one at a different time
        engine = Engine()
        log = []
        handle = engine.at(5.0, lambda: log.append("old"))
        assert handle.time == 5.0
        handle.cancel()
        engine.at(3.0, lambda: log.append("new"))
        engine.run()
        assert log == ["new"]
        assert engine.now == 3.0

    def test_double_cancel_is_safe(self):
        engine = Engine()
        handle = engine.at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled
        engine.run()

    def test_cancelled_events_not_processed_or_pending(self):
        engine = Engine()
        engine.at(1.0, lambda: None)
        cancelled = engine.at(2.0, lambda: None)
        cancelled.cancel()
        assert engine.pending_events == 1
        engine.run()
        assert engine.events_processed == 1

    def test_none_callback_rejected(self):
        with pytest.raises(SimulationError):
            Engine().at(1.0, None)

    def test_interleaved_schedule_cancel_ordering(self):
        # stress the list-entry heap: many ties, alternating cancellations
        engine = Engine()
        log = []
        handles = [
            engine.at(1.0, (lambda i=i: log.append(i))) for i in range(10)
        ]
        for i in range(0, 10, 2):
            handles[i].cancel()
        engine.run()
        assert log == [1, 3, 5, 7, 9]


class TestDeferredSlot:
    def test_runs_in_the_order_after_zero_would_give(self):
        # same-time events queued before the deferral run first, those
        # queued after it run later, exactly as with after(0.0, ...)
        engine = Engine()
        log = []

        def first():
            log.append("first")
            engine.defer(lambda: log.append("deferred"))
            engine.after(0.0, lambda: log.append("after"))

        engine.at(1.0, first)
        engine.at(1.0, lambda: log.append("queued before"))
        engine.at(2.0, lambda: log.append("later"))
        engine.run()
        assert log == ["first", "queued before", "deferred", "after", "later"]

    def test_matches_a_heap_entry_event_for_event(self):
        def trace(use_slot):
            engine = Engine()
            log = []

            def step(i):
                log.append((engine.now, i))
                if i < 6:
                    if use_slot and i % 2 == 0:
                        engine.defer(lambda: step(i + 1))
                    else:
                        engine.after(0.0, lambda: step(i + 1))
                    engine.after(0.5 * (i % 3), lambda: log.append((engine.now, -i)))

            engine.at(1.0, lambda: step(0))
            engine.at(1.0, lambda: log.append((engine.now, "tie")))
            engine.run()
            return log, engine.events_processed, engine.peak_pending_events

        assert trace(True) == trace(False)

    def test_counts_as_a_pending_and_processed_event(self):
        engine = Engine()
        engine.at(1.0, lambda: None)
        engine.defer(lambda: None)
        assert engine.pending_events == 2
        assert not engine.drained
        assert engine.peak_pending_events == 2
        engine.run()
        assert engine.events_processed == 2
        assert engine.drained

    def test_run_until_honours_the_slot(self):
        engine = Engine()
        log = []
        engine.at(1.0, lambda: engine.defer(lambda: log.append(engine.now)))
        engine.at(3.0, lambda: log.append("late"))
        engine.run(until=1.0)
        assert log == [1.0]
        assert engine.pending_events == 1
        engine.run(until=2.0)
        assert engine.now == 2.0
        assert log == [1.0]

    def test_one_callback_at_a_time(self):
        engine = Engine()
        engine.defer(lambda: None)
        with pytest.raises(SimulationError):
            engine.defer(lambda: None)
        engine.run()
        engine.defer(lambda: None)  # free again once it ran
        with pytest.raises(SimulationError):
            Engine().defer(None)

    def test_counts_toward_the_event_budget(self):
        engine = Engine()

        def rearm():
            engine.defer(rearm)

        engine.defer(rearm)
        with pytest.raises(SimulationError):
            engine.run(max_events=100)

    def test_call_after_schedules_without_a_handle(self):
        engine = Engine()
        log = []
        assert engine.call_after(1.0, lambda: log.append(engine.now)) is None
        engine.run()
        assert log == [1.0]
        with pytest.raises(SimulationError):
            engine.call_after(-1.0, lambda: None)


NAN = float("nan")


class TestUnorderedTimesRejected:
    """NaN compares false with everything, so a NaN time must be refused
    where it enters; accepted, it would run first and make ``now`` NaN
    before time moved back to earlier events."""

    @pytest.mark.parametrize(
        "schedule",
        [
            lambda e, cb: e.at(NAN, cb),
            lambda e, cb: e.after(NAN, cb),
            lambda e, cb: e.call_after(NAN, cb),
        ],
        ids=["at", "after", "call_after"],
    )
    def test_nan_time_rejected(self, schedule):
        engine = Engine()
        log = []
        engine.at(1.0, lambda: log.append(engine.now))
        with pytest.raises(SimulationError):
            schedule(engine, lambda: log.append("nan"))
        assert engine.pending_events == 1
        engine.run()
        assert log == [1.0] and engine.now == 1.0

    def test_nan_time_rejected_after_time_advanced(self):
        engine = Engine()
        engine.at(2.0, lambda: None)
        engine.run()
        for schedule in (engine.at, engine.after, engine.call_after):
            with pytest.raises(SimulationError):
                schedule(NAN, lambda: None)
        assert engine.drained

    @pytest.mark.parametrize("method", ["begin", "end"])
    def test_tracker_rejects_nan_time(self, method):
        t = ActivityTracker()
        t.begin(COMPUTE, 1.0)
        with pytest.raises(SimulationError):
            getattr(t, method)(COMPUTE, NAN)
        # the rejected edge left the tracker as it was
        t.end(COMPUTE, 2.0)
        b = t.breakdown(2.0)
        assert b.operation_s == pytest.approx(1.0)
        assert b.sync_s == 0.0

    def test_tracker_breakdown_rejects_nan_time(self):
        t = ActivityTracker()
        t.begin(SYNC, 0.0)
        with pytest.raises(SimulationError):
            t.breakdown(NAN)


class TestActivityTracker:
    def test_single_activity_buckets(self):
        t = ActivityTracker()
        t.begin(COMPUTE, 0.0)
        t.end(COMPUTE, 2.0)
        b = t.breakdown(2.0)
        assert b.operation_s == pytest.approx(2.0)
        assert b.data_movement_s == 0.0

    def test_priority_compute_over_dm_over_sync(self):
        t = ActivityTracker()
        t.begin(SYNC, 0.0)
        t.begin(DATA_MOVEMENT, 1.0)
        t.begin(COMPUTE, 2.0)
        t.end(COMPUTE, 3.0)
        t.end(DATA_MOVEMENT, 4.0)
        t.end(SYNC, 5.0)
        b = t.breakdown(5.0)
        assert b.sync_s == pytest.approx(2.0)         # [0,1) and [4,5)
        assert b.data_movement_s == pytest.approx(2.0)  # [1,2) and [3,4)
        assert b.operation_s == pytest.approx(1.0)    # [2,3)

    def test_idle_after_start_counts_as_sync(self):
        t = ActivityTracker()
        t.begin(COMPUTE, 0.0)
        t.end(COMPUTE, 1.0)
        b = t.breakdown(3.0)  # 2s dependency stall at the end
        assert b.sync_s == pytest.approx(2.0)

    def test_leading_idle_not_counted(self):
        t = ActivityTracker()
        t.begin(COMPUTE, 5.0)
        t.end(COMPUTE, 6.0)
        b = t.breakdown(6.0)
        assert b.total_s == pytest.approx(1.0)

    def test_unbalanced_end_rejected(self):
        t = ActivityTracker()
        with pytest.raises(SimulationError):
            t.end(COMPUTE, 1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            ActivityTracker().begin("gossip", 0.0)

    def test_time_backwards_rejected(self):
        t = ActivityTracker()
        t.begin(COMPUTE, 5.0)
        with pytest.raises(SimulationError):
            t.end(COMPUTE, 4.0)

    def test_breakdown_scaling(self):
        t = ActivityTracker()
        t.begin(COMPUTE, 0.0)
        t.end(COMPUTE, 4.0)
        b = t.breakdown(4.0).scaled(0.25)
        assert b.operation_s == pytest.approx(1.0)
