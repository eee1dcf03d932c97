"""Discrete-event simulation core.

A minimal, deterministic event engine: events are ``(time, sequence)``
ordered callbacks; handles support cancellation (needed by the
processor-sharing fixed-function pool, which reschedules completions when
allocations change).

The heap stores plain ``[time, seq, callback]`` lists rather than
dataclass instances: heap sift operations then compare small floats/ints
directly instead of going through a generated ``__lt__``, and cancellation
is a sentinel write (``callback = None``) with no extra flag field.  The
``seq`` tiebreaker is unique, so the callback slot never takes part in a
comparison.

One event may live off the heap, in the *deferred* slot
(:meth:`Engine.defer`, the simulation's drain step): it takes the ``seq``
``after(0.0, ...)`` would give it and runs once the heap top is later in
``(time, seq)`` order, so it orders and counts exactly like a heap entry
without a push or pop.  Callbacks are held only while pending, so one that
refers back to the engine's owner forms no cycle once the queue drains.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from ..errors import SimulationError

#: Heap entry layout: ``[time, seq, callback]``; ``callback is None`` marks
#: a cancelled event that the run loop discards when it surfaces.
_TIME, _SEQ, _CALLBACK = 0, 1, 2


class EventHandle:
    """Cancellation handle for a scheduled event."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    def cancel(self) -> None:
        self._entry[_CALLBACK] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[_CALLBACK] is None

    @property
    def time(self) -> float:
        return self._entry[_TIME]


class Engine:
    """Deterministic discrete-event engine."""

    __slots__ = ("now", "_heap", "_seq", "_events_processed", "_peak_pending",
                 "_deferred", "_deferred_seq")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[list] = []
        self._seq = 0
        self._events_processed = 0
        self._peak_pending = 0
        #: Callback of the deferred slot (None while the slot is free).
        self._deferred: Optional[Callable[[], None]] = None
        self._deferred_seq = 0

    def at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute ``time``."""
        now = self.now
        if not time >= now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event at {time} before now={now}"
            )
        if callback is None:
            raise SimulationError("event callback must not be None")
        entry = [time, self._seq, callback]
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, entry)
        pending = len(heap) + (self._deferred is not None)
        if pending > self._peak_pending:
            self._peak_pending = pending
        return EventHandle(entry)

    def after(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` after ``delay`` seconds."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + delay, callback)

    def call_after(self, delay: float, callback: Callable[[], None]) -> None:
        """:meth:`after` for callers that never cancel: no handle.  This
        is the per-event scheduling path, so :meth:`at`'s push is inlined."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay}")
        entry = [self.now + delay, self._seq, callback]
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, entry)
        pending = len(heap) + (self._deferred is not None)
        if pending > self._peak_pending:
            self._peak_pending = pending

    def defer(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` now, in ``after(0.0, callback)`` order, from
        the deferred slot (one callback at a time)."""
        if self._deferred is not None:
            raise SimulationError("the deferred slot is already taken")
        if callback is None:
            raise SimulationError("event callback must not be None")
        self._deferred = callback
        self._deferred_seq = self._seq
        self._seq += 1
        pending = len(self._heap) + 1
        if pending > self._peak_pending:
            self._peak_pending = pending

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> None:
        """Process events until the queue drains (or ``until`` / the event
        budget is reached — the budget guards against runaway feedback)."""
        heap = self._heap
        pop = heapq.heappop
        limit = float("inf") if until is None else until
        processed = self._events_processed
        try:
            while True:
                callback = self._deferred
                if callback is not None:
                    if heap:
                        top = heap[0]
                        if top[_TIME] <= self.now and top[_SEQ] < self._deferred_seq:
                            callback = None  # the heap top comes first
                    if callback is not None:
                        # the deferred slot is next; its time is ``now``
                        if self.now > limit:
                            self.now = until
                            return
                        self._deferred = None
                if callback is None:
                    if not heap:
                        return
                    entry = pop(heap)
                    time = entry[_TIME]
                    if time > limit:
                        heapq.heappush(heap, entry)
                        self.now = until
                        return
                    callback = entry[_CALLBACK]
                    if callback is None:
                        continue
                    self.now = time
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"event budget exceeded ({max_events}); likely a "
                        "scheduling livelock"
                    )
                callback()
        finally:
            self._events_processed = processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events queued, the deferred slot included."""
        return sum(1 for e in self._heap if e[_CALLBACK] is not None) + (
            self._deferred is not None
        )

    @property
    def drained(self) -> bool:
        """True when no live (non-cancelled) event remains queued."""
        return self.pending_events == 0

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def peak_pending_events(self) -> int:
        """High-water mark of queued events (cancelled ones included)."""
        return self._peak_pending

    def publish_metrics(self, registry) -> None:
        """Publish engine health into an observability registry."""
        registry.gauge("engine.events_processed").set(self._events_processed)
        registry.gauge("engine.peak_pending_events").set(self._peak_pending)
        registry.gauge("engine.now_s").set(self.now)
