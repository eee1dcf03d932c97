"""Makespan classification into the paper's three breakdown buckets.

Figure 8 (and 11) break execution time into *operation* (computation on any
device), *data movement* (exposed memory/transfer time) and
*synchronization*.  Concurrent activities overlap, so the tracker sweeps
the timeline: at every instant the bucket is chosen by priority —
computation anywhere counts the instant as operation time; otherwise an
exposed transfer counts it as data movement; otherwise a pending
launch/sync delay counts it as synchronization.  Instants where nothing at
all is in flight (dependency stalls between events) are charged to
synchronization as well, since they are ordering-induced waits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError

#: Activity kinds in priority order for interval classification.
COMPUTE = "compute"
DATA_MOVEMENT = "data_movement"
SYNC = "sync"

_KINDS = (COMPUTE, DATA_MOVEMENT, SYNC)


@dataclass(frozen=True)
class TimeBreakdown:
    """Sync / data-movement / operation split of a run (Figure 8 bar)."""

    operation_s: float
    data_movement_s: float
    sync_s: float

    @property
    def total_s(self) -> float:
        return self.operation_s + self.data_movement_s + self.sync_s

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown(
            operation_s=self.operation_s * factor,
            data_movement_s=self.data_movement_s * factor,
            sync_s=self.sync_s * factor,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "operation_s": self.operation_s,
            "data_movement_s": self.data_movement_s,
            "sync_s": self.sync_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TimeBreakdown":
        # through ``__dict__``, as RunResult.from_dict: no frozen __init__
        fields = {
            "operation_s": data["operation_s"],
            "data_movement_s": data["data_movement_s"],
            "sync_s": data["sync_s"],
        }
        breakdown = object.__new__(cls)
        object.__setattr__(breakdown, "__dict__", fields)
        return breakdown


class ActivityTracker:
    """Priority-sweep classifier over concurrent activity counters.

    Counters and buckets are plain scalar attributes rather than dicts —
    ``begin``/``end`` run once per simulated activity edge and dominate the
    tracker's cost, so the sweep avoids hashing on the hot path.
    """

    __slots__ = (
        "_c_compute",
        "_c_move",
        "_c_sync",
        "_b_compute",
        "_b_move",
        "_b_sync",
        "_idle_s",
        "_last_time",
        "_started",
    )

    def __init__(self) -> None:
        self._c_compute = 0
        self._c_move = 0
        self._c_sync = 0
        self._b_compute = 0.0
        self._b_move = 0.0
        self._b_sync = 0.0
        self._idle_s = 0.0
        self._last_time = 0.0
        self._started = False

    def _advance(self, now: float) -> None:
        last = self._last_time
        if not now >= last:  # also rejects NaN
            raise SimulationError(
                f"activity time went backwards: {now} < {last}"
            )
        elapsed = now - last
        if elapsed > 0:
            # priority sweep: computation > data movement > synchronization
            if self._c_compute > 0:
                self._b_compute += elapsed
            elif self._c_move > 0:
                self._b_move += elapsed
            elif self._c_sync > 0 or self._started:
                # nothing in flight: dependency-induced idle counts as
                # synchronization once the run has started
                self._b_sync += elapsed
            else:
                self._idle_s += elapsed
        self._last_time = now

    # ``begin`` and ``end`` run once per simulated activity edge.  An
    # activity begins at the time of the edge before it (right after an
    # event or another edge), so ``begin`` advances only when time moved;
    # ``end`` nearly always advances, so it inlines ``_advance``.
    def begin(self, kind: str, now: float) -> None:
        if kind not in _KINDS:
            raise SimulationError(f"unknown activity kind {kind!r}")
        if now != self._last_time:  # NaN included
            self._advance(now)
        if kind == COMPUTE:
            self._c_compute += 1
        elif kind == DATA_MOVEMENT:
            self._c_move += 1
        else:
            self._c_sync += 1
        self._started = True

    def end(self, kind: str, now: float) -> None:
        if kind not in _KINDS:
            raise SimulationError(f"unknown activity kind {kind!r}")
        last = self._last_time
        if not now >= last:
            raise SimulationError(
                f"activity time went backwards: {now} < {last}"
            )
        elapsed = now - last
        if elapsed > 0:
            if self._c_compute > 0:
                self._b_compute += elapsed
            elif self._c_move > 0:
                self._b_move += elapsed
            elif self._c_sync > 0 or self._started:
                self._b_sync += elapsed
            else:
                self._idle_s += elapsed
            self._last_time = now
        if kind == COMPUTE:
            if self._c_compute > 0:
                self._c_compute -= 1
                return
        elif kind == DATA_MOVEMENT:
            if self._c_move > 0:
                self._c_move -= 1
                return
        elif self._c_sync > 0:
            self._c_sync -= 1
            return
        raise SimulationError(f"activity {kind!r} ended more than begun")

    def breakdown(self, now: float) -> TimeBreakdown:
        """Finalize and return the bucket split up to ``now``."""
        self._advance(now)
        return TimeBreakdown(
            operation_s=self._b_compute,
            data_movement_s=self._b_move,
            sync_s=self._b_sync,
        )
