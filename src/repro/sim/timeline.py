"""Schedule timeline recording and ASCII Gantt rendering.

When enabled, the simulator records one :class:`TimelineEntry` per executed
task (device, start, end, step) and, on a fault-injected run, one record
per fault retry and per degraded task.  The timeline is the raw material
for schedule visualization (``examples/schedule_timeline.py``), for the
Chrome trace's fault lane and for schedule-level assertions in tests
(device exclusivity, dependence order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..errors import SimulationError

#: Device lanes in display order.
DEVICE_ORDER = ("cpu", "gpu", "prog", "fixed")


@dataclass(frozen=True)
class TimelineEntry:
    """One task's placement and execution interval."""

    uid: str
    op_type: str
    device: str
    step: int
    start_s: float
    end_s: float
    #: When the task became ready (all dependences satisfied); the gap to
    #: ``start_s`` is the time it queued for a device.
    ready_s: float = 0.0

    def __post_init__(self) -> None:
        if self.end_s < self.start_s:
            raise SimulationError(
                f"timeline entry {self.uid!r} ends before it starts"
            )

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    @property
    def queue_wait_s(self) -> float:
        """Ready-to-start delay (0 when readiness was not recorded)."""
        return max(0.0, self.start_s - self.ready_s)


@dataclass
class Timeline:
    """Ordered record of task executions and per-task fault recoveries."""

    entries: List[TimelineEntry] = field(default_factory=list)
    #: ``{t_s, uid, attempt, delay_s}`` per fault retry, in log order.
    retries: List[Dict[str, object]] = field(default_factory=list)
    #: ``{t_s, uid, from, to}`` per degraded task, in log order.
    degradations: List[Dict[str, object]] = field(default_factory=list)

    def add(self, entry: TimelineEntry) -> None:
        self.entries.append(entry)

    def on_device(self, device: str) -> List[TimelineEntry]:
        return [e for e in self.entries if e.device == device]

    def for_step(self, step: int) -> List[TimelineEntry]:
        return [e for e in self.entries if e.step == step]

    @property
    def makespan_s(self) -> float:
        return max((e.end_s for e in self.entries), default=0.0)

    def device_busy_s(self, device: str) -> float:
        """Total (possibly overlapping) task time on ``device``."""
        return sum(e.duration_s for e in self.on_device(device))

    def concurrency_profile(self, device: str) -> int:
        """Peak number of simultaneously running tasks on ``device``."""
        events = []
        for e in self.on_device(device):
            events.append((e.start_s, 1))
            events.append((e.end_s, -1))
        peak = level = 0
        for _t, delta in sorted(events):
            level += delta
            peak = max(peak, level)
        return peak

    def render(
        self,
        width: int = 80,
        devices: Sequence[str] = DEVICE_ORDER,
        max_rows_per_device: int = 12,
    ) -> str:
        """ASCII Gantt chart: one row group per device."""
        makespan = self.makespan_s
        if makespan <= 0:
            return "(empty timeline)"
        scale = width / makespan
        lines = [f"timeline: {makespan * 1e3:.2f} ms total, 1 col = "
                 f"{makespan / width * 1e3:.3f} ms"]
        for device in devices:
            entries = sorted(self.on_device(device), key=lambda e: e.start_s)
            if not entries:
                continue
            lines.append(f"[{device}] ({len(entries)} tasks)")
            rows: List[List[TimelineEntry]] = []
            for e in entries:
                for row in rows:
                    if row[-1].end_s <= e.start_s + 1e-12:
                        row.append(e)
                        break
                else:
                    rows.append([e])
            for row in rows[:max_rows_per_device]:
                canvas = [" "] * width
                for e in row:
                    lo = min(width - 1, int(e.start_s * scale))
                    hi = min(width, max(lo + 1, int(e.end_s * scale)))
                    label = e.op_type[: hi - lo]
                    for i in range(lo, hi):
                        canvas[i] = "#"
                    for i, ch in enumerate(label):
                        if lo + i < width:
                            canvas[lo + i] = ch
                lines.append("  |" + "".join(canvas) + "|")
            if len(rows) > max_rows_per_device:
                lines.append(f"  ... {len(rows) - max_rows_per_device} more lanes")
        return "\n".join(lines)


def validate_schedule(
    timeline: Timeline,
    slot_capacity: Optional[Dict[str, int]] = None,
) -> None:
    """Check schedule sanity: capacities respected, intervals well-formed.

    Raises :class:`SimulationError` when a device runs more concurrent
    tasks than it has slots.
    """
    if slot_capacity:
        for device, capacity in slot_capacity.items():
            peak = timeline.concurrency_profile(device)
            if peak > capacity:
                raise SimulationError(
                    f"device {device!r} ran {peak} concurrent tasks with "
                    f"only {capacity} slots"
                )
