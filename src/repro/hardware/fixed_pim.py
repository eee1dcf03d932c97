"""Fixed-function PIM pool: a divisible, time-shared compute resource.

The pool models the 444 multiplier/adder pairs as a single allocatable
resource (the paper's OpenCL mapping makes all fixed-function PIMs one
compute device).  Kernels request units up to their parallelism; with the
operation-pipeline technique enabled several kernels hold units
concurrently, and a kernel may *expand* onto units released by others
("an operation can dynamically change its usage of PIMs", section III-C).

The pool integrates busy unit-seconds over time, which is exactly the
quantity behind the paper's Figure 15 utilization results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import SchedulingError

#: Busy-fraction bins of the occupancy histogram (plus a dedicated idle
#: bin): bin 0 is exactly-idle time, bins 1..OCCUPANCY_BINS cover busy-unit
#: fractions (0, 1] in equal slices.
OCCUPANCY_BINS = 16


@dataclass
class FixedPIMPool:
    """Allocation state + busy-time integral of the fixed-function pool."""

    n_units: int
    _allocations: Dict[str, int] = field(default_factory=dict)
    _lost_units: int = 0
    _last_time: float = 0.0
    _busy_unit_seconds: float = 0.0
    _occupancy_s: List[float] = field(
        default_factory=lambda: [0.0] * (OCCUPANCY_BINS + 1)
    )
    #: Incremental sum of ``_allocations.values()`` — ``busy_units`` is read
    #: on every allocation event and every integration step, so it is
    #: maintained on mutation instead of recomputed per access.
    _busy: int = 0

    def __post_init__(self) -> None:
        if self.n_units < 1:
            raise SchedulingError("fixed-function pool needs at least one unit")

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    @property
    def busy_units(self) -> int:
        return self._busy

    @property
    def lost_units(self) -> int:
        """Units permanently removed by injected faults (see :meth:`shrink`)."""
        return self._lost_units

    @property
    def capacity_units(self) -> int:
        """Schedulable units: nominal count minus fault losses."""
        return self.n_units - self._lost_units

    @property
    def free_units(self) -> int:
        # read per scheduling decision: one attribute sum, no property chain
        return self.n_units - self._lost_units - self._busy

    def allocate(self, kernel_id: str, want: int, now: float) -> int:
        """Grant up to ``want`` units to a new kernel; returns the grant.

        A grant of 0 means the pool is fully busy and the kernel must wait.
        """
        if kernel_id in self._allocations:
            raise SchedulingError(f"kernel {kernel_id!r} already holds units")
        if want < 1:
            raise SchedulingError(f"kernel {kernel_id!r} requested {want} units")
        granted = min(want, self.n_units - self._lost_units - self._busy)
        if granted > 0:
            self._integrate(now)
            self._allocations[kernel_id] = granted
            self._busy += granted
        return granted

    def expand(self, kernel_id: str, want_total: int, now: float) -> int:
        """Grow an existing allocation toward ``want_total``; returns the
        new holding.  Used by the operation pipeline when units free up."""
        held = self._allocations.get(kernel_id)
        if held is None:
            raise SchedulingError(f"kernel {kernel_id!r} holds no units to expand")
        extra = min(max(0, want_total - held), self.free_units)
        if extra > 0:
            self._integrate(now)
            self._allocations[kernel_id] = held + extra
            self._busy += extra
        return self._allocations[kernel_id]

    def release(self, kernel_id: str, now: float) -> int:
        """Release all units held by ``kernel_id``; returns the freed count."""
        if kernel_id not in self._allocations:
            raise SchedulingError(f"kernel {kernel_id!r} holds no units")
        self._integrate(now)  # account busy time before dropping the units
        freed = self._allocations.pop(kernel_id)
        self._busy -= freed
        return freed

    def shrink(self, units: int, now: float) -> List[str]:
        """Permanently remove up to ``units`` units (fault injection).

        The loss is clamped to the remaining capacity.  If the surviving
        capacity no longer covers the current allocations, whole kernels
        are revoked newest-first until it does; their ids are returned so
        the executor can abort (and the scheduler retry) them.
        """
        loss = min(units, self.capacity_units)
        if loss <= 0:
            return []
        self._integrate(now)
        self._lost_units += loss
        revoked: List[str] = []
        while self._busy > self.n_units - self._lost_units:
            kernel_id = next(reversed(self._allocations))
            self._busy -= self._allocations.pop(kernel_id)
            revoked.append(kernel_id)
        return revoked

    # ------------------------------------------------------------------
    # utilization accounting
    # ------------------------------------------------------------------
    def _integrate(self, now: float) -> None:
        if now < self._last_time:
            raise SchedulingError(
                f"time went backwards: {now} < {self._last_time}"
            )
        elapsed = now - self._last_time
        if elapsed > 0:
            busy = self._busy
            self._busy_unit_seconds += busy * elapsed
            if busy == 0:
                self._occupancy_s[0] += elapsed
            else:
                idx = 1 + min(
                    OCCUPANCY_BINS - 1, busy * OCCUPANCY_BINS // self.n_units
                )
                self._occupancy_s[idx] += elapsed
        self._last_time = now

    def busy_unit_seconds(self, now: float) -> float:
        """Cumulative busy unit-seconds up to ``now``."""
        self._integrate(now)
        return self._busy_unit_seconds

    def occupancy_histogram_s(self, now: float) -> Tuple[float, ...]:
        """Seconds spent at each occupancy level up to ``now``.

        Index 0 is exactly-idle time; index ``i`` (1..OCCUPANCY_BINS) is
        time with a busy-unit fraction in bin ``i``'s slice of (0, 1].
        The values sum to ``now`` when the pool existed from time zero.
        """
        self._integrate(now)
        return tuple(self._occupancy_s)

    def utilization(self, start: float, end: float, busy_at_start: float) -> float:
        """Average pool utilization over [start, end].

        ``busy_at_start`` is the integral snapshot taken at ``start`` via
        :meth:`busy_unit_seconds`.
        """
        if end <= start:
            raise SchedulingError("utilization window must have positive length")
        window = self.busy_unit_seconds(end) - busy_at_start
        return window / (self.n_units * (end - start))
