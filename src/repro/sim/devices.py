"""Simulated device executors.

Wraps the hardware state machines (:mod:`repro.hardware`) with
discrete-event timing:

* :class:`SlotDevice` — CPU executor slots / the single GPU queue / the
  programmable-PIM cluster (one kernel per PIM).
* :class:`FixedPoolExecutor` — the fixed-function pool as a
  processor-sharing resource: a MAC sub-kernel's completion rate is
  proportional to the units it holds, and (with the operation pipeline
  enabled) kernels expand onto units released by others, re-scheduling
  their completion events — the paper's "an operation can dynamically
  change its usage of PIMs".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from ..errors import SchedulingError, SimulationError
from ..hardware.fixed_pim import FixedPIMPool
from .engine import Engine, EventHandle


class SlotDevice:
    """A device with ``slots`` identical kernel slots and busy accounting."""

    __slots__ = (
        "engine", "name", "slots", "free_slots", "_busy", "_lost",
        "_busy_integral", "_last_time", "_acquisitions", "_level_seconds",
    )

    def __init__(self, engine: Engine, name: str, slots: int):
        if slots < 1:
            raise SimulationError(f"device {name!r} needs >= 1 slot")
        self.engine = engine
        self.name = name
        self.slots = slots
        #: Slots a kernel can claim now, kept current on every change.
        #: Clamped at 0: a kernel running on a just-lost slot drains
        #: gracefully, so busy may transiently exceed the capacity.
        self.free_slots = slots
        self._busy = 0
        self._lost = 0
        self._busy_integral = 0.0
        self._last_time = 0.0
        self._acquisitions = 0
        #: Seconds spent with exactly ``i`` slots busy (time-weighted).
        self._level_seconds = [0.0] * (slots + 1)

    @property
    def busy_slots(self) -> int:
        return self._busy

    @property
    def effective_slots(self) -> int:
        """Usable slots: nominal count minus fault losses."""
        return self.slots - self._lost

    def lose_slots(self, n: int) -> int:
        """Permanently remove up to ``n`` slots; returns the actual loss.

        In-flight kernels finish normally (graceful drain); the loss only
        constrains future acquisitions.
        """
        if n < 1:
            raise SchedulingError(f"device {self.name!r}: lose {n} slots")
        lost = min(n, self.effective_slots)
        self._lost += lost
        self.free_slots = max(0, self.slots - self._lost - self._busy)
        return lost

    def _integrate(self) -> None:
        # inlined in try_acquire and release, which run once per slot use
        now = self.engine.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._busy_integral += self._busy * elapsed
            self._level_seconds[self._busy] += elapsed
        self._last_time = now

    def try_acquire(self, n: int = 1) -> bool:
        """Claim ``n`` slots atomically; False if not all available."""
        if n < 1:
            raise SchedulingError(f"device {self.name!r}: acquire {n} slots")
        if n > self.free_slots:
            return False
        busy = self._busy
        now = self.engine.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._busy_integral += busy * elapsed
            self._level_seconds[busy] += elapsed
        self._last_time = now
        self._busy = busy + n
        self.free_slots -= n
        self._acquisitions += 1
        return True

    def release(self, n: int = 1) -> None:
        busy = self._busy
        if n < 1 or busy < n:
            raise SchedulingError(
                f"device {self.name!r}: release {n} with {busy} busy"
            )
        now = self.engine.now
        elapsed = now - self._last_time
        if elapsed > 0:
            self._busy_integral += busy * elapsed
            self._level_seconds[busy] += elapsed
        self._last_time = now
        self._busy = busy = busy - n
        self.free_slots = max(0, self.slots - self._lost - busy)

    def busy_seconds(self) -> float:
        """Cumulative busy slot-seconds so far."""
        self._integrate()
        return self._busy_integral

    def busy_fraction(self, makespan_s: float) -> float:
        """Fraction of capacity-time (slots x makespan) spent busy."""
        if makespan_s <= 0:
            return 0.0
        return self.busy_seconds() / (self.slots * makespan_s)

    def level_seconds(self):
        """Seconds spent at each busy-slot level (index = busy slots)."""
        self._integrate()
        return tuple(self._level_seconds)

    def publish_metrics(self, registry) -> None:
        """Publish busy accounting into an observability registry."""
        prefix = f"device.{self.name}"
        registry.gauge(f"{prefix}.slots").set(self.slots)
        registry.gauge(f"{prefix}.acquisitions").set(self._acquisitions)
        registry.gauge(f"{prefix}.busy_slot_s").set(self.busy_seconds())
        registry.gauge(f"{prefix}.level_s").set(self.level_seconds())


@dataclass(slots=True)
class _MacJob:
    """One in-flight fixed-function sub-kernel."""

    kernel_id: str
    #: Remaining normalized work, in unit-seconds (decays at `units`/s).
    remaining: float
    want_units: int
    units: int
    last_update: float
    on_done: Callable[[], None]
    handle: Optional[EventHandle] = None
    #: Invoked if the sub-kernel is revoked by a fault (units lost
    #: mid-flight); the scheduler retries or degrades the operation.
    on_abort: Optional[Callable[[], None]] = None


class FixedPoolExecutor:
    """Processor-sharing executor over the fixed-function PIM pool.

    Args:
        engine: Event engine.
        pool: Allocation/busy-accounting state machine.
        pipeline: Operation pipeline (OP) enabled — kernels share the pool
            and expand onto freed units.  Disabled, the pool is exclusive:
            one operation holds a pool *token* for its whole kernel.
        on_units_freed: Callback invoked after units return to the pool
            (after a completion's ``on_done``, a token drop or a unit loss);
            held for life, so it must not refer back to the executor's owner.
    """

    def __init__(
        self,
        engine: Engine,
        pool: FixedPIMPool,
        pipeline: bool,
        on_units_freed: Optional[Callable[[], None]] = None,
    ):
        self.engine = engine
        self.pool = pool
        self.pipeline = pipeline
        self.on_units_freed = on_units_freed or (lambda: None)
        #: Frequency multiplier from thermal throttling (1.0 = nominal).
        self._speed = 1.0
        self._jobs: Dict[str, _MacJob] = {}
        self._arrivals = 0
        self._expansions = 0
        self._token_holder: Optional[str] = None
        # duty-window integration (Figure 15 utilization denominator)
        self._window_count = 0
        self._window_integral = 0.0
        self._window_last = 0.0

    # ------------------------------------------------------------------
    # duty window (time during which fixed-function work is in flight)
    # ------------------------------------------------------------------
    def _window_integrate(self) -> None:
        now = self.engine.now
        if self._window_count > 0:
            self._window_integral += now - self._window_last
        self._window_last = now

    def window_enter(self) -> None:
        self._window_integrate()
        self._window_count += 1

    def window_exit(self) -> None:
        self._window_integrate()
        if self._window_count <= 0:
            raise SimulationError("fixed-pool duty window underflow")
        self._window_count -= 1

    def active_window_seconds(self) -> float:
        self._window_integrate()
        return self._window_integral

    # ------------------------------------------------------------------
    # exclusive token (operation pipeline disabled)
    # ------------------------------------------------------------------
    def try_take_token(self, kernel_id: str) -> bool:
        """Claim exclusive pool use for one operation (no-OP mode)."""
        if self.pipeline:
            return True  # sharing allowed; no token needed
        if self._token_holder is None:
            self._token_holder = kernel_id
            return True
        return self._token_holder == kernel_id

    def drop_token(self, kernel_id: str) -> None:
        if self.pipeline:
            return
        if self._token_holder != kernel_id:
            raise SchedulingError(
                f"pool token held by {self._token_holder!r}, not {kernel_id!r}"
            )
        self._token_holder = None
        self.on_units_freed()

    @property
    def token_holder(self) -> Optional[str]:
        return self._token_holder

    # ------------------------------------------------------------------
    # sub-kernel execution
    # ------------------------------------------------------------------
    def try_submit(
        self,
        kernel_id: str,
        want_units: int,
        on_done: Callable[[], None],
        on_abort: Optional[Callable[[], None]] = None,
        *,
        work: float,
    ) -> bool:
        """Start a MAC sub-kernel of ``work`` unit-seconds (the caller's
        cost model, :meth:`~repro.sim.optable.CostTable.norm_work`); False
        when no units are available (or another operation holds the
        exclusive token).  A failed submission changes nothing."""
        if not self.pipeline and self._token_holder not in (None, kernel_id):
            return False
        now = self.engine.now
        want = max(1, min(want_units, self.pool.n_units))
        granted = self.pool.allocate(kernel_id, want, now)
        if granted == 0:
            return False
        self._arrivals += 1
        job = _MacJob(kernel_id, work, want, granted, now, on_done, None, on_abort)
        self._jobs[kernel_id] = job
        # _schedule_completion for a job with no event yet
        job.handle = self.engine.at(
            now + work / (granted * self._speed), partial(self._complete, kernel_id)
        )
        return True

    def _settle(self, job: _MacJob) -> None:
        now = self.engine.now
        rate = job.units * self._speed
        job.remaining = max(0.0, job.remaining - rate * (now - job.last_update))
        job.last_update = now

    def _schedule_completion(self, job: _MacJob) -> None:
        if job.units <= 0:
            # no units held: nothing drains the work; completion is
            # rescheduled when the pool grants units (never reached in
            # practice — try_submit requires a non-zero grant)
            if job.handle is not None:
                job.handle.cancel()
                job.handle = None
            return
        target = self.engine.now + job.remaining / (job.units * self._speed)
        handle = job.handle
        if handle is not None:
            if not handle.cancelled and handle.time == target:
                return  # completion unchanged; keep the scheduled event
            handle.cancel()
        job.handle = self.engine.at(target, partial(self._complete, job.kernel_id))

    def _complete(self, kernel_id: str) -> None:
        job = self._jobs.pop(kernel_id, None)
        if job is None:
            raise SimulationError(f"completion for unknown job {kernel_id!r}")
        now = self.engine.now
        # _settle, inlined: completions run once per sub-kernel
        job.remaining = max(
            0.0, job.remaining - job.units * self._speed * (now - job.last_update)
        )
        job.last_update = now
        self.pool.release(kernel_id, now)
        if self.pipeline:
            self._redistribute()
        job.on_done()
        self.on_units_freed()

    def _redistribute(self) -> None:
        """Grow running jobs onto freed units (OP expansion), FIFO order.

        ``_jobs`` is in arrival order: a job is inserted once, at
        submission, under a kernel id no live job holds.
        """
        pool = self.pool
        for job in self._jobs.values():
            if pool.free_units == 0:
                break
            if job.units >= job.want_units:
                continue
            self._settle(job)
            new_units = pool.expand(
                job.kernel_id, job.want_units, self.engine.now
            )
            if new_units != job.units:
                job.units = new_units
                self._expansions += 1
                self._schedule_completion(job)

    # ------------------------------------------------------------------
    # fault hooks (repro.faults)
    # ------------------------------------------------------------------
    @property
    def speed(self) -> float:
        return self._speed

    def set_speed(self, factor: float) -> None:
        """Derate (or restore) the pool frequency: settle every in-flight
        job at the old rate, then reschedule completions at the new one."""
        if factor <= 0:
            raise SimulationError(f"pool speed factor must be > 0, got {factor}")
        if factor == self._speed:
            return
        for job in self._jobs.values():
            self._settle(job)
        self._speed = factor
        for job in self._jobs.values():  # arrival order
            self._schedule_completion(job)

    def lose_units(self, units: int):
        """Shrink the pool; aborts revoked in-flight sub-kernels.

        Returns the revoked kernel ids (the pool may revoke whole kernels
        to fit the surviving capacity).  Each revoked job's ``on_abort``
        runs after all revocations are applied, in revocation order.
        """
        revoked = self.pool.shrink(units, self.engine.now)
        aborted = []
        for kernel_id in revoked:
            job = self._jobs.pop(kernel_id, None)
            if job is None:
                continue
            if job.handle is not None:
                job.handle.cancel()
                job.handle = None
            if job.on_abort is not None:
                aborted.append(job.on_abort)
        if self.pipeline:
            self._redistribute()
        for on_abort in aborted:
            on_abort()
        self.on_units_freed()
        return revoked

    def busy_unit_seconds(self) -> float:
        return self.pool.busy_unit_seconds(self.engine.now)

    def utilization(self) -> float:
        """Busy-units integral over the duty window (Figure 15 metric)."""
        window = self.active_window_seconds()
        if window <= 0:
            return 0.0
        return self.busy_unit_seconds() / (self.pool.n_units * window)

    def occupancy_histogram_s(self):
        """Pool time-at-occupancy histogram (see ``FixedPIMPool``)."""
        return self.pool.occupancy_histogram_s(self.engine.now)

    def publish_metrics(self, registry) -> None:
        """Publish pool executor accounting into an observability registry."""
        registry.gauge("fixed.units").set(self.pool.n_units)
        registry.gauge("fixed.lost_units").set(self.pool.lost_units)
        registry.gauge("fixed.subkernels").set(self._arrivals)
        registry.gauge("fixed.expansions").set(self._expansions)
        registry.gauge("fixed.busy_unit_s").set(self.busy_unit_seconds())
        registry.gauge("fixed.window_s").set(self.active_window_seconds())
        registry.gauge("fixed.occupancy_s").set(self.occupancy_histogram_s())
