"""Event recipes of the tasks a :class:`~repro.sim.simulation.Simulation`
starts.

A started CPU, GPU, programmable-PIM or input-staging task, and each
complex phase of a recursive kernel, runs as a :class:`Phases`: a flat
``(kind, seconds, kind, seconds, ...)`` recipe of tracked activities whose
bound :meth:`Phases.run` is the event callback that ends one activity and
begins the next.  A FIXED/HYBRID operation runs as a :class:`KernelRun`
over its cost-table plan rows, its bound methods being its event, executor
and retry callbacks.  Both act on their simulation's devices, tracker and
scheduler state.  Only pending events, waiter lists and in-flight pool
jobs hold them, and no callback refers back to what holds it, so a run
forms no reference cycles and is freed by reference counting.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .activity import COMPUTE, DATA_MOVEMENT, SYNC
from .devices import SlotDevice


class Phases:
    """A flat recipe in flight: ``phases`` is ``(kind, seconds, ...)``;
    each activity of positive duration counts as ``kind`` while it runs (a
    zero one is skipped).  After the last, ``slots`` of ``device`` (if
    any) are released and ``then`` runs.  :meth:`run` is the event
    callback; :meth:`acquire` is the waiter callback of a complex phase
    that has yet to claim its slot, charging ``internal`` in-stack bytes
    when it does."""

    __slots__ = ("sim", "phases", "index", "kind", "device", "slots", "then",
                 "internal")

    def __init__(self, sim, phases: tuple, device: Optional[SlotDevice],
                 slots: int, then: Callable[[], None], internal=None) -> None:
        self.sim = sim
        self.phases = phases
        self.index = 0
        self.kind = None  # the activity in progress
        self.device = device
        self.slots = slots
        self.then = then
        self.internal = internal

    def run(self) -> None:
        sim = self.sim
        now = sim.engine.now
        kind = self.kind
        if kind is not None:
            sim.tracker.end(kind, now)
        phases = self.phases
        i = self.index
        n = len(phases)
        while i < n:
            duration = phases[i + 1]
            if duration <= 0:
                i += 2
                continue
            kind = phases[i]
            sim.tracker.begin(kind, now)
            self.kind = kind
            self.index = i + 2
            sim.engine.call_after(duration, self.run)
            return
        if self.device is not None:
            sim._release_slot(self.device, self.slots)
        self.then()

    def acquire(self) -> bool:
        if not self.device.try_acquire():
            return False
        if self.internal is not None:
            self.sim.usage.internal_bytes += self.internal
        self.run()
        return True


class KernelRun:
    """A FIXED or HYBRID operation in flight: its plan rows run in order,
    each ``"mac"`` row as one fixed-pool sub-kernel and each ``"cpx"`` row
    as a complex phase on ``complex_on`` ("prog" or "cpu"; None for a
    FIXED op).  The bound methods are its event, executor and retry
    callbacks."""

    __slots__ = ("sim", "task", "rows", "index", "row", "want", "complex_on",
                 "sync")

    def __init__(self, sim, task, rows: List[tuple], complex_on) -> None:
        self.sim = sim
        self.task = task
        self.rows = rows
        self.index = 0  # the next row; ``row`` is the one in progress
        self.row: tuple = ()
        self.want = task.op.cost.parallelism
        self.complex_on = complex_on
        self.sync = False  # the current row's launch (sync) activity runs

    def next_row(self) -> None:
        sim = self.sim
        i = self.index
        if i == len(self.rows):
            sim.fixed.drop_token(self.task.uid)
            sim.fixed.window_exit()
            sim._finish(self.task)
            return
        self.index = i + 1
        self.row = row = self.rows[i]
        sync_s = row[1]
        if sync_s <= 0:
            self._launched()
            return
        sim.tracker.begin(SYNC, sim.engine.now)
        self.sync = True
        sim.engine.call_after(sync_s, self._launched)

    def _launched(self) -> None:
        sim = self.sim
        if self.sync:
            self.sync = False
            sim.tracker.end(SYNC, sim.engine.now)
        row = self.row
        if row[0] == "cpx":
            self._complex(self.complex_on)
            return
        if self.complex_on is not None:
            sim.usage.internal_bytes += row[3]
        self.submit()

    def _complex(self, on: str) -> None:
        """Run the ``cpx`` row on ``on``, waiting for a slot; under fault
        injection a phase for a dead (or dying) programmable PIM degrades
        to the host CPU instead of stranding the kernel."""
        sim = self.sim
        _, _, prog_s, operation_s, exposed_s, nbytes, flops = self.row
        if on == "prog":
            device = sim.prog
            if device.effective_slots == 0:
                self._complex_on_cpu()
                return
            scale = sim._dram_scale
            if scale != 1.0:
                prog_s = sim._table.prog_phase(flops, nbytes, scale)
            recipe = (COMPUTE, prog_s)
            internal, on_dead = nbytes, self._complex_on_cpu
        else:
            sim.usage.external_bytes += nbytes
            device = sim.cpu
            recipe = (COMPUTE, operation_s, DATA_MOVEMENT, exposed_s)
            internal = on_dead = None
        phases = Phases(sim, recipe, device, 1, self.next_row, internal)
        if phases.acquire():
            return
        if on_dead is not None and device.effective_slots == 0:
            on_dead()
            return
        sim._slot_waiters[device.name].append((phases.acquire, on_dead))

    def _complex_on_cpu(self) -> None:
        sim = self.sim
        if sim._injector is not None:
            sim._injector.log_degradation(
                sim.engine.now, self.task.uid, "prog", "cpu"
            )
        self._complex("cpu")

    def submit(self) -> None:
        """Submit the current MAC row, waiting for units if necessary; it
        counts as compute only while it holds units."""
        if self._attempt():
            return
        sim = self.sim
        if sim._injector is not None and sim.fixed.pool.capacity_units == 0:
            self._on_dead()
            return
        sim._fixed_waiters.append((self._attempt, self._on_dead))

    def _attempt(self) -> bool:
        # table work is valid only at DRAM scale 1.0; each attempt checks
        # the scale it submits under (a retry can straddle a derate)
        sim = self.sim
        _, _, macs, nbytes, work = self.row
        scale = sim._dram_scale
        if scale != 1.0:
            work = sim._table.norm_work(macs, nbytes, scale)
        if sim.fixed.try_submit(
            self.task.uid, self.want, self._mac_done, self._on_abort, work=work
        ):
            sim.tracker.begin(COMPUTE, sim.engine.now)
            return True
        return False

    def _mac_done(self) -> None:
        sim = self.sim
        sim.tracker.end(COMPUTE, sim.engine.now)
        sim.usage.fixed_macs += self.row[2]
        self.next_row()
        # the sub-kernel's units are back in the pool
        if not sim._drain_scheduled:
            sim._drain_scheduled = True
            sim.engine.defer(sim._drain)

    def _on_abort(self) -> None:
        # revoked mid-flight: the partial compute is lost
        sim = self.sim
        sim.tracker.end(COMPUTE, sim.engine.now)
        self._retry_or_degrade()

    def _on_dead(self) -> None:
        self._retry_or_degrade(pool_dead=True)

    def _retry_or_degrade(self, pool_dead: bool = False) -> None:
        """React to an aborted sub-kernel (fault injection): retry after a
        capped exponential backoff (a sync activity) while the pool has
        capacity and the retry budget lasts, else degrade the operation
        (programmable PIM, then CPU)."""
        sim = self.sim
        spec = sim.faults
        task = self.task
        task.fault_attempts += 1
        if (
            pool_dead
            or sim.fixed.pool.capacity_units <= 0
            or task.fault_attempts > spec.max_retries
        ):
            sim._degrade_fixed_task(task)
            return
        delay = spec.backoff_s(task.fault_attempts)
        sim._injector.log_retry(sim.engine.now, task.uid, task.fault_attempts, delay)
        Phases(sim, (SYNC, delay), None, 0, self.submit).run()
