"""Runtime invariant checker: conservation laws over simulation output.

An analytical simulator is only trustworthy when its accounting is
machine-checked: a silent bookkeeping bug (a device busy-integral counted
twice, an energy component dropped, a task started before its inputs
exist) shifts the headline numbers without failing any test.  This module
asserts the laws every run must obey:

**Result-level** (:func:`check_result` — works on any
:class:`~repro.sim.results.RunResult`, cached or fresh):

* ``busy-fraction-range`` — per-device busy fraction in [0, 1];
* ``occupancy-conservation`` — the fixed-pool time-at-occupancy histogram
  has non-negative bins and sums to the makespan;
* ``energy-conservation`` — the per-device energy components sum to the
  dynamic total, every component is non-negative and finite, and the
  breakdown's makespan equals the run's;
* ``time-breakdown-conservation`` — operation + data-movement + sync time
  equals the makespan;
* ``step-accounting`` — steps >= 1, positive step time, a makespan that
  covers at least one step, events processed > 0;
* ``queue-wait-sane`` — queue waits are non-negative, finite, and bounded
  by total queueing capacity-time.

**Live-simulation level** (:func:`check_simulation` — needs the
:class:`~repro.sim.simulation.Simulation` object after ``run()``):

* ``dependence-order`` — no task starts before every dependency ends;
* ``device-quiescence`` — at completion every slot device is idle, the
  fixed pool holds no allocations, no duty window is open, and the event
  engine has drained;
* ``timeline-agreement`` — the recorded timeline agrees with the
  scheduler's started-task registers, per device.

**Cache level** (:func:`check_cache_equivalence`): a freshly computed
result and its cached serialization round-trip are identical.

Checkers come in two forms: ``iter_*`` generators yield every
:class:`~repro.errors.InvariantViolation` found (used by tests and the
CLI to report all failures), and ``check_*`` wrappers raise the first.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

from ..errors import InvariantViolation
from ..sim.results import RunResult

#: Relative tolerance for conservation sums.  Accounting integrals are
#: built from the same float additions that produce the totals, so they
#: agree to ~1e-15 relative; 1e-9 leaves room for long runs while still
#: catching any real accounting bug (which shifts sums by whole events).
REL_TOL = 1e-9

#: Absolute floor for comparisons around zero (sub-nanosecond residue).
ABS_TOL = 1e-12

#: Invariant names asserted by :func:`iter_result_violations`.
RESULT_INVARIANTS = (
    "busy-fraction-range",
    "occupancy-conservation",
    "energy-conservation",
    "time-breakdown-conservation",
    "step-accounting",
    "queue-wait-sane",
)

#: Invariant names asserted by :func:`iter_simulation_violations`.
SIMULATION_INVARIANTS = (
    "dependence-order",
    "device-quiescence",
    "timeline-agreement",
)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


# ---------------------------------------------------------------------------
# result-level invariants
# ---------------------------------------------------------------------------
def iter_result_violations(result: RunResult) -> Iterator[InvariantViolation]:
    """Yield every result-level invariant violation in ``result``."""
    yield from _busy_fraction_range(result)
    yield from _occupancy_conservation(result)
    yield from _energy_conservation(result)
    yield from _time_breakdown_conservation(result)
    yield from _step_accounting(result)
    yield from _queue_wait_sane(result)


def _busy_fraction_range(result: RunResult) -> Iterator[InvariantViolation]:
    for device, fraction in (result.device_busy_fraction or {}).items():
        if not _finite(fraction):
            yield InvariantViolation(
                "busy-fraction-range", device, f"non-finite fraction {fraction!r}"
            )
        elif not -ABS_TOL <= fraction <= 1.0 + REL_TOL:
            yield InvariantViolation(
                "busy-fraction-range",
                device,
                f"busy fraction {fraction!r} outside [0, 1]",
            )
    util = result.fixed_pim_utilization
    if not _finite(util) or not -ABS_TOL <= util <= 1.0 + REL_TOL:
        yield InvariantViolation(
            "busy-fraction-range",
            "fixed_pim_utilization",
            f"utilization {util!r} outside [0, 1]",
        )


def _occupancy_conservation(result: RunResult) -> Iterator[InvariantViolation]:
    hist = result.bank_occupancy_hist_s
    if hist is None:
        return
    for i, value in enumerate(hist):
        if not _finite(value) or value < -ABS_TOL:
            yield InvariantViolation(
                "occupancy-conservation",
                f"bin[{i}]",
                f"negative or non-finite occupancy time {value!r}",
            )
            return
    total = sum(hist)
    # Fault/restore events may legally extend the pool's integration past
    # the (clamped) makespan; the engine's final clock bounds the drift.
    limit = result.makespan_s
    if result.faults is not None and result.metrics is not None:
        limit = max(limit, float(result.metrics.get("engine.now_s", limit)))
    if not (_close(total, result.makespan_s) or
            (result.faults is not None
             and result.makespan_s - ABS_TOL <= total <= limit * (1 + REL_TOL))):
        yield InvariantViolation(
            "occupancy-conservation",
            "bank_occupancy_hist_s",
            f"histogram sums to {total!r}, makespan is {result.makespan_s!r}",
        )


def _energy_conservation(result: RunResult) -> Iterator[InvariantViolation]:
    energy = result.energy
    for name, value in (
        ("dynamic_j", energy.dynamic_j),
        ("static_j", energy.static_j),
        ("memory_j", energy.memory_j),
    ):
        if not _finite(value) or value < 0:
            yield InvariantViolation(
                "energy-conservation", name, f"component {value!r} not in [0, inf)"
            )
            return
    for device, value in energy.by_device.items():
        if not _finite(value) or value < 0:
            yield InvariantViolation(
                "energy-conservation",
                f"by_device[{device}]",
                f"component {value!r} not in [0, inf)",
            )
            return
    device_sum = sum(energy.by_device.values())
    if not _close(device_sum, energy.dynamic_j):
        yield InvariantViolation(
            "energy-conservation",
            "by_device",
            f"per-device energies sum to {device_sum!r}, "
            f"dynamic total is {energy.dynamic_j!r}",
        )
    if not _close(energy.makespan_s, result.makespan_s):
        yield InvariantViolation(
            "energy-conservation",
            "energy.makespan_s",
            f"energy integrated over {energy.makespan_s!r}, "
            f"run makespan is {result.makespan_s!r}",
        )


def _time_breakdown_conservation(result: RunResult) -> Iterator[InvariantViolation]:
    b = result.breakdown
    for name, value in (
        ("operation_s", b.operation_s),
        ("data_movement_s", b.data_movement_s),
        ("sync_s", b.sync_s),
    ):
        if not _finite(value) or value < -ABS_TOL:
            yield InvariantViolation(
                "time-breakdown-conservation",
                name,
                f"bucket {value!r} negative or non-finite",
            )
            return
    if not _close(b.total_s, result.makespan_s):
        yield InvariantViolation(
            "time-breakdown-conservation",
            "breakdown",
            f"buckets sum to {b.total_s!r}, makespan is {result.makespan_s!r}",
        )


def _step_accounting(result: RunResult) -> Iterator[InvariantViolation]:
    if result.steps < 1:
        yield InvariantViolation(
            "step-accounting", "steps", f"steps {result.steps!r} < 1"
        )
        return
    if not _finite(result.step_time_s) or result.step_time_s <= 0:
        yield InvariantViolation(
            "step-accounting",
            "step_time_s",
            f"step time {result.step_time_s!r} not positive",
        )
    if not _finite(result.makespan_s) or result.makespan_s <= 0:
        yield InvariantViolation(
            "step-accounting",
            "makespan_s",
            f"makespan {result.makespan_s!r} not positive",
        )
    elif result.step_time_s > result.makespan_s * (1 + REL_TOL):
        # steady-state step time can never exceed the whole run
        yield InvariantViolation(
            "step-accounting",
            "step_time_s",
            f"step time {result.step_time_s!r} exceeds "
            f"makespan {result.makespan_s!r}",
        )
    if result.events_processed <= 0:
        yield InvariantViolation(
            "step-accounting",
            "events_processed",
            f"{result.events_processed!r} events processed",
        )


def _queue_wait_sane(result: RunResult) -> Iterator[InvariantViolation]:
    for device, wait in (result.queue_wait_s or {}).items():
        if not _finite(wait) or wait < -ABS_TOL:
            yield InvariantViolation(
                "queue-wait-sane",
                device,
                f"queue wait {wait!r} negative or non-finite",
            )


def check_result(result: RunResult) -> RunResult:
    """Raise the first result-level :class:`InvariantViolation`; else
    return ``result`` (so call sites can chain)."""
    for violation in iter_result_violations(result):
        raise violation
    return result


# ---------------------------------------------------------------------------
# live-simulation invariants
# ---------------------------------------------------------------------------
def iter_simulation_violations(sim, result: RunResult) -> Iterator[InvariantViolation]:
    """Yield live-simulation violations (``sim`` must have completed
    :meth:`~repro.sim.simulation.Simulation.run`)."""
    yield from _dependence_order(sim)
    yield from _device_quiescence(sim)
    yield from _timeline_agreement(sim)


def _dependence_order(sim) -> Iterator[InvariantViolation]:
    if sim.timeline is None:
        return
    end_by_uid = {e.uid: e.end_s for e in sim.timeline.entries}
    start_by_uid = {e.uid: e.start_s for e in sim.timeline.entries}
    for entry in sim.timeline.entries:
        if entry.start_s < entry.ready_s - ABS_TOL:
            yield InvariantViolation(
                "dependence-order",
                entry.uid,
                f"started at {entry.start_s!r} before ready at {entry.ready_s!r}",
            )
    tasks = sim._tasks
    for task in tasks:
        for j in task.dependents:
            dep_uid = tasks[j].uid
            dep_start = start_by_uid.get(dep_uid)
            task_end = end_by_uid.get(task.uid)
            if dep_start is None or task_end is None:
                continue
            if dep_start < task_end - ABS_TOL:
                yield InvariantViolation(
                    "dependence-order",
                    dep_uid,
                    f"started at {dep_start!r} before its dependency "
                    f"{task.uid} completed at {task_end!r}",
                )


def _device_quiescence(sim) -> Iterator[InvariantViolation]:
    for device in (sim.cpu, sim.gpu, sim.prog):
        if device.busy_slots != 0:
            yield InvariantViolation(
                "device-quiescence",
                device.name,
                f"{device.busy_slots} slot(s) still busy at completion",
            )
    if sim.fixed.pool.busy_units != 0:
        yield InvariantViolation(
            "device-quiescence",
            "fixed",
            f"{sim.fixed.pool.busy_units} pool unit(s) still allocated",
        )
    if sim.fixed._window_count != 0:
        yield InvariantViolation(
            "device-quiescence",
            "fixed",
            f"{sim.fixed._window_count} duty window(s) still open",
        )
    if not sim.engine.drained:
        yield InvariantViolation(
            "device-quiescence",
            "engine",
            f"{sim.engine.pending_events} event(s) still pending",
        )
    undone = [t.uid for t in sim._tasks if not t.done]
    if undone:
        yield InvariantViolation(
            "device-quiescence",
            "scheduler",
            f"{len(undone)} unfinished task(s), e.g. {sorted(undone)[:3]}",
        )


def _timeline_agreement(sim) -> Iterator[InvariantViolation]:
    if sim.timeline is None:
        return
    recorded: dict = {}
    for entry in sim.timeline.entries:
        recorded[entry.device] = recorded.get(entry.device, 0) + 1
    started = dict(sim._tasks_started)
    if sim._injector is None:
        agree = recorded == started
    else:
        # fault recovery restarts tasks on another device: a degraded task
        # is counted started on both, but finishes (and is recorded) once
        agree = all(recorded.get(d, 0) <= started.get(d, 0) for d in recorded)
    if not agree:
        yield InvariantViolation(
            "timeline-agreement",
            "timeline",
            f"timeline records {recorded!r} tasks per device, the "
            f"scheduler's started registers say {started!r}",
        )


def check_simulation(sim, result: RunResult) -> RunResult:
    """Run result- and simulation-level checks; raise the first violation."""
    check_result(result)
    for violation in iter_simulation_violations(sim, result):
        raise violation
    return result


# ---------------------------------------------------------------------------
# cache equivalence
# ---------------------------------------------------------------------------
def check_cache_equivalence(
    fresh: RunResult, cached: Optional[RunResult], source: str = "cache"
) -> None:
    """Assert a freshly computed result matches its cached counterpart.

    ``cached`` may be None (nothing to compare — a cold cache).  The
    comparison is over the canonical dict form, the exact bytes both the
    disk tier and the artifacts serialize.
    """
    if cached is None:
        return
    if fresh.to_dict() != cached.to_dict():
        fresh_d, cached_d = fresh.to_dict(), cached.to_dict()
        fields = sorted(
            k for k in fresh_d if fresh_d.get(k) != cached_d.get(k)
        )
        raise InvariantViolation(
            "cache-equivalence",
            source,
            f"cached result differs from fresh computation in {fields!r}",
        )
