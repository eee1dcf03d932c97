"""Trace-driven simulation of training steps on one system configuration.

The :class:`Simulation` executes a generated operation trace
(:mod:`repro.sim.tracegen`) against the device executors under a
:class:`~repro.sim.policy.SchedulingPolicy`.  It produces the quantities
the paper's evaluation reports: per-step time with its
sync/data-movement/operation breakdown (Fig 8/11), device usage and energy
(Fig 9/14/17), and fixed-function-PIM utilization (Fig 15).

Every per-op cost comes from the run's :class:`~repro.sim.optable.CostTable`,
fault-injected runs included; a live DRAM derate is applied at lookup
time (see :mod:`repro.sim.optable`).

The event recipes form no reference cycles (a callback never holds a
reference back to the object that holds it), so a finished run is freed
by reference counting: an in-flight FIXED/HYBRID operation is a
:class:`_Kernel` whose bound methods are its callbacks, and the executor
and fault injector keep no reference to the simulation.  The drain step
runs in the engine's deferred slot (:meth:`~repro.sim.engine.Engine.defer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig, default_config
from ..errors import SimulationError
from ..hardware.fixed_pim import FixedPIMPool
from ..hardware.power import DeviceUsage, EnergyModel
from ..nn.graph import Graph
from ..obs.metrics import MetricsRegistry
from .activity import COMPUTE, DATA_MOVEMENT, SYNC, ActivityTracker
from .devices import FixedPoolExecutor, SlotDevice
from .engine import Engine
from .optable import cost_table
from .policy import SchedulingPolicy
from .results import RunResult
from .timeline import Timeline, TimelineEntry
from .tracegen import TaskSpec, generate_trace

_STAGING_PREFIX = "__staging__"

_SORT_KEY = attrgetter("sort_key")

#: The three fixed-pool placements share one availability predicate
#: (``_fixed_available``), so a capacity failure on any of them blocks the
#: whole group for the rest of the drain round.
_CANON_PLACE = {"hybrid": "fixed", "hybrid_host": "fixed"}


@dataclass(slots=True)
class _Task:
    uid: str
    step: int
    spec: Optional[TaskSpec]  # None for pseudo-tasks (GPU input staging)
    indeg: int
    dependents: List[str] = field(default_factory=list)
    done: bool = False
    started: bool = False
    priority: int = 0
    #: Placement chosen at start time (for timeline recording).
    device: Optional[str] = None
    start_s: float = 0.0
    #: When the task's last dependence resolved (queue-wait baseline).
    ready_s: float = 0.0
    #: Scheduling order (priority, step, topo index) — a unique total order,
    #: precomputed because the drain loop sorts the ready list every round.
    sort_key: Tuple[int, int, int] = (0, 0, 0)
    #: Preference-ordered placements, fixed per task (policies are pure
    #: per-op once prepared) — precomputed to keep ``_try_start`` cheap.
    #: Fault recovery may rewrite this (degradation / re-selection).
    places: Tuple[str, ...] = ()
    #: ``places`` filtered through the profile-aware fallback guard —
    #: static while the task is not degraded, computed on first start
    #: attempt (degraded tasks bypass the guard and use ``places``).
    allowed: Optional[Tuple[str, ...]] = None
    #: True once fault recovery rerouted this task off its preferred
    #: placement; degraded tasks bypass the profile-aware fallback guard
    #: (completing the step beats the slowdown limit).
    degraded: bool = False
    #: Fixed-pool submission attempts consumed by the retry/backoff loop.
    fault_attempts: int = 0
    #: Parking generation: heap entries created when the task parked carry
    #: the then-current value, so bumping it lazily invalidates every
    #: outstanding entry (a task parks into one heap per placement).
    park_gen: int = 0


class _Kernel:
    """A FIXED or HYBRID operation in flight: its plan rows run in order,
    each ``"mac"`` row as one fixed-pool sub-kernel.

    The bound methods are the kernel's event, executor and retry
    callbacks.  Only pending events, waiter lists and in-flight pool jobs
    hold them, so the kernel is freed by reference counting once it
    finishes or degrades.
    """

    __slots__ = ("sim", "task", "rows", "index", "row", "want", "complex_on")

    def __init__(self, sim, task: _Task, rows: List[tuple], complex_on) -> None:
        self.sim = sim
        self.task = task
        self.rows = rows
        #: Index of the next row; ``row`` is the one in progress.
        self.index = 0
        self.row: tuple = ()
        self.want = task.spec.op.cost.parallelism
        #: Where complex phases run ("prog" or "cpu"); None for a FIXED op.
        self.complex_on = complex_on

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
        sim._timed(SYNC, row[1], self._launched)

    def _launched(self) -> None:
        row = self.row
        if row[0] == "cpx":
            self.sim._run_complex_phase(
                self.task.uid, row, self.complex_on, self.next_row
            )
            return
        if self.complex_on is not None:
            self.sim.usage.internal_bytes += row[3]
        self.submit()

    def submit(self) -> None:
        """Submit the current MAC row, waiting for units if necessary.

        The sub-kernel counts as compute activity only while it actually
        holds units; waiting time surfaces as sync/idle in the breakdown.
        Under fault injection a revoked sub-kernel is retried with capped
        exponential backoff and the operation degrades (prog PIM, then
        CPU) when the pool dies or the retry budget runs out.
        """
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
        sim._schedule_drain()  # the sub-kernel's units are back in the pool

    def _on_abort(self) -> None:
        # revoked mid-flight: the partial compute is lost
        sim = self.sim
        sim.tracker.end(COMPUTE, sim.engine.now)
        sim._retry_or_degrade(self.task, self.submit)

    def _on_dead(self) -> None:
        self.sim._retry_or_degrade(self.task, self.submit, pool_dead=True)


class Simulation:
    """One simulated run of ``graph`` under ``policy``.

    Per-op costs come from the shared cost table of (graph, prepared
    policy, config), clean and faulted runs alike.  ``faults`` (a
    :class:`~repro.faults.FaultSpec`) injects capacity changes that the
    run reacts to as they happen; a DRAM derate among them is applied
    at cost lookup (see :mod:`repro.sim.optable`).
    """

    def __init__(
        self,
        graph: Graph,
        policy: SchedulingPolicy,
        config: Optional[SystemConfig] = None,
        steps: Optional[int] = None,
        record_timeline: bool = False,
        observe: Optional[MetricsRegistry] = None,
        faults=None,
        validate: bool = False,
    ):
        self.graph = graph
        #: Invariant checking (see :mod:`repro.validate.invariants`):
        #: validated runs always record a timeline — the dependence-order
        #: and timeline-agreement invariants need it.
        self.validate = bool(validate)
        self.timeline: Optional[Timeline] = (
            Timeline() if (record_timeline or self.validate) else None
        )
        #: Observability registry the run publishes into at collection
        #: time.  The simulator's own accounting is always on (cached
        #: results must not depend on observer settings); a caller-supplied
        #: registry just receives the same snapshot.
        self.obs = observe if observe is not None else MetricsRegistry()
        self.policy = policy
        self.config = config if config is not None else default_config()
        self.steps = steps if steps is not None else self.config.runtime.measured_steps
        if self.steps < 1:
            raise SimulationError("need at least one simulated step")
        policy.validate()
        policy.prepare(graph, self.config)

        self.engine = Engine()
        self.tracker = ActivityTracker()

        self.cpu = SlotDevice(self.engine, "cpu", policy.cpu_slots)
        self.gpu = SlotDevice(self.engine, "gpu", 1)
        self.prog = SlotDevice(self.engine, "prog", self.config.prog_pim.n_pims)
        pool = FixedPIMPool(self.config.fixed_pim.n_units)
        #: Per-op costs, shared with every run of the same (graph,
        #: policy, config) and never mutated by this one.
        self._table = cost_table(graph, policy, self.config)
        #: Canonical placements whose capacity was released since the last
        #: drain scan consumed the set (the fixed-pool trio collapses to
        #: "fixed"); gates which parked heaps the next scan considers.
        self._freed: set = set()
        # The executor only marks the pool freed (a callback into this
        # object would be a reference cycle); each caller that can release
        # units schedules the drain itself.
        self.fixed = FixedPoolExecutor(
            engine=self.engine,
            pool=pool,
            pipeline=policy.operation_pipeline,
            on_units_freed=partial(self._freed.add, "fixed"),
        )

        self.usage = DeviceUsage()
        self._tasks: Dict[str, _Task] = {}
        self._ready: List[_Task] = []
        #: Memoized placement-duration estimates, keyed by (placement, op
        #: identity) and filled on first query: a run's estimate of an op
        #: stays what it was then, even if a DRAM derate changes the
        #: bandwidth later.  Ops live as long as the graph does, so the id
        #: cannot be reused while the entry is reachable.
        self._estimate_cache: Dict[Tuple[str, int], float] = {}
        self._fallback_cache: Dict[Tuple[int, str, str], bool] = {}
        self._min_step = 0
        self._step_remaining: Dict[int, int] = {}
        self._step_end: Dict[int, float] = {}
        self._model_step_remaining: Dict[tuple, int] = {}
        self._model_step_end: Dict[tuple, float] = {}
        #: Waiters are (attempt, on_dead) pairs: ``attempt`` retries the
        #: submission, ``on_dead`` reroutes the work if the device's
        #: capacity drops to zero while waiting (fault injection).
        self._fixed_waiters: List[Tuple[Callable[[], bool], Callable[[], None]]] = []
        self._slot_waiters: Dict[
            str, List[Tuple[Callable[[], bool], Optional[Callable[[], None]]]]
        ] = {
            "cpu": [],
            "prog": [],
        }
        self._drain_scheduled = False
        self._drain_rounds = 0
        #: Tasks that failed a start attempt, parked off the ready list in
        #: one sort-ordered heap per canonical placement they could use.
        #: A capacity release re-examines only the best parked task of the
        #: freed placement instead of re-testing every waiter.  Entries
        #: are ``(sort_key, park_gen, task)``; sort_key is a unique total
        #: order, stale entries are dropped lazily on pop (gen mismatch).
        self._parked: Dict[str, List[tuple]] = {
            "cpu": [],
            "gpu": [],
            "prog": [],
            "fixed": [],
        }
        self._tasks_started: Dict[str, int] = {}
        self._queue_wait: Dict[str, float] = {}
        #: Fault-injection state (None on fault-free runs).
        self.faults = faults
        self._injector = None
        self._registers = None
        self._dram_scale = 1.0
        self._build_tasks()
        if faults is not None:
            # lazy import: repro.runtime imports this module at package
            # init, so the faults package (which reads the register file
            # from repro.runtime.registers) cannot be imported at the top
            from ..faults.injector import FaultInjector

            self._injector = FaultInjector(faults, self)
            self._registers = self._injector.registers

    # ------------------------------------------------------------------
    # task-graph construction
    # ------------------------------------------------------------------
    def _build_tasks(self) -> None:
        specs = generate_trace(self.graph, self.steps)
        table = self._table
        for spec in specs:
            oid = id(spec.op)
            priority = table.priority[oid]
            places = table.places[oid]
            self._tasks[spec.uid] = _Task(
                uid=spec.uid,
                step=spec.step,
                spec=spec,
                indeg=len(spec.deps),
                priority=priority,
                sort_key=(priority, spec.step, spec.topo_index),
                places=places,
            )
        for spec in specs:
            for dep in spec.deps:
                self._tasks[dep].dependents.append(spec.uid)
        if self.policy.uses_gpu and self.graph.input_bytes > 0:
            self._add_staging_tasks(specs)
        for task in self._tasks.values():
            self._step_remaining[task.step] = (
                self._step_remaining.get(task.step, 0) + 1
            )
            model = self._task_model(task)
            key = (model, task.step)
            self._model_step_remaining[key] = (
                self._model_step_remaining.get(key, 0) + 1
            )
            if task.indeg == 0:
                self._ready.append(task)

    def _add_staging_tasks(self, specs: List[TaskSpec]) -> None:
        """One host->device staging pseudo-task per step; the step's entry
        operations wait for it (the minibatch — and any swapped-out
        activations of an over-capacity working set — must be resident)."""
        # Entry operations (no intra-step dependence) are step-invariant:
        # an op's intra-step deps are exactly its graph predecessors, so
        # the set is computed once instead of rescanning every step's
        # specs (the scan was quadratic in steps x ops).  Iteration stays
        # in spec order, so dependent order — and thus scheduling — is
        # unchanged.
        entry_ops = [
            spec.uid.split("/", 1)[1]
            for spec in specs
            if spec.step == 0 and not any(d.startswith("s0/") for d in spec.deps)
        ]
        for step in range(self.steps):
            uid = f"s{step}/{_STAGING_PREFIX}"
            staging = _Task(
                uid=uid, step=step, spec=None, indeg=0,
                sort_key=(0, step, -1),
            )
            self._tasks[uid] = staging
            for op_name in entry_ops:
                task = self._tasks[f"s{step}/{op_name}"]
                task.indeg += 1
                staging.dependents.append(task.uid)

    def _task_model(self, task: _Task) -> str:
        if task.spec is None:
            return self.graph.name
        return str(task.spec.op.attrs.get("source_model", self.graph.name))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the trace to completion and collect metrics."""
        self._schedule_drain()
        self.engine.run()
        unfinished = [t.uid for t in self._tasks.values() if not t.done]
        if unfinished:
            raise SimulationError(
                f"simulation deadlocked with {len(unfinished)} unfinished "
                f"tasks, e.g. {sorted(unfinished)[:5]}"
            )
        result = self._collect()
        if self.validate:
            # lazy: repro.validate depends on sim.results; importing it at
            # module top would cycle through the package __init__
            from ..validate.invariants import check_simulation

            check_simulation(self, result)
        return result

    @property
    def _min_unfinished_step(self) -> int:
        # maintained incrementally by _finish; steps only ever complete
        return self._min_step

    def _admissible(self, task: _Task) -> bool:
        return task.step <= self._min_step + self.policy.pipeline_depth

    def _schedule_drain(self) -> None:
        if self._drain_scheduled:
            return
        self._drain_scheduled = True
        self.engine.defer(self._drain)

    def _unpark_all(self) -> None:
        """Return every parked task to the ready list (placement rewrite:
        the capacity reasoning behind the parking no longer applies)."""
        ready = self._ready
        for heap in self._parked.values():
            for _key, gen, task in heap:
                if gen == task.park_gen and not task.started:
                    task.park_gen += 1
                    ready.append(task)
            heap.clear()

    def _park(self, task: _Task, places: Tuple[str, ...]) -> None:
        """Park a task that just failed (or provably would fail) a start
        attempt: one heap entry per canonical placement, so any placement's
        release can rediscover it in scheduling order."""
        task.park_gen += 1
        entry = (task.sort_key, task.park_gen, task)
        parked = self._parked
        for p in places:
            heappush(parked[_CANON_PLACE.get(p, p)], entry)

    def _drain(self) -> None:
        self._drain_scheduled = False
        self._drain_rounds += 1
        freed = self._freed
        # Retry mid-kernel sub-kernel submissions first (they hold
        # devices), but only once the pool has released capacity: a failed
        # submission has no side effects and capacity never grows back, so
        # a retry with no release since the last one would fail again.
        # Every release, token drop and unit loss marks "fixed" freed.
        if self._fixed_waiters and "fixed" in freed:
            waiters, self._fixed_waiters = self._fixed_waiters, []
            pool = self.fixed.pool
            for k, (attempt, on_dead) in enumerate(waiters):
                if pool.free_units == 0 and pool.capacity_units > 0:
                    # full (OP expansion took the units): the rest would
                    # fail and wait on, in order
                    self._fixed_waiters.extend(waiters[k:])
                    break
                if attempt():
                    continue
                if self._injector is not None and pool.capacity_units == 0:
                    on_dead()  # pool died while queued: degrade, don't hang
                else:
                    self._fixed_waiters.append((attempt, on_dead))
        # Failed start attempts are side-effect-free and every placement's
        # availability predicate is task-independent (a pure capacity
        # check), so a task that failed cannot start until capacity is
        # released on one of its placements.  Such tasks are parked off
        # the ready list into per-placement heaps; a release marks the
        # placement freed, and the scan below merges the *best* parked
        # task of each freed placement with the sorted ready batch instead
        # of re-testing every waiter.  Single-pass semantics are kept: the
        # merge visits candidates in exactly the ready-list sort order, a
        # parked task skipped this round would have failed anyway (its
        # placements stayed exhausted), and the position check below keeps
        # the scan single-pass per round like the original drain.
        if not self._ready and not freed:
            return
        # Swap the ready list out before iterating: synchronous completions
        # inside _try_start append newly-unblocked tasks to self._ready,
        # which the next drain round picks up (same semantics as iterating
        # a snapshot).  sort_key is a unique total order, so the rebuilt
        # leftover list is deterministic regardless of insertion order.
        batch = self._ready
        self._ready = []
        batch.sort(key=_SORT_KEY)
        leftover: List[_Task] = []
        depth = self.policy.pipeline_depth
        parked = self._parked
        #: Canonical placements proven capacity-exhausted this scan.
        blocked: set = set()
        #: Heaps of freed placements still worth pulling from.
        active: Dict[str, List[tuple]] = {}
        for p in freed:
            h = parked[p]
            if h:
                active[p] = h
        freed.clear()
        i = 0
        n = len(batch)
        #: Sort key of the last candidate visited — the merge's position.
        #: A parked task rediscovered *behind* this position was already
        #: visited (and failed) at its own position this round; attempting
        #: it now would double-visit, so it defers to the next round.
        pos = None
        while True:
            # Drop stale heap tops, withdraw exhausted heaps, and find the
            # best parked candidate among the freed placements.
            best_place = None
            best_key = None
            if active:
                for p in list(active):
                    h = active[p]
                    while h:
                        top = h[0]
                        t = top[2]
                        if t.started or top[1] != t.park_gen:
                            heappop(h)
                        else:
                            break
                    if not h:
                        del active[p]
                    elif best_key is None or h[0][0] < best_key:
                        best_key = h[0][0]
                        best_place = p
            if i < n and (best_key is None or batch[i].sort_key < best_key):
                task = batch[i]
                i += 1
                pos = task.sort_key
                if task.started:
                    continue
                if task.step > self._min_step + depth:
                    leftover.append(task)
                    continue
                places = task.places if task.degraded else task.allowed
                if blocked and places:
                    for p in places:
                        if _CANON_PLACE.get(p, p) not in blocked:
                            break
                    else:
                        # provably would fail: every placement exhausted
                        self._park(task, places)
                        continue
                if self._try_start(task):
                    task.started = True
                    if freed:
                        # a zero-duration activity chain inside the start
                        # released capacity synchronously: later candidates
                        # may use it this round, exactly as in a plain
                        # single-pass drain
                        for p in freed:
                            blocked.discard(p)
                            h = parked[p]
                            if h:
                                active[p] = h
                        freed.clear()
                else:
                    places = task.places if task.degraded else task.allowed
                    if places:
                        self._park(task, places)
                        for p in places:
                            cp = _CANON_PLACE.get(p, p)
                            blocked.add(cp)
                            active.pop(cp, None)
                    else:  # pragma: no cover - placements are never empty
                        leftover.append(task)
                continue
            if best_place is None:
                break
            h = active[best_place]
            entry = heappop(h)
            task = entry[2]
            if pos is not None and best_key < pos:
                # The placement freed mid-round, after the merge already
                # passed this task's position — where it was (or would
                # have been) visited and failed.  Single-pass semantics:
                # retry from the ready list next round.
                task.park_gen += 1
                self._ready.append(task)
                continue
            pos = best_key
            # Parked tasks stay admissible: they passed the pipeline-depth
            # gate when parked and _min_step only ever advances.
            if self._try_start(task):
                task.started = True
                task.park_gen += 1
                if freed:
                    for p in freed:
                        blocked.discard(p)
                        hh = parked[p]
                        if hh:
                            active[p] = hh
                    freed.clear()
            else:
                # capacity re-exhausted: stop pulling from its placements
                heappush(h, entry)
                places = task.places if task.degraded else task.allowed
                for p in places:
                    cp = _CANON_PLACE.get(p, p)
                    blocked.add(cp)
                    active.pop(cp, None)
        self._ready.extend(leftover)

    def _finish(self, task: _Task) -> None:
        if task.done:
            raise SimulationError(f"task {task.uid} finished twice")
        task.done = True
        now = self.engine.now
        if self.timeline is not None:
            self.timeline.add(
                TimelineEntry(
                    uid=task.uid,
                    op_type=task.spec.op.op_type if task.spec else "InputStaging",
                    device=task.device or "cpu",
                    step=task.step,
                    start_s=task.start_s,
                    end_s=now,
                    ready_s=task.ready_s,
                )
            )
        remaining = self._step_remaining[task.step] - 1
        self._step_remaining[task.step] = remaining
        if remaining == 0:
            self._step_end[task.step] = now
            while (
                self._min_step < self.steps
                and self._step_remaining.get(self._min_step, 0) == 0
            ):
                self._min_step += 1
        key = (self._task_model(task), task.step)
        self._model_step_remaining[key] -= 1
        if self._model_step_remaining[key] == 0:
            self._model_step_end[key] = now
        tasks = self._tasks
        ready = self._ready
        for dep_uid in task.dependents:
            dependent = tasks[dep_uid]
            dependent.indeg -= 1
            if dependent.indeg == 0:
                dependent.ready_s = now
                ready.append(dependent)
        self._schedule_drain()

    # ------------------------------------------------------------------
    # placement dispatch
    # ------------------------------------------------------------------
    def _fixed_available(self, uid: str) -> bool:
        if self._injector is not None:
            # runtime reaction, paper Figure 7: consult the idle/busy
            # register file before dispatching to the fixed pool
            if self.fixed.pool.capacity_units == 0:
                return False
            if not self._registers.snapshot().any_fixed_idle:
                return False
        if self.policy.operation_pipeline:
            return self.fixed.pool.free_units > 0
        return self.fixed.token_holder is None

    # ------------------------------------------------------------------
    # placement cost estimates (used for the profile-aware CPU fallback)
    # ------------------------------------------------------------------
    def _estimate(self, place: str, op) -> float:
        """Rough duration estimate of ``op`` on ``place`` (ignoring queueing).

        Memoized per (place, op) at the first query: the estimate
        deliberately ignores live queue state, and the DRAM scale is
        the one live at that query.
        """
        key = (place, id(op))
        cached = self._estimate_cache.get(key)
        if cached is None:
            cached = self._table.estimate(place, op, self._dram_scale)
            self._estimate_cache[key] = cached
        return cached

    def _fallback_allowed(self, op, place: str, preferred: str) -> bool:
        """Principle 2, profile-aware: spill to a secondary placement only
        when it is not dramatically slower than the (busy) preferred one —
        the runtime knows both costs from step-1 profiling."""
        key = (id(op), place, preferred)
        cached = self._fallback_cache.get(key)
        if cached is None:
            limit = self.config.runtime.cpu_fallback_slowdown_limit
            preferred_estimate = self._estimate(preferred, op)
            cached = preferred_estimate <= 0 or (
                self._estimate(place, op) <= limit * preferred_estimate
            )
            self._fallback_cache[key] = cached
        return cached

    def _allowed_places(self, task: _Task) -> Tuple[str, ...]:
        """``task.places`` filtered through the profile-aware fallback
        guard (principle 2).  The guard's verdicts are memoized for the
        whole run, so the surviving list is static per non-degraded task
        and computed once instead of on every retry round."""
        places = task.places
        if not places:  # unplaceable: let the deadlock detector report it
            task.allowed = ()
            return ()
        first = places[0]
        op = task.spec.op
        allowed = tuple(
            p
            for p in places
            if p == first or self._fallback_allowed(op, p, first)
        )
        task.allowed = allowed
        return allowed

    def _try_start(self, task: _Task) -> bool:
        if task.spec is None:
            self._mark_started(task, "gpu")
            self._start_staging(task)
            return True
        op = task.spec.op
        if task.degraded:
            # degraded tasks bypass the fallback guard: completing the
            # step beats the slowdown limit
            places = task.places
        else:
            places = task.allowed
            if places is None:
                places = self._allowed_places(task)
        # A deprioritized (co-run tenant) task only consumes *idle* capacity:
        # it never jumps ahead of primary work queued for a device (the
        # ready list is already priority-ordered, so primary tasks get the
        # first claim on freed slots each scheduling round).
        background = task.priority > 0
        for place in places:
            if place == "cpu":
                if self.cpu.try_acquire():
                    self._mark_started(task, "cpu")
                    self._start_cpu(task)
                    return True
            elif place == "gpu":
                if self.gpu.try_acquire():
                    self._mark_started(task, "gpu")
                    self._start_gpu(task)
                    return True
            elif place == "prog":
                if background and self._slot_waiters["prog"]:
                    continue
                free = self.prog.free_slots
                if free > 0:
                    gang = min(self._table.gang[id(op)], free)
                    if self.prog.try_acquire(gang):
                        self._mark_started(task, "prog")
                        self._start_prog(task, gang)
                        return True
            elif place == "fixed":
                if self._fixed_available(task.uid):
                    if not self.fixed.try_take_token(task.uid):
                        continue
                    self._mark_started(task, "fixed")
                    self._start_fixed(task)
                    return True
            elif place in ("hybrid", "hybrid_host"):
                if self._fixed_available(task.uid):
                    if not self.fixed.try_take_token(task.uid):
                        continue
                    self._mark_started(task, "fixed")
                    self._start_hybrid(
                        task, complex_on="prog" if place == "hybrid" else "cpu"
                    )
                    return True
        return False

    def _mark_started(self, task: _Task, device: str) -> None:
        task.device = device
        now = self.engine.now
        task.start_s = now
        self._tasks_started[device] = self._tasks_started.get(device, 0) + 1
        wait = now - task.ready_s
        if wait > 0:
            self._queue_wait[device] = self._queue_wait.get(device, 0.0) + wait

    # ------------------------------------------------------------------
    # executor-slot waiting (complex phases acquire slots mid-kernel)
    # ------------------------------------------------------------------
    def _acquire_slot(
        self,
        device: SlotDevice,
        then: Callable[[], None],
        on_dead: Optional[Callable[[], None]] = None,
    ) -> None:
        def attempt() -> bool:
            if device.try_acquire():
                then()
                return True
            return False

        if not attempt():
            if on_dead is not None and device.effective_slots == 0:
                on_dead()
                return
            self._slot_waiters[device.name].append((attempt, on_dead))

    def _release_slot(self, device: SlotDevice, n: int = 1) -> None:
        device.release(n)
        self._freed.add(device.name)
        waiters = self._slot_waiters[device.name]
        while waiters and device.free_slots > 0:
            attempt, on_dead = waiters.pop(0)
            if not attempt():
                waiters.insert(0, (attempt, on_dead))
                break
        self._schedule_drain()

    # ------------------------------------------------------------------
    # activity helpers
    # ------------------------------------------------------------------
    def _timed(self, kind: str, duration: float, then: Callable[[], None]) -> None:
        """Run an activity of ``kind`` for ``duration``, then continue."""
        if duration <= 0:
            then()
            return
        self.tracker.begin(kind, self.engine.now)

        def _end() -> None:
            self.tracker.end(kind, self.engine.now)
            then()

        self.engine.call_after(duration, _end)

    # ------------------------------------------------------------------
    # execution recipes
    # ------------------------------------------------------------------
    def _start_staging(self, task: _Task) -> None:
        self.usage.external_bytes += self.graph.input_bytes
        self._timed(
            DATA_MOVEMENT, self._table.staging_s, lambda: self._finish(task)
        )

    def _start_cpu(self, task: _Task) -> None:
        op = task.spec.op
        operation_s, exposed_s = self._table.cpu[id(op)]
        self.usage.external_bytes += op.host_traffic_bytes

        def _after_compute() -> None:
            def _done() -> None:
                self._release_slot(self.cpu)
                self._finish(task)

            self._timed(DATA_MOVEMENT, exposed_s, _done)

        self._timed(COMPUTE, operation_s, _after_compute)

    def _start_gpu(self, task: _Task) -> None:
        op = task.spec.op
        total_s = self._table.gpu_total[id(op)]
        self.usage.gpu_bytes += op.traffic_bytes

        def _done() -> None:
            self.gpu.release()
            self._freed.add("gpu")
            self._finish(task)

        self._timed(COMPUTE, total_s, _done)

    def _start_prog(self, task: _Task, gang: int = 1) -> None:
        """Whole kernel on ``gang`` programmable PIM(s) (binary #4).

        The Progr-PIM baseline gangs several ARM PIMs on one wide
        operation ("as many ARM-based programmable cores as needed",
        section VI); the heterogeneous system uses a single PIM.
        """
        op = task.spec.op
        flops, full_gang, full_duration, traffic = self._table.prog[id(op)]
        scale = self._dram_scale
        if gang == full_gang and scale == 1.0:
            duration = full_duration
        else:
            duration = self._table.prog_phase(flops / gang, traffic, scale)
        self.usage.internal_bytes += op.traffic_bytes

        def _after_launch() -> None:
            def _done() -> None:
                self._release_slot(self.prog, gang)
                self._finish(task)

            self._timed(COMPUTE, duration, _done)

        self._timed(
            SYNC, self.config.prog_pim.host_launch_overhead_s, _after_launch
        )

    def _retry_or_degrade(
        self, task: _Task, resubmit: Callable[[], None], pool_dead: bool = False
    ) -> None:
        """React to an aborted fixed-pool sub-kernel (fault injection).

        Retries with capped exponential backoff while the pool has
        capacity and the retry budget lasts; otherwise degrades the whole
        operation to the programmable PIM (or the CPU).
        """
        spec = self.faults
        task.fault_attempts += 1
        can_retry = (
            not pool_dead
            and self.fixed.pool.capacity_units > 0
            and task.fault_attempts <= spec.max_retries
        )
        if can_retry:
            delay = spec.backoff_s(task.fault_attempts)
            self._injector.log_retry(
                self.engine.now, task.uid, task.fault_attempts, delay
            )
            self._timed(SYNC, delay, resubmit)
            return
        self._degrade_fixed_task(task)

    def _degraded_places(self) -> Tuple[str, ...]:
        if self.prog.effective_slots > 0:
            return ("prog", "cpu")
        return ("cpu",)

    def _degrade_fixed_task(self, task: _Task) -> None:
        """Unwind a fixed/hybrid operation and re-place it entirely.

        The degradation chain is fixed-function PIM -> programmable PIM ->
        CPU: the op restarts from scratch on the best surviving device, so
        a training step always completes.
        """
        self.fixed.drop_token(task.uid)
        self.fixed.window_exit()
        now = self.engine.now
        places = self._degraded_places()
        self._injector.log_degradation(
            now, task.uid, task.device or "fixed", places[0]
        )
        task.started = False
        task.device = None
        task.degraded = True
        task.places = places
        task.allowed = None
        # the task re-enters the ready list directly; invalidate any heap
        # entries left from a pre-degradation parking
        task.park_gen += 1
        task.ready_s = now
        task.fault_attempts = 0
        self._ready.append(task)
        self._schedule_drain()

    # ------------------------------------------------------------------
    # fault reaction (capacity changes; see repro.faults)
    # ------------------------------------------------------------------
    def _set_dram_scale(self, scale: float) -> None:
        """Apply a DRAM-timing derate to newly issued streaming phases."""
        self._dram_scale = scale

    def _on_prog_lost(self, pims: int) -> int:
        """Shrink the programmable-PIM cluster; reroute dead waiters."""
        lost = self.prog.lose_slots(pims)
        if self.prog.effective_slots == 0:
            waiters = self._slot_waiters["prog"]
            self._slot_waiters["prog"] = []
            for attempt, on_dead in waiters:
                if on_dead is not None:
                    on_dead()
                else:  # pragma: no cover - prog waiters always carry one
                    self._slot_waiters["prog"].append((attempt, on_dead))
        self._recompute_placements()
        self._schedule_drain()
        return lost

    def _recompute_placements(self) -> None:
        """Re-run offload selection for queued work after a capacity loss.

        Placements naming a dead device are stripped; work that loses its
        every placement falls back to the CPU (which never faults), so no
        task can strand.  Mirrors the paper's runtime re-consulting its
        profile when the schedulable pool changes.
        """
        fixed_dead = self.fixed.pool.capacity_units == 0
        prog_dead = self.prog.effective_slots == 0
        if not (fixed_dead or prog_dead):
            return
        dead_places = set()
        if fixed_dead:
            dead_places.update(("fixed", "hybrid", "hybrid_host"))
        if prog_dead:
            dead_places.add("prog")
        retargeted = 0
        for task in self._tasks.values():
            if task.started or task.done or not task.places:
                continue
            places = tuple(p for p in task.places if p not in dead_places)
            if places == task.places:
                continue
            if not places:
                places = ("cpu",)
            elif "cpu" not in places:
                places = places + ("cpu",)
            task.places = places
            task.allowed = None
            task.degraded = True
            retargeted += 1
        if retargeted:
            # rewritten placements void any blocked/parked reasoning (a
            # parked task may have gained a never-tested placement)
            self._unpark_all()
            if self._injector is not None:
                self._injector.log_reselection(self.engine.now, retargeted)

    def _start_fixed(self, task: _Task) -> None:
        """FIXED-class op: host-coordinated MAC chunks on the pool."""
        op = task.spec.op
        self.usage.internal_bytes += op.traffic_bytes
        self.fixed.window_enter()
        _Kernel(self, task, self._table.fixed_plan[id(op)], None).next_row()

    def _start_hybrid(self, task: _Task, complex_on: str) -> None:
        """HYBRID op as a recursive PIM kernel (Figure 6).

        ``complex_on`` selects where the complex phases run: the
        programmable PIM ("prog", Hetero configurations) or the host CPU
        ("cpu", the Fixed-PIM baseline).  Complex phases acquire an
        executor slot for their own duration only; the orchestration of
        MAC sub-kernels does not occupy a compute slot (the PIM-side
        runtime is an event loop, able to manage many in-flight recursive
        kernels — section IV-C).  Each phase first pays its launch cost:
        MAC phases one micro-kernel dispatch per sub-kernel quota, complex
        phases one dispatch; the first (and, without recursive kernels,
        every) dispatch is a host round trip.
        """
        rows = self._table.hybrid_plan[id(task.spec.op)]
        self.fixed.window_enter()
        _Kernel(self, task, rows, complex_on).next_row()

    def _run_complex_phase(
        self, uid: str, row: tuple, complex_on: str, then: Callable[[], None]
    ) -> None:
        """Execute one COMPLEX phase (a ``cpx`` plan row) on its device,
        waiting for a slot.

        Under fault injection a complex phase targeting a dead (or dying)
        programmable PIM degrades to the host CPU instead of stranding the
        recursive kernel.
        """
        _, _, prog_s, operation_s, exposed_s, nbytes, flops = row
        if complex_on == "prog":
            def fall_back_to_cpu() -> None:
                if self._injector is not None:
                    self._injector.log_degradation(
                        self.engine.now, uid, "prog", "cpu"
                    )
                self._run_complex_phase(uid, row, "cpu", then)

            if self.prog.effective_slots == 0:
                fall_back_to_cpu()
                return
            scale = self._dram_scale
            duration = (
                prog_s
                if scale == 1.0
                else self._table.prog_phase(flops, nbytes, scale)
            )

            def run_on_prog() -> None:
                self.usage.internal_bytes += nbytes

                def done() -> None:
                    self._release_slot(self.prog)
                    then()

                self._timed(COMPUTE, duration, done)

            self._acquire_slot(self.prog, run_on_prog, on_dead=fall_back_to_cpu)
            return
        self.usage.external_bytes += nbytes

        def run_on_cpu() -> None:
            def _after_compute() -> None:
                def done() -> None:
                    self._release_slot(self.cpu)
                    then()

                self._timed(DATA_MOVEMENT, exposed_s, done)

            self._timed(COMPUTE, operation_s, _after_compute)

        self._acquire_slot(self.cpu, run_on_cpu)

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _collect(self) -> RunResult:
        now = self.engine.now
        makespan = now
        if self._injector is not None and self._step_end:
            # fault/restore events may be scheduled past the last task
            # finish; the engine drains them, so ``now`` can overshoot the
            # actual completion time.  Clamp to the last step boundary.
            makespan = max(self._step_end.values())
        breakdown = self.tracker.breakdown(makespan)
        usage = DeviceUsage(
            fixed_macs=self.usage.fixed_macs,
            cpu_busy_s=self.cpu.busy_seconds(),
            gpu_busy_s=self.gpu.busy_seconds(),
            fixed_unit_busy_s=self.fixed.busy_unit_seconds(),
            prog_busy_s=self.prog.busy_seconds(),
            external_bytes=self.usage.external_bytes,
            internal_bytes=self.usage.internal_bytes,
            gpu_bytes=self.usage.gpu_bytes,
        )
        energy_model = EnergyModel(self.config, gpu_present=self.policy.uses_gpu)
        energy = energy_model.energy(usage, makespan)
        step_time = self._steady_step_time()
        per_model = self._per_model_step_times()
        busy_fraction = self._device_busy_fractions(makespan)
        occupancy = self.fixed.occupancy_histogram_s()
        selection = self.policy.decision_log()
        metrics = self._metrics_snapshot()
        self.publish_metrics(self.obs)
        return RunResult(
            config_name=self.policy.name,
            model_name=self.graph.name,
            steps=self.steps,
            makespan_s=makespan,
            step_time_s=step_time,
            breakdown=breakdown,
            usage=usage,
            energy=energy,
            fixed_pim_utilization=self.fixed.utilization(),
            events_processed=self.engine.events_processed,
            per_model_step_time_s=per_model,
            device_busy_fraction=busy_fraction,
            bank_occupancy_hist_s=occupancy,
            queue_wait_s=dict(sorted(self._queue_wait.items())),
            selection=selection,
            metrics=metrics,
            faults=(
                self._injector.to_result_dict()
                if self._injector is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _device_busy_fractions(self, makespan: float) -> Dict[str, float]:
        """Busy fraction of each device lane over the whole run.

        The GPU lane is reported only when the configuration uses it (the
        Chrome-trace exporter and the report schema mirror this, so
        GPU-less configs have no phantom lane).
        """
        fractions = {
            "cpu": self.cpu.busy_fraction(makespan),
            "prog": self.prog.busy_fraction(makespan),
            "fixed": (
                self.fixed.busy_unit_seconds()
                / (self.fixed.pool.n_units * makespan)
                if makespan > 0
                else 0.0
            ),
        }
        if self.policy.uses_gpu:
            fractions["gpu"] = self.gpu.busy_fraction(makespan)
        return dict(sorted(fractions.items()))

    def _metrics_snapshot(self) -> Dict[str, float]:
        """Flat, deterministic metric snapshot stored on the result."""
        registry = MetricsRegistry()
        self.publish_metrics(registry)
        return registry.snapshot(self.engine.now)

    def publish_metrics(self, registry: MetricsRegistry) -> None:
        """Publish every component's instruments into ``registry``."""
        self.engine.publish_metrics(registry)
        self.cpu.publish_metrics(registry)
        self.prog.publish_metrics(registry)
        if self.policy.uses_gpu:
            self.gpu.publish_metrics(registry)
        self.fixed.publish_metrics(registry)
        self.policy.publish_metrics(registry)
        registry.gauge("sched.drain_rounds").set(self._drain_rounds)
        for device in sorted(self._tasks_started):
            registry.gauge(f"sched.started.{device}").set(
                self._tasks_started[device]
            )
        for device in sorted(self._queue_wait):
            registry.gauge(f"sched.queue_wait_s.{device}").set(
                self._queue_wait[device]
            )
        if self._injector is not None:
            self._injector.publish_metrics(registry)

    def _steady_step_time(self) -> float:
        ends = [self._step_end[s] for s in sorted(self._step_end)]
        if len(ends) == 1:
            return ends[0]
        # steady state: exclude the warm-up ramp of the first step
        return (ends[-1] - ends[0]) / (len(ends) - 1)

    def _per_model_step_times(self) -> Optional[Dict[str, float]]:
        models = {m for (m, _s) in self._model_step_end}
        if models == {self.graph.name}:
            return None
        result: Dict[str, float] = {}
        for model in models:
            ends = [
                self._model_step_end[(model, s)]
                for s in range(self.steps)
                if (model, s) in self._model_step_end
            ]
            if len(ends) >= 2:
                result[model] = (ends[-1] - ends[0]) / (len(ends) - 1)
            elif ends:
                result[model] = ends[0]
        return result

