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

A started task runs as one of the event recipes of
:mod:`repro.sim.recipes`; the drain step runs in the engine's deferred
slot (:meth:`~repro.sim.engine.Engine.defer`).  The per-event path makes
few Python calls: the one-line helpers of the tracker, devices, pool and
engine are inlined into their callers, and a task's ``(model, step)`` key,
sort key and allowed placements are fixed when it is built.
``tests/test_engine_call_budget.py`` gates the count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from ..config import SystemConfig, default_config
from ..errors import SimulationError
from ..hardware.fixed_pim import FixedPIMPool
from ..hardware.power import DeviceUsage, EnergyModel
from ..nn.graph import Graph
from ..nn.ops import Op
from ..obs.metrics import MetricsRegistry
from .activity import COMPUTE, DATA_MOVEMENT, SYNC, ActivityTracker
from .devices import FixedPoolExecutor, SlotDevice
from .engine import Engine
from .optable import CostRow, cost_table
from .policy import SchedulingPolicy
from .recipes import KernelRun, Phases
from .results import RunResult
from .timeline import Timeline, TimelineEntry
from .tracegen import trace_template

_STAGING_PREFIX = "__staging__"

_SORT_KEY = attrgetter("sort_key")

#: The three fixed-pool placements share one availability predicate
#: (``_fixed_open``), so a capacity failure on any of them blocks the
#: whole group for the rest of the drain round.
_CANON_PLACE = {"hybrid": "fixed", "hybrid_host": "fixed"}
_FIXED_PLACES = ("fixed", "hybrid", "hybrid_host")
#: Device of each placement (timeline lane, started/queue-wait key);
#: ``"staging"`` is the GPU input-staging pseudo-task.
_DEVICE = {"cpu": "cpu", "gpu": "gpu", "prog": "prog", "staging": "gpu",
           "fixed": "fixed", "hybrid": "fixed", "hybrid_host": "fixed"}


@dataclass(slots=True)
class _Task:
    uid: str
    step: int
    op: Optional[Op]  # None for pseudo-tasks (GPU input staging)
    #: The op's cost-table row (None for pseudo-tasks).
    row: Optional[CostRow]
    indeg: int
    #: ``(model, step)``; ``model`` is the op's ``source_model`` in a
    #: merged co-run graph.
    key: Tuple[str, int]
    #: Scheduling order (priority, step, topo index) — a unique total order.
    sort_key: Tuple[int, int, int]
    #: Positions in ``Simulation._tasks`` of the tasks waiting on this one
    #: (the trace template's tuple, shared by every run).
    dependents: Tuple[int, ...]
    priority: int = 0
    #: Preference-ordered placements; fault recovery may rewrite them.
    places: Tuple[str, ...] = ()
    #: ``places`` through the profile-aware fallback guard; None until the
    #: first start attempt of a faulted run.  Degraded tasks bypass the
    #: guard and use ``places``.
    allowed: Optional[Tuple[str, ...]] = None
    done: bool = False
    started: bool = False
    #: Placement chosen at start time (for timeline recording).
    device: Optional[str] = None
    start_s: float = 0.0
    #: When the task's last dependence resolved (queue-wait baseline).
    ready_s: float = 0.0
    #: True once fault recovery rerouted the task off its preferred
    #: placement (completing the step beats the slowdown limit).
    degraded: bool = False
    #: Fixed-pool submission attempts consumed by the retry/backoff loop.
    fault_attempts: int = 0
    #: Parking generation: heap entries carry the value current when the
    #: task parked, so bumping it invalidates every outstanding entry.
    park_gen: int = 0


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
        self.config.validate()
        policy.validate()
        policy.prepare(graph, self.config)

        self.engine = Engine()
        self.tracker = ActivityTracker()
        self.cpu = SlotDevice(self.engine, "cpu", policy.cpu_slots)
        self.gpu = SlotDevice(self.engine, "gpu", 1)
        self.prog = SlotDevice(self.engine, "prog", self.config.prog_pim.n_pims)
        self._slot_devices = {"cpu": self.cpu, "gpu": self.gpu, "prog": self.prog}
        #: Per-op costs, shared with every run of the same (graph,
        #: policy, config) and never mutated by this one.
        self._table = cost_table(graph, policy, self.config)
        #: Canonical placements whose capacity was released since the last
        #: drain consumed the set (the fixed-pool trio collapses to "fixed").
        self._freed: set = set()
        # The executor only marks the pool freed (a callback into this
        # object would be a reference cycle); each caller that can release
        # units schedules the drain itself.
        self.fixed = FixedPoolExecutor(
            engine=self.engine,
            pool=FixedPIMPool(self.config.fixed_pim.n_units),
            pipeline=policy.operation_pipeline,
            on_units_freed=partial(self._freed.add, "fixed"),
        )

        self.usage = DeviceUsage()
        #: Every task in trace order, then the staging pseudo-tasks.
        self._tasks: List[_Task] = []
        self._ready: List[_Task] = []
        #: A faulted run's allowed placements by op identity, filled at
        #: each op's first start attempt (see _try_start); a clean run's
        #: tasks take the table's scale-1.0 entry when they are built.
        self._allowed_memo: Dict[int, Tuple[str, ...]] = {}
        self._min_step = 0
        self._step_remaining: Dict[int, int] = {}
        self._step_end: Dict[int, float] = {}
        #: Per-model step accounting of a merged co-run graph; None when
        #: every task belongs to the graph's own model.
        self._model_step_remaining: Optional[Dict[tuple, int]] = None
        self._model_step_end: Dict[tuple, float] = {}
        #: Waiters are (attempt, on_dead) pairs: ``attempt`` retries the
        #: submission, ``on_dead`` reroutes the work if the device's
        #: capacity drops to zero while waiting (fault injection).
        self._fixed_waiters: List[Tuple[Callable[[], bool], Callable[[], None]]] = []
        self._slot_waiters: Dict[str, list] = {"cpu": [], "gpu": [], "prog": []}
        self._drain_scheduled = False
        self._drain_rounds = 0
        #: Tasks that failed (or provably would fail) a start attempt,
        #: parked off the ready list in one heap per canonical placement
        #: they could use: a release re-examines only the best parked task
        #: of the freed placement.  Entries are ``(sort_key, park_gen,
        #: task)``; stale ones are dropped lazily on pop (gen mismatch).
        self._parked: Dict[str, List[tuple]] = {
            "cpu": [], "gpu": [], "prog": [], "fixed": []
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
        """One task per trace position, from the run's trace template.

        What a task takes from its op — the table row, priority,
        placements and (on a clean run) allowed placements — is read from
        the op's table entry once per op.  Its uid, ``(model, step)`` key,
        sort key and dependents come from the template, so building a
        task allocates the task object alone.
        """
        graph = self.graph
        steps = self.steps
        template = trace_template(graph, steps)
        entries = self._table.entries
        clean = self.faults is None
        columns = []
        for op in template.ops:
            row, places, priority, allowed = entries[id(op)]
            columns.append((
                op, row, priority, places, allowed if clean else None,
                template.sort_keys(priority),
            ))
        uids = template.uids
        indeg = template.indeg
        keys = template.keys
        dependents = template.dependents
        tasks = self._tasks
        append = tasks.append
        i = 0
        for step in range(steps):
            for op, row, priority, places, allowed, order in columns:
                append(_Task(
                    uids[i], step, op, row, indeg[i], keys[i], order[i],
                    dependents[i], priority, places, allowed,
                ))
                i += 1
        n_ops = len(columns)
        per_step = n_ops
        per_model = dict(template.ops_per_model)
        name = graph.name
        if self.policy.uses_gpu and graph.input_bytes > 0:
            # One host->device staging pseudo-task per step; the step's
            # entry operations (the ops without intra-step dependences)
            # wait for it: the minibatch — and any swapped-out activations
            # of an over-capacity working set — must be resident.
            own_keys = template.model_keys[name]
            for step in range(steps):
                waiting = tuple(map((step * n_ops).__add__, template.entries))
                for j in waiting:
                    tasks[j].indeg += 1
                append(_Task(
                    f"s{step}/{_STAGING_PREFIX}", step, None, None, 0,
                    own_keys[step], (0, step, -1), waiting,
                ))
            per_model[name] = per_model.get(name, 0) + 1
            per_step += 1
        self._step_remaining = dict.fromkeys(range(steps), per_step)
        if list(per_model) != [name]:
            self._model_step_remaining = {
                key: count
                for model, count in per_model.items()
                for key in template.model_keys[model]
            }
        self._ready = [task for task in tasks if task.indeg == 0]

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Execute the trace to completion and collect metrics."""
        self._schedule_drain()
        self.engine.run()
        unfinished = [t.uid for t in self._tasks if not t.done]
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

    def _schedule_drain(self) -> None:
        # inlined on the per-event paths (_finish, _release_slot, _mac_done)
        if not self._drain_scheduled:
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
        """One heap entry per placement, so any placement's release can
        rediscover the task in scheduling order."""
        task.park_gen += 1
        entry = (task.sort_key, task.park_gen, task)
        parked = self._parked
        for p in places:
            heappush(parked[_CANON_PLACE.get(p, p)], entry)

    def _drain(self) -> None:
        """One scheduling round.

        A failed start attempt has no side effects, and a placement's
        availability test is the same for every task (a pure capacity
        check; a background task also yields the programmable PIM to
        waiting complex phases, but those wait only while it is full).  So
        only a freed placement can start a parked task, and one that is
        full again by now (a waiting complex phase or an OP expansion took
        the capacity) enters the round as blocked.
        """
        self._drain_scheduled = False
        self._drain_rounds += 1
        freed = self._freed
        if self._fixed_waiters and "fixed" in freed:
            self._retry_fixed_waiters()
        active: Dict[str, List[tuple]] = {}
        blocked: set = set()
        if freed:
            parked = self._parked
            slot_devices = self._slot_devices
            for p in freed:
                h = parked[p]
                if h:
                    device = slot_devices.get(p)
                    if self._fixed_open() if device is None else device.free_slots:
                        active[p] = h
                    else:
                        blocked.add(p)
            freed.clear()
        ready = self._ready
        if not ready:  # the commonest round
            if active:
                self._scan([], active, blocked, None)
            return
        self._ready = []
        if active or len(ready) > 1:
            ready.sort(key=_SORT_KEY)
            self._scan(ready, active, blocked, None)
            return
        # the next commonest: one ready task and no parked candidate
        task = ready[0]
        if task.started:
            return
        if task.step > self._min_step + self.policy.pipeline_depth:
            self._ready.append(task)
            return
        places = task.places if task.degraded else task.allowed
        if blocked and places:
            for p in places:
                if _CANON_PLACE.get(p, p) not in blocked:
                    break
            else:
                self._park(task, places)
                return
        if self._try_start(task):
            task.started = True
            if freed:  # released synchronously inside the start
                self._scan([], active, blocked, task.sort_key)
        else:
            self._park(task, task.places if task.degraded else task.allowed)

    def _retry_fixed_waiters(self) -> None:
        # Retry mid-kernel sub-kernel submissions first (they hold
        # devices), but only once the pool has released capacity: a failed
        # submission has no side effects and capacity never grows back, so
        # a retry with no release since the last one would fail again.
        # Every release, token drop and unit loss marks "fixed" freed.
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

    def _scan(self, batch: List[_Task], active: Dict[str, List[tuple]],
              blocked: set, pos) -> None:
        """Visit the sorted ready ``batch`` merged with the best parked
        tasks of the ``active`` heaps, in sort order; ``blocked`` holds the
        canonical placements known to be full, ``pos`` the sort key of the
        last candidate visited this round (or None).  Single pass: a parked
        task found *behind* ``pos`` (its placement freed mid-round) already
        failed at its own position, so it waits for the next round.
        """
        freed = self._freed
        parked = self._parked
        slot_devices = self._slot_devices
        depth = self.policy.pipeline_depth
        leftover: List[_Task] = []
        i = 0
        n = len(batch)
        while True:
            if freed:
                # released synchronously inside a start: later candidates
                # may use it this round, as in a plain single-pass drain
                for p in freed:
                    blocked.discard(p)
                    h = parked[p]
                    if h:
                        active[p] = h
                freed.clear()
            # drop stale heap tops, withdraw exhausted heaps, and find the
            # best parked candidate
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
                        self._park(task, places)  # provably would fail
                        continue
                if not self._try_start(task):
                    places = task.places if task.degraded else task.allowed
                    self._park(task, places)
                    for p in places:
                        cp = _CANON_PLACE.get(p, p)
                        blocked.add(cp)
                        active.pop(cp, None)
                    continue
            elif best_place is None:
                break
            else:
                h = active[best_place]
                entry = heappop(h)
                task = entry[2]
                if pos is not None and best_key < pos:
                    task.park_gen += 1
                    self._ready.append(task)
                    continue
                pos = best_key
                # parked tasks passed the pipeline-depth gate when parked,
                # and _min_step only ever advances
                if not self._try_start(task):
                    # capacity re-exhausted: stop pulling from its placements
                    heappush(h, entry)
                    places = task.places if task.degraded else task.allowed
                    for p in places:
                        cp = _CANON_PLACE.get(p, p)
                        blocked.add(cp)
                        active.pop(cp, None)
                    continue
                task.park_gen += 1
            task.started = True
            place = task.device
            device = slot_devices.get(place)
            if not (self._fixed_open() if device is None else device.free_slots):
                # the start took the last of it: a next candidate would fail
                blocked.add(place)
                active.pop(place, None)
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
                    op_type=task.op.op_type if task.op else "InputStaging",
                    device=task.device or "cpu",
                    step=task.step,
                    start_s=task.start_s,
                    end_s=now,
                    ready_s=task.ready_s,
                )
            )
        step_remaining = self._step_remaining
        step = task.step
        remaining = step_remaining[step] - 1
        step_remaining[step] = remaining
        if remaining == 0:
            self._step_end[step] = now
            while (
                self._min_step < self.steps
                and step_remaining.get(self._min_step, 0) == 0
            ):
                self._min_step += 1
        model_remaining = self._model_step_remaining
        if model_remaining is not None:
            key = task.key
            remaining = model_remaining[key] - 1
            model_remaining[key] = remaining
            if remaining == 0:
                self._model_step_end[key] = now
        ready = self._ready
        tasks = self._tasks
        for j in task.dependents:
            dependent = tasks[j]
            dependent.indeg -= 1
            if dependent.indeg == 0:
                dependent.ready_s = now
                ready.append(dependent)
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.engine.defer(self._drain)

    # ------------------------------------------------------------------
    # placement dispatch
    # ------------------------------------------------------------------
    def _fixed_open(self) -> bool:
        """Whether the fixed pool can take a new kernel now."""
        fixed = self.fixed
        if self._injector is not None:
            # runtime reaction, paper Figure 7: consult the idle/busy
            # register file before dispatching to the fixed pool; some
            # bank reads idle iff busy + lost units are below all_busy_at
            pool = fixed.pool
            if pool.capacity_units == 0:
                return False
            if pool.n_units - pool.free_units >= self._registers.all_busy_at:
                return False
        if self.policy.operation_pipeline:
            return fixed.pool.free_units > 0
        return fixed.token_holder is None

    def _try_start(self, task: _Task) -> bool:
        op = task.op
        if op is None:
            place = "staging"
        else:
            if task.degraded:
                places = task.places
            else:
                places = task.allowed
                if places is None:
                    # A faulted run guards each op at its first start
                    # attempt, at the DRAM scale live then; only
                    # non-degraded tasks use the guard, and their
                    # placements are the op's table placements.
                    oid = id(op)
                    memo = self._allowed_memo
                    places = memo.get(oid)
                    if places is None:
                        _, table_places, _, allowed = self._table.entries[oid]
                        scale = self._dram_scale
                        if scale == 1.0:  # the table's guard entry
                            places = memo[oid] = allowed
                        else:
                            places = memo[oid] = self._table.guarded(
                                op, table_places, scale
                            )
                    task.allowed = places
            # A deprioritized (co-run tenant) task only consumes *idle*
            # capacity: it never jumps ahead of primary work queued for a
            # device (the ready list is already priority-ordered, so primary
            # tasks get the first claim on freed slots each round).
            background = task.priority > 0
            for place in places:
                if place == "cpu":
                    if self.cpu.try_acquire():
                        break
                elif place == "gpu":
                    if self.gpu.try_acquire():
                        break
                elif place == "prog":
                    if background and self._slot_waiters["prog"]:
                        continue
                    prog = self.prog
                    free = prog.free_slots
                    if free > 0:
                        gang = min(task.row.gang, free)
                        if prog.try_acquire(gang):
                            break
                elif place in _FIXED_PLACES:
                    # in exclusive (no-OP) mode the kernel takes the token
                    if self._fixed_open() and self.fixed.try_take_token(task.uid):
                        break
            else:
                return False
        device = _DEVICE[place]
        now = self.engine.now
        task.device = device
        task.start_s = now
        started = self._tasks_started
        started[device] = started.get(device, 0) + 1
        wait = now - task.ready_s
        if wait > 0:
            self._queue_wait[device] = self._queue_wait.get(device, 0.0) + wait
        row = task.row
        usage = self.usage
        if place == "cpu":
            operation_s, exposed_s = row.cpu
            usage.external_bytes += row.op.host_traffic_bytes
            recipe = (COMPUTE, operation_s, DATA_MOVEMENT, exposed_s)
            slots = 1
        elif place == "gpu":
            recipe = (COMPUTE, row.gpu_total)
            usage.gpu_bytes += row.op.traffic_bytes
            slots = 1
        elif place == "prog":
            # whole kernel on ``gang`` programmable PIM(s) (binary #4): the
            # Progr-PIM baseline gangs several ARM PIMs on one wide
            # operation ("as many ARM-based programmable cores as needed",
            # section VI); the heterogeneous system uses a single PIM
            flops, full_gang, duration, traffic = row.prog
            scale = self._dram_scale
            if gang != full_gang or scale != 1.0:
                duration = self._table.prog_phase(flops / gang, traffic, scale)
            usage.internal_bytes += row.op.traffic_bytes
            launch_s = self.config.prog_pim.host_launch_overhead_s
            recipe = (SYNC, launch_s, COMPUTE, duration)
            slots = gang
        elif place == "staging":
            usage.external_bytes += self.graph.input_bytes
            recipe = (DATA_MOVEMENT, self._table.staging_s)
            slots = 0
        else:
            self._start_kernel(task, place)
            return True
        device = self._slot_devices.get(device) if slots else None
        Phases(self, recipe, device, slots, partial(self._finish, task)).run()
        return True

    def _start_kernel(self, task: _Task, place: str) -> None:
        """A FIXED op ("fixed": host-coordinated MAC chunks on the pool) or
        a HYBRID op as a recursive PIM kernel (Figure 6), its complex phases
        on the programmable PIM ("hybrid") or the host CPU ("hybrid_host",
        the Fixed-PIM baseline).  A complex phase holds an executor slot for
        its own duration only; orchestrating the sub-kernels holds none (the
        PIM-side runtime is an event loop — section IV-C).  Each phase first
        pays its launch cost: one micro-kernel dispatch per sub-kernel quota
        for MAC phases, one for complex phases; the first (and, without
        recursive kernels, every) dispatch is a host round trip."""
        self.fixed.window_enter()
        if place == "fixed":
            self.usage.internal_bytes += task.row.op.traffic_bytes
            kernel = KernelRun(self, task, task.row.fixed_plan, None)
        else:
            complex_on = "prog" if place == "hybrid" else "cpu"
            kernel = KernelRun(self, task, task.row.hybrid_plan, complex_on)
        kernel.next_row()

    def _release_slot(self, device: SlotDevice, n: int = 1) -> None:
        device.release(n)
        self._freed.add(device.name)
        waiters = self._slot_waiters[device.name]
        while waiters and device.free_slots > 0:
            attempt, on_dead = waiters.pop(0)
            if not attempt():
                waiters.insert(0, (attempt, on_dead))
                break
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.engine.defer(self._drain)

    # ------------------------------------------------------------------
    # fault reaction (capacity changes; see repro.faults)
    # ------------------------------------------------------------------
    def _degrade_fixed_task(self, task: _Task) -> None:
        """Unwind a fixed/hybrid operation and re-place it entirely.

        The degradation chain is fixed-function PIM -> programmable PIM ->
        CPU: the op restarts from scratch on the best surviving device, so
        a training step always completes.
        """
        self.fixed.drop_token(task.uid)
        self.fixed.window_exit()
        now = self.engine.now
        places = ("prog", "cpu") if self.prog.effective_slots > 0 else ("cpu",)
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
            dead_places.update(_FIXED_PLACES)
        if prog_dead:
            dead_places.add("prog")
        retargeted = 0
        for task in self._tasks:
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
        step_time = _steady([self._step_end[s] for s in sorted(self._step_end)])
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
        for device, count in sorted(self._tasks_started.items()):
            registry.gauge(f"sched.started.{device}").set(count)
        for device, wait in sorted(self._queue_wait.items()):
            registry.gauge(f"sched.queue_wait_s.{device}").set(wait)
        if self._injector is not None:
            self._injector.publish_metrics(registry)

    def _per_model_step_times(self) -> Optional[Dict[str, float]]:
        if self._model_step_remaining is None:
            return None
        ends_of: Dict[str, List[float]] = {}
        for (model, _step), end in sorted(
            self._model_step_end.items(), key=lambda kv: kv[0][1]
        ):
            ends_of.setdefault(model, []).append(end)
        return {model: _steady(ends) for model, ends in ends_of.items()}


def _steady(ends: List[float]) -> float:
    """Steady-state step time from step end times (in step order): the
    warm-up ramp of the first step is excluded."""
    if len(ends) == 1:
        return ends[0]
    return (ends[-1] - ends[0]) / (len(ends) - 1)
