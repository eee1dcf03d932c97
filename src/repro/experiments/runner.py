"""Crash-safe parallel experiment runner: a supervised process pool.

The evaluation is dozens of mutually independent (graph, policy, config)
simulations.  :func:`run_jobs` takes one batch of them, answers the cached
ones from the content-addressed cache (:mod:`repro.sim.cache`), runs the
rest on worker processes, stores them, and returns every result in job
order.  An experiment lists each stage's points once, renders from the
returned list, and never depends on which process computed a point, so
rendered artifacts are byte-identical whatever the worker count.

Unlike a bare ``pool.map``, the batch is **supervised** — one bad job
cannot take the evaluation down with it:

* jobs are submitted individually, at most one per worker, so every
  in-flight job has a known start time;
* a per-job watchdog (``REPRO_JOB_TIMEOUT`` seconds, 0/unset = off) kills
  the pool and retries when a job hangs;
* a crashed worker (``BrokenProcessPool`` — e.g. a ``kill -9`` or a
  segfault) triggers a pool respawn; the jobs that were in flight are
  re-run **one at a time** so the actual crasher is identified without
  ever quarantining an innocent neighbour;
* transient failures are retried with capped exponential backoff
  (``REPRO_JOB_RETRIES`` attempts beyond the first, default 2; base delay
  ``REPRO_RETRY_BACKOFF`` seconds doubling up to :data:`BACKOFF_CAP_S`);
* jobs that exhaust their budget are **quarantined** — recorded with
  fingerprint, failure kind and last exception — and the rest of the
  batch still completes.  :func:`run_jobs` then raises
  :class:`~repro.errors.PoisonJob` describing them.

SIGINT/SIGTERM interrupt the batch *gracefully*: completed results are
already stored in the cache when :class:`~repro.errors.Interrupted` is
raised, so re-running the same command picks the batch back up (every
finished job is a free cache hit).

Worker count resolution (first match wins): :func:`set_jobs` (the CLI's
top-level ``--jobs`` flag calls this); the ``REPRO_JOBS`` environment
variable; 1 — everything stays in-process, no pool is spawned.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..chaos import injector as _chaos
from ..config import SystemConfig
from ..errors import Interrupted, JobTimeout, PoisonJob
from ..nn.graph import Graph
from ..obs.report import BatchSupervision
from ..sim import cache as sim_cache
from ..sim.policy import SchedulingPolicy
from ..sim.results import RunResult

#: One simulation job: ``(graph, policy, config, steps)`` — a 4-tuple —
#: or the 5-tuple form with a trailing :class:`~repro.faults.FaultSpec`
#: (or ``None``).  :func:`run_jobs` accepts both; internally everything
#: is normalized to the 5-slot form.
Job = Union[
    Tuple[Graph, SchedulingPolicy, SystemConfig, Optional[int]],
    Tuple[Graph, SchedulingPolicy, SystemConfig, Optional[int], object],
]

#: Ceiling of the exponential retry backoff.
BACKOFF_CAP_S = 5.0

#: How often the supervisor wakes to check deadlines and signals.
_POLL_S = 0.05


def _normalize(job: Job):
    """Pad a 4-tuple job to the 5-slot (graph, policy, config, steps,
    faults) form; fault specs are frozen dataclasses, hence picklable."""
    if len(job) == 4:
        return (*job, None)
    if len(job) == 5:
        return tuple(job)
    raise ValueError(f"job must have 4 or 5 elements, got {len(job)}")

_jobs_override: Optional[int] = None


def set_jobs(n: Optional[int]) -> None:
    """Set the worker count programmatically (None reverts to the env)."""
    global _jobs_override
    if n is not None and n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    _jobs_override = n


def get_jobs() -> int:
    """Resolved worker count (>= 1)."""
    if _jobs_override is not None:
        return _jobs_override
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}")
    return 1


def _env_float(name: str, default: float) -> float:
    text = os.environ.get(name, "").strip()
    if not text:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def job_timeout() -> float:
    """Per-job watchdog in seconds (``REPRO_JOB_TIMEOUT``; 0 disables)."""
    return _env_float("REPRO_JOB_TIMEOUT", 0.0)


def job_retries() -> int:
    """Retries beyond the first attempt (``REPRO_JOB_RETRIES``)."""
    return int(_env_float("REPRO_JOB_RETRIES", 2.0))


def retry_backoff() -> float:
    """Base retry delay in seconds (``REPRO_RETRY_BACKOFF``)."""
    return _env_float("REPRO_RETRY_BACKOFF", 0.05)


_last_supervision: Optional[BatchSupervision] = None


def last_supervision() -> Optional[BatchSupervision]:
    """Supervision counts of the most recent :func:`run_jobs` batch."""
    return _last_supervision


# ---------------------------------------------------------------------------
# graceful signals
# ---------------------------------------------------------------------------
@contextmanager
def _graceful_interrupt(stop: threading.Event):
    """Turn the first SIGINT/SIGTERM into a stop flag (second one is
    immediate).  No-op outside the main thread, where the default
    handling stays in force."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    seen = {"count": 0}

    def _handler(signum, frame):
        seen["count"] += 1
        stop.set()
        if seen["count"] > 1:  # second signal: stop being graceful
            raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        previous[signum] = signal.signal(signum, _handler)
    try:
        yield
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)


def _ignore_sigint():
    """Worker initializer: the parent alone decides how Ctrl-C ends a
    batch; workers must not die mid-write from a terminal signal."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


# ---------------------------------------------------------------------------
# supervision
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobFailure:
    """One quarantined job: why the supervisor gave up on it."""

    index: int  # position in the submitted batch
    key: str  # content fingerprint (or synthetic key)
    kind: str  # "crash" | "timeout" | "error"
    error: str  # repr of the last failure
    attempts: int


@dataclass
class BatchOutcome:
    """What a supervised batch produced (quarantined slots are None)."""

    results: List[Optional[object]]
    supervision: BatchSupervision
    failures: List[JobFailure] = field(default_factory=list)


class _Supervisor:
    """Drives one batch through a respawnable process pool."""

    def __init__(
        self,
        fn: Callable,
        tasks: Sequence,
        keys: Sequence[str],
        n_workers: int,
        on_result: Optional[Callable[[int, object], None]],
    ):
        self.fn = fn
        self.tasks = list(tasks)
        self.keys = list(keys)
        self.n_workers = n_workers
        self.on_result = on_result
        self.timeout = job_timeout()
        self.max_attempts = job_retries() + 1
        self.backoff = retry_backoff()
        n = len(self.tasks)
        self.results: List[Optional[object]] = [None] * n
        self.settled = [False] * n  # completed or quarantined
        self.attempts = [0] * n
        self.not_before = [0.0] * n
        self.last_error = [""] * n
        self.pending = deque(range(n))
        self.solo = deque()  # suspects re-run one at a time
        self.inflight = {}  # future -> (index, started_monotonic, is_probe)
        self.pool: Optional[ProcessPoolExecutor] = None
        self.failures: List[JobFailure] = []
        self.completed = 0
        self.retries = 0
        self.timeouts = 0
        self.crashes = 0
        self.respawns = 0
        self.stop = threading.Event()
        self.interrupted = False

    # -- pool lifecycle ----------------------------------------------
    def _ensure_pool(self) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(
                max_workers=self.n_workers, initializer=_ignore_sigint
            )

    def _kill_pool(self) -> None:
        """Tear the pool down hard (hung/broken workers included)."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # -- bookkeeping -------------------------------------------------
    def _settle_ok(self, index: int, result) -> None:
        self.results[index] = result
        self.settled[index] = True
        self.completed += 1
        if self.on_result is not None:
            self.on_result(index, result)

    def _charge(self, index: int, kind: str, error: BaseException) -> None:
        """Charge a failed attempt; requeue with backoff or quarantine."""
        self.attempts[index] += 1
        self.last_error[index] = repr(error)
        if kind == "timeout":
            self.timeouts += 1
        if self.attempts[index] >= self.max_attempts:
            failure = JobFailure(
                index=index,
                key=self.keys[index],
                kind=kind,
                error=self.last_error[index],
                attempts=self.attempts[index],
            )
            self.failures.append(failure)
            self.settled[index] = True
            return
        self.retries += 1
        delay = min(
            BACKOFF_CAP_S, self.backoff * (2 ** (self.attempts[index] - 1))
        )
        self.not_before[index] = time.monotonic() + delay
        # a crasher retries in isolation; errors/timeouts rejoin the queue
        (self.solo if kind == "crash" else self.pending).append(index)

    # -- scheduling --------------------------------------------------
    def _submit(self, index: int, is_probe: bool) -> None:
        self._ensure_pool()
        try:
            future = self.pool.submit(self.fn, self.tasks[index])
        except BrokenExecutor:
            # pool died between checks: respawn and let the next _fill
            # pick the job up again (uncharged — nothing actually ran)
            self.solo.appendleft(index)
            self.inflight.clear()
            self._kill_pool()
            self.respawns += 1
            return
        self.inflight[future] = (index, time.monotonic(), is_probe)

    def _fill(self) -> None:
        now = time.monotonic()
        if self.solo:
            # isolation mode: exactly one suspect in flight, nothing
            # else — a pool break then has an unambiguous culprit
            if self.inflight:
                return
            for _ in range(len(self.solo)):
                index = self.solo.popleft()
                if self.not_before[index] <= now:
                    self._submit(index, is_probe=True)
                    return
                self.solo.append(index)
            return
        rotated = 0
        while self.pending and len(self.inflight) < self.n_workers:
            if rotated >= len(self.pending):
                return  # everything left is in backoff
            index = self.pending.popleft()
            if self.not_before[index] > now:
                self.pending.append(index)
                rotated += 1
                continue
            self._submit(index, is_probe=False)

    def _on_pool_break(self) -> None:
        """A worker died.  A lone isolation probe is definitively the
        crasher and gets charged; otherwise every in-flight job becomes a
        suspect, to be re-run one at a time against a fresh pool."""
        self.crashes += 1
        victims = list(self.inflight.values())
        self.inflight.clear()
        if len(victims) == 1 and victims[0][2]:
            index = victims[0][0]
            self._charge(
                index,
                "crash",
                RuntimeError("worker process died (BrokenProcessPool)"),
            )
        else:
            for index, _t0, _probe in victims:
                self.solo.append(index)
        self._kill_pool()
        self.respawns += 1

    def _expire_timeouts(self) -> None:
        if not self.timeout:
            return
        now = time.monotonic()
        expired = {
            future: index
            for future, (index, t0, _probe) in self.inflight.items()
            if now - t0 > self.timeout
        }
        if not expired:
            return
        for future, index in expired.items():
            self.inflight.pop(future, None)
            self._charge(
                index,
                "timeout",
                JobTimeout(
                    f"job {self.keys[index]} exceeded "
                    f"REPRO_JOB_TIMEOUT={self.timeout:g}s"
                ),
            )
        # the hung worker is unreachable: kill the pool; co-scheduled
        # victims requeue without being charged an attempt
        for index, _t0, _probe in self.inflight.values():
            self.pending.appendleft(index)
        self.inflight.clear()
        self._kill_pool()
        self.respawns += 1

    # -- main loop ---------------------------------------------------
    def run(self) -> BatchOutcome:
        try:
            with _graceful_interrupt(self.stop):
                self._loop()
        finally:
            self._kill_pool()
        if self.stop.is_set():
            self.interrupted = True  # signal at any point stops the batch
        supervision = BatchSupervision(
            submitted=len(self.tasks),
            cached=0,
            completed=self.completed,
            retries=self.retries,
            timeouts=self.timeouts,
            crashes=self.crashes,
            respawns=self.respawns,
            quarantined=tuple(f.key for f in self.failures),
            interrupted=self.interrupted,
        )
        return BatchOutcome(
            results=self.results,
            supervision=supervision,
            failures=self.failures,
        )

    def _loop(self) -> None:
        while not all(self.settled):
            if self.stop.is_set():
                self.interrupted = True
                return
            self._fill()
            if not self.inflight:
                time.sleep(0.01)  # everything is backing off
                continue
            done, _ = wait(
                list(self.inflight),
                timeout=_POLL_S,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                entry = self.inflight.pop(future, None)
                if entry is None:
                    continue
                index = entry[0]
                try:
                    result = future.result()
                except BrokenExecutor:
                    # leave it in flight: _on_pool_break sweeps the whole
                    # in-flight set (every sibling future is doomed too)
                    broken = True
                    self.inflight[future] = entry
                except BaseException as exc:  # noqa: BLE001 - job error
                    self._charge(index, "error", exc)
                else:
                    self._settle_ok(index, result)
            if broken:
                self._on_pool_break()
            else:
                self._expire_timeouts()


def supervise(
    fn: Callable,
    tasks: Sequence,
    keys: Optional[Sequence[str]] = None,
    *,
    n_workers: Optional[int] = None,
    on_result: Optional[Callable[[int, object], None]] = None,
) -> BatchOutcome:
    """Run ``fn`` over ``tasks`` under the supervised pool.

    ``fn`` and every task must be picklable.  ``keys`` names each task in
    failure reports (defaults to ``job-<i>``).  Never raises
    for job failures — inspect ``outcome.failures``; raises
    :class:`~repro.errors.Interrupted` on SIGINT/SIGTERM.
    """
    tasks = list(tasks)
    if keys is None:
        keys = [f"job-{i}" for i in range(len(tasks))]
    if len(keys) != len(tasks):
        raise ValueError(
            f"{len(keys)} keys for {len(tasks)} tasks"
        )
    workers = n_workers if n_workers is not None else get_jobs()
    workers = max(1, min(workers, len(tasks))) if tasks else 1
    supervisor = _Supervisor(fn, tasks, keys, workers, on_result)
    outcome = supervisor.run()
    global _last_supervision
    _last_supervision = outcome.supervision
    if supervisor.interrupted:
        raise Interrupted(
            "batch interrupted by signal; completed results are cached"
        )
    return outcome


# ---------------------------------------------------------------------------
# simulation batches
# ---------------------------------------------------------------------------
def _worker(job: Job) -> RunResult:
    """Simulate one normalized job (module-level: must be picklable).

    Computes only: :func:`run_jobs` fingerprinted the job and found it
    missing, and the parent stores the result.
    """
    _chaos.maybe_kill("worker.kill")
    graph, policy, config, steps, faults = job
    result, _ = sim_cache.simulate_fresh(
        graph,
        policy,
        config,
        steps,
        faults=faults,
        validate=sim_cache.validation_enabled(),
    )
    return result


def _job_meta(job: Job, result: RunResult) -> Dict:
    """Repair metadata for a parent-side cache store of ``result``."""
    graph, _policy, config, _steps, faults = job
    return sim_cache.object_meta(result, graph, config, faults=faults)


def run_jobs(jobs: Sequence[Job]) -> List[RunResult]:
    """Run every job under supervision; parallel when ``get_jobs() > 1``.

    Each job is fingerprinted once and each distinct fingerprint looked
    up once; the first job of each uncached fingerprint runs, and the
    parent stores its result.  The returned list, in job order, holds the
    results those steps produced — nothing is read back.  It is identical
    to serial execution: each simulation is single-process deterministic,
    and the pool adds no shared state beyond the result cache.  Under
    ``REPRO_VALIDATE`` each cache hit gets the result-level invariant
    checks (a fresh run gets the full checks as it runs).  Raises
    :class:`~repro.errors.PoisonJob` if any job was quarantined (after the
    rest of the batch completed) and :class:`~repro.errors.Interrupted` on
    SIGINT/SIGTERM.
    """
    global _last_supervision
    jobs = [_normalize(job) for job in jobs]
    prints = [
        sim_cache.run_fingerprint(g, p, c, s, faults=f)
        for g, p, c, s, f in jobs
    ]
    found: Dict[str, Optional[RunResult]] = {}
    pending: List[int] = []  # the first job of each uncached fingerprint
    for i, fp in enumerate(prints):
        if fp not in found:
            found[fp] = sim_cache.get(fp)
            if found[fp] is None:
                pending.append(i)
    hits = {fp: result for fp, result in found.items() if result is not None}
    if hits and sim_cache.validation_enabled():
        from ..validate.invariants import check_result

        for result in hits.values():
            check_result(result)
    n_workers = min(get_jobs(), max(1, len(pending)))

    def store(k: int, result: RunResult) -> None:
        i = pending[k]
        sim_cache.put(prints[i], result, meta=_job_meta(jobs[i], result))
        found[prints[i]] = result

    tasks = [jobs[i] for i in pending]
    failures: List[JobFailure] = []
    if pending and n_workers <= 1:
        supervision = _run_serial(tasks, store)
    elif pending:
        outcome = supervise(
            _worker,
            tasks,
            keys=[prints[i] for i in pending],
            n_workers=n_workers,
            on_result=store,
        )
        failures = outcome.failures
        supervision = outcome.supervision
    else:
        supervision = BatchSupervision(submitted=0)
    _last_supervision = BatchSupervision(
        submitted=len(jobs),
        cached=len(jobs) - len(pending),
        completed=supervision.completed,
        retries=supervision.retries,
        timeouts=supervision.timeouts,
        crashes=supervision.crashes,
        respawns=supervision.respawns,
        quarantined=supervision.quarantined,
        interrupted=supervision.interrupted,
    )
    if failures:
        lines = ", ".join(
            f"{f.key[:12]} ({f.kind} after {f.attempts} attempts: {f.error})"
            for f in failures
        )
        raise PoisonJob(
            f"{len(failures)} of {len(jobs)} jobs quarantined — batch "
            f"completed without them: {lines}",
            failures=failures,
        )
    return [found[fp] for fp in prints]


def _run_serial(tasks, on_result) -> BatchSupervision:
    """In-process path: no pool, but still interruptible."""
    stop = threading.Event()
    completed = 0
    interrupted = False
    with _graceful_interrupt(stop):
        for k, task in enumerate(tasks):
            if stop.is_set():
                interrupted = True
                break
            on_result(k, _worker(task))
            completed += 1
        else:
            interrupted = stop.is_set()
    supervision = BatchSupervision(
        submitted=len(tasks),
        completed=completed,
        interrupted=interrupted,
    )
    if interrupted:
        global _last_supervision
        _last_supervision = supervision
        raise Interrupted(
            "batch interrupted by signal; completed results are cached"
        )
    return supervision
