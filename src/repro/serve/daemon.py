"""The ``repro serve`` daemon: simulation-as-a-service over HTTP/JSON.

One long-lived asyncio process turns every existing subsystem into a
multi-tenant serving primitive:

* ``POST /v1/simulate`` — validate (:mod:`repro.serve.protocol`), find
  the request's content fingerprint (:meth:`repro.api.Session.fingerprint`)
  and either serve the stored report, join an identical in-flight
  request, or admit it against the tenant's token bucket
  (:mod:`repro.serve.quota`) and enqueue.  The fingerprint is computed
  in a thread only the first time a run key is seen (it may build the
  model graph); every repeat takes it from an in-memory id memo, so a
  store hit never leaves the event loop.  A worker pool drains a
  priority queue and runs each request in a thread through
  :meth:`repro.api.Session.simulate`, which shares the process-wide
  memory+disk result cache across tenants;
* **dedup** — identical in-flight requests (same fingerprint) run the
  simulation once and fan the finished report out to every waiter;
* **durability** — accepted requests are journaled
  (:mod:`repro.serve.journal`) before they are
  queued and marked ``done`` after the canonical report JSON is written
  atomically to ``<cache-dir>/serve/reports/v2/``.  A daemon killed at any
  instant therefore restarts into a consistent world: finished reports
  re-serve **byte-identically** from the store, and accepted-but-unserved
  requests are recovered from the journal and re-enqueued;
* ``GET /v1/report/<id>`` / ``GET /v1/trace/<id>`` / ``GET /v1/backends``
  / ``GET /v1/healthz`` — stored artifacts, request-lifecycle Chrome
  traces, the hardware-backend registry, and live serving statistics
  (queue depth, per-endpoint counters, latency histograms with p50/p99,
  cache and quota state);
* **overload protection** — a bounded admission queue sheds excess load
  (503 + ``Retry-After`` derived from queue depth and warm p99) instead
  of queueing unboundedly; per-request deadlines
  (``X-Repro-Deadline-Ms``) answer expired queued requests 504 *before*
  they consume a worker; and a circuit breaker trips erroring exact
  simulation over to surrogate-estimate serving tagged
  ``X-Repro-Degraded: surrogate`` (estimates are never stored — the
  exact report is recomputed once the breaker closes);
* **integrity** — a stored report is framed like a cache object
  (:func:`repro.sim.cache.frame`): one JSON head line holding a sha256
  of the rest of the file and the request as ``meta``, then the report
  bytes.  Every store hit checks the digest; a mismatch quarantines the
  file and recomputes the request, so corrupt bytes are never served
  (see :mod:`repro.sim.fsck` for the offline audit and repair);
* **graceful drain** — SIGTERM/SIGINT stops accepting connections,
  finishes every queued request, journals ``complete`` and exits 0.

Everything is stdlib: ``asyncio.start_server`` plus the minimal HTTP/1.1
layer in :mod:`repro.serve.http`.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from .. import api
from ..chaos import injector as _chaos
from ..errors import (
    CorruptObjectError,
    ExecutionError,
    ProtocolError,
    ReproError,
)
from ..obs.metrics import GLOBAL_REGISTRY, MetricsRegistry
from ..sim import cache as sim_cache
from ..sim.results import canonical_dumps
from .http import Request, read_request, render_response
from .journal import RunJournal, list_runs, new_run_id
from .protocol import (
    SERVE_SCHEMA,
    SimulateRequest,
    build_simulate_request,
    error_body,
    parse_simulate_request,
)
from .quota import QuotaTable

#: Latency-histogram bucket bounds (milliseconds).
_LATENCY_BUCKETS = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
    500.0, 1000.0, 2500.0, 5000.0, 15000.0, 60000.0,
)

#: Header carrying a per-request deadline budget in milliseconds.
DEADLINE_HEADER = "x-repro-deadline-ms"

#: Report store directory, relative to the cache root.  It is namespaced
#: by the file format, so reports of an older layout sit outside it
#: (``repro cache fsck`` counts them ``legacy``).
REPORTS_DIR = "serve/reports/v%d" % sim_cache.OBJECT_FORMAT


def report_file(request_id: str) -> str:
    """Path of one stored report as a string (what a store hit opens)."""
    return "%s/%s/%s/%s.json" % (
        sim_cache.cache_root(), REPORTS_DIR, request_id[:2], request_id
    )


@dataclass
class _Pending:
    """One accepted request on its way through the queue."""

    request: SimulateRequest
    request_id: str
    future: "asyncio.Future[Tuple[int, bytes]]"
    received_s: float
    dedup: int = 0
    started_s: Optional[float] = None
    #: Absolute expiry (daemon-relative seconds) or None for no deadline.
    deadline_s: Optional[float] = None
    #: Set when the response was served from the surrogate under a
    #: tripped breaker (tags ``X-Repro-Degraded: surrogate``).
    degraded: bool = False


@dataclass
class ServeStats:
    """Mutable single-writer counters outside the metrics registry."""

    accepted: int = 0
    completed: int = 0
    failed: int = 0
    recovered: int = 0


class ServeDaemon:
    """The asyncio serving loop.  See the module docstring for the
    contract; see :func:`start_in_thread` for the embedded test/bench
    harness."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        quota_rate: float = 0.0,
        quota_burst: Optional[float] = None,
        resume: bool = True,
        max_queue: int = 0,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 30.0,
        registry: Optional[MetricsRegistry] = None,
        on_start: Optional[Callable[["ServeDaemon"], None]] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self.workers = workers
        self.quotas = QuotaTable(quota_rate, quota_burst)
        self.resume = resume
        #: Admission-queue bound; 0 disables shedding (unbounded queue).
        self.max_queue = max_queue
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_s = breaker_reset_s
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.stats = ServeStats()
        self.on_start = on_start
        self._t0 = time.monotonic()
        self._server: Optional[asyncio.base_events.Server] = None
        self._queue: "asyncio.PriorityQueue" = asyncio.PriorityQueue()
        self._seq = 0
        self._inflight: Dict[str, _Pending] = {}
        self._lifecycle: Dict[str, Dict[str, object]] = {}
        #: request id of every run key seen (``SimulateRequest.run_key``);
        #: like ``_lifecycle`` it grows only with distinct requests
        self._request_ids: Dict[Tuple[object, ...], str] = {}
        self._sessions: Dict[str, api.Session] = {}
        self._worker_tasks: List[asyncio.Task] = []
        self._journal: Optional[RunJournal] = None
        self._journal_lock = threading.Lock()
        self._stopped = asyncio.Event()
        self._draining = False
        self._queue_peak = 0
        # Circuit breaker over exact simulation: consecutive worker
        # errors (never client 400s) trip it open for breaker_reset_s.
        self._breaker_failures = 0
        self._breaker_open_until: Optional[float] = None

    # -- small helpers --------------------------------------------------
    def _now(self) -> float:
        """Seconds since daemon start (lifecycle/trace time base)."""
        return time.monotonic() - self._t0

    def _session(self, tenant: str) -> api.Session:
        session = self._sessions.get(tenant)
        if session is None:
            session = self._sessions[tenant] = api.Session(tenant)
        return session

    @staticmethod
    def report_path(request_id: str) -> Path:
        """Durable location of one finished report (content-addressed)."""
        return Path(report_file(request_id))

    def _counter(self, name: str):
        return self.metrics.counter(name)

    def _set_queue_depth(self) -> None:
        self.metrics.gauge("serve.queue_depth").set(self._queue.qsize())

    def _journal_record(self, *args, **kwargs) -> None:
        if self._journal is None:
            return
        with self._journal_lock:
            self._journal.record_job(*args, **kwargs)

    # -- overload protection ---------------------------------------------
    def _retry_after_s(self) -> int:
        """Advisory client back-off: how long until the current queue has
        drained through the worker pool, at the observed warm p99 (with a
        floor so a cold daemon still answers something sane)."""
        p99_s = (
            self.metrics.histogram(
                "serve.latency_ms.simulate", _LATENCY_BUCKETS
            ).quantile(0.99)
            / 1e3
        )
        per_request = max(p99_s, 0.05)
        depth = self._queue.qsize()
        return max(1, math.ceil(depth * per_request / self.workers))

    def _breaker_open(self) -> bool:
        """True while exact simulation is tripped over to the surrogate.

        Past the reset interval the breaker goes half-open: the next
        request probes the exact path, and a single further failure
        re-opens it immediately.
        """
        if self._breaker_open_until is None:
            return False
        if self._now() < self._breaker_open_until:
            return True
        self._breaker_open_until = None
        self._breaker_failures = max(0, self.breaker_threshold - 1)
        return False

    def _note_breaker(self, ok: bool) -> None:
        if ok:
            self._breaker_failures = 0
            return
        self._breaker_failures += 1
        if (
            self._breaker_failures >= self.breaker_threshold
            and self._breaker_open_until is None
        ):
            self._breaker_open_until = self._now() + self.breaker_reset_s
            self._counter("serve.breaker_trips").inc()

    # -- lifecycle records ----------------------------------------------
    def _record_lifecycle(
        self, pending: _Pending, *, status: str, finished: bool
    ) -> None:
        req = pending.request
        self._lifecycle[pending.request_id] = {
            "id": pending.request_id,
            "tenant": req.tenant,
            "model": req.model,
            "config": req.config,
            "backend": req.backend,
            "received_s": pending.received_s,
            "started_s": pending.started_s,
            "finished_s": self._now() if finished else None,
            "status": status,
            "dedup": pending.dedup,
        }

    # -- startup / recovery ---------------------------------------------
    async def start(self) -> None:
        """Bind, recover journaled work, spawn the worker pool."""
        recovered = self._recover_journaled_requests() if self.resume else []
        try:
            self._journal = RunJournal.create(
                "serve",
                {"host": self.host, "workers": self.workers},
                run_id=f"serve-{new_run_id()}",
            )
        except ExecutionError:
            self._journal = None  # e.g. read-only cache dir: still serve
        for request in recovered:
            self._admit(
                request, charge_quota=False, recovered=True, bounded=False
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(self.workers)
        ]
        if self.on_start is not None:
            self.on_start(self)

    def _recover_journaled_requests(self) -> List[SimulateRequest]:
        """Re-admit accepted-but-unserved requests from crashed daemons.

        Every incomplete ``serve`` journal is scanned: requests journaled
        ``accepted`` with neither a ``done`` line nor a stored report are
        rebuilt through the same validation as the HTTP path.  Each
        scanned journal is then marked settled so a crash loop cannot
        re-recover it forever.
        """
        recovered: List[SimulateRequest] = []
        seen_ids = set()
        for run_id in list_runs():
            try:
                old = RunJournal.load(run_id)
            except ExecutionError:
                continue
            if old.header.get("kind") != "serve" or old.is_complete():
                continue
            done = old.completed_fingerprints()
            for line in old.lines:
                if line.get("event") != "job":
                    continue
                if line.get("status") != "accepted":
                    continue
                request_id = line.get("fp")
                spec = line.get("request")
                if (
                    not request_id
                    or request_id in seen_ids
                    or request_id in done
                    or not isinstance(spec, dict)
                    or self.report_path(request_id).is_file()
                ):
                    continue
                try:
                    recovered.append(build_simulate_request(spec, {}))
                    seen_ids.add(request_id)
                except ProtocolError:
                    continue  # schema drift across versions: drop it
            try:
                old.record_event("complete", resumed=True)
                old.close()
            except OSError:
                pass
        self.stats.recovered = len(recovered)
        return recovered

    # -- serving loop ----------------------------------------------------
    async def run(self) -> None:
        """Start, install signal handlers, serve until shut down."""
        await self.start()
        loop = asyncio.get_running_loop()
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(self.shutdown()),
                    )
                except (NotImplementedError, RuntimeError):
                    pass
        await self._stopped.wait()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain the queue, journal, exit."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            await self._queue.join()
        for task in self._worker_tasks:
            task.cancel()
        await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        for pending in list(self._inflight.values()):
            if not pending.future.done():
                pending.future.set_result(
                    (503, error_body(503, "daemon shutting down"))
                )
        self._inflight.clear()
        if self._journal is not None:
            with self._journal_lock:
                self._journal.record_event(
                    "complete",
                    served=self.stats.completed,
                    failed=self.stats.failed,
                )
                self._journal.close()
            self._journal = None
        self._stopped.set()

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(
                    render_response(exc.status, error_body(exc.status, str(exc)))
                )
                await writer.drain()
                return
            if request is None:
                return
            status, body, headers = await self._route(request)
            self._counter(f"serve.responses.{status}").inc()
            writer.write(
                render_response(status, body, extra_headers=headers)
            )
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(
        self, request: Request
    ) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        t_start = time.monotonic()
        path = request.path
        if path == "/v1/simulate":
            endpoint = "simulate"
            if request.method != "POST":
                return 405, error_body(405, "use POST /v1/simulate"), []
            outcome = await self._handle_simulate(request)
        elif path == "/v1/healthz":
            endpoint = "healthz"
            outcome = self._handle_healthz()
        elif path == "/v1/backends":
            endpoint = "backends"
            outcome = self._handle_backends()
        elif path.startswith("/v1/report/"):
            endpoint = "report"
            outcome = self._handle_report(path[len("/v1/report/"):])
        elif path == "/v1/trace" or path.startswith("/v1/trace/"):
            endpoint = "trace"
            outcome = self._handle_trace(path[len("/v1/trace"):].lstrip("/"))
        else:
            endpoint = "unknown"
            outcome = (
                404,
                error_body(
                    404,
                    f"unknown endpoint {path!r} (have: /v1/simulate, "
                    "/v1/report/<id>, /v1/trace[/<id>], /v1/backends, "
                    "/v1/healthz)",
                ),
                [],
            )
        self._counter(f"serve.requests.{endpoint}").inc()
        self.metrics.histogram(
            f"serve.latency_ms.{endpoint}", _LATENCY_BUCKETS
        ).observe((time.monotonic() - t_start) * 1e3)
        return outcome

    # -- POST /v1/simulate -----------------------------------------------
    def _admit(
        self,
        request: SimulateRequest,
        *,
        charge_quota: bool = True,
        recovered: bool = False,
        bounded: bool = True,
        request_id: Optional[str] = None,
        deadline_s: Optional[float] = None,
    ) -> Tuple[
        Optional[_Pending], Optional[Tuple[int, bytes, List[Tuple[str, str]]]]
    ]:
        """Admit one validated request (no awaits: atomic in the loop).

        Returns ``(pending, None)`` on success or ``(None, (status,
        body, headers))`` when the request is shed (503, bounded queue
        full) or the tenant is over quota (429).  Journal-recovered
        requests bypass the bound (``bounded=False``): they were already
        accepted once.
        """
        if request_id is None:
            request_id = self._request_id_sync(request)
        pending = self._inflight.get(request_id)
        if pending is not None:
            pending.dedup += 1
            self._counter("serve.dedup_hits").inc()
            # several waiters share one execution: the most permissive
            # deadline (None = none at all) governs it
            if pending.deadline_s is not None:
                pending.deadline_s = (
                    None
                    if deadline_s is None
                    else max(pending.deadline_s, deadline_s)
                )
            return pending, None
        if (
            bounded
            and self.max_queue
            and self._queue.qsize() >= self.max_queue
        ):
            retry_after = self._retry_after_s()
            self._counter("serve.shed").inc()
            return None, (
                503,
                error_body(
                    503,
                    f"admission queue is full ({self.max_queue} deep); "
                    f"retry in ~{retry_after}s",
                ),
                [("Retry-After", str(retry_after))],
            )
        if charge_quota and not self.quotas.admit(request.tenant):
            self._counter("serve.quota_rejections").inc()
            return None, (
                429,
                error_body(
                    429,
                    f"tenant {request.tenant!r} is over its request quota "
                    f"({self.quotas.rate:g}/s, burst "
                    f"{self.quotas.burst:g}); retry later",
                ),
                [],
            )
        loop = asyncio.get_running_loop()
        pending = _Pending(
            request=request,
            request_id=request_id,
            future=loop.create_future(),
            received_s=self._now(),
            deadline_s=deadline_s,
        )
        self._inflight[request_id] = pending
        self.stats.accepted += 1
        self._journal_record(
            request_id, "accepted", request=request.to_dict()
        )
        self._record_lifecycle(pending, status="queued", finished=False)
        self._seq += 1
        self._queue.put_nowait((request.priority, self._seq, pending))
        self._set_queue_depth()
        self._queue_peak = max(self._queue_peak, self._queue.qsize())
        self.metrics.gauge("serve.queue_peak").set(self._queue_peak)
        if recovered:
            self._counter("serve.recovered").inc()
        return pending, None

    def _request_id_sync(self, request: SimulateRequest) -> str:
        session = self._session(request.tenant)
        return session.fingerprint(**request.simulate_kwargs())

    def _parse_deadline(self, http_request: Request) -> Optional[float]:
        """Absolute expiry from ``X-Repro-Deadline-Ms`` (None = none)."""
        raw = http_request.header(DEADLINE_HEADER)
        if not raw:
            return None
        try:
            budget_ms = int(raw)
        except ValueError:
            raise ProtocolError(
                f"invalid {DEADLINE_HEADER} value {raw!r} "
                "(expected a positive integer of milliseconds)"
            )
        if budget_ms <= 0:
            raise ProtocolError(
                f"invalid {DEADLINE_HEADER} value {raw!r} "
                "(expected a positive integer of milliseconds)"
            )
        return self._now() + budget_ms / 1e3

    async def _handle_simulate(
        self, http_request: Request
    ) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        try:
            request = parse_simulate_request(
                http_request.body, http_request.headers
            )
            deadline_s = self._parse_deadline(http_request)
        except ProtocolError as exc:
            return exc.status, error_body(exc.status, str(exc)), []
        if self._draining:
            return 503, error_body(503, "daemon is draining"), []
        # fingerprinting builds the model graph on first sight — do it off
        # the loop, once per run key; everything after is await-free,
        # hence dedup-atomic
        run_key = request.run_key()
        request_id = self._request_ids.get(run_key)
        if request_id is None:
            try:
                request_id = await asyncio.to_thread(
                    self._request_id_sync, request
                )
            except ReproError as exc:
                return 400, error_body(400, str(exc)), []
            self._request_ids[run_key] = request_id
        id_header = [("X-Repro-Request-Id", request_id)]

        body = self._read_stored_report(request_id)
        if body is not None:
            self._counter("serve.store_hits").inc()
            return (
                200,
                body,
                id_header + [("X-Repro-Served-From", "store")],
            )

        pending, rejection = self._admit(
            request, request_id=request_id, deadline_s=deadline_s
        )
        if rejection is not None:
            return rejection[0], rejection[1], id_header + rejection[2]
        dedup = pending.request is not request
        if not request.wait:
            body = (
                json.dumps(
                    {
                        "schema": SERVE_SCHEMA,
                        "id": request_id,
                        "status": "inflight" if dedup else "queued",
                        "tenant": request.tenant,
                    },
                    sort_keys=True,
                )
                + "\n"
            ).encode()
            return 202, body, id_header
        status, body = await asyncio.shield(pending.future)
        served_from = "dedup" if dedup else "run"
        headers = id_header + [("X-Repro-Served-From", served_from)]
        if pending.degraded:
            headers.append(("X-Repro-Degraded", "surrogate"))
        return status, body, headers

    # -- worker pool -------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            _priority, _seq, pending = await self._queue.get()
            self._set_queue_depth()
            if (
                pending.deadline_s is not None
                and self._now() > pending.deadline_s
            ):
                # expired while queued: answer 504 without burning a worker
                self._counter("serve.deadline_expired").inc()
                self.stats.failed += 1
                self._record_lifecycle(
                    pending, status="expired", finished=True
                )
                self._journal_record(pending.request_id, "expired")
                self._inflight.pop(pending.request_id, None)
                if not pending.future.done():
                    pending.future.set_result(
                        (
                            504,
                            error_body(
                                504,
                                "deadline expired after "
                                f"{self._now() - pending.received_s:.3f}s "
                                "in queue",
                            ),
                        )
                    )
                self._queue.task_done()
                continue
            pending.started_s = self._now()
            self._record_lifecycle(pending, status="running", finished=False)
            try:
                status, body = await asyncio.to_thread(
                    self._execute, pending
                )
            except asyncio.CancelledError:
                self._queue.task_done()
                raise
            except BaseException as exc:  # noqa: BLE001 - worker never dies
                status, body = 500, error_body(500, repr(exc))
            # breaker accounting: only infrastructure failures (500s)
            # count — client errors (400) say nothing about our health
            if status >= 500:
                self._note_breaker(ok=False)
            elif status == 200:
                self._note_breaker(ok=True)
            if status == 200:
                self.stats.completed += 1
                self._counter("serve.completed").inc()
                self._record_lifecycle(pending, status="done", finished=True)
            else:
                self.stats.failed += 1
                self._counter("serve.errors").inc()
                self._record_lifecycle(pending, status="error", finished=True)
            self._inflight.pop(pending.request_id, None)
            if not pending.future.done():
                pending.future.set_result((status, body))
            self._queue.task_done()

    def _execute(self, pending: _Pending) -> Tuple[int, bytes]:
        """Run one request to a stored canonical report (worker thread)."""
        request = pending.request
        session = self._session(request.tenant)
        _chaos.maybe_delay("serve.execute")
        if self._breaker_open() and not request.surrogate:
            degraded = self._execute_degraded(pending)
            if degraded is not None:
                return degraded
        try:
            report = session.simulate(**request.simulate_kwargs())
        except ReproError as exc:
            self._journal_record(
                pending.request_id, "failed", error=repr(exc)
            )
            return 400, error_body(400, str(exc))
        body = (report.to_json() + "\n").encode()
        self._store_report(pending, body)
        return 200, body

    def _execute_degraded(self, pending: _Pending) -> Optional[Tuple[int, bytes]]:
        """Surrogate-estimate a request under a tripped breaker.

        Returns None when no trained surrogate can answer it (the caller
        falls back to the exact path).  Estimates are never written to
        the report store — the journal keeps the request ``accepted``, so
        the exact report is computed once the breaker closes (or after a
        restart).
        """
        request = pending.request
        session = self._session(request.tenant)
        try:
            report = session.simulate(
                **{**request.simulate_kwargs(), "surrogate": True}
            )
        except ReproError:
            return None
        info = getattr(report, "surrogate", None)
        if not isinstance(info, dict) or info.get("mode") != "surrogate":
            return None  # no trained surrogate: probe the exact path
        pending.degraded = True
        self._counter("serve.degraded").inc()
        self._journal_record(pending.request_id, "degraded")
        return 200, (report.to_json() + "\n").encode()

    def _store_report(self, pending: _Pending, body: bytes) -> None:
        """Persist one report, framed with its request (atomic, degradable).

        A store that cannot be written degrades to serving from memory
        (the journal keeps the request re-runnable) instead of failing
        the request.
        """
        data, body_offset = sim_cache.frame(body, pending.request.to_dict())
        if sim_cache.write_framed(
            self.report_path(pending.request_id),
            data,
            body_offset,
            "serve.report_write",
            pending.request_id,
        ):
            self._journal_record(pending.request_id, "done")

    def _read_stored_report(self, request_id: str) -> Optional[bytes]:
        """Stored report bytes, digest-checked — or None.

        A damaged file is quarantined and None returned, so the caller
        recomputes instead of serving corrupt bytes.
        """
        stored = report_file(request_id)
        try:
            with open(stored, "rb") as fh:
                data = fh.read()
        except OSError:
            return None
        try:
            return bytes(sim_cache.unframe(data, stored, request_id))
        except CorruptObjectError:
            self._counter("serve.report_corrupt").inc()
            GLOBAL_REGISTRY.counter("serve.corrupt_reports").inc()
            sim_cache.quarantine(Path(stored))
            return None

    # -- GET endpoints -----------------------------------------------------
    def _handle_report(
        self, request_id: str
    ) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        if not request_id or "/" in request_id or request_id.startswith("."):
            return 400, error_body(400, f"invalid report id {request_id!r}"), []
        body = self._read_stored_report(request_id)
        if body is None:
            if request_id in self._inflight:
                return (
                    202,
                    (
                        json.dumps(
                            {
                                "schema": SERVE_SCHEMA,
                                "id": request_id,
                                "status": "inflight",
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    ).encode(),
                    [],
                )
            return 404, error_body(404, f"no report {request_id!r}"), []
        return (
            200,
            body,
            [("X-Repro-Served-From", "store")],
        )

    def _handle_trace(
        self, request_id: str
    ) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        from ..obs.trace import build_request_trace_events, to_chrome_payload

        if request_id:
            record = self._lifecycle.get(request_id)
            if record is None:
                return (
                    404,
                    error_body(
                        404,
                        f"no lifecycle for {request_id!r} in this daemon's "
                        "life (traces are per-process; reports persist)",
                    ),
                    [],
                )
            records = [record]
        else:
            records = [
                self._lifecycle[k] for k in sorted(self._lifecycle)
            ]
        events = build_request_trace_events(records)
        payload = to_chrome_payload(
            events, other_data={"requests": len(records)}
        )
        return 200, (canonical_dumps(payload) + "\n").encode(), []

    def _handle_backends(self) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        from ..hardware import registry

        backends = {
            name: registry.get(name).descriptor.to_dict()
            for name in registry.list_backends()
        }
        body = (
            canonical_dumps(
                {"schema": SERVE_SCHEMA, "backends": backends}, indent=2
            )
            + "\n"
        ).encode()
        return 200, body, []

    def _handle_healthz(self) -> Tuple[int, bytes, List[Tuple[str, str]]]:
        latency = self.metrics.histogram(
            "serve.latency_ms.simulate", _LATENCY_BUCKETS
        )
        payload = {
            "schema": SERVE_SCHEMA,
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(self._now(), 3),
            "workers": self.workers,
            "queue_depth": self._queue.qsize(),
            "queue_peak": self._queue_peak,
            "max_queue": self.max_queue,
            "breaker": {
                "open": self._breaker_open(),
                "consecutive_failures": self._breaker_failures,
            },
            "inflight": len(self._inflight),
            "accepted": self.stats.accepted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "recovered": self.stats.recovered,
            "counters": {
                name: value
                for name, value in self.metrics.snapshot().items()
                if not isinstance(value, tuple)
            },
            "latency_ms": {
                "count": latency.count,
                "mean": round(latency.mean(), 3),
                "p50": round(latency.quantile(0.5), 3),
                "p99": round(latency.quantile(0.99), 3),
            },
            "cache": sim_cache.stats(),
            "integrity": {
                name: value
                for name, value in GLOBAL_REGISTRY.snapshot().items()
                if not isinstance(value, tuple)
            },
            "tenants": {
                "quota": self.quotas.snapshot(),
                "cache": sim_cache.tenant_stats(),
            },
        }
        body = (canonical_dumps(payload, indent=2) + "\n").encode()
        return 200, body, []


# ---------------------------------------------------------------------------
# embedded harness (tests, benchmarks)
# ---------------------------------------------------------------------------
class DaemonHandle:
    """A daemon running on a background thread's event loop."""

    def __init__(
        self, daemon: ServeDaemon, loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ):
        self.daemon = daemon
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.daemon.port

    @property
    def host(self) -> str:
        return self.daemon.host

    def stop(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.daemon.shutdown(drain=drain), self._loop
        )
        future.result(timeout=timeout)
        self._thread.join(timeout=timeout)


def start_in_thread(**kwargs) -> DaemonHandle:
    """Run a :class:`ServeDaemon` on a daemon thread; returns once the
    port is bound.  Tests and benchmarks embed the service this way."""
    daemon = ServeDaemon(**kwargs)
    started = threading.Event()
    startup_error: List[BaseException] = []
    loop = asyncio.new_event_loop()

    async def _main() -> None:
        try:
            await daemon.start()
        except BaseException as exc:
            startup_error.append(exc)
            raise
        finally:
            started.set()
        await daemon._stopped.wait()

    def _runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(_main())
        except BaseException:
            started.set()
        finally:
            loop.close()

    thread = threading.Thread(target=_runner, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=30.0):
        raise ExecutionError("serve daemon failed to start within 30s")
    if startup_error:
        thread.join(timeout=5.0)
        raise startup_error[0]
    return DaemonHandle(daemon, loop, thread)
