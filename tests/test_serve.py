"""The ``repro serve`` daemon: protocol, quotas, dedup, durability.

End-to-end tests run a real daemon (in-thread for speed, subprocess for
the crash-recovery scenario) against an isolated cache and talk to it
over real sockets with the raw client from :mod:`repro.serve.bench` —
the same client the benchmarks and the CI gate use.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import api
from repro.errors import ProtocolError, ReproError, ServeError
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serve import start_in_thread
from repro.serve.bench import http_request, percentile, post_simulate
from repro.serve.daemon import ServeDaemon
from repro.serve.http import read_request, render_response
from repro.serve.protocol import (
    DEFAULT_TENANT,
    SimulateRequest,
    parse_simulate_request,
)
from repro.serve.quota import QuotaTable, TokenBucket
from repro.sim import cache as sim_cache

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Throwaway cache dir; reset every process-global cache tier."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    sim_cache._memory.clear()
    sim_cache.reset_stats()
    with sim_cache._tenant_lock:
        sim_cache._tenant_stats.clear()
        sim_cache._tenant_seen.clear()
    yield
    sim_cache._memory.clear()


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_minimal_request_defaults(self):
        request = parse_simulate_request(b'{"model": "alexnet"}', {})
        assert request == SimulateRequest(model="alexnet")
        assert request.tenant == DEFAULT_TENANT

    def test_tenant_header_fallback_and_body_override(self):
        from_header = parse_simulate_request(
            b'{"model": "alexnet"}', {"x-repro-tenant": "team-a"}
        )
        assert from_header.tenant == "team-a"
        from_body = parse_simulate_request(
            b'{"model": "alexnet", "tenant": "team-b"}',
            {"x-repro-tenant": "team-a"},
        )
        assert from_body.tenant == "team-b"

    @pytest.mark.parametrize(
        "body, fragment",
        [
            (b"not json", "not valid JSON"),
            (b"[1, 2]", "JSON object"),
            (b"{}", "missing field 'model'"),
            (b'{"model": "nope"}', "unknown model"),
            (b'{"model": "alexnet", "modle": 1}', "unknown field"),
            (b'{"model": "alexnet", "steps": 0}', "'steps'"),
            (b'{"model": "alexnet", "steps": true}', "'steps'"),
            (b'{"model": "alexnet", "batch_size": -4}', "'batch_size'"),
            (b'{"model": "alexnet", "frequency_scale": 0}', "positive"),
            (b'{"model": "alexnet", "surrogate": "yes"}', "'surrogate'"),
            (b'{"model": "alexnet", "backend": "nope"}', "unknown backend"),
            (b'{"model": "alexnet", "config": "nope"}', "unknown config"),
            (b'{"model": "alexnet", "tenant": "../x"}', "invalid tenant"),
        ],
    )
    def test_rejects_with_status_400(self, body, fragment):
        with pytest.raises(ProtocolError) as err:
            parse_simulate_request(body, {})
        assert err.value.status == 400
        assert fragment in str(err.value)

    def test_round_trips_through_journal_spec(self):
        """The recovery path rebuilds the identical request from the
        journaled dict — one validation contract for both paths."""
        from repro.serve.protocol import build_simulate_request

        original = parse_simulate_request(
            b'{"model": "lstm", "steps": 2, "priority": 5, "wait": false}',
            {},
        )
        rebuilt = build_simulate_request(original.to_dict(), {})
        assert rebuilt == original


class TestHttpLayer:
    def _read(self, raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await read_request(reader)

        return asyncio.run(go())

    def test_parses_request_line_headers_body(self):
        request = self._read(
            b"POST /v1/simulate?x=1 HTTP/1.1\r\n"
            b"Content-Length: 2\r\n"
            b"X-Repro-Tenant: t\r\n\r\n{}"
        )
        assert request.method == "POST"
        assert request.path == "/v1/simulate"
        assert request.query == {"x": "1"}
        assert request.header("x-repro-tenant") == "t"
        assert request.body == b"{}"

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(ProtocolError) as err:
            self._read(b"BOGUS\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_rejected_413(self):
        huge = 10 * 1024 * 1024
        with pytest.raises(ProtocolError) as err:
            self._read(
                f"POST / HTTP/1.1\r\nContent-Length: {huge}\r\n\r\n".encode()
            )
        assert err.value.status == 413

    def test_render_response_shape(self):
        raw = render_response(200, b"{}\n", extra_headers=[("X-A", "1")])
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert b"Content-Length: 3" in head
        assert b"Connection: close" in head
        assert b"X-A: 1" in head
        assert body == b"{}\n"


# ---------------------------------------------------------------------------
# quotas + metrics primitives
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: clock[0])
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # bucket dry
        clock[0] = 1.5
        assert bucket.try_acquire()  # 1.5 tokens refilled
        assert not bucket.try_acquire()

    def test_burst_capped(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=3, clock=lambda: clock[0])
        clock[0] = 100.0
        assert bucket.remaining == 3.0

    def test_bad_burst_rejected(self):
        with pytest.raises(ServeError):
            TokenBucket(rate=1.0, burst=0)

    def test_quota_table_disabled_admits_everyone(self):
        table = QuotaTable(rate=0.0)
        assert all(table.admit("t") for _ in range(100))
        assert table.snapshot()["t"]["admitted"] == 100

    def test_quota_table_per_tenant_isolation(self):
        table = QuotaTable(rate=0.001, burst=1)
        assert table.admit("a")
        assert not table.admit("a")  # a is dry...
        assert table.admit("b")  # ...b is untouched
        snap = table.snapshot()
        assert snap["a"]["rejected"] == 1
        assert snap["b"]["rejected"] == 0


class TestHistogram:
    def test_quantiles_interpolate(self):
        hist = Histogram("t", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            hist.observe(value)
        assert hist.count == 4
        assert 0.0 < hist.quantile(0.5) <= 2.0
        assert hist.quantile(0.0) <= hist.quantile(1.0)
        assert hist.mean() == pytest.approx(1.65)

    def test_overflow_bucket(self):
        hist = Histogram("t", bounds=(1.0,))
        hist.observe(50.0)
        assert hist.quantile(0.99) >= 1.0

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", bounds=(2.0, 1.0))

    def test_registry_integration(self):
        registry = MetricsRegistry()
        registry.histogram("lat", (1.0, 2.0)).observe(1.5)
        assert registry.snapshot()["lat"] == (0, 1, 0)
        with pytest.raises(ValueError):
            registry.counter("lat")  # name taken by another type

    def test_percentile_helper(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# end-to-end daemon (in-thread)
# ---------------------------------------------------------------------------
REQUEST = {"model": "lstm", "steps": 1}


class TestDaemonEndToEnd:
    def test_served_report_byte_identical_to_session(self):
        handle = start_in_thread(workers=1)
        try:
            status, headers, body = post_simulate(
                handle.host, handle.port, REQUEST
            )
        finally:
            handle.stop()
        assert status == 200
        assert headers.get("x-repro-served-from") == "run"
        direct = api.Session("anonymous").simulate(**REQUEST)
        assert body == (direct.to_json() + "\n").encode()
        # the report parses back into the full v5 report schema
        parsed = json.loads(body)
        assert parsed["model"] == REQUEST["model"]
        assert parsed["steps"] == REQUEST["steps"]
        # call-local jitter is canonicalized away, not serialized
        assert parsed["cache_stats"] is None

    def test_concurrent_identical_requests_dedup_to_one_simulation(self):
        handle = start_in_thread(workers=2)
        results = [None] * 6
        try:

            def client(i):
                results[i] = post_simulate(handle.host, handle.port, REQUEST)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            handle.stop()
        assert [r[0] for r in results] == [200] * 6
        assert len({r[2] for r in results}) == 1
        stats = sim_cache.stats()
        assert stats["misses"] == 1 and stats["stores"] == 1
        served_from = sorted(r[1]["x-repro-served-from"] for r in results)
        assert served_from.count("run") == 1

    def test_quota_free_for_dedup_and_store_hits(self):
        """A burst-1 quota still answers repeats of the same request —
        only *fresh* simulations are charged (the CI double-POST rule)."""
        handle = start_in_thread(workers=1, quota_rate=0.001, quota_burst=1)
        try:
            first = post_simulate(handle.host, handle.port, REQUEST)
            second = post_simulate(handle.host, handle.port, REQUEST)
            other = post_simulate(
                handle.host, handle.port, {"model": "alexnet", "steps": 1}
            )
        finally:
            handle.stop()
        assert first[0] == 200
        assert second[0] == 200  # store hit: not charged
        assert second[1]["x-repro-served-from"] == "store"
        assert other[0] == 429  # fresh simulation: bucket is dry
        assert b"quota" in other[2]

    def test_validation_errors_answer_400_without_queueing(self):
        handle = start_in_thread(workers=1)
        try:
            status, _headers, body = post_simulate(
                handle.host, handle.port, {"model": "bogus"}
            )
            health = json.loads(
                http_request(handle.host, handle.port, "GET", "/v1/healthz")[2]
            )
        finally:
            handle.stop()
        assert status == 400
        assert b"unknown model" in body
        assert health["accepted"] == 0

    def test_get_endpoints(self):
        handle = start_in_thread(workers=1)
        try:
            status, headers, body = post_simulate(
                handle.host, handle.port, REQUEST
            )
            rid = headers["x-repro-request-id"]
            report = http_request(
                handle.host, handle.port, "GET", f"/v1/report/{rid}"
            )
            missing = http_request(
                handle.host, handle.port, "GET", "/v1/report/feedface"
            )
            backends = json.loads(
                http_request(handle.host, handle.port, "GET", "/v1/backends")[2]
            )
            trace = json.loads(
                http_request(
                    handle.host, handle.port, "GET", f"/v1/trace/{rid}"
                )[2]
            )
            health = json.loads(
                http_request(handle.host, handle.port, "GET", "/v1/healthz")[2]
            )
            unknown = http_request(handle.host, handle.port, "GET", "/nope")
        finally:
            handle.stop()
        assert report[0] == 200 and report[2] == body
        assert missing[0] == 404
        assert "hmc-hetero" in backends["backends"]
        assert backends["backends"]["hmc-hetero"]["configurations"]
        names = {ev["name"] for ev in trace["traceEvents"]}
        assert any(name.startswith("queued:") for name in names)
        assert health["status"] == "ok"
        assert health["completed"] == 1
        assert health["latency_ms"]["count"] >= 1
        assert health["tenants"]["cache"]["anonymous"]["stores"] == 1
        assert unknown[0] == 404

    def test_async_submission_and_poll(self):
        handle = start_in_thread(workers=1)
        try:
            status, _headers, body = post_simulate(
                handle.host, handle.port, dict(REQUEST, wait=False)
            )
            assert status == 202
            rid = json.loads(body)["id"]
            deadline = time.time() + 60
            report_status = 0
            while time.time() < deadline:
                report_status, _h, report_body = http_request(
                    handle.host, handle.port, "GET", f"/v1/report/{rid}"
                )
                if report_status == 200:
                    break
                time.sleep(0.05)
        finally:
            handle.stop()
        assert report_status == 200
        direct = api.Session("anonymous").simulate(**REQUEST)
        assert report_body == (direct.to_json() + "\n").encode()

    def test_drain_serves_queued_work_before_exit(self):
        handle = start_in_thread(workers=1)
        try:
            post_simulate(
                handle.host, handle.port, dict(REQUEST, wait=False)
            )
        finally:
            handle.stop()  # drain=True: must finish the queued request
        stats = sim_cache.stats()
        assert stats["misses"] == 1 and stats["stores"] == 1


class TestRequestIdMemo:
    """A repeated request takes its id from the daemon's memo: no thread
    hop and no fingerprint."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = {"request_id": 0, "fingerprint": 0, "to_thread": 0}
        request_id_sync = ServeDaemon._request_id_sync
        fingerprint = api.Session.fingerprint
        to_thread = asyncio.to_thread

        def counting_request_id(self, request):
            calls["request_id"] += 1
            return request_id_sync(self, request)

        def counting_fingerprint(self, *args, **kwargs):
            calls["fingerprint"] += 1
            return fingerprint(self, *args, **kwargs)

        async def counting_to_thread(func, *args, **kwargs):
            calls["to_thread"] += 1
            return await to_thread(func, *args, **kwargs)

        monkeypatch.setattr(
            ServeDaemon, "_request_id_sync", counting_request_id
        )
        monkeypatch.setattr(api.Session, "fingerprint", counting_fingerprint)
        monkeypatch.setattr(asyncio, "to_thread", counting_to_thread)
        return calls

    def test_repeats_fingerprint_once_and_never_leave_the_loop(self, counted):
        handle = start_in_thread(workers=1)
        try:
            first = post_simulate(handle.host, handle.port, REQUEST)
            assert first[1]["x-repro-served-from"] == "run"
            after_first = dict(counted)
            repeats = [
                post_simulate(
                    handle.host, handle.port, dict(REQUEST, tenant=f"t{i}")
                )
                for i in range(5)
            ]
        finally:
            handle.stop()
        assert after_first["request_id"] == 1
        assert counted == after_first  # no hop, no fingerprint, no resolve
        for status, headers, body in repeats:
            assert status == 200 and body == first[2]
            assert headers["x-repro-served-from"] == "store"
            assert (
                headers["x-repro-request-id"]
                == first[1]["x-repro-request-id"]
            )

    def test_memoized_ids_equal_the_session_fingerprint(self, counted):
        base = {"model": "lstm", "steps": 1}
        # (first request, repeat with the same run key, fingerprint kwargs)
        cases = [
            (dict(base, surrogate=True),) * 2 + (dict(surrogate=True),),
            (
                dict(base, frequency_scale=1),
                dict(base, frequency_scale=1.0),
                dict(frequency_scale=1),
            ),
            (dict(base, batch_size=4),) * 2 + (dict(batch_size=4),),
            (dict(base, backend="hmc-hetero"),) * 2
            + (dict(backend="hmc-hetero"),),
            (base, base, {}),
        ]
        handle = start_in_thread(workers=1)
        try:
            firsts = [
                post_simulate(handle.host, handle.port, first)
                for first, _repeat, _kwargs in cases
            ]
            sights = counted["request_id"]
            repeats = [
                post_simulate(handle.host, handle.port, repeat)
                for _first, repeat, _kwargs in cases
            ]
        finally:
            handle.stop()
        # frequency_scale 1 is the default's run key: four distinct keys
        run_keys = {
            parse_simulate_request(json.dumps(first).encode()).run_key()
            for first, _repeat, _kwargs in cases
        }
        assert sights == len(run_keys) == 4
        assert counted["request_id"] == sights
        session = api.Session("anonymous")
        for (_f, _r, kwargs), first, repeat in zip(cases, firsts, repeats):
            assert first[0] == 200 and repeat[0] == 200
            expected = session.fingerprint("lstm", steps=1, **kwargs)
            assert first[1]["x-repro-request-id"] == expected
            assert repeat[1]["x-repro-request-id"] == expected
            assert repeat[1]["x-repro-served-from"] == "store"
        assert firsts[0][1]["x-repro-request-id"].endswith("-est")

    def test_rejected_requests_are_not_memoized(self, monkeypatch):
        def refuse(self, request):
            raise ReproError("fingerprint refused")

        monkeypatch.setattr(ServeDaemon, "_request_id_sync", refuse)
        handle = start_in_thread(workers=1)
        try:
            status, _h, body = post_simulate(handle.host, handle.port, REQUEST)
            memo = dict(handle.daemon._request_ids)
        finally:
            handle.stop()
        assert status == 400 and b"fingerprint refused" in body
        assert memo == {}


class TestStoreIntegrity:
    @pytest.mark.parametrize("damage", ["head", "body", "truncated"])
    def test_corrupt_stored_report_is_recomputed_not_served(self, damage):
        """Every store hit checks the report's digest: the *first* read
        after any damage recomputes."""
        handle = start_in_thread(workers=1)
        try:
            status1, headers1, body1 = post_simulate(
                handle.host, handle.port, REQUEST
            )
            assert status1 == 200
            request_id = headers1["x-repro-request-id"]
            stored = ServeDaemon.report_path(request_id)
            served = sim_cache.cache_dir() / "serve"
            assert [p for p in served.rglob("*") if p.is_file()] == [stored]
            data = bytearray(stored.read_bytes())
            head_end = data.index(b"\n")
            assert bytes(data[head_end + 1 :]) == body1
            if damage == "head":
                data[head_end // 2] ^= 0x01
            elif damage == "body":
                data[head_end + 1 + len(body1) // 2] ^= 0x01
            else:
                del data[-1]
            stored.write_bytes(bytes(data))
            status2, headers2, body2 = post_simulate(
                handle.host, handle.port, REQUEST
            )
            status3, headers3, body3 = post_simulate(
                handle.host, handle.port, REQUEST
            )
            counters = dict(handle.daemon.metrics.snapshot())
        finally:
            handle.stop()
        # the damaged store is not served: the body is recomputed
        assert status2 == 200 and body2 == body1
        assert headers2["x-repro-served-from"] != "store"
        assert counters["serve.report_corrupt"] == 1
        assert status3 == 200 and body3 == body1
        assert headers3["x-repro-served-from"] == "store"


# ---------------------------------------------------------------------------
# crash recovery (subprocess: the only way to lose in-memory state)
# ---------------------------------------------------------------------------
class TestRestartResume:
    def _spawn(self, cache_dir, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            env=env,
            cwd=REPO,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = proc.stderr.readline()
        assert "listening on" in banner, banner
        port = int(
            banner.split("listening on ")[1].split(" ")[0].split(":")[1]
        )
        return proc, port

    def test_sigkill_midbatch_restart_reserves_byte_identical(self, tmp_path):
        cache = tmp_path / "cache"
        proc, port = self._spawn(cache, "--workers", "1")
        ids = []
        try:
            for model in ("lstm", "word2vec"):
                status, _h, body = post_simulate(
                    "127.0.0.1", port,
                    {"model": model, "steps": 1, "wait": False},
                )
                assert status == 202
                ids.append(json.loads(body)["id"])
        finally:
            proc.kill()
            proc.wait()

        proc, port = self._spawn(cache, "--workers", "2")
        try:
            deadline = time.time() + 120
            bodies = {}
            pending = set(ids)
            while pending and time.time() < deadline:
                for rid in sorted(pending):
                    status, _h, body = http_request(
                        "127.0.0.1", port, "GET", f"/v1/report/{rid}"
                    )
                    if status == 200:
                        bodies[rid] = body
                        pending.discard(rid)
                if pending:
                    time.sleep(0.2)
            assert not pending, f"never recovered: {pending}"
        finally:
            proc.kill()
            proc.wait()

        # byte-identical to the library path, computed fresh in-process
        for model, rid in zip(("lstm", "word2vec"), ids):
            direct = api.Session("anonymous").simulate(model, steps=1)
            assert bodies[rid] == (direct.to_json() + "\n").encode()

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        proc, port = self._spawn(tmp_path / "cache")
        post_simulate(
            "127.0.0.1", port, {"model": "lstm", "steps": 1, "wait": False}
        )
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


class TestOverloadProtection:
    """Bounded queue, deadlines, and the exact-path circuit breaker."""

    def _slow_execute(self, delay_s=0.8):
        from repro.chaos import ChaosRule, injector, make_spec

        injector.activate(make_spec(1, [
            ChaosRule(
                site="serve.execute", kind="slow_io",
                one_in=1, delay_s=delay_s,
            ),
        ]))
        return injector

    def test_expired_deadline_answers_504_without_a_worker(self):
        chaos = self._slow_execute()
        handle = start_in_thread(workers=1)
        try:
            busy = [None]

            def occupy():
                busy[0] = post_simulate(
                    handle.host, handle.port, {"model": "lstm", "steps": 2}
                )

            t = threading.Thread(target=occupy)
            t.start()
            time.sleep(0.3)  # the single worker is now inside slow_io
            status, headers, body = http_request(
                handle.host, handle.port, "POST", "/v1/simulate",
                json.dumps({"model": "lstm", "steps": 3}).encode(),
                headers={"X-Repro-Deadline-Ms": "50"},
            )
            t.join()
        finally:
            handle.stop()
            chaos.deactivate()
        assert busy[0][0] == 200
        assert status == 504
        assert b"deadline expired" in body
        assert "x-repro-request-id" in headers

    def test_invalid_deadline_header_is_400(self):
        handle = start_in_thread(workers=1)
        try:
            status, _headers, body = http_request(
                handle.host, handle.port, "POST", "/v1/simulate",
                json.dumps({"model": "lstm", "steps": 1}).encode(),
                headers={"X-Repro-Deadline-Ms": "soon"},
            )
        finally:
            handle.stop()
        assert status == 400
        assert b"X-Repro-Deadline-Ms" in body or b"x-repro-deadline-ms" in body

    def test_full_bounded_queue_sheds_503_with_retry_after(self):
        chaos = self._slow_execute()
        handle = start_in_thread(workers=1, max_queue=1)
        try:
            results = {}

            def post(key, steps):
                results[key] = post_simulate(
                    handle.host, handle.port, {"model": "lstm", "steps": steps}
                )

            t_busy = threading.Thread(target=post, args=("busy", 2))
            t_busy.start()
            time.sleep(0.3)
            flood = [
                threading.Thread(target=post, args=(f"f{i}", 3 + i))
                for i in range(3)
            ]
            for t in flood:
                t.start()
            for t in [t_busy, *flood]:
                t.join()
            health = json.loads(
                http_request(handle.host, handle.port, "GET", "/v1/healthz")[2]
            )
        finally:
            handle.stop()
            chaos.deactivate()
        statuses = sorted(results[k][0] for k in results)
        assert statuses.count(503) >= 1, statuses
        assert statuses.count(200) >= 2, statuses  # busy + the queued one
        for key, (status, headers, body) in results.items():
            if status == 503:
                assert int(headers["retry-after"]) >= 1
                assert b"queue is full" in body
        assert health["max_queue"] == 1
        assert 1 <= health["queue_peak"] <= 1

    def test_breaker_trips_on_consecutive_500s_and_recovers(self, monkeypatch):
        original = api.Session.simulate
        broken = {"on": True}

        def flaky(self, *args, **kwargs):
            if broken["on"]:
                raise RuntimeError("injected infrastructure failure")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(api.Session, "simulate", flaky)
        handle = start_in_thread(
            workers=1, breaker_threshold=2, breaker_reset_s=60.0
        )
        try:
            first = post_simulate(
                handle.host, handle.port, {"model": "lstm", "steps": 2}
            )
            second = post_simulate(
                handle.host, handle.port, {"model": "lstm", "steps": 3}
            )
            health = json.loads(
                http_request(handle.host, handle.port, "GET", "/v1/healthz")[2]
            )
            # with no trained surrogate the degraded path falls back to
            # exact simulation — requests keep succeeding once the
            # infrastructure fault clears, even with the breaker open
            broken["on"] = False
            third = post_simulate(
                handle.host, handle.port, {"model": "lstm", "steps": 4}
            )
        finally:
            handle.stop()
        assert first[0] == 500 and second[0] == 500
        assert health["breaker"]["open"] is True
        assert health["breaker"]["consecutive_failures"] >= 2
        assert health["counters"]["serve.breaker_trips"] == 1
        assert third[0] == 200
        assert "x-repro-degraded" not in third[1]
