#!/usr/bin/env python
"""CI serving gate: the ``repro serve`` behavioral contract, end to end.

Four checks against real daemon subprocesses, each on a throwaway cache
directory:

1. **in-flight dedup** — the same simulate request POSTed concurrently
   from several client threads must trigger exactly ONE simulation
   (``/v1/healthz`` reports one cache miss / one store) while every
   client receives an identical 200 body;
2. **byte-identity** — the served RunReport JSON must equal, byte for
   byte, the artifact ``repro run --report-out`` writes from a separate,
   untouched cache directory (daemon path and library path can never
   drift apart silently);
3. **crash recovery** — a daemon SIGKILLed right after accepting a batch
   (``wait: false``) must, on restart, recover the journaled requests,
   finish them, and serve each report; an already-served report must
   come back byte-identical from the store;
4. **graceful drain** — SIGTERM stops the listener, finishes queued
   work, journals ``complete`` and exits 0; ``repro cache fsck`` then
   reads the drained daemon's report store back clean.

Usage: ``PYTHONPATH=src python tools/check_serve.py``
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from serve_client import http_request, post_simulate

REPO = Path(__file__).resolve().parent.parent

#: The request every check serves (small model, tiny step count).
REQUEST = {"model": "alexnet", "steps": 2}

#: Concurrent identical clients in the dedup check.
CLIENTS = 4


def cli_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class Daemon:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, cache_dir: Path, *extra: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            env=cli_env(cache_dir),
            cwd=REPO,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stderr.readline()
        if "listening on" not in banner:
            raise AssertionError(f"daemon failed to start: {banner!r}")
        self.banner = banner.strip()
        self.port = int(banner.split("listening on ")[1].split(" ")[0].split(":")[1])

    def get(self, path: str):
        return http_request("127.0.0.1", self.port, "GET", path)

    def post(self, request: dict):
        return post_simulate("127.0.0.1", self.port, request)

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def terminate(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=60)


def check_dedup_and_byte_identity(tmp: Path) -> None:
    """Checks 1 + 2 + 4 on one daemon (cold cache)."""
    cache = tmp / "serve-cache"
    daemon = Daemon(cache)
    try:
        results = [None] * CLIENTS

        def client(i: int) -> None:
            results[i] = daemon.post(REQUEST)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        statuses = [r[0] for r in results]
        assert statuses == [200] * CLIENTS, f"statuses {statuses}"
        bodies = {r[2] for r in results}
        assert len(bodies) == 1, f"{len(bodies)} distinct bodies served"
        body = results[0][2]

        _status, _hd, health = daemon.get("/v1/healthz")
        stats = json.loads(health)["cache"]
        assert stats["misses"] == 1, f"expected 1 cache miss, got {stats}"
        assert stats["stores"] == 1, f"expected 1 cache store, got {stats}"
        print(
            f"dedup OK: {CLIENTS} concurrent identical requests -> "
            f"1 simulation, {CLIENTS} identical bodies"
        )

        # byte-identity against the library path, from a separate cache
        report_path = tmp / "direct-report.json"
        subprocess.run(
            [
                sys.executable, "-m", "repro", "run", REQUEST["model"],
                "--steps", str(REQUEST["steps"]),
                "--report-out", str(report_path),
            ],
            check=True,
            env=cli_env(tmp / "direct-cache"),
            cwd=REPO,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        direct = report_path.read_bytes()
        assert direct == body, (
            "served report differs from 'repro run --report-out' artifact "
            f"({len(direct)} vs {len(body)} bytes)"
        )
        print(f"byte-identity OK: served == direct ({len(body)} bytes)")
    except BaseException:
        daemon.kill()
        raise

    code = daemon.terminate()
    assert code == 0, f"SIGTERM drain exited {code}, want 0"
    print("graceful drain OK: SIGTERM -> exit 0")

    fsck = subprocess.run(
        [sys.executable, "-m", "repro", "cache", "fsck", "--json"],
        env=cli_env(cache),
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    audit = json.loads(fsck.stdout)
    reports = audit["reports"]
    assert reports["scanned"] >= 1, f"fsck read no stored report: {audit}"
    assert reports["corrupt"] == 0 and audit["clean"], f"fsck: {audit}"
    print(f"store OK: fsck read {reports['scanned']} stored report(s) clean")


def check_crash_recovery(tmp: Path) -> None:
    """Check 3: SIGKILL mid-batch, restart, recover, re-serve."""
    cache = tmp / "crash-cache"
    daemon = Daemon(cache, "--workers", "1")
    ids = []
    try:
        for model in ("inception-v3", "vgg-19", "resnet-50"):
            status, _hd, body = daemon.post(
                {"model": model, "steps": 3, "wait": False}
            )
            assert status == 202, f"async accept returned {status}"
            ids.append(json.loads(body)["id"])
    finally:
        daemon.kill()  # SIGKILL: no drain, no journal 'complete'
    print(f"killed daemon with {len(ids)} accepted requests in flight")

    daemon = Daemon(cache, "--workers", "2")
    try:
        assert "recovered" in daemon.banner, daemon.banner
        deadline = time.time() + 300
        pending = set(ids)
        bodies = {}
        while pending and time.time() < deadline:
            for request_id in sorted(pending):
                status, _hd, body = daemon.get(f"/v1/report/{request_id}")
                if status == 200:
                    bodies[request_id] = body
                    pending.discard(request_id)
            if pending:
                time.sleep(1.0)
        assert not pending, f"{len(pending)} recovered requests never served"

        # a stored report must re-serve byte-identically
        again_status, _hd, again = daemon.get(f"/v1/report/{ids[0]}")
        assert again_status == 200
        assert again == bodies[ids[0]], "stored report changed between GETs"
        print(
            f"crash recovery OK: {len(ids)} journaled requests recovered "
            "and served byte-stably after SIGKILL + restart"
        )
    finally:
        daemon.kill()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-serve-gate-") as raw:
        tmp = Path(raw)
        check_dedup_and_byte_identity(tmp)
        check_crash_recovery(tmp)
    print("serve gate PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
