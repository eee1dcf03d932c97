"""The serve workload: a ``python -m repro serve`` daemon driven over HTTP.

One segment starts a daemon with 2 workers on an empty cache directory,
waits for ``/v1/healthz``, then runs a closed loop: one client sends the
seeded request sequence, each request on a new connection (the daemon
closes every connection) and only after the previous reply.  One client
keeps each latency free of waits behind another request's simulation, so
a store-served repeat measures the store path itself.  The daemon is then
stopped with SIGTERM (graceful drain).

The client and the daemon share one CPU (``pin_to_one_cpu``).  With one
request in flight the daemon needs no second CPU, and on a virtual
machine a reply that has to wake an idle virtual CPU waits for the host
to schedule it: on a 2-vCPU guest that wait, which the program cannot
change, moved store-served latency by 2-3x from one run to the next.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from plan import serve_universe
from spans import SpanRecorder

TIMEOUT_S = 60.0


def pin_to_one_cpu() -> None:
    """Keep this process, and the processes it starts, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _get(port: int, path: str):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT_S)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _peak_rss_mb(pid: int) -> Optional[float]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


class Daemon:
    """A serve subprocess; ``setup_s`` runs from spawn to a 200 healthz."""

    def __init__(self, env: Dict[str, str]):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        self.stderr: List[str] = []
        self._port = threading.Event()
        self.port = 0
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        try:
            if not self._port.wait(TIMEOUT_S) or not self.port:
                raise RuntimeError("serve daemon did not announce its port: "
                                   + "".join(self.stderr[-5:]))
            while True:
                try:
                    if _get(self.port, "/v1/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                if time.perf_counter() - t0 > TIMEOUT_S:
                    raise RuntimeError("serve daemon never answered /v1/healthz")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            m = re.search(r"listening on [^:\s]+:(\d+)", line)
            if m and not self._port.is_set():
                self.port = int(m.group(1))
                self._port.set()
        self._port.set()

    def healthz(self) -> dict:
        status, body = _get(self.port, "/v1/healthz")
        if status != 200:
            raise RuntimeError(f"healthz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self._reader.join(timeout=30)


def run_segment(env: Dict[str, str], sequence, rec: Optional[SpanRecorder],
                segment: int) -> dict:
    """Start a daemon, send ``sequence`` through it, stop it."""
    universe = serve_universe()
    daemon = Daemon(env)
    try:
        before = daemon.healthz()
        outcomes = []
        for i, (kind, idx) in enumerate(sequence):
            body = json.dumps(universe[idx], sort_keys=True).encode()
            t0 = time.perf_counter()
            try:
                with rec.span("serve.request", f"{segment}/{i}") if rec else nullcontext():
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", daemon.port, timeout=TIMEOUT_S)
                    try:
                        conn.request("POST", "/v1/simulate", body,
                                     {"Content-Type": "application/json"})
                        resp = conn.getresponse()
                        data = resp.read()
                    finally:
                        conn.close()
                outcomes.append({
                    "kind": kind, "idx": idx, "status": resp.status,
                    "ms": (time.perf_counter() - t0) * 1e3,
                    "from": resp.getheader("X-Repro-Served-From"),
                    "sha": hashlib.sha256(data).hexdigest(),
                })
            except OSError as exc:
                outcomes.append({"kind": kind, "idx": idx, "error": repr(exc)})
        after = daemon.healthz()
        rss = _peak_rss_mb(daemon.proc.pid)
    finally:
        daemon.stop()
    return {"setup_s": daemon.setup_s, "rss_mb": rss, "outcomes": outcomes,
            "before": before, "after": after}
