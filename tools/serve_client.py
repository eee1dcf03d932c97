"""Raw-socket client + load generator for the serve daemon.

Shared by the serve, chaos and perf gates in this directory (which
import it as a sibling) and by the test-suite (which puts ``tools/`` on
``sys.path``), so the numbers they report come from one code path.
Plain blocking sockets — the *daemon* is the system under test, and a
dependency-free client keeps the measurement honest.
"""

from __future__ import annotations

import json
import socket
import time
from typing import Dict, List, Optional, Tuple


def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[bytes] = None,
    *,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.1 exchange; returns (status, headers, body)."""
    payload = body or b""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(head + payload)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks)
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    head_lines = head_bytes.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    response_headers: Dict[str, str] = {}
    for line in head_lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            response_headers[name.strip().lower()] = value.strip()
    return status, response_headers, body_bytes


def post_simulate(
    host: str,
    port: int,
    request: Dict[str, object],
    *,
    timeout: float = 120.0,
) -> Tuple[int, Dict[str, str], bytes]:
    """POST one /v1/simulate request from a plain dict."""
    return http_request(
        host,
        port,
        "POST",
        "/v1/simulate",
        json.dumps(request, sort_keys=True).encode(),
        timeout=timeout,
    )


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank-with-interpolation percentile, q in [0, 1]."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def run_load(
    host: str,
    port: int,
    request: Dict[str, object],
    *,
    iterations: int,
    timeout: float = 120.0,
) -> Dict[str, float]:
    """Issue ``iterations`` sequential simulate requests; summarize.

    Returns latency quantiles in milliseconds plus sustained requests
    per second over the whole run.  Raises ``RuntimeError`` on any
    non-200 so a broken daemon cannot publish a fantastic p50.
    """
    latencies_ms: List[float] = []
    t_run = time.perf_counter()
    for _ in range(iterations):
        t0 = time.perf_counter()
        status, _headers, body = post_simulate(
            host, port, request, timeout=timeout
        )
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
        if status != 200:
            raise RuntimeError(
                f"simulate returned {status}: {body[:200]!r}"
            )
    elapsed = time.perf_counter() - t_run
    return {
        "iterations": float(iterations),
        "p50_ms": round(percentile(latencies_ms, 0.50), 3),
        "p99_ms": round(percentile(latencies_ms, 0.99), 3),
        "mean_ms": round(sum(latencies_ms) / len(latencies_ms), 3),
        "rps": round(iterations / elapsed, 2) if elapsed > 0 else 0.0,
    }
