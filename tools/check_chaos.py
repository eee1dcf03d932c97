#!/usr/bin/env python
"""CI chaos gate: seeded infrastructure faults against the real binaries.

Every scenario runs real ``repro`` subprocesses on throwaway cache
directories with a :mod:`repro.chaos` spec injected through the
``REPRO_CHAOS`` environment variable, and asserts the storage/serving
invariants the robustness layer promises:

1. **no corrupt bytes are ever served** — runs against a store whose
   every object write was bit-flipped produce stdout identical to clean
   runs (verify-on-read quarantines the damage and recomputes);
2. **fsck repairs 100% of injected damage byte-identically** — a store
   with every object's payload corrupted comes back, after ``repro cache
   fsck --repair``, byte-for-byte equal to the clean store;
3. **journal damage is contained** — a torn interior journal line is
   counted and dropped, the surviving records still load, and fsck
   reports the damage without failing the store;
4. **ENOSPC degrades, never crashes** — with every cache/journal write
   raising ENOSPC, simulations still exit 0 with clean-identical stdout
   and the store reports degraded memory-only mode;
5. **overload sheds instead of collapsing** — a 1-worker daemon with a
   2-deep bounded queue under a burst of slow requests answers 503 (with
   ``Retry-After``) for the excess and 504 for queued requests whose
   ``X-Repro-Deadline-Ms`` expired, never grows its queue past the
   bound, and still drains cleanly on SIGTERM;
6. **a murdered pool worker is survivable** — a ``worker_kill`` rule
   SIGKILLs exactly one worker mid-batch; the batch completes with
   results identical to a calm run;
7. **a corrupted stored serve report self-heals** — the report body is
   bit-flipped as it is written (its head survives); the next read fails
   the head's digest, quarantines the report and re-serves recomputed,
   byte-identical bytes.

Usage: ``PYTHONPATH=src python tools/check_chaos.py``
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from serve_client import http_request

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.sim.cache import extract_meta  # noqa: E402

#: Small, fast workloads shared by the storage scenarios.
RUNS = (
    ("lstm", "hetero-pim", 1),
    ("word2vec", "prog-pim", 1),
)


def spec(*rules: dict, seed: int = 7) -> str:
    return json.dumps({"seed": seed, "rules": list(rules)})


def cli_env(cache: Path, chaos: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache)
    env.pop("REPRO_CHAOS", None)
    env.pop("REPRO_JOBS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return env


def run_cli(args: list, env: dict, check: bool = True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if check:
        assert proc.returncode == 0, (
            f"repro {' '.join(args)} exited {proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    return proc


def populate(cache: Path, chaos: str = "") -> list:
    outs = []
    for model, config, steps in RUNS:
        proc = run_cli(
            ["run", model, "--config", config, "--steps", str(steps)],
            cli_env(cache, chaos=chaos),
        )
        outs.append(proc.stdout)
    return outs


def object_snapshot(cache: Path) -> dict:
    root = cache / "objects"
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def check_no_corrupt_bytes_served(tmp: Path, clean_out: list, clean_objects: dict):
    """Scenario 1: every object write bit-flipped; reads self-heal."""
    cache = tmp / "flip-cache"
    chaos = spec(
        {"site": "cache.object_write", "kind": "bit_flip", "one_in": 1}
    )
    flipped_out = populate(cache, chaos=chaos)
    assert flipped_out == clean_out, "fresh runs under write-corruption drifted"

    healed_out = populate(cache)  # every disk read verifies its object
    assert healed_out == clean_out, "corrupt store leaked into served results"
    quarantined = list((cache / "quarantine").rglob("*.json"))
    assert len(quarantined) == len(RUNS), (
        f"expected {len(RUNS)} quarantined objects, got {len(quarantined)}"
    )
    assert object_snapshot(cache) == clean_objects, (
        "self-healed store is not byte-identical to the clean store"
    )
    print(
        f"no-corrupt-bytes OK: {len(RUNS)} bit-flipped objects quarantined, "
        "recomputed, outputs clean-identical"
    )


def check_fsck_repairs_byte_identically(tmp: Path, clean: Path, clean_objects: dict):
    """Scenario 2: corrupt every object payload, fsck --repair restores."""
    cache = tmp / "fsck-cache"
    shutil.copytree(clean, cache)
    root = cache / "objects"
    for path in root.rglob("*.json"):
        data = bytearray(path.read_bytes())
        data[-20] ^= 0x40  # payload tail: metadata header stays intact
        path.write_bytes(bytes(data))

    detect = run_cli(["cache", "fsck"], cli_env(cache), check=False)
    assert detect.returncode == 1, f"fsck missed damage: {detect.stdout}"
    repair = run_cli(["cache", "fsck", "--repair", "--json"], cli_env(cache))
    report = json.loads(repair.stdout)
    objects = report["objects"]
    assert objects["corrupt"] == len(clean_objects), objects
    assert objects["repaired"] == objects["corrupt"], objects
    assert report["clean"], report
    assert object_snapshot(cache) == clean_objects, (
        "fsck --repair did not restore byte-identical objects"
    )
    rescan = run_cli(["cache", "fsck"], cli_env(cache))
    assert json.loads(run_cli(
        ["cache", "fsck", "--json"], cli_env(cache)
    ).stdout)["clean"], rescan.stdout
    print(
        f"fsck OK: {objects['corrupt']}/{objects['corrupt']} corrupt objects "
        "repaired byte-identically"
    )


JOURNAL_SCRIPT = """
import sys
from repro.serve.journal import RunJournal
journal = RunJournal.create("serve", {}, run_id="torn")
for fp in ("aaa", "bbb", "ccc"):
    journal.record_job(fp, "done")
journal.record_event("complete")
journal.close()
loaded = RunJournal.load("torn")
print(loaded.corrupt_lines, sorted(loaded.completed_fingerprints()))
"""


def check_journal_torn_write(tmp: Path):
    """Scenario 3: torn interior journal line is counted and contained."""
    cache = tmp / "journal-cache"
    chaos = spec({"site": "journal.append", "kind": "torn_write", "at": [2]})
    proc = subprocess.run(
        [sys.executable, "-c", JOURNAL_SCRIPT],
        env=cli_env(cache, chaos=chaos),
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    corrupt, completed = proc.stdout.strip().split(" ", 1)
    # occurrence 2 is the second job line ("bbb"): torn mid-line, the
    # following append glues onto it, so both records are damaged
    assert int(corrupt) >= 1, proc.stdout
    assert "'aaa'" in completed and "'bbb'" not in completed, proc.stdout
    fsck = run_cli(["cache", "fsck", "--json"], cli_env(cache))
    report = json.loads(fsck.stdout)
    assert report["journals"]["damaged"] == 1, report
    assert report["journals"]["corrupt_lines"] >= 1, report
    assert report["clean"], "tolerated journal damage must not fail fsck"
    print(
        f"journal OK: torn interior line -> {corrupt} corrupt line(s) "
        "counted, survivors intact, fsck stays clean"
    )


ENOSPC_SCRIPT = """
from repro import api
from repro.sim import cache as sim_cache
for steps in (1, 2, 3, 4):
    report = api.simulate("lstm", "hetero-pim", steps)
    print(report.result.steps, f"{report.result.step_energy_j:.6f}")
stats = sim_cache.stats()
print("degraded", stats["degraded"], "write_errors", stats["write_errors"])
"""


def check_enospc_degrades(tmp: Path):
    """Scenario 4: a full disk means memory-only mode, not a crash."""
    chaos = spec(
        {"site": "cache.object_write", "kind": "enospc", "one_in": 1},
        {"site": "journal.append", "kind": "enospc", "one_in": 1},
    )

    def run_script(cache: Path, chaos_spec: str):
        return subprocess.run(
            [sys.executable, "-c", ENOSPC_SCRIPT],
            env=cli_env(cache, chaos=chaos_spec),
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )

    calm = run_script(tmp / "enospc-calm", "")
    assert calm.returncode == 0, calm.stderr
    full = run_script(tmp / "enospc-full", chaos)
    assert full.returncode == 0, f"ENOSPC crashed the run: {full.stderr}"
    calm_results = calm.stdout.splitlines()[:-1]
    full_results = full.stdout.splitlines()[:-1]
    assert full_results == calm_results, (calm.stdout, full.stdout)
    assert "degraded 1" in full.stdout.splitlines()[-1], full.stdout
    assert "degraded 0" in calm.stdout.splitlines()[-1], calm.stdout
    assert "degraded" in full.stderr, "no operator warning on degradation"
    assert not list((tmp / "enospc-full" / "objects").rglob("*.json")), (
        "ENOSPC store somehow persisted objects"
    )
    print(
        "enospc OK: 4 simulations with a full disk -> exit 0, "
        "clean-identical results, degraded memory-only mode"
    )


class Daemon:
    """One ``repro serve`` subprocess bound to an ephemeral port."""

    def __init__(self, cache: Path, *extra: str, chaos: str = ""):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            env=cli_env(cache, chaos=chaos),
            cwd=REPO,
            stderr=subprocess.PIPE,
            text=True,
        )
        banner = self.proc.stderr.readline()
        if "listening on" not in banner:
            raise AssertionError(f"daemon failed to start: {banner!r}")
        self.port = int(
            banner.split("listening on ")[1].split(" ")[0].split(":")[1]
        )

    def post(self, request: dict, headers: dict = None):
        return http_request(
            "127.0.0.1",
            self.port,
            "POST",
            "/v1/simulate",
            json.dumps(request, sort_keys=True).encode(),
            headers=headers,
        )

    def get(self, path: str):
        return http_request("127.0.0.1", self.port, "GET", path)

    def kill(self):
        self.proc.kill()
        self.proc.wait()

    def terminate(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120)


def check_overload_sheds(tmp: Path):
    """Scenario 5: bounded queue sheds 503s, expired deadlines get 504."""
    chaos = spec(
        {
            "site": "serve.execute",
            "kind": "slow_io",
            "one_in": 1,
            "delay_s": 1.0,
        }
    )
    daemon = Daemon(
        tmp / "overload-cache",
        "--workers", "1", "--max-queue", "2",
        chaos=chaos,
    )
    try:
        results = {}

        def post(key: str, steps: int, headers: dict = None):
            results[key] = daemon.post(
                {"model": "alexnet", "steps": steps}, headers=headers
            )

        # occupy the single worker with one slow request...
        t_busy = threading.Thread(target=post, args=("busy", 2))
        t_busy.start()
        time.sleep(0.4)
        # ...queue one request whose deadline expires while it waits...
        t_dead = threading.Thread(
            target=post,
            args=("deadline", 3),
            kwargs={"headers": {"X-Repro-Deadline-Ms": "100"}},
        )
        t_dead.start()
        time.sleep(0.2)
        # ...then flood with distinct requests to overflow the bound
        flood = [
            threading.Thread(target=post, args=(f"flood{i}", 4 + i))
            for i in range(6)
        ]
        for t in flood:
            t.start()
        for t in [t_busy, t_dead, *flood]:
            t.join()

        statuses = {key: results[key][0] for key in results}
        assert statuses["busy"] == 200, statuses
        assert statuses["deadline"] == 504, statuses
        shed = [k for k in statuses if statuses[k] == 503]
        served = [k for k in statuses if statuses[k] == 200]
        assert shed, f"bounded queue never shed under 4x overload: {statuses}"
        for key in shed:
            headers = results[key][1]
            assert int(headers.get("retry-after", "0")) >= 1, headers

        _s, _h, health = daemon.get("/v1/healthz")
        payload = json.loads(health)
        assert payload["queue_peak"] <= 2, payload["queue_peak"]
        assert payload["max_queue"] == 2, payload["max_queue"]
        counters = payload["counters"]
        assert counters.get("serve.shed") == len(shed), (counters, statuses)
    except BaseException:
        daemon.kill()
        raise
    code = daemon.terminate()
    assert code == 0, f"overloaded daemon failed to drain: exit {code}"
    print(
        f"overload OK: {len(served)} served, {len(shed)} shed with "
        "Retry-After, 1 expired deadline -> 504, queue bounded at 2"
    )


WORKER_SCRIPT = """
from repro.experiments import runner
from repro.experiments.common import cached_graph, resolve_configuration
config, policy = resolve_configuration("hetero-pim")
jobs = [(cached_graph("lstm"), policy, config, steps) for steps in (1, 2, 3)]
results = runner.run_jobs(jobs)
for result in results:
    print(result.steps, f"{result.step_energy_j:.6f}")
print("crashes", runner.last_supervision().crashes)
"""


def check_worker_kill_survived(tmp: Path):
    """Scenario 6: SIGKILL exactly one pool worker; the batch completes."""
    chaos = spec(
        {"site": "worker.kill", "kind": "worker_kill", "at": [0], "once": True}
    )

    def run_script(cache: Path, chaos_spec: str):
        env = cli_env(cache, chaos=chaos_spec)
        env["REPRO_JOBS"] = "2"
        return subprocess.run(
            [sys.executable, "-c", WORKER_SCRIPT],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=600,
        )

    calm = run_script(tmp / "kill-calm", "")
    assert calm.returncode == 0, calm.stderr
    chaotic = run_script(tmp / "kill-chaos", chaos)
    assert chaotic.returncode == 0, chaotic.stderr
    calm_lines = calm.stdout.splitlines()
    chaos_lines = chaotic.stdout.splitlines()
    assert chaos_lines[:-1] == calm_lines[:-1], (calm.stdout, chaotic.stdout)
    assert calm_lines[-1] == "crashes 0", calm.stdout
    crashes = int(chaos_lines[-1].split()[-1])
    assert crashes >= 1, f"worker_kill never fired: {chaotic.stdout}"
    print(
        f"worker-kill OK: {crashes} worker crash survived, batch results "
        "identical to the calm run"
    )


def check_report_corruption_self_heals(tmp: Path):
    """Scenario 7: corrupt stored serve report -> quarantine + recompute."""
    chaos = spec(
        {"site": "serve.report_write", "kind": "bit_flip", "at": [0]}
    )
    daemon = Daemon(tmp / "report-cache", "--workers", "1", chaos=chaos)
    try:
        request = {"model": "alexnet", "steps": 2}
        status1, _h1, body1 = daemon.post(request)
        assert status1 == 200, status1
        # the stored copy was bit-flipped; the next request reads the
        # store, must reject it, and recompute the same bytes
        status2, headers2, body2 = daemon.post(request)
        assert status2 == 200, status2
        assert body2 == body1, "corrupt stored report leaked to a client"
        assert headers2.get("x-repro-served-from") != "store"

        _s, _h, health = daemon.get("/v1/healthz")
        integrity = json.loads(health)["integrity"]
        assert integrity.get("serve.corrupt_reports", 0) == 1, integrity

        # the rewritten report now serves from the store, byte-identical
        status3, headers3, body3 = daemon.post(request)
        assert status3 == 200 and body3 == body1
        assert headers3.get("x-repro-served-from") == "store", headers3
    except BaseException:
        daemon.kill()
        raise
    code = daemon.terminate()
    assert code == 0, f"daemon failed to drain: exit {code}"
    # the write damaged only the body: the quarantined report's head
    # still names its request, which is what fsck --repair rebuilds from
    quarantined = list((tmp / "report-cache" / "quarantine").rglob("*.json"))
    assert len(quarantined) == 1, quarantined
    meta = extract_meta(quarantined[0].read_bytes())
    assert meta is not None and meta.get("model") == "alexnet", meta
    print(
        "report-heal OK: bit-flipped stored report quarantined (head "
        "intact) and re-served byte-identically"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-gate-") as raw:
        tmp = Path(raw)
        clean_cache = tmp / "clean-cache"
        clean_out = populate(clean_cache)
        clean_objects = object_snapshot(clean_cache)
        print(f"clean baseline: {len(clean_objects)} objects from {len(RUNS)} runs")

        check_no_corrupt_bytes_served(tmp, clean_out, clean_objects)
        check_fsck_repairs_byte_identically(tmp, clean_cache, clean_objects)
        check_journal_torn_write(tmp)
        check_enospc_degrades(tmp)
        check_overload_sheds(tmp)
        check_worker_kill_survived(tmp)
        check_report_corruption_self_heals(tmp)
    print("chaos gate PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
