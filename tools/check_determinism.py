#!/usr/bin/env python
"""CI determinism gate: byte-identical artifacts across execution modes.

Runs one small experiment bundle (a fault-free run, a fault-injected run
with a nonzero seed, a Chrome trace export, and a multi-config experiment
sweep) three times:

1. serial, cold cache;
2. ``--jobs 4`` (process-pool workers), cold cache;
3. serial again, warm cache (reusing run 1's disk tier).

All three must produce byte-identical artifacts — any drift between
serial/parallel execution or cold/warm cache is a correctness bug in the
result cache, the runner, or the simulator's determinism, and fails CI.

``--chaos`` runs the crash-safety gate instead: ``repro experiment
faults`` under ``REPRO_JOBS=2`` is killed mid-run (once gracefully with
SIGINT, once hard with SIGKILL), then the same command is run again
under ``REPRO_JOBS=4`` — and the re-run's artifact must be
byte-identical to an uninterrupted serial baseline.  The experiment's
jobs finish within milliseconds of each other, so the killed run holds
its second object write back (:data:`CHAOS_HOLD`), and the signal is
sent during that hold: once the first object is on disk and the pool
of the second batch is running, plus :data:`CHAOS_SETTLE_S`.  A SIGINT
there reaches the batch supervisor, so the killed run must exit 130
with the ``Interrupted`` message (a signal between batches exits 130
too, but only with "interrupted").  The supervisor stores the results
already back before it stops; two workers keep at most two of them in
flight, so the interrupted run can not finish the batch.  The gate
fails unless the killed run left at least one but not all of the
baseline's objects on disk, and unless the re-run kept every one of
them: a re-simulated point is written through ``os.replace``, which
gives its file a new inode (the gate hard-links the kept objects first,
so no inode number is freed for reuse).  Each killed run has its own
process group, which the gate SIGKILLs afterwards; it fails if any
process of that group still runs.
``--all`` runs both gates.

``--validate`` runs every mode under the invariant checker
(``REPRO_VALIDATE=1``, see :mod:`repro.validate`): any conservation or
cache-equivalence violation fails the child run, and therefore the gate.

Usage: ``PYTHONPATH=src python tools/check_determinism.py
[--chaos|--all] [--validate]``
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Set by ``--validate``: child runs execute with ``REPRO_VALIDATE=1``.
VALIDATE = False

#: The workload every mode regenerates.  Kept small (seconds, not
#: minutes) but wide: cache round trips, fault injection with retries /
#: degradation, trace export, and the parallel experiment runner.
INNER = """
import json
import sys

from repro import api
from repro.experiments import faults as faults_experiment
from repro.faults import FaultSpec
from repro.obs.trace import validate_chrome_trace

out = []

# compare the result records, not the RunReport envelope: the envelope's
# cache_stats legitimately differ between cold and warm runs
plain = api.simulate("alexnet", "hetero-pim", steps=2)
out.append(plain.result.to_json())

spec = FaultSpec.generate(seed=13, horizon_s=plain.makespan_s, n_events=3)
faulted = api.simulate("alexnet", "hetero-pim", steps=2, faults=spec, observe=True)
out.append(faulted.result.to_json())

trace_path = sys.argv[2]
faulted.save_trace(trace_path)
validate_chrome_trace(trace_path)
out.append(open(trace_path).read())

sweep = faults_experiment.run(event_counts=(0, 2, 4), steps=2)
out.append(faults_experiment.format_result(sweep))

# one representative per modern workload family: dropout's deterministic
# expectation-scaling and the gather/segment-sum vocabulary must reproduce
# byte-for-byte across serial/parallel/warm-cache runs too
for family_model in ("transformer", "gnn", "embedrec"):
    run = api.simulate(family_model, "hetero-pim", steps=1)
    out.append(run.result.to_json())

with open(sys.argv[1], "w") as fh:
    fh.write("\\n".join(out))
"""


def run_mode(name: str, cache_dir: Path, jobs: int, workdir: Path) -> bytes:
    artifact = workdir / f"{name}.out"
    trace = workdir / f"{name}.trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_CACHE"] = "1"
    env["REPRO_JOBS"] = str(jobs)
    if VALIDATE:
        env["REPRO_VALIDATE"] = "1"
    subprocess.run(
        [sys.executable, "-c", INNER, str(artifact), str(trace)],
        check=True,
        env=env,
        cwd=REPO,
    )
    return artifact.read_bytes()


def check_modes() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-determinism-") as tmp:
        workdir = Path(tmp)
        cache_a = workdir / "cache-serial"
        cache_b = workdir / "cache-jobs"
        serial_cold = run_mode("serial-cold", cache_a, jobs=1, workdir=workdir)
        jobs_cold = run_mode("jobs4-cold", cache_b, jobs=4, workdir=workdir)
        warm = run_mode("serial-warm", cache_a, jobs=1, workdir=workdir)

    failures = []
    if serial_cold != jobs_cold:
        failures.append("serial-cold vs jobs4-cold")
    if serial_cold != warm:
        failures.append("serial-cold vs serial-warm")
    if failures:
        print(f"DETERMINISM FAILURE: artifacts differ: {', '.join(failures)}")
        return 1
    print(
        f"determinism OK: {len(serial_cold)} artifact bytes identical across "
        "serial/jobs=4/warm-cache runs"
    )
    return 0


# ---------------------------------------------------------------------------
# chaos: mid-run kill -> re-run -> byte-identical artifacts
# ---------------------------------------------------------------------------
#: Experiment the chaos gate interrupts (small: one model, a handful of
#: fault-sweep simulations, but routed through the supervised pool).
CHAOS_EXPERIMENT = "faults"

#: ``REPRO_CHAOS`` spec of the killed run: the parent's second result
#: store sleeps 3 s before it writes (the first store is the experiment's
#: clean baseline).  Without it the whole run takes about 0.2 s and the
#: signal often lands only once the run is done.
CHAOS_HOLD = (
    '{"seed":0,"rules":[{"site":"cache.object_write","kind":"slow_io",'
    '"at":[1],"delay_s":3.0}]}'
)

#: Seconds between the second batch's pool starting and the signal.  The
#: first worker result reaches the held store within milliseconds, so the
#: signal lands well inside the 3 s hold.
CHAOS_SETTLE_S = 0.5

#: What ``repro experiment`` prints to stderr when a signal stops a
#: supervised batch (``repro.errors.Interrupted``).
INTERRUPTED_MESSAGE = "interrupted — completed jobs are cached"


def _cli_env(cache_dir: Path, jobs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_CACHE"] = "1"
    env["REPRO_JOBS"] = str(jobs)
    env.pop("REPRO_JOB_TIMEOUT", None)
    env.pop("REPRO_CHAOS", None)
    if VALIDATE:
        env["REPRO_VALIDATE"] = "1"
    return env


def _experiment(env: dict, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", "experiment", CHAOS_EXPERIMENT],
        env=env,
        cwd=REPO,
        capture_output=True,
        **kwargs,
    )


def _objects(cache_dir: Path) -> dict:
    """Result objects on disk, by path, with their inode numbers."""
    return {
        path: path.stat().st_ino
        for path in (cache_dir / "objects").rglob("*.json")
    }


def _running_in_group(pgid: int) -> list:
    """``ps`` lines of the processes in group ``pgid`` that still run.
    Zombies do not count: only their parent (or init) can reap them."""
    listing = subprocess.run(
        ["ps", "-A", "-o", "pgid=,stat=,pid=,args="],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return [
        line.strip()
        for line in listing.splitlines()
        if line.split()[0] == str(pgid) and not line.split()[1].startswith("Z")
    ]


def _kill_midrun(cache_dir: Path, sig: signal.Signals, stderr: Path) -> tuple:
    """Start the chaos experiment in its own process group, send ``sig``
    during its held second store, then SIGKILL whatever is left of the
    group: a SIGKILLed run leaves its pool workers behind.  The run's
    stderr goes to the file ``stderr`` (a pipe would stay open in those
    workers).  Return the exit code and the processes still running
    after that."""
    env = _cli_env(cache_dir, jobs=2)
    env["REPRO_CHAOS"] = CHAOS_HOLD
    with open(stderr, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "experiment", CHAOS_EXPERIMENT],
            env=env,
            cwd=REPO,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
    deadline = time.time() + 300
    while time.time() < deadline and proc.poll() is None:
        # the first batch is one job, run in-process: a second process
        # in the group is the pool of the batch whose first store is held
        if _objects(cache_dir) and len(_running_in_group(proc.pid)) > 1:
            time.sleep(CHAOS_SETTLE_S)
            proc.send_signal(sig)
            break
        time.sleep(0.05)
    try:
        proc.wait(timeout=300)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.time() + 10
    survivors = _running_in_group(proc.pid)
    while survivors and time.time() < deadline:
        time.sleep(0.1)
        survivors = _running_in_group(proc.pid)
    return proc.returncode, survivors


def check_chaos() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        workdir = Path(tmp)
        serial_cache = workdir / "cache-serial"
        baseline = _experiment(_cli_env(serial_cache, jobs=1), check=True)
        total = len(_objects(serial_cache))

        failures = []
        scenarios = (
            ("sigint", signal.SIGINT),
            ("sigkill", signal.SIGKILL),
        )
        for name, sig in scenarios:
            cache_dir = workdir / f"cache-{name}"
            stderr = workdir / f"stderr-{name}"
            code, survivors = _kill_midrun(cache_dir, sig, stderr)
            if sig == signal.SIGINT:
                printed = stderr.read_text(errors="replace")
                if code != 130 or INTERRUPTED_MESSAGE not in printed:
                    failures.append(
                        f"{name}: the killed run exited {code} without "
                        f"the Interrupted message, so the signal missed "
                        f"the batch supervisor: {printed[-300:]!r}"
                    )
            if survivors:
                failures.append(
                    f"{name}: {len(survivors)} process(es) of the killed "
                    f"run still running: {survivors}"
                )
            kept = _objects(cache_dir)
            if not 1 <= len(kept) < total:
                failures.append(
                    f"{name}: the killed run (exit {code}) left "
                    f"{len(kept)} of {total} objects: it was not stopped "
                    "mid-run"
                )
                continue
            # hard links pin the inodes: a deleted object's inode number
            # cannot then be reused by the file that replaces it
            pins = workdir / f"pins-{name}"
            pins.mkdir()
            for n, path in enumerate(kept):
                os.link(path, pins / str(n))
            rerun = _experiment(_cli_env(cache_dir, jobs=4))
            replaced = [
                path
                for path, inode in kept.items()
                if not path.exists() or path.stat().st_ino != inode
            ]
            if rerun.returncode != 0:
                failures.append(
                    f"{name}: re-run exited {rerun.returncode}: "
                    f"{rerun.stderr.decode(errors='replace')[-300:]}"
                )
            elif replaced:
                failures.append(
                    f"{name}: the re-run rewrote {len(replaced)} of the "
                    f"{len(kept)} objects the killed run had stored"
                )
            elif rerun.stdout != baseline.stdout:
                failures.append(
                    f"{name}: re-run artifact differs from serial baseline "
                    f"(killed run exited {code})"
                )
            else:
                print(
                    f"chaos {name}: killed mid-run (exit {code}) with "
                    f"{len(kept)} of {total} objects stored; the re-run "
                    f"kept them and printed the baseline's "
                    f"{len(baseline.stdout)} bytes"
                )
    if failures:
        print("CHAOS FAILURE: " + "; ".join(failures))
        return 1
    print("chaos OK: interrupt-and-re-run artifacts byte-identical")
    return 0


def main() -> int:
    global VALIDATE
    args = sys.argv[1:]
    if "--validate" in args:
        VALIDATE = True
        args = [a for a in args if a != "--validate"]
    if args not in ([], ["--chaos"], ["--all"]):
        print(__doc__)
        return 2
    if VALIDATE:
        print("running with REPRO_VALIDATE=1 (invariant checker on)")
    code = 0
    if args != ["--chaos"]:
        code = check_modes()
    if args and code == 0:
        code = check_chaos()
    return code


if __name__ == "__main__":
    sys.exit(main())
