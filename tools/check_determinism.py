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

``--chaos`` runs the crash-safety gate instead: a journaled
``repro experiment faults`` batch under ``REPRO_JOBS=4`` is killed
mid-run (once gracefully with SIGINT, once hard with SIGKILL) as soon as
its journal shows completed jobs, then picked back up with
``repro resume`` — and the resumed artifact must be byte-identical to an
uninterrupted serial baseline.  The batch's four jobs run at once and
finish within milliseconds of each other, so the killed run holds its
second journal line back (:data:`CHAOS_HOLD`) to keep the batch
unfinished when the signal lands; the gate fails if the batch completed
anyway.  Each killed batch runs in its own process group, which the gate
SIGKILLs afterwards; it fails if any process of that group still runs.
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
# chaos: mid-run kill -> repro resume -> byte-identical artifacts
# ---------------------------------------------------------------------------
#: Experiment the chaos gate interrupts (small: one model, a handful of
#: fault-sweep simulations, but routed through the supervised pool).
CHAOS_EXPERIMENT = "faults"

#: ``REPRO_CHAOS`` spec of the killed run: the parent's second journal
#: append (the line after the first completed job) sleeps 3 s.  Without
#: it the whole batch takes about 0.2 s and the trigger (a ``done`` line)
#: often fires only once the batch has completed.
CHAOS_HOLD = (
    '{"seed":0,"rules":[{"site":"journal.append","kind":"slow_io",'
    '"at":[2],"delay_s":3.0}]}'
)


def _cli_env(cache_dir: Path, jobs: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_CACHE"] = "1"
    env["REPRO_JOBS"] = str(jobs)
    env.pop("REPRO_JOB_TIMEOUT", None)
    if VALIDATE:
        env["REPRO_VALIDATE"] = "1"
    return env


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


def _kill_midrun(cache_dir: Path, run_id: str, sig: signal.Signals) -> tuple:
    """Start the chaos experiment in its own process group, kill it once its
    journal shows progress (completed jobs), then SIGKILL whatever is left
    of the group: a SIGKILLed batch leaves its pool workers behind.
    Return the exit code, the processes still running after that, and
    whether the signal interrupted the batch: it landed before the journal
    recorded the batch ``complete``, and the batch never recorded it."""
    env = _cli_env(cache_dir, jobs=4)
    env["REPRO_CHAOS"] = CHAOS_HOLD
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "experiment",
            CHAOS_EXPERIMENT,
            "--run-id",
            run_id,
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    journal = cache_dir / "journal" / f"{run_id}.jsonl"
    complete = '"event":"complete"'
    unfinished = False
    deadline = time.time() + 300
    while time.time() < deadline and proc.poll() is None:
        text = journal.read_text() if journal.exists() else ""
        if '"status":"done"' in text:
            unfinished = complete not in text
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
    interrupted = unfinished and complete not in journal.read_text()
    return proc.returncode, survivors, interrupted


def check_chaos() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        workdir = Path(tmp)
        baseline = subprocess.run(
            [sys.executable, "-m", "repro", "experiment", CHAOS_EXPERIMENT],
            env=_cli_env(workdir / "cache-serial", jobs=1),
            cwd=REPO,
            capture_output=True,
            check=True,
        ).stdout

        failures = []
        scenarios = (
            ("sigint", signal.SIGINT),
            ("sigkill", signal.SIGKILL),
        )
        for name, sig in scenarios:
            cache_dir = workdir / f"cache-{name}"
            code, survivors, interrupted = _kill_midrun(
                cache_dir, f"chaos-{name}", sig
            )
            if not interrupted:
                failures.append(
                    f"{name}: the signal interrupted nothing (exit {code}): "
                    "the batch had completed"
                )
            if survivors:
                failures.append(
                    f"{name}: {len(survivors)} process(es) of the killed "
                    f"batch still running: {survivors}"
                )
            resumed = subprocess.run(
                [sys.executable, "-m", "repro", "resume", f"chaos-{name}"],
                env=_cli_env(cache_dir, jobs=4),
                cwd=REPO,
                capture_output=True,
            )
            if resumed.returncode != 0:
                failures.append(
                    f"{name}: resume exited {resumed.returncode}: "
                    f"{resumed.stderr.decode(errors='replace')[-300:]}"
                )
            elif resumed.stdout != baseline:
                failures.append(
                    f"{name}: resumed artifact differs from serial baseline "
                    f"(killed run exited {code})"
                )
            elif interrupted:
                print(
                    f"chaos {name}: killed mid-run (exit {code}), resumed "
                    f"byte-identical ({len(baseline)} artifact bytes)"
                )
    if failures:
        print("CHAOS FAILURE: " + "; ".join(failures))
        return 1
    print("chaos OK: interrupt-and-resume artifacts byte-identical")
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
