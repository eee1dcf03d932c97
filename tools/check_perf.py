#!/usr/bin/env python
"""CI perf gate: ``experiment summary`` wall-clock and serve latency vs
the committed budgets, in perfbench's host-calibrated units.

Four numbers are gated, each against a throwaway cache directory so the
developer's warm cache never skews (or is polluted by) them:

* **cold** — ``repro experiment summary`` with every simulation run;
* **warm** — the identical second invocation, everything a cache hit;
* **surrogate cold** — result cache emptied again, but the cost surrogate
  (trained from the warm cache) answers the estimable queries;
* **serve p99** — of ``SERVE_REQUESTS`` warm (store-served) requests to an
  in-process daemon: it bounds the daemon's fixed overhead (HTTP parse,
  routing, store read) independently of simulator speed.

A shared host's speed moves from one run to the next, so each number is
scaled to perfbench's nominal host (``perfbench/calibrate.py``): the
reference work is timed ``REFERENCE_REPS`` times right before and right
after each measurement — a fixed count, so faster code cannot collect
more reference timings — and ``calibrate.scaled`` maps the measured value
through the host speed those timings give.  The committed
``BENCH_summary.json`` holds the budgets in nominal-host units, with the
``REFERENCE_S`` and ``ELASTICITY`` they were recorded under.  The gate
fails on a scaled number above ``SLACK`` times its budget, and on budgets
recorded under other calibration constants.

Children run serially (``REPRO_JOBS=1``), without invariant checking or
chaos inherited from the caller's environment.

Usage::

    python tools/check_perf.py            # measure and compare (CI gate)
    python tools/check_perf.py --update   # measure and (re)write the budgets
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from serve_client import run_load

REPO = Path(__file__).resolve().parent.parent
SUMMARY_PATH = REPO / "BENCH_summary.json"
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "perfbench"))

import calibrate  # noqa: E402
from repro.sim.results import canonical_dumps  # noqa: E402

#: Regression threshold: fail only when a scaled number exceeds its
#: committed budget by more than this factor.
SLACK = 2.0
#: Reference timings taken right before, and again right after, each
#: measurement.
REFERENCE_REPS = 5
#: Warm requests whose latency percentile the serve gate reads.
SERVE_REQUESTS = 1000
SERVE_REQUEST = {"model": "alexnet", "steps": 2}
#: The gated numbers: (section of BENCH_summary.json, key, unit).
GATED = (
    ("experiment_summary", "cold_s", "s"),
    ("experiment_summary", "warm_s", "s"),
    ("experiment_summary", "surrogate_cold_s", "s"),
    ("serve", "warm_p99_ms", "ms"),
)
#: The calibration constants the budgets are recorded under.
CALIBRATION = {
    "ELASTICITY": calibrate.ELASTICITY,
    "REFERENCE_S": calibrate.REFERENCE_S,
}
UPDATE_HINT = "re-record the budgets with 'python tools/check_perf.py --update'"


def pin_env() -> None:
    """Serial children, and no invariant checking or chaos from outside."""
    os.environ["PYTHONPATH"] = str(REPO / "src")
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE"] = "1"
    os.environ.pop("REPRO_VALIDATE", None)
    os.environ.pop("REPRO_CHAOS", None)


def calibrated(reference: calibrate.Reference, measure) -> tuple:
    """``measure()``'s value and the host speed timed around it."""
    timings = [reference.measure() for _ in range(REFERENCE_REPS)]
    value = measure()
    timings += [reference.measure() for _ in range(REFERENCE_REPS)]
    return value, calibrate.REFERENCE_S / statistics.median(timings)


def _repro(cache_dir: Path, *args: str) -> float:
    """Seconds one ``python -m repro <args>`` child takes."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", *args],
        check=True,
        env=dict(os.environ, REPRO_CACHE_DIR=str(cache_dir)),
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def measure_summary(reference: calibrate.Reference) -> dict:
    with tempfile.TemporaryDirectory(prefix="repro-perf-") as tmp:
        cache = Path(tmp) / "cache"
        summary = ("experiment", "summary")
        out = {
            "cold_s": calibrated(reference, lambda: _repro(cache, *summary)),
            "warm_s": calibrated(reference, lambda: _repro(cache, *summary)),
        }
        # train the surrogate from the now-warm cache, then empty the
        # result tier so the surrogate run is honestly cold
        _repro(cache, "surrogate", "train")
        shutil.rmtree(cache / "objects")
        out["surrogate_cold_s"] = calibrated(
            reference, lambda: _repro(cache, *summary, "--surrogate")
        )
    return out


def measure_serve(reference: calibrate.Reference) -> dict:
    """Warm-path p99 of an in-process daemon on a fresh cache: one cold
    request simulates and stores, the repeats are served from the store."""
    from repro.serve import start_in_thread

    with tempfile.TemporaryDirectory(prefix="repro-serve-perf-") as tmp:
        os.environ["REPRO_CACHE_DIR"] = tmp  # daemon thread reads it live
        handle = start_in_thread(workers=2)
        load = (handle.host, handle.port, SERVE_REQUEST)
        try:
            run_load(*load, iterations=1)
            warm, speed = calibrated(
                reference, lambda: run_load(*load, iterations=SERVE_REQUESTS)
            )
        finally:
            handle.stop()
            del os.environ["REPRO_CACHE_DIR"]
    return {"warm_p99_ms": (warm["p99_ms"], speed)}


def main() -> int:
    update = "--update" in sys.argv[1:]
    pin_env()
    reference = calibrate.Reference()
    # its records live as long as the process: keep full collections from
    # rescanning them, in the reference timings and the daemon alike
    gc.freeze()
    measured = {**measure_summary(reference), **measure_serve(reference)}
    recorded = json.loads(SUMMARY_PATH.read_text()) if SUMMARY_PATH.is_file() else {}

    failures = []
    if not update and recorded.get("calibration") != CALIBRATION:
        failures.append(
            f"budgets were recorded under calibration "
            f"{recorded.get('calibration')}, the gate scales by "
            f"{CALIBRATION}; {UPDATE_HINT}"
        )
    budgets: dict = {"calibration": CALIBRATION}
    print(
        f"{'number':18s} {'measured':>10s} {'host speed':>10s} "
        f"{'scaled':>10s} {'budget':>10s}"
    )
    for section, key, unit in GATED:
        raw, speed = measured[key]
        value = round(calibrate.scaled(raw, unit, speed), 3)
        budgets.setdefault(section, {})[key] = value
        budget = recorded.get(section, {}).get(key)
        print(
            f"{key:18s} {raw:10.3f} {speed:10.3f} {value:10.3f} "
            f"{'-' if budget is None else budget:>10} {unit}"
        )
        if update:
            continue
        if budget is None:
            failures.append(f"{section}.{key} has no budget; {UPDATE_HINT}")
        elif value > SLACK * budget:
            failures.append(
                f"{section}.{key}: {value} {unit} scaled > {SLACK}x budget "
                f"({budget} {unit})"
            )

    if update:
        SUMMARY_PATH.write_text(canonical_dumps(budgets, indent=2) + "\n")
        print(f"budgets recorded in {SUMMARY_PATH.name} (nominal-host units)")
        return 0
    if failures:
        print("PERF REGRESSION: " + "; ".join(failures))
        return 1
    print(f"perf OK: every scaled number within {SLACK}x of its budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
