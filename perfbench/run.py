"""Benchmark of the PIM training simulator, driven from outside.

    python3 perfbench/run.py --workload {zoo,faulted,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the simulator is imported from ``src/``.
Scratch files go to ``.perfbench/`` and are removed at exit, except the
spans of a traced run (``.perfbench/spans-<workload>-seed<N>.json``).

Each batch workload (``zoo``, ``faulted``) runs passes back to back for
about S seconds.  A pass is a fresh worker process on an empty cache
directory (see ``worker.py``), so no memo or cache entry outlives it.
The ``serve`` workload runs segments, each with a fresh daemon (see
``serveload.py``).  Throughputs take each job or request at its median
latency over the run, which keeps the host's short slow-downs out of
them; set-up time and peak RSS are medians over passes or segments.
The end-to-end times and rates are then scaled to the nominal host by
the reference work of ``calibrate.py``, timed before every pass, which
takes out the host's slow swings in speed; each printed line also gives
the value as measured.
With ``--trace 1`` untraced and traced passes alternate and the run
reports the per-layer metrics instead.  The metric names, units and
workloads are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit and sample count, the error rate and a
``results_sha256`` over the simulated results, sorted by job.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REFERENCE_S, Reference, scaled
from plan import (
    cold_rate,
    median,
    percentile,
    plan,
    pooled,
    rate_from_medians,
    self_times,
    serve_universe,
    trace_cost,
)
from serveload import pin_to_one_cpu, run_segment
from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
PASS_TIMEOUT_S = 150
#: Untraced passes (or serve segments) per run, at least: enough for each
#: job's median latency to ignore one slow pass.
MIN_PASSES = 3
#: Reference timings taken before each pass (see ``calibrate.py``).
REFERENCE_PER_PASS = 4

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
#: End-to-end metrics: (name, unit).  Every workload reports all of them.
E2E = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
#: Per-layer metrics of a traced run: (name, unit).  The ``_s`` metrics
#: are self time summed over a traced pass; a layer a workload does not
#: exercise reads 0.
LAYERS = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

#: The end-to-end metric and workload each per-layer metric should move.
MOVES = {
    "setup.import_s": "setup_s, all workloads",
    "setup.graphs_s": "setup_s, all workloads",
    "nn.build_s": "setup_s, most on zoo, least on serve",
    "nn.ops": "setup_s, most on zoo",
    "runtime.prepare_s": "sims_per_s on zoo",
    "pimcl.compile_s": "sims_per_s on zoo",
    "pimcl.kernels": "sims_per_s on zoo",
    "tracegen.trace_s": "sims_per_s on zoo",
    "tracegen.tasks": "sims_per_s on zoo",
    "optable.build_s": "sims_per_s on zoo; 0 on faulted",
    "optable.tables": "sims_per_s on zoo",
    "simulation.task_build_s": "sims_per_s on zoo",
    "simulation.drain_s": "sims_per_s on zoo",
    "engine.events": "sims_per_s on zoo and faulted",
    "simulation.drain_us_per_event": "sims_per_s on zoo and faulted",
    "faults.drain_s": "sims_per_s on faulted",
    "faults.retries": "sims_per_s on faulted",
    "faults.degradations": "sims_per_s on faulted",
    "faults.reselections": "sims_per_s on faulted",
    "cache.fingerprint_s": "sims_per_s on zoo, warm_p50_ms on serve",
    "cache.get_s": "warm_reads_per_s on zoo",
    "cache.put_s": "sims_per_s on zoo",
    "cache.misses": "sims_per_s, all batch workloads",
    "cache.disk_hits": "warm_reads_per_s on zoo",
    "cache.stores": "sims_per_s, all batch workloads",
    "cache.hit_ratio": "warm_reads_per_s on zoo",
    "results.encode_s": "sims_per_s on serve",
    "serve.daemon_p50_ms": "warm_p50_ms on serve",
    "serve.daemon_p99_ms": "warm p99 on serve (printed)",
    "serve.store_hits": "warm_reads_per_s on serve",
    "serve.completed": "sims_per_s on serve",
    "serve.queue_peak": "warm p99 on serve (printed)",
    "serve.errors": "every metric on serve",
    "trace.overhead": "none: traced over untraced time per cold job, minus 1",
    "trace.coverage": "none: stage span time over untraced cold time",
}


def child_env(cache_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 tmp: Path):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.tmp = trace, tmp
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.lines: list = []
        self._n = 0
        self.reference = Reference()
        self.reference_s: list = []

    def fail(self, n: int, message: str) -> None:
        self.failed += n
        self.errors.append(message)

    def worker(self, workload: str, jobs, traced: bool, **extra) -> dict:
        self._n += 1
        name = f"{self._n:03d}-{workload}"
        cache_dir = self.tmp / name
        spec = {"workload": workload, "jobs": jobs, "trace": traced,
                "seed": self.seed, **extra}
        spec_path = self.tmp / f"{name}.json"
        out_path = self.tmp / f"{name}.out.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path),
             str(out_path)],
            env=child_env(cache_dir), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} worker failed:\n{proc.stderr[-3000:]}")
        out = json.loads(out_path.read_text())
        shutil.rmtree(cache_dir, ignore_errors=True)
        self.attempted += out["attempted"]
        if out["failed"]:
            self.fail(out["failed"], "; ".join(out["errors"][:5]))
        return out

    def repeat(self, one) -> list:
        """Call ``one(traced)`` until the next call would overrun the run's
        seconds; traced and untraced calls alternate in a traced run."""
        outs = []
        least = 2 if self.trace else MIN_PASSES
        t0 = time.perf_counter()
        while True:
            self.reference_s += [self.reference.measure()
                                 for _ in range(REFERENCE_PER_PASS)]
            outs.append(one(self.trace and len(outs) % 2 == 1))
            elapsed = time.perf_counter() - t0
            if (len(outs) >= least
                    and elapsed * (len(outs) + 1) / len(outs) > self.seconds):
                return outs

    def note(self, name: str, value, unit: str, samples: str) -> None:
        self.lines.append(f"  {name:<30} {value:>12.4f} {unit:<6} ({samples})")

    def info(self, name: str, value, unit: str, samples: str) -> None:
        self.note(name, value, unit, samples + ", not gated")

    def info_percentiles(self, latencies, kind: str, what: str) -> None:
        flat = [v for vs in latencies.values() for v in vs]
        for q, tag in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            value = percentile(flat, q)
            if value is not None and (kind, tag) != ("warm", "p50"):
                self.info(f"{kind}_{tag}_ms", value, "ms", f"{len(flat)} {what}")

    # -- batch workloads -----------------------------------------------------
    def batch(self) -> dict:
        jobs = plan(self.workload, self.seed)

        def one(traced):
            if self.workload != "faulted":
                return self.worker(self.workload, jobs, traced)
            # each pass gets its own set-up process, which runs the
            # fault-free horizon simulations and draws the specs, so no
            # memo of those runs reaches the timed pass
            setup = self.worker("faulted-setup", jobs, False)
            out = self.worker("faulted", jobs, traced, specs=setup["specs"])
            for key in ("setup_s", "import_s", "graphs_s"):
                out[key] += setup[key]
            return out

        passes = self.repeat(one)
        self.check_same_results(passes)
        plain = [p for p in passes if "layers" not in p]
        traced = [p for p in passes if "layers" in p]
        n = len(plain)
        jobs_n = len(plain[0]["cold_ms"])
        self.lines.append(
            f"workload {self.workload} seed {self.seed}: {n} untraced and "
            f"{len(traced)} traced passes, {jobs_n} jobs each")
        if traced:
            return self.batch_layers(plain, traced)
        warm = pooled([p["warm_ms"] for p in plain])
        reads = sum(map(len, warm.values()))
        metrics = {
            "setup_s": median([p["setup_s"] for p in plain]),
            "sims_per_s": cold_rate(plain),
            "warm_reads_per_s": rate_from_medians(warm),
            "warm_p50_ms": percentile([v for vs in warm.values() for v in vs], 0.5),
            "peak_rss_mb": median([p["rss_mb"] for p in plain]),
        }
        samples = {
            "setup_s": f"median of {n} pass set-ups",
            "sims_per_s": f"{jobs_n} jobs at their median cold latency over {n} passes",
            "warm_reads_per_s": f"{jobs_n} results at their median of {reads} disk reads",
            "warm_p50_ms": f"{reads} disk reads",
            "peak_rss_mb": f"median of {n} worker processes",
        }
        self.info("cold_phase_per_s", median([jobs_n / p["cold_s"] for p in plain]),
                  "1/s", f"median of {n} whole cold phases")
        self.info_percentiles(
            pooled([{k: [v] for k, v in p["cold_ms"].items()} for p in plain]),
            "cold", "cold simulations")
        self.info_percentiles(warm, "warm", "disk reads")
        return self.finish(metrics, samples)

    def check_same_results(self, passes) -> None:
        first = passes[0]["results"]
        for p in passes[1:]:
            if p["results"] != first:
                self.fail(len(first), "a pass simulated different results")
        digest = hashlib.sha256(
            json.dumps(sorted(first.items())).encode()).hexdigest()
        self.results_sha = digest

    def batch_layers(self, plain, traced) -> dict:
        layers = self.pass_layers(plain, traced)
        self.dump_spans([p["spans"] for p in traced])
        return self.finish_layers(
            layers, lambda name: f"median of {len(traced)} traced passes")

    @staticmethod
    def pass_layers(plain, traced) -> dict:
        """Per-layer metrics of traced worker passes, with the tracing cost
        measured against the untraced ones."""
        layers = {name: median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        layers["setup.import_s"] = median([p["import_s"] for p in traced])
        layers["setup.graphs_s"] = median([p["graphs_s"] for p in traced])
        layers.update(trace_cost(plain, traced))
        return layers

    # -- serve ---------------------------------------------------------------
    def serve(self) -> dict:
        pin_to_one_cpu()
        sequence = plan("serve", self.seed)
        recorder = SpanRecorder() if self.trace else None
        segments = []
        # in-process reference passes over the request universe: the first
        # gives the expected bodies; a traced run adds one per segment, of
        # the segment's tracing, for the per-layer numbers
        t0 = time.perf_counter()
        refs = [self.worker("serve-ref", [], False)]
        self.seconds -= time.perf_counter() - t0

        def one(traced):
            if self.trace:
                refs.append(self.worker("serve-ref", [], traced))
            segment = run_segment(child_env(self.tmp / f"serve-{len(segments)}"),
                                  sequence, recorder if traced else None,
                                  len(segments))
            segment["traced"] = traced
            segments.append(segment)
            return segment

        self.repeat(one)
        self.check_same_results(refs)
        bodies = [refs[0]["bodies"][f"{r['model']}/{r['config']}/{r['steps']}"]
                  for r in serve_universe()]
        for seg in segments:
            self.check_segment(seg, bodies)
        plain = [s for s in segments if not s["traced"]]
        n = len(plain)
        self.lines.append(
            f"workload serve seed {self.seed}: {n} untraced and "
            f"{len(segments) - n} traced daemon segments, {len(sequence)} "
            f"requests each")
        lat = {kind: pooled([{o["idx"]: [o["ms"]]} for s in plain
                             for o in s["outcomes"]
                             if o["kind"] == kind and "ms" in o])
               for kind in ("cold", "warm")}
        warm_n = sum(map(len, lat["warm"].values()))
        metrics = {
            "setup_s": median([s["setup_s"] for s in plain]),
            "sims_per_s": rate_from_medians(lat["cold"]),
            "warm_reads_per_s": rate_from_medians(lat["warm"]),
            "warm_p50_ms": percentile(
                [v for vs in lat["warm"].values() for v in vs], 0.5),
            "peak_rss_mb": median([s["rss_mb"] for s in plain]),
        }
        samples = {
            "setup_s": f"median of {n} daemon starts to a 200 healthz",
            "sims_per_s": f"{len(lat['cold'])} first-seen requests at their median over {n} segments",
            "warm_reads_per_s": f"{len(lat['warm'])} requests at their median of {warm_n} repeats",
            "warm_p50_ms": f"{warm_n} store-served requests",
            "peak_rss_mb": f"median of {n} daemon processes",
        }
        self.info_percentiles(lat["cold"], "cold", "first-seen requests")
        self.info_percentiles(lat["warm"], "warm", "store-served requests")
        self.info("daemon_p50_ms",
                  median([s["after"]["latency_ms"]["p50"] for s in plain]), "ms",
                  f"median of {n} healthz histograms")
        if not self.trace:
            return self.finish(metrics, samples)
        return self.serve_layers([s for s in segments if s["traced"]], refs,
                                 recorder)

    def check_segment(self, seg, bodies) -> None:
        outcomes = seg["outcomes"]
        self.attempted += len(outcomes)
        bad = 0
        for o in outcomes:
            want = "run" if o["kind"] == "cold" else "store"
            if ("error" in o or o["status"] != 200 or o["from"] != want
                    or o["sha"] != bodies[o["idx"]]):
                bad += 1
                if bad <= 3:
                    self.errors.append(f"serve request {o}")
        cold = sum(1 for o in outcomes if o["kind"] == "cold")
        before, after = seg["before"], seg["after"]
        misses = after["cache"]["misses"] - before["cache"]["misses"]
        store = (after["counters"].get("serve.store_hits", 0)
                 - before["counters"].get("serve.store_hits", 0))
        if misses != cold or store != len(outcomes) - cold:
            bad = len(outcomes)
            self.errors.append(
                f"serve segment: {misses} cache misses for {cold} first-seen "
                f"requests, {store} store hits for {len(outcomes) - cold} repeats")
        self.failed += bad

    def serve_layers(self, traced, refs, recorder) -> dict:
        # the daemon runs the program out of reach of the benchmark's spans,
        # so the stage layers come from the in-process reference passes
        plain_refs = [r for r in refs if "layers" not in r]
        traced_refs = [r for r in refs if "layers" in r]
        layers = self.pass_layers(plain_refs, traced_refs)

        def delta(seg, key):
            return (seg["after"]["counters"].get(key, 0)
                    - seg["before"]["counters"].get(key, 0))

        def errors(seg):
            return sum(delta(seg, key) for key in seg["after"]["counters"]
                       if key.startswith("serve.responses.")
                       and int(key.rsplit(".", 1)[1]) >= 400)

        layers.update({
            "serve.daemon_p50_ms": median(
                [s["after"]["latency_ms"]["p50"] for s in traced]),
            "serve.daemon_p99_ms": median(
                [s["after"]["latency_ms"]["p99"] for s in traced]),
            "serve.store_hits": median(
                [delta(s, "serve.store_hits") for s in traced]),
            "serve.completed": median(
                [s["after"]["completed"] - s["before"]["completed"]
                 for s in traced]),
            "serve.queue_peak": median([s["after"]["queue_peak"] for s in traced]),
            "serve.errors": median([errors(s) for s in traced]),
        })
        client = self_times(recorder.spans).get("serve.request", 0.0)
        self.lines.append(
            f"  client time in serve.request spans: {client:.3f} s over "
            f"{len(recorder.spans)} requests")
        self.dump_spans([r["spans"] for r in traced_refs] + [recorder.spans])

        def describe(name):
            if name.startswith("serve."):
                return f"median of {len(traced)} traced daemon segments"
            return (f"median of {len(traced_refs)} traced in-process reference "
                    "passes (api.simulate over the request universe, not the "
                    "daemon)")

        return self.finish_layers(layers, describe)

    # -- output ----------------------------------------------------------------
    def dump_spans(self, groups) -> None:
        path = WORK / f"spans-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps(groups))
        self.lines.append(f"  spans written to {path.relative_to(ROOT)}")

    def host_speed(self) -> float:
        speed = REFERENCE_S / median(self.reference_s)
        self.lines.append(
            f"  host speed {speed:.4f} (reference work took "
            f"{min(self.reference_s):.4f}-{max(self.reference_s):.4f} s over "
            f"{len(self.reference_s)} timings, {REFERENCE_S} s on the nominal "
            "host)")
        return speed

    def finish(self, metrics: dict, samples: dict) -> dict:
        """The end-to-end metrics, scaled to the nominal host's speed."""
        speed = self.host_speed()
        out = {}
        for name, unit in E2E:
            if metrics[name] is None:
                raise RuntimeError(f"{name}: too few samples ({samples[name]})")
            value = scaled(metrics[name], unit, speed)
            self.note(name, value, unit,
                      f"{samples[name]}; {metrics[name]:.4f} as measured")
            out[name] = {"value": value, "unit": unit}
        return out

    def finish_layers(self, layers: dict, describe) -> dict:
        """The per-layer metrics, as measured."""
        self.host_speed()
        out = {}
        for name, unit in LAYERS:
            value = float(layers.get(name, 0.0))
            self.note(name, value, unit, f"{describe(name)}; moves {MOVES[name]}")
            out[name] = {"value": value, "unit": unit}
        return out


def _terminate(signum, frame):
    # unwinding stops the worker or daemon subprocess a run has open
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
        metrics = run.serve() if args.workload == "serve" else run.batch()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    rate = run.failed / run.attempted if run.attempted else 1.0
    run.lines.append(f"  error_rate {rate:.6f} ({run.failed} failed of "
                     f"{run.attempted} attempted)")
    run.lines.append(f"  results_sha256 {run.results_sha}")
    for message in run.errors[:10]:
        print(f"error: {message}", file=sys.stderr)
    print("\n".join(run.lines))
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
