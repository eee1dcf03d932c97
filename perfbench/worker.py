"""One benchmark pass, in a fresh process with an empty cache directory.

    python3 perfbench/worker.py PASS_JSON OUT_JSON

PASS_JSON names the workload, its seeded jobs and whether to trace; the
cache directory comes from ``REPRO_CACHE_DIR``.  The pass sets up its
inputs, runs every job once cold (timed), re-reads every result from the
disk tier with the memory tier dropped (timed) for at least a second,
checks the outputs, and writes its measurements to OUT_JSON.

Workloads: ``zoo`` and ``faulted`` call ``repro.api.simulate``;
``serve-ref`` runs the serve workload's request universe the same way
and computes the expected report bodies; ``faulted-setup`` runs the
fault-free simulations that size each fault spec's horizon and draws the
specs (kept out of the faulted pass's process so its memos can not speed
up the timed runs).

With tracing on, each cold job runs stage by stage through the public
stage functions, with a span around each call.  Every stage memoizes by
graph identity, so the staged calls do the work of one ``simulate`` call.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402

from plan import (  # noqa: E402
    FAULT_CONFIG,
    FAULT_EVENTS,
    STEPS,
    self_times,
    serve_universe,
)
from spans import SpanRecorder  # noqa: E402

import repro.api as api  # noqa: E402
from repro.faults import FaultSpec  # noqa: E402
from repro.hardware.hmc import StackGeometry  # noqa: E402
from repro.obs.report import RunReport  # noqa: E402
from repro.sim import cache as sim_cache  # noqa: E402
from repro.sim.optable import cost_table  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402
from repro.sim.tracegen import compile_kernels, generate_trace  # noqa: E402
from repro.validate.invariants import check_result  # noqa: E402

IMPORT_S = time.perf_counter() - T_START

WARM_MIN_S = 1.0
#: Re-reads of each result in a traced pass (a fixed count, so that span
#: totals compare between runs).
WARM_TRACED_READS = 10


class Job:
    """One ``repro.api.simulate`` request with its resolved inputs."""

    def __init__(self, key, model, config, steps, faults=None):
        self.key = key
        self.model, self.config, self.steps, self.faults = model, config, steps, faults
        self.graph = api.cached_graph(model)
        self.system, _ = api.resolve_configuration(config)

    def new_policy(self):
        return api.resolve_configuration(self.config)[1]

    def call(self):
        """The untraced request; returns the RunResult."""
        return api.simulate(self.model, self.config, self.steps,
                            faults=self.faults).result


class Pass:
    def __init__(self, spec):
        self.spec = spec
        self.rec = SpanRecorder() if spec["trace"] else None
        self.out = {"attempted": 0, "failed": 0, "errors": []}
        self.counts = {"kernels": {}, "traces": {}, "tables": set(),
                       "events": 0, "retries": 0, "degradations": 0,
                       "reselections": 0}

    def span(self, name, job):
        return self.rec.span(name, job) if self.rec else nullcontext()

    def fail(self, n, message):
        self.out["failed"] += n
        if len(self.out["errors"]) < 20:
            self.out["errors"].append(message)

    # -- setup ---------------------------------------------------------------
    def setup(self):
        self.out["import_s"] = IMPORT_S
        t = time.perf_counter()
        build = getattr(self, "_jobs_" + self.spec["workload"].replace("-", "_"))
        with self.span("setup.graphs", "setup"):
            self.jobs = build()
        self.out["graphs_s"] = time.perf_counter() - t
        self.out["setup_s"] = time.perf_counter() - T_START

    def _graph(self, model):
        with self.span("nn.build", model):
            return api.cached_graph(model)

    def _api_job(self, model, config, steps, faults=None, key=None):
        self._graph(model)
        return Job(key or f"{model}/{config}/{steps}", model, config, steps, faults)

    def _jobs_zoo(self):
        return [self._api_job(m, c, STEPS) for m, c in self.spec["jobs"]]

    def _jobs_serve_ref(self):
        return [self._api_job(r["model"], r["config"], r["steps"])
                for r in serve_universe()]

    def _jobs_faulted(self):
        return [
            self._api_job(
                m, FAULT_CONFIG, STEPS,
                faults=FaultSpec.from_json(self.spec["specs"][f"{m}/{s}"]),
                key=f"{m}/{s}",
            )
            for m, s in self.spec["jobs"]
        ]

    def _jobs_faulted_setup(self):
        system, _ = api.resolve_configuration(FAULT_CONFIG)
        horizon = {}
        specs = {}
        for m, s in self.spec["jobs"]:
            if m not in horizon:
                self._graph(m)
                horizon[m] = api.simulate(m, FAULT_CONFIG, STEPS).result.makespan_s
            specs[f"{m}/{s}"] = FaultSpec.generate(
                seed=s,
                horizon_s=horizon[m],
                n_events=FAULT_EVENTS,
                banks=len(StackGeometry(system.stack).banks),
                pool_units=system.fixed_pim.n_units,
                prog_pims=system.prog_pim.n_pims,
            ).to_json()
        self.out["specs"] = specs
        return []

    # -- traced cold job -------------------------------------------------------
    def staged(self, job):
        j, graph, system, steps, faults = (
            job.key, job.graph, job.system, job.steps, job.faults)
        span = self.rec.span
        policy = job.new_policy()
        with span("job", j):
            # fingerprint before prepare(), as simulate_cached does: the
            # policy signature reads fields that prepare() fills in
            with span("cache.fingerprint", j):
                fp = sim_cache.run_fingerprint(graph, policy, system, steps,
                                               faults=faults)
            with span("cache.get", j):
                hit = sim_cache.get(fp)
            if hit is not None:
                return hit
            with span("runtime.prepare", j):
                policy.validate()
                policy.prepare(graph, system)
            with span("pimcl.compile", j):
                kernels = compile_kernels(graph)
            with span("tracegen.trace", j):
                tasks = generate_trace(graph, steps)
            if faults is None:
                with span("optable.build", j):
                    table = cost_table(graph, policy, system)
                self.counts["tables"].add(id(table))
            with span("simulation.task_build", j):
                sim = Simulation(graph, policy, config=system, steps=steps,
                                 faults=faults)
            with span("faults.drain" if faults else "simulation.drain", j):
                result = sim.run()
            with span("cache.put", j):
                sim_cache.put(fp, result, meta=sim_cache.object_meta(
                    result, graph, system, faults=faults))
            with span("results.encode", j):
                result.to_json()
                api.canonical_report(RunReport(result=result)).to_json()
        self.counts["kernels"][id(graph)] = len(kernels)
        self.counts["traces"][(id(graph), steps)] = len(tasks)
        self.counts["events"] += sim.engine.events_processed
        if faults is not None:
            for name in ("retries", "degradations", "reselections"):
                self.counts[name] += result.faults["counts"][name]
        return result

    def warm_read(self, job):
        with self.rec.span("job", job.key):
            with self.rec.span("cache.fingerprint", job.key):
                fp = sim_cache.run_fingerprint(
                    job.graph, job.new_policy(), job.system, job.steps,
                    faults=job.faults)
            with self.rec.span("cache.get", job.key):
                return sim_cache.get(fp)

    # -- phases ----------------------------------------------------------------
    def cold(self):
        jobs = self.jobs
        cold = self.staged if self.rec else (lambda job: job.call())
        results, lat = {}, {}
        first_span = len(self.rec.spans) if self.rec else 0
        before = sim_cache.stats()
        t0 = time.perf_counter()
        for job in jobs:
            a = time.perf_counter()
            try:
                results[job.key] = cold(job)
            except Exception as exc:  # a failed job is counted, not fatal
                self.fail(1, f"cold {job.key}: {exc!r}")
            lat[job.key] = (time.perf_counter() - a) * 1e3
        self.out.update(cold_s=time.perf_counter() - t0, cold_ms=lat)
        after = sim_cache.stats()
        self.out["attempted"] += len(jobs)
        if self.rec:
            self.out["cold_stage_s"] = sum(
                s["end"] - s["start"] for s in self.rec.spans[first_span:]
                if s["name"] != "job")
        misses = after["misses"] - before["misses"]
        if misses != len(jobs):
            self.fail(len(jobs), f"cold phase: {misses} misses for {len(jobs)} jobs")
        texts = {}
        for key, result in results.items():
            try:
                check_result(result)
            except Exception as exc:
                self.fail(1, f"invariants {key}: {exc!r}")
            texts[key] = result.to_json()
        self.out["results"] = {
            k: hashlib.sha256(t.encode()).hexdigest() for k, t in texts.items()}
        return texts

    def warm(self, texts):
        jobs = list(self.jobs)
        read = self.warm_read if self.rec else (lambda job: job.call())
        lat = {job.key: [] for job in jobs}
        # each round reads in a new order, so that the cache's every-8th-read
        # checksum verification does not always land on the same results
        order = random.Random(self.spec["seed"])
        spent = 0.0
        while (len(lat[jobs[0].key]) < WARM_TRACED_READS if self.rec
               else spent < WARM_MIN_S):
            order.shuffle(jobs)
            sim_cache.clear(disk=False)
            got = []
            before = sim_cache.stats()
            t0 = time.perf_counter()
            for job in jobs:
                a = time.perf_counter()
                try:
                    got.append((job.key, read(job)))
                except Exception as exc:
                    self.fail(1, f"warm {job.key}: {exc!r}")
                lat[job.key].append((time.perf_counter() - a) * 1e3)
            spent += time.perf_counter() - t0
            after = sim_cache.stats()
            self.out["attempted"] += len(jobs)
            hits = after["disk_hits"] - before["disk_hits"]
            if hits != len(jobs):
                self.fail(len(jobs), f"warm pass: {hits} disk hits for {len(jobs)} reads")
            for key, result in got:
                if result is None or result.to_json() != texts.get(key):
                    self.fail(1, f"warm {key}: differs from its cold result")
        self.out["warm_ms"] = lat

    def serve_bodies(self):
        bodies = {}
        for job, req in zip(self.jobs, serve_universe()):
            report = api.simulate(req["model"], req["config"], req["steps"])
            body = (api.canonical_report(report).to_json() + "\n").encode()
            bodies[job.key] = hashlib.sha256(body).hexdigest()
        self.out["bodies"] = bodies

    def layers(self, stats_before):
        totals = self_times(self.rec.spans)
        stats = sim_cache.stats()
        delta = {k: stats[k] - stats_before.get(k, 0) for k in stats}
        hits = delta["memory_hits"] + delta["disk_hits"]
        lookups = hits + delta["misses"]
        c = self.counts
        stage = ("runtime.prepare", "pimcl.compile", "tracegen.trace",
                 "optable.build", "simulation.task_build", "simulation.drain",
                 "faults.drain", "cache.fingerprint", "cache.get", "cache.put",
                 "results.encode")
        layers = {f"{name}_s": totals.get(name, 0.0) for name in stage}
        layers.update({
            "nn.build_s": totals.get("nn.build", 0.0),
            "nn.ops": sum({id(j.graph): j.graph.num_ops for j in self.jobs}.values()),
            "pimcl.kernels": sum(c["kernels"].values()),
            "tracegen.tasks": sum(c["traces"].values()),
            "optable.tables": len(c["tables"]),
            "engine.events": c["events"],
            "faults.retries": c["retries"],
            "faults.degradations": c["degradations"],
            "faults.reselections": c["reselections"],
            "cache.misses": delta["misses"],
            "cache.disk_hits": delta["disk_hits"],
            "cache.stores": delta["stores"],
            "cache.hit_ratio": hits / lookups if lookups else 0.0,
        })
        drain = layers["simulation.drain_s"] + layers["faults.drain_s"]
        layers["simulation.drain_us_per_event"] = (
            drain / c["events"] * 1e6 if c["events"] else 0.0)
        return layers


def main(argv):
    with open(argv[1]) as fh:
        spec = json.load(fh)
    p = Pass(spec)
    p.setup()
    if spec["workload"] != "faulted-setup":
        stats_before = sim_cache.stats()
        texts = p.cold()
        if spec["workload"] != "serve-ref":
            p.warm(texts)
        if p.rec:
            p.out["layers"] = p.layers(stats_before)
            p.out["spans"] = p.rec.spans
        if spec["workload"] == "serve-ref":
            p.serve_bodies()
    p.out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(argv[2], "w") as fh:
        json.dump(p.out, fh)


if __name__ == "__main__":
    main(sys.argv)
