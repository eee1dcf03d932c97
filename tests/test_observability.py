"""Observability layer: metrics registry, run reports, Chrome traces.

Covers the determinism contract (observability must never change cached
results: serial == parallel == warm-cache == observed), the versioned
serialization round trips, and the Chrome Trace Event export including
device-lane mapping for configurations without a GPU.
"""

import hashlib
import json
import marshal

import pytest

from repro import api
from repro.experiments import run_model_on, runner
from repro.obs import validate_chrome_trace
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    TimeWeighted,
    merge_snapshots,
)
from repro.obs.report import REPORT_SCHEMA_VERSION, RunReport
from repro.obs.trace import build_trace_events, to_chrome_payload
from repro.sim import cache as sim_cache
from repro.sim.results import RESULT_SCHEMA_VERSION, RunResult, canonical_dumps

MODEL = "lstm"  # smallest evaluation workload: keeps these tests quick


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    sim_cache._memory.clear()
    sim_cache.reset_stats()
    runner.set_jobs(None)
    yield
    sim_cache._memory.clear()
    runner.set_jobs(None)


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        c = reg.counter("events")
        c.inc()
        c.inc(4)
        reg.gauge("depth").set(7)
        snap = reg.snapshot()
        assert snap["events"] == 5
        assert snap["depth"] == 7

    def test_time_weighted_mean(self):
        reg = MetricsRegistry()
        tw = reg.time_weighted("load")
        tw.set(0.0, now=0.0)
        tw.set(4.0, now=1.0)  # 0 over [0,1)
        assert tw.integral(2.0) == pytest.approx(4.0)  # 4 over [1,2)
        assert tw.mean(2.0) == pytest.approx(2.0)

    def test_snapshot_is_sorted_and_plain(self):
        reg = MetricsRegistry()
        reg.gauge("z").set(1)
        reg.counter("a").inc()
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert json.loads(canonical_dumps(snap)) == snap

    def test_disabled_registry_is_null(self):
        assert not NULL_REGISTRY.enabled
        c = NULL_REGISTRY.counter("x")
        c.inc(10)
        NULL_REGISTRY.gauge("y").set(3)
        assert NULL_REGISTRY.names() == []
        assert NULL_REGISTRY.snapshot() == {}
        # all disabled instruments are one shared no-op object
        assert c is NULL_REGISTRY.time_weighted("z")

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("n") is reg.counter("n")
        with pytest.raises(Exception):
            reg.gauge("n")  # name already bound to a different type

    def test_merge_snapshots(self):
        merged = merge_snapshots([{"a": 1, "b": 2.5}, {"a": 3}])
        assert merged == {"a": 4, "b": 2.5}

    def test_instrument_classes_standalone(self):
        c = Counter("c")
        c.inc(2)
        assert c.value == 2
        g = Gauge("g")
        g.set((1, 2))
        assert g.value == (1, 2)
        tw = TimeWeighted("t")
        tw.set(1.0, now=0.0)
        assert tw.integral(3.0) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# result / report serialization
# ---------------------------------------------------------------------------
class TestSerialization:
    def test_run_result_round_trip_is_exact(self):
        result = run_model_on(MODEL, "hetero-pim")
        clone = RunResult.from_json(result.to_json())
        assert clone == result
        assert clone.to_json() == result.to_json()
        assert result.to_dict()["schema"] == RESULT_SCHEMA_VERSION

    def test_unknown_schema_rejected(self):
        result = run_model_on(MODEL, "hetero-pim")
        payload = result.to_dict()
        payload["schema"] = 99
        with pytest.raises(Exception):
            RunResult.from_dict(payload)

    def test_run_report_round_trip(self):
        report = api.simulate(MODEL, "hetero-pim")
        clone = RunReport.from_json(report.to_json())
        assert clone.result == report.result
        assert clone.to_json() == report.to_json()
        assert report.to_dict()["report_schema"] == REPORT_SCHEMA_VERSION

    def test_disk_tier_stores_the_versioned_dict(self):
        result = run_model_on(MODEL, "hetero-pim")
        files = list((sim_cache.cache_dir() / "objects").rglob("*.json"))
        assert files
        # One JSON head line, then the marshal bytes of the versioned
        # dict, checksummed (with the rest of the head) by its sha256.
        data = files[0].read_bytes()
        head, sep, payload = data.partition(b"\n")
        assert sep
        assert marshal.loads(payload) == result.to_dict()
        assert RunResult.from_dict(marshal.loads(payload)).to_json() == (
            result.to_json()
        )
        envelope = json.loads(head)
        assert envelope["repro_object"] == 2
        digest_end = data.index(b'"sha256":"') + len(b'"sha256":"') + 64
        assert envelope["sha256"] == hashlib.sha256(
            data[digest_end:]
        ).hexdigest()


# ---------------------------------------------------------------------------
# aggregate consistency
# ---------------------------------------------------------------------------
class TestAggregates:
    def test_occupancy_histogram_sums_to_makespan(self):
        result = run_model_on(MODEL, "hetero-pim")
        hist = result.bank_occupancy_hist_s
        assert len(hist) == 17  # idle bin + 16 busy-fraction bins
        assert all(v >= 0 for v in hist)
        assert sum(hist) == pytest.approx(result.makespan_s, rel=1e-9)
        assert sum(hist[1:]) > 0  # the pool did run

    def test_busy_fractions_are_fractions(self):
        result = run_model_on(MODEL, "hetero-pim")
        busy = result.device_busy_fraction
        assert set(busy) == {"cpu", "prog", "fixed"}  # no GPU lane here
        for fraction in busy.values():
            assert 0.0 <= fraction <= 1.0
        # fixed-pool busy fraction must agree with the energy model's
        # busy-unit-seconds over total capacity-time
        expected = result.usage.fixed_unit_busy_s / (444 * result.makespan_s)
        assert busy["fixed"] == pytest.approx(expected, rel=1e-9)

    def test_gpu_config_reports_gpu_lane(self):
        result = run_model_on(MODEL, "gpu")
        assert "gpu" in result.device_busy_fraction

    def test_queue_wait_nonnegative(self):
        result = run_model_on(MODEL, "hetero-pim")
        assert result.queue_wait_s
        for wait in result.queue_wait_s.values():
            assert wait >= 0.0

    def test_selection_log_on_profiled_policy(self):
        result = run_model_on(MODEL, "hetero-pim")
        sel = result.selection
        assert sel is not None
        assert 0.0 < sel["time_coverage"] <= 1.0
        assert sel["decisions"]
        selected = [d for d in sel["decisions"] if d["selected"]]
        assert {d["op_type"] for d in selected} == set(sel["candidate_types"])

    def test_static_policy_has_no_selection(self):
        result = run_model_on(MODEL, "cpu")
        assert result.selection is None

    def test_metrics_snapshot_present(self):
        result = run_model_on(MODEL, "hetero-pim")
        assert result.metrics["engine.events_processed"] == result.events_processed
        assert result.metrics["fixed.units"] == 444


# ---------------------------------------------------------------------------
# determinism: observability must not perturb results
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_observed_equals_cached(self):
        fresh = api.simulate(MODEL, "hetero-pim", observe=True)
        cached = api.simulate(MODEL, "hetero-pim")
        assert cached.result == fresh.result
        assert cached.result.to_json() == fresh.result.to_json()

    def test_warm_cache_round_trip_identical(self):
        first = run_model_on(MODEL, "hetero-pim")
        sim_cache._memory.clear()  # force the disk (JSON) tier
        again = run_model_on(MODEL, "hetero-pim")
        assert again == first
        assert again.to_json() == first.to_json()

    def test_parallel_jobs_identical_to_serial(self):
        serial = [run_model_on(MODEL, c) for c in ("cpu", "hetero-pim")]
        sim_cache._memory.clear()
        sim_cache.clear(disk=True)
        runner.set_jobs(2)
        try:
            parallel = [run_model_on(MODEL, c) for c in ("cpu", "hetero-pim")]
        finally:
            runner.set_jobs(None)
        for a, b in zip(serial, parallel):
            assert a.to_json() == b.to_json()

    def test_registry_does_not_change_results(self):
        registry = MetricsRegistry()
        observed = api.simulate(MODEL, "hetero-pim", observe=registry)
        assert registry.snapshot()  # the run published into it
        plain = api.simulate(MODEL, "hetero-pim")
        assert observed.result.to_json() == plain.result.to_json()


# ---------------------------------------------------------------------------
# chrome trace export
# ---------------------------------------------------------------------------
class TestChromeTrace:
    def test_export_validates(self, tmp_path):
        report = api.simulate(MODEL, "hetero-pim", observe=True)
        path = tmp_path / "trace.json"
        n = report.save_trace(path)
        events = validate_chrome_trace(path)
        assert len(events) == n
        payload = json.loads(path.read_text())
        assert payload["otherData"]["model"] == MODEL

    def test_events_sorted_and_matched(self):
        report = api.simulate(MODEL, "hetero-pim", observe=True)
        events = report.trace_events()
        timed = [e for e in events if e["ph"] != "M"]
        assert timed == sorted(
            timed, key=lambda e: (e["ts"], e["tid"], e["name"])
        )
        validate_chrome_trace({"traceEvents": events})

    def test_lane_mapping_without_gpu(self):
        report = api.simulate(MODEL, "cpu", observe=True)
        events = report.trace_events()
        lanes = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "cpu" in lanes
        assert not any(lane.startswith(("gpu", "prog", "fixed")) for lane in lanes)

    def test_task_events_cover_timeline(self):
        report = api.simulate(MODEL, "hetero-pim", observe=True)
        events = report.trace_events()
        tasks = [e for e in events if e.get("cat") == "task"]
        assert len(tasks) == len(report.timeline.entries)
        assert all(e["dur"] >= 0 for e in tasks)

    def test_selection_annotations_present(self):
        report = api.simulate(MODEL, "hetero-pim", observe=True)
        cats = {e.get("cat") for e in report.trace_events()}
        assert "selection" in cats

    def test_queue_wait_lane_appears_under_contention(self):
        report = api.simulate(MODEL, "hetero-pim", observe=True)
        lanes = {
            e["args"]["name"]
            for e in report.trace_events()
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert any(lane.endswith(" queue") for lane in lanes)

    def test_unobserved_report_refuses_trace(self):
        report = api.simulate(MODEL, "hetero-pim")
        with pytest.raises(Exception):
            report.trace_events()

    def test_validator_rejects_unsorted(self):
        events = build_trace_events([])
        bad = to_chrome_payload(
            events
            + [
                {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 1.0},
                {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 1.0, "dur": 1.0},
            ]
        )
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)

    def test_validator_rejects_unmatched_begin(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0.0},
            ]
        }
        with pytest.raises(ValueError):
            validate_chrome_trace(bad)


# ---------------------------------------------------------------------------
# facade
# ---------------------------------------------------------------------------
class TestApiFacade:
    def test_listings(self):
        assert MODEL in api.list_models()
        assert "hetero-pim" in api.list_configurations()
        assert "neurocube" in api.list_configurations()

    def test_steps_validated(self):
        with pytest.raises(ValueError):
            api.simulate(MODEL, "hetero-pim", steps=0)

    def test_built_graph_matches_model_name(self, monkeypatch):
        """A built Graph simulates to the same bytes as its zoo name;
        both runs are cold (memory tier cleared, disk tier off)."""
        from repro.nn.models import build_model

        monkeypatch.setenv("REPRO_CACHE", "0")
        by_graph = api.simulate(build_model("dcgan"))
        sim_cache._memory.clear()
        by_name = api.simulate("dcgan")
        assert by_graph.cache_stats["misses"] == 1
        assert by_name.cache_stats["misses"] == 1
        assert by_graph.result.to_json() == by_name.result.to_json()

    def test_batch_size_with_graph_rejected(self):
        from repro.nn.models import build_model

        with pytest.raises(ValueError, match="batch_size"):
            api.simulate(build_model(MODEL), batch_size=8)

    def test_frequency_scale(self):
        fast = api.simulate(MODEL, "hetero-pim", frequency_scale=2.0)
        plain = api.simulate(MODEL, "hetero-pim")
        assert fast.step_time_s < plain.step_time_s

    def test_top_level_exports(self):
        import repro

        assert repro.simulate is api.simulate
        assert repro.RunReport is RunReport

    def test_observed_run_warms_cache(self):
        api.simulate(MODEL, "hetero-pim", observe=True)
        report = api.simulate(MODEL, "hetero-pim")
        assert report.cache_stats["memory_hits"] == 1
        assert report.cache_stats["misses"] == 0
