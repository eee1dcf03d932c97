"""Fault injection & graceful degradation (``repro.faults``)."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.baselines import build_configuration
from repro.errors import SimulationError
from repro.faults import (
    BankFailure,
    DramDerate,
    FaultSpec,
    ProgPimLoss,
    ThermalThrottle,
    UnitLoss,
)
from repro.hardware.fixed_pim import FixedPIMPool
from repro.hardware.hmc import StackGeometry
from repro.hardware.placement import place_fixed_pims
from repro.nn.models import build_model
from repro.obs.trace import validate_chrome_trace
from repro.runtime.registers import UtilizationRegisters
from repro.sim import cache as sim_cache
from repro.sim.cache import run_fingerprint, simulate_cached
from repro.sim.simulation import Simulation

MODEL = "lstm"  # smallest evaluation workload: keeps these tests quick

#: sha256 of the Chrome trace of alexnet on hetero-pim (2 steps) under
#: fault seed 13 with 3 events over the clean makespan: 312 events, 93 of
#: them ``fault-degrade``.  Any change to a faulted trace's bytes fails.
FAULTED_TRACE_SHA256 = (
    "3d63e3dc1e1e51ed85d2bb3f45395c1bfc6093bae0c06232151442f599d67449"
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk tier at a throwaway directory; drop the memory tier."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    sim_cache._memory.clear()
    sim_cache.reset_stats()
    yield
    sim_cache._memory.clear()


def _job():
    config, policy = build_configuration("hetero-pim")
    return build_model(MODEL), policy, config


def _run(spec, steps=1):
    graph, policy, config = _job()
    sim = Simulation(graph, policy, config, steps=steps, faults=spec)
    return sim.run()


def _recorded_run(spec):
    """``(result, timeline)``: the timeline holds the per-task retries and
    degradations that the result only counts."""
    graph, policy, config = _job()
    sim = Simulation(
        graph, policy, config, steps=1, faults=spec, record_timeline=True
    )
    return sim.run(), sim.timeline


class TestSpec:
    def test_generate_deterministic(self):
        a = FaultSpec.generate(seed=7, horizon_s=0.05, n_events=4)
        b = FaultSpec.generate(seed=7, horizon_s=0.05, n_events=4)
        assert a == b
        assert a != FaultSpec.generate(seed=8, horizon_s=0.05, n_events=4)

    def test_round_trip(self):
        spec = FaultSpec.generate(seed=3, horizon_s=0.05, n_events=5)
        assert FaultSpec.from_json(spec.to_json()) == spec
        # and the JSON itself is stable
        assert FaultSpec.from_json(spec.to_json()).to_json() == spec.to_json()

    def test_events_normalized_to_injection_order(self):
        early = UnitLoss(time_s=0.001, units=4)
        late = BankFailure(time_s=0.002, bank=3)
        assert FaultSpec(events=(late, early)) == FaultSpec(events=(early, late))

    def test_validation(self):
        with pytest.raises(SimulationError):
            ThermalThrottle(time_s=0.0, duration_s=0.01, factor=1.5)
        with pytest.raises(SimulationError):
            DramDerate(time_s=-1.0, duration_s=0.01, factor=0.5)
        with pytest.raises(SimulationError):
            UnitLoss(time_s=0.0, units=0)
        with pytest.raises(SimulationError):
            FaultSpec(retry_backoff_s=1e-3, retry_backoff_cap_s=1e-4)

    def test_backoff_doubles_then_caps(self):
        spec = FaultSpec(retry_backoff_s=50e-6, retry_backoff_cap_s=400e-6)
        delays = [spec.backoff_s(attempt) for attempt in range(1, 8)]
        assert delays[:4] == [50e-6, 100e-6, 200e-6, 400e-6]
        assert all(d == 400e-6 for d in delays[4:])
        assert delays == sorted(delays)


class TestFingerprint:
    def test_faults_enter_the_fingerprint(self):
        graph, policy, config = _job()
        plain = run_fingerprint(graph, policy, config)
        spec_a = FaultSpec(events=(UnitLoss(time_s=0.001, units=8),))
        spec_b = FaultSpec(events=(UnitLoss(time_s=0.001, units=9),))
        fp_a = run_fingerprint(graph, policy, config, faults=spec_a)
        fp_b = run_fingerprint(graph, policy, config, faults=spec_b)
        assert len({plain, fp_a, fp_b}) == 3
        assert fp_a == run_fingerprint(graph, policy, config, faults=spec_a)

    def test_cached_round_trip_with_faults(self):
        graph, policy, config = _job()
        spec = FaultSpec.generate(seed=5, horizon_s=0.02, n_events=2)
        first = simulate_cached(graph, policy, config, steps=1, faults=spec)
        again = simulate_cached(graph, policy, config, steps=1, faults=spec)
        assert again.to_json() == first.to_json()
        assert sim_cache.stats()["memory_hits"] >= 1


class TestDeterminism:
    def test_same_spec_byte_identical(self):
        spec = FaultSpec.generate(seed=13, horizon_s=0.02, n_events=3)
        first = _run(spec)
        sim_cache._memory.clear()
        second = _run(spec)
        assert second.to_json() == first.to_json()

    def test_fault_free_run_records_no_faults(self):
        result = _run(None)
        assert result.faults is None


@pytest.fixture(scope="module")
def mid_run_s():
    """A fault time inside the active window (30% of the fault-free run)."""
    graph, policy, config = _job()
    return 0.3 * Simulation(graph, policy, config, steps=1).run().makespan_s


class TestDegradation:
    def test_total_pool_loss_degrades_to_prog_first(self, mid_run_s):
        graph, policy, config = _job()
        spec = FaultSpec(
            events=(UnitLoss(time_s=mid_run_s, units=config.fixed_pim.n_units),)
        )
        result, timeline = _recorded_run(spec)
        assert result.makespan_s > 0
        degradations = timeline.degradations
        assert degradations, "total pool loss must force degradations"
        fixed_exits = [d for d in degradations if d["from"] in ("fixed", "hybrid")]
        assert fixed_exits
        # prog cluster is alive, so fixed work lands there before the CPU
        assert all(d["to"] == "prog" for d in fixed_exits)
        assert result.faults["counts"]["reselections"] >= 1

    def test_pool_and_prog_loss_degrades_to_cpu(self, mid_run_s):
        graph, policy, config = _job()
        spec = FaultSpec(
            events=(
                ProgPimLoss(time_s=mid_run_s * 0.9, pims=config.prog_pim.n_pims),
                UnitLoss(time_s=mid_run_s, units=config.fixed_pim.n_units),
            )
        )
        result, timeline = _recorded_run(spec)
        assert result.makespan_s > 0
        fixed_exits = [
            d
            for d in timeline.degradations
            if d["from"] in ("fixed", "hybrid")
        ]
        assert fixed_exits
        # nothing left in-stack: the only refuge is the CPU
        assert all(d["to"] == "cpu" for d in fixed_exits)

    def test_partial_loss_retries_before_degrading(self, mid_run_s):
        graph, policy, config = _job()
        spec = FaultSpec(
            events=(UnitLoss(time_s=mid_run_s, units=config.fixed_pim.n_units // 2),)
        )
        _, timeline = _recorded_run(spec)
        retries = timeline.retries
        assert retries, "a partial loss must be retried, not degraded"
        for entry in retries:
            assert entry["delay_s"] == spec.backoff_s(entry["attempt"])
            assert entry["delay_s"] <= spec.retry_backoff_cap_s


class TestRegisters:
    def _registers(self):
        config, _ = build_configuration("hetero-pim")
        geometry = StackGeometry(config.stack)
        pool = FixedPIMPool(n_units=config.fixed_pim.n_units)
        placement = place_fixed_pims(geometry, pool.n_units)
        return pool, placement, UtilizationRegisters(pool, placement)

    def test_failed_bank_latches_busy(self):
        pool, placement, registers = self._registers()
        assert not any(registers.snapshot().bank_busy)
        registers.mark_bank_failed(2)
        snap = registers.snapshot()
        assert snap.bank_busy[2] is True
        assert registers.failed_banks == {2}
        # the failed bank's capacity is consumed, not double-counted
        others = [b for i, b in enumerate(snap.bank_busy) if i != 2]
        assert not any(others)

    def test_lost_units_count_as_busy(self):
        pool, placement, registers = self._registers()
        pool.shrink(pool.n_units, now=0.0)
        assert all(registers.snapshot().bank_busy)


SINGLE_FAULTS = [
    BankFailure(time_s=1e-5, bank=0),
    UnitLoss(time_s=1e-5, units=100),
    ThermalThrottle(time_s=1e-5, duration_s=5e-3, factor=0.5, zone="corner"),
    ProgPimLoss(time_s=1e-5, pims=1),
    DramDerate(time_s=1e-5, duration_s=5e-3, factor=0.6),
]


class TestApiIntegration:
    @pytest.mark.parametrize("event", SINGLE_FAULTS, ids=lambda e: e.kind)
    def test_every_single_fault_completes_all_steps(self, event):
        spec = FaultSpec(events=(event,))
        report = api.simulate(MODEL, "hetero-pim", steps=2, faults=spec)
        assert report.makespan_s > 0
        assert report.result.faults["counts"]["events"] >= 1
        assert report.fault_counts["events"] >= 1

    def test_fault_free_report_counts_are_zero(self):
        report = api.simulate(MODEL, "hetero-pim", steps=1)
        assert report.faults is None
        assert set(report.fault_counts.values()) == {0}

    def test_trace_gets_a_fault_lane(self, tmp_path):
        spec = FaultSpec.generate(seed=13, horizon_s=0.02, n_events=3)
        report = api.simulate(
            MODEL, "hetero-pim", steps=1, faults=spec, observe=True
        )
        path = tmp_path / "trace.json"
        report.save_trace(str(path))
        events = validate_chrome_trace(str(path))
        assert events
        fault_lane = [
            e
            for e in json.loads(path.read_text())["traceEvents"]
            if e.get("tid") == 90 and e.get("ph") == "i"
        ]
        assert fault_lane
        assert any(e["name"].startswith("fault:") for e in fault_lane)

    def test_faulted_trace_is_pinned(self, tmp_path):
        clean = api.simulate("alexnet", "hetero-pim", steps=2)
        spec = FaultSpec.generate(
            seed=13, horizon_s=clean.makespan_s, n_events=3
        )
        report = api.simulate(
            "alexnet", "hetero-pim", steps=2, faults=spec, observe=True
        )
        path = tmp_path / "trace.json"
        assert report.save_trace(str(path)) == 312
        events = validate_chrome_trace(str(path))
        assert sum(e.get("cat") == "fault-degrade" for e in events) == 93
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            FAULTED_TRACE_SHA256
        )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_events=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=15, deadline=None)
def test_any_generated_spec_completes_a_step(seed, n_events):
    """Property: whatever faults strike, every training step completes."""
    spec = FaultSpec.generate(seed=seed, horizon_s=0.02, n_events=n_events)
    graph, policy, config = _job()
    result = Simulation(graph, policy, config, steps=1, faults=spec).run()
    assert result.makespan_s > 0
    assert result.step_time_s > 0
    if n_events:
        assert result.faults["counts"]["events"] >= n_events
