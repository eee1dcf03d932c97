"""Validation layer: invariant checker and paper-fidelity gate.

Two families of tests:

* every invariant class **passes** on genuine simulator output (including
  property-based sweeps over random model/config/fault-seed combinations),
  and
* every invariant class **fires** on a deliberately corrupted result or
  simulation — a checker that never trips is indistinguishable from no
  checker.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.errors import InvariantViolation
from repro.faults import FaultSpec
from repro.obs.report import RunReport
from repro.sim import cache as sim_cache
from repro.sim.simulation import Simulation
from repro.sim.timeline import TimelineEntry
from repro.validate import (
    BANDS_BY_NAME,
    GOLDEN_BANDS,
    RESULT_INVARIANTS,
    SIMULATION_INVARIANTS,
    check_cache_equivalence,
    check_result,
    check_simulation,
    evaluate,
    failures,
    iter_result_violations,
    iter_simulation_violations,
)
from repro.validate.golden import FAST_MODELS


def _run_live(model="dcgan", config="hetero-pim", steps=2, faults=None):
    graph = api.cached_graph(model)
    system, policy = api.resolve_configuration(config)
    sim = Simulation(
        graph, policy, config=system, steps=steps,
        record_timeline=True, faults=faults,
    )
    return sim, sim.run()


@pytest.fixture(scope="module")
def live():
    """One shared live simulation + result (checks must not mutate it)."""
    return _run_live()


# ---------------------------------------------------------------------------
# invariants hold on genuine output
# ---------------------------------------------------------------------------
class TestInvariantsPass:
    def test_clean_run_passes_all_checks(self, live):
        sim, result = live
        assert check_simulation(sim, result) is result
        assert list(iter_result_violations(result)) == []
        assert list(iter_simulation_violations(sim, result)) == []

    @pytest.mark.parametrize(
        "config", ["cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim"]
    )
    def test_every_configuration_passes(self, config):
        sim, result = _run_live("dcgan", config)
        check_simulation(sim, result)

    def test_simulation_validate_flag_checks_inline(self):
        graph = api.cached_graph("dcgan")
        system, policy = api.resolve_configuration("hetero-pim")
        sim = Simulation(graph, policy, config=system, steps=2, validate=True)
        result = sim.run()
        # validate forces a timeline even without record_timeline
        assert sim.timeline is not None and sim.timeline.entries
        assert list(iter_result_violations(result)) == []

    def test_api_simulate_validate_reports_summary(self):
        report = api.simulate("dcgan", "hetero-pim", steps=2, validate=True)
        assert report.validation is not None
        assert report.validation["passed"] is True
        checked = set(report.validation["invariants"])
        assert checked == set(RESULT_INVARIANTS + SIMULATION_INVARIANTS)
        # the summary survives the report's serialization round trip
        clone = RunReport.from_json(report.to_json())
        assert clone.validation == report.validation

    def test_env_knob_enables_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        assert sim_cache.validation_enabled()
        report = api.simulate("dcgan", "hetero-pim", steps=2)
        assert report.validation is not None
        monkeypatch.setenv("REPRO_VALIDATE", "0")
        assert not sim_cache.validation_enabled()

    def test_simulate_cached_validates_hit_and_miss(self):
        graph = api.cached_graph("dcgan")
        system, policy = api.resolve_configuration("hetero-pim")
        # miss path (memory tier cleared) then hit path, both validated
        fingerprint = sim_cache.run_fingerprint(graph, policy, system, 2)
        sim_cache._memory.pop(fingerprint, None)
        fresh = sim_cache.simulate_cached(
            graph, policy, system, steps=2, validate=True
        )
        hit = sim_cache.simulate_cached(
            graph, policy, system, steps=2, validate=True
        )
        assert fresh.to_dict() == hit.to_dict()


class TestInvariantsPassProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        model=st.sampled_from(
            ("dcgan", "alexnet", "transformer", "gnn", "embedrec")
        ),
        config=st.sampled_from(
            ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")
        ),
        steps=st.integers(min_value=1, max_value=3),
    )
    def test_random_model_config_combos_pass(self, model, config, steps):
        sim, result = _run_live(model, config, steps=steps)
        check_simulation(sim, result)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_events=st.integers(min_value=1, max_value=4),
    )
    def test_random_fault_seeds_pass(self, seed, n_events):
        spec = FaultSpec.generate(seed=seed, horizon_s=0.5, n_events=n_events)
        sim, result = _run_live("dcgan", "hetero-pim", faults=spec)
        check_simulation(sim, result)


class TestModernFamilyInvariants:
    """The nine invariants hold for every new workload family under every
    registered hardware backend."""

    @pytest.mark.parametrize("model", ("transformer", "gnn", "embedrec"))
    @pytest.mark.parametrize(
        "backend,config",
        (
            ("hmc-hetero", "hetero-pim"),
            ("gradpim", "gradpim"),
            ("neurotrainer", "neurotrainer"),
        ),
    )
    def test_families_pass_under_all_backends(self, model, backend, config):
        graph = api.cached_graph(model)
        system, policy = api.resolve_configuration(config, backend=backend)
        sim = Simulation(
            graph, policy, config=system, steps=1, record_timeline=True
        )
        result = sim.run()
        check_simulation(sim, result)
        assert list(iter_result_violations(result)) == []


# ---------------------------------------------------------------------------
# every invariant class fires on a corrupted run
# ---------------------------------------------------------------------------
def _violations(result):
    return {v.invariant for v in iter_result_violations(result)}


class TestInvariantsFire:
    """One corruption per invariant class; the checker must name it."""

    def test_busy_fraction_range_fires(self, live):
        _sim, result = live
        bad = dataclasses.replace(
            result, device_busy_fraction={"cpu": 1.5, "prog": -0.2}
        )
        assert "busy-fraction-range" in _violations(bad)
        bad = dataclasses.replace(result, fixed_pim_utilization=float("nan"))
        assert "busy-fraction-range" in _violations(bad)

    def test_occupancy_conservation_fires(self, live):
        _sim, result = live
        hist = tuple(v * 2.0 for v in result.bank_occupancy_hist_s)
        bad = dataclasses.replace(result, bank_occupancy_hist_s=hist)
        assert "occupancy-conservation" in _violations(bad)
        negative = (-1.0,) + tuple(result.bank_occupancy_hist_s[1:])
        bad = dataclasses.replace(result, bank_occupancy_hist_s=negative)
        assert "occupancy-conservation" in _violations(bad)

    def test_energy_conservation_fires(self, live):
        _sim, result = live
        devices = dict(result.energy.by_device)
        device = next(iter(devices))
        devices[device] = devices[device] + 1.0  # breaks the device sum
        bad = dataclasses.replace(
            result, energy=dataclasses.replace(result.energy, by_device=devices)
        )
        assert "energy-conservation" in _violations(bad)
        bad = dataclasses.replace(
            result,
            energy=dataclasses.replace(result.energy, makespan_s=1e9),
        )
        assert "energy-conservation" in _violations(bad)

    def test_time_breakdown_conservation_fires(self, live):
        _sim, result = live
        bad = dataclasses.replace(
            result,
            breakdown=dataclasses.replace(
                result.breakdown, operation_s=result.breakdown.operation_s * 3
            ),
        )
        assert "time-breakdown-conservation" in _violations(bad)

    def test_step_accounting_fires(self, live):
        _sim, result = live
        bad = dataclasses.replace(result, events_processed=0)
        assert "step-accounting" in _violations(bad)
        bad = dataclasses.replace(
            result, step_time_s=result.makespan_s * 10
        )
        assert "step-accounting" in _violations(bad)

    def test_queue_wait_sane_fires(self, live):
        _sim, result = live
        bad = dataclasses.replace(result, queue_wait_s={"cpu": -0.5})
        assert "queue-wait-sane" in _violations(bad)

    def test_check_result_raises_structured_error(self, live):
        _sim, result = live
        bad = dataclasses.replace(result, device_busy_fraction={"gpu": 2.0})
        with pytest.raises(InvariantViolation) as excinfo:
            check_result(bad)
        err = excinfo.value
        assert err.invariant == "busy-fraction-range"
        assert err.subject == "gpu"
        assert "busy-fraction-range" in str(err) and "gpu" in str(err)

    def test_every_result_invariant_class_covered(self, live):
        """Meta-test: the corruptions above span all result invariants."""
        _sim, result = live
        fired = set()
        corruptions = (
            dataclasses.replace(result, device_busy_fraction={"cpu": 2.0}),
            dataclasses.replace(
                result,
                bank_occupancy_hist_s=tuple(
                    v * 2.0 for v in result.bank_occupancy_hist_s
                ),
            ),
            dataclasses.replace(
                result,
                energy=dataclasses.replace(result.energy, dynamic_j=-1.0),
            ),
            dataclasses.replace(
                result,
                breakdown=dataclasses.replace(result.breakdown, sync_s=-1.0),
            ),
            dataclasses.replace(result, events_processed=0),
            dataclasses.replace(result, queue_wait_s={"prog": float("inf")}),
        )
        for bad in corruptions:
            fired |= _violations(bad)
        assert fired >= set(RESULT_INVARIANTS)


class TestSimulationInvariantsFire:
    """Live-simulation invariants on mutated simulation state."""

    def test_dependence_order_fires(self):
        sim, result = _run_live()
        entry = sim.timeline.entries[0]
        sim.timeline.entries[0] = TimelineEntry(
            uid=entry.uid, op_type=entry.op_type, device=entry.device,
            step=entry.step, start_s=entry.start_s, end_s=entry.end_s,
            ready_s=entry.start_s + 1.0,  # "started" before it was ready
        )
        fired = {v.invariant for v in iter_simulation_violations(sim, result)}
        assert "dependence-order" in fired

    def test_device_quiescence_fires_on_unfinished_task(self):
        sim, result = _run_live()
        sim._tasks[0].done = False
        fired = {v.invariant for v in iter_simulation_violations(sim, result)}
        assert "device-quiescence" in fired

    def test_device_quiescence_fires_on_pending_event(self):
        sim, result = _run_live()
        sim.engine._heap.append([result.makespan_s + 1.0, 10**9, lambda: None])
        assert not sim.engine.drained
        fired = {v.invariant for v in iter_simulation_violations(sim, result)}
        assert "device-quiescence" in fired

    def test_timeline_agreement_fires(self):
        sim, result = _run_live()
        entry = sim.timeline.entries[0]
        sim.timeline.add(entry)  # phantom duplicate record
        fired = {v.invariant for v in iter_simulation_violations(sim, result)}
        assert "timeline-agreement" in fired

    def test_faulted_run_still_passes(self):
        spec = FaultSpec.generate(seed=7, horizon_s=0.5, n_events=3)
        sim, result = _run_live("dcgan", "hetero-pim", faults=spec)
        check_simulation(sim, result)


class TestCacheEquivalence:
    def test_identical_results_pass(self, live):
        _sim, result = live
        check_cache_equivalence(result, result)
        check_cache_equivalence(result, None)  # cold cache: nothing to do

    def test_divergent_cached_result_fires(self, live):
        _sim, result = live
        drifted = dataclasses.replace(result, makespan_s=result.makespan_s * 2)
        with pytest.raises(InvariantViolation) as excinfo:
            check_cache_equivalence(result, drifted, source="disk tier")
        assert excinfo.value.invariant == "cache-equivalence"
        assert excinfo.value.subject == "disk tier"
        assert "makespan_s" in excinfo.value.detail


# ---------------------------------------------------------------------------
# paper-fidelity gate
# ---------------------------------------------------------------------------
class TestGoldenBands:
    def test_bands_are_well_formed(self):
        assert len(GOLDEN_BANDS) == len(BANDS_BY_NAME)  # unique names
        for band in GOLDEN_BANDS:
            assert band.figure in ("fig8", "fig9", "table1")
            assert band.paper, f"{band.name} lacks paper provenance"
            assert band.claim
            if band.lo is not None and band.hi is not None:
                assert band.lo <= band.hi

    def test_admits_respects_bounds(self):
        band = BANDS_BY_NAME[("fig8", "hetero-speedup-over-fixed")]
        assert band.admits(band.lo) and band.admits(band.hi)
        assert not band.admits(band.lo - 0.01)
        assert not band.admits(band.hi + 0.01)

    def test_gate_passes_on_real_results(self):
        findings = evaluate(models=("dcgan",))
        assert findings
        assert failures(findings) == []

    def test_gate_fails_on_distorted_results(self):
        from repro.experiments.common import run_model_on

        def distorted(model, config):
            result = run_model_on(model, config)
            if config == "hetero-pim":
                # a 50x slowdown of the flagship config must trip fig8
                return dataclasses.replace(
                    result, step_time_s=result.step_time_s * 50
                )
            return result

        findings = evaluate(models=("dcgan",), run=distorted)
        failed = failures(findings)
        assert failed
        assert any(f.band.figure == "fig8" for f in failed)

    def test_fast_models_match_paper_band_suite(self):
        # keep the gate's fast set in lockstep with tests/test_paper_bands.py
        assert FAST_MODELS == ("vgg-19", "alexnet", "dcgan")
