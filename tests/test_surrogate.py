"""The learned cost surrogate: training, bands, fallback, CLI contract.

Every test runs against a private ``REPRO_CACHE_DIR`` so the developer's
warm cache is never read or written; exact results are simulated fresh
into the temporary cache and the surrogate is trained from them, which is
the exact workflow ``repro surrogate train`` promises.
"""

import pytest

from repro import api, cli
from repro.experiments.common import run_model_on, set_surrogate
from repro.faults import FaultSpec
from repro.sim import cache as sim_cache
from repro.surrogate import (
    SurrogateUnavailable,
    estimate_run,
    evaluate_from_cache,
    load_model,
    train_from_cache,
)
from repro.surrogate.model import TARGETS

#: Small explicit training grid: two fast models across the evaluated
#: systems gives every calibration tier multi-row coverage.
GRID = tuple(
    (model, config)
    for model in ("alexnet", "dcgan")
    for config in ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")
)


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    sim_cache.clear(disk=False)  # memory tier would leak warm results in
    yield
    sim_cache.clear(disk=False)


def _warm(grid=GRID):
    set_surrogate(False)
    for model, config in grid:
        run_model_on(model, config)


class TestTraining:
    def test_empty_cache_is_a_friendly_error(self, private_cache):
        with pytest.raises(SurrogateUnavailable) as err:
            train_from_cache(grid=GRID)
        assert "warm the cache" in str(err.value)

    def test_missing_model_is_a_friendly_error(self, private_cache):
        with pytest.raises(SurrogateUnavailable) as err:
            load_model()
        assert "repro surrogate train" in str(err.value)

    def test_train_then_eval_all_points_within_declared_bands(
        self, private_cache
    ):
        _warm()
        model, misses = train_from_cache(grid=GRID)
        assert misses == []
        assert model.rows == len(GRID)
        outcome = evaluate_from_cache(model=model, grid=GRID)
        assert outcome["rows"] == len(GRID)
        for point in outcome["points"]:
            for target in TARGETS:
                record = point[target]
                # the declared band is a promise: an error above it on a
                # trained point is a model bug, not noise
                assert record["rel_error"] <= record["band_rel"], (
                    point["point"],
                    target,
                    record,
                )
        for target, agg in outcome["aggregate"].items():
            assert agg["within_band"], (target, agg)

    def test_estimate_matches_exact_within_band(self, private_cache):
        _warm()
        model, _ = train_from_cache(grid=GRID)
        graph = api.cached_graph("alexnet")
        system, policy = api.resolve_configuration("hetero-pim")
        exact = sim_cache.simulate_cached(graph, policy, system)
        system2, policy2 = api.resolve_configuration("hetero-pim")
        est = estimate_run(graph, policy2, system2, model=model)
        band = model.band_rel("step_time_s")
        rel = abs(est.step_time_s - exact.step_time_s) / exact.step_time_s
        assert rel <= band
        assert est.metrics["surrogate.estimated"] == 1.0
        assert est.steps == exact.steps


class TestFallback:
    def test_api_simulate_falls_back_without_a_model(self, private_cache):
        report = api.simulate("alexnet", "cpu", steps=1, surrogate=True)
        assert report.surrogate is not None
        assert report.surrogate["mode"] == "exact"
        assert "surrogate train" in report.surrogate["reason"]
        # the fallback is a real simulation
        assert report.result.events_processed > 0

    def test_api_simulate_estimates_and_never_caches(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        # a configuration deliberately outside the exact-warmed grid
        report = api.simulate("alexnet", "neurocube", steps=2, surrogate=True)
        assert report.surrogate["mode"] == "surrogate"
        bands = report.surrogate["bands"]
        assert all(b > 0 for b in bands.values())
        assert report.metrics["surrogate.estimated"] == 1.0
        # estimates must never be written to the result cache
        graph = api.cached_graph("alexnet")
        system, policy = api.resolve_configuration("neurocube")
        fp = sim_cache.run_fingerprint(graph, policy, system, 2)
        assert sim_cache.get(fp) is None

    def test_fault_queries_fall_back_to_exact(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        spec = FaultSpec.generate(seed=7, horizon_s=0.05, n_events=1)
        report = api.simulate(
            "alexnet", "fixed-pim", steps=1, surrogate=True, faults=spec
        )
        assert report.surrogate["mode"] == "exact"
        assert "trained domain" in report.surrogate["reason"]
        assert report.result.faults is not None

    def test_observe_forces_exact(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        report = api.simulate(
            "alexnet", "cpu", steps=1, surrogate=True, observe=True
        )
        assert report.surrogate["mode"] == "exact"
        assert report.has_timeline

    def test_surrogate_off_is_untouched(self, private_cache):
        report = api.simulate("alexnet", "cpu", steps=1)
        assert report.surrogate is None


class TestFamilyGuard:
    """Regression: a CNN-only-trained surrogate must not let the
    global-tier correction silently extrapolate onto a new workload
    family — the query falls back to exact with a surfaced reason."""

    def test_trained_calibration_names_recovers_the_grid(
        self, private_cache
    ):
        _warm()
        model, _ = train_from_cache(grid=GRID)
        assert model.trained_calibration_names() == ("alexnet", "dcgan")

    def test_estimate_run_raises_for_untrained_family(self, private_cache):
        _warm()
        model, _ = train_from_cache(grid=GRID)
        graph = api.cached_graph("transformer")
        system, policy = api.resolve_configuration("hetero-pim")
        with pytest.raises(SurrogateUnavailable) as err:
            estimate_run(graph, policy, system, model=model)
        assert "transformer" in str(err.value)
        assert "cnn" in str(err.value)

    def test_api_simulate_surfaces_the_fallback_reason(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        report = api.simulate(
            "gnn", "hetero-pim", steps=1, surrogate=True
        )
        assert report.surrogate["mode"] == "exact"
        assert "trained domain" in report.surrogate["reason"]
        assert "gnn" in report.surrogate["reason"]
        # the fallback is a real simulation, not an extrapolation
        assert report.result.events_processed > 0

    def test_training_on_the_family_lifts_the_guard(self, private_cache):
        grid = GRID + tuple(
            ("gnn", config) for config in ("cpu", "gpu", "hetero-pim")
        )
        _warm(grid)
        model, misses = train_from_cache(grid=grid)
        assert misses == []
        graph = api.cached_graph("gnn")
        system, policy = api.resolve_configuration("hetero-pim")
        est = estimate_run(graph, policy, system, model=model)
        assert est.metrics["surrogate.estimated"] == 1.0


class TestExperimentMode:
    def test_run_model_on_estimates_in_surrogate_mode(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        prior = set_surrogate(True)
        try:
            est = run_model_on("alexnet", "hetero-pim")
        finally:
            set_surrogate(prior)
        assert est.metrics["surrogate.estimated"] == 1.0
        exact = run_model_on("alexnet", "hetero-pim")
        assert "surrogate.estimated" not in (exact.metrics or {})
        band = load_model().band_rel("step_time_s")
        rel = abs(est.step_time_s - exact.step_time_s) / exact.step_time_s
        assert rel <= band

    def test_figures_estimate_and_fall_back_by_stage(
        self, private_cache, monkeypatch
    ):
        from repro import surrogate
        from repro.experiments import fig8, fig15

        _warm()
        train_from_cache(grid=GRID)
        exact_fig15 = fig15.run(models=("alexnet",))
        estimates = []
        estimate = surrogate.estimate_run
        monkeypatch.setattr(
            surrogate,
            "estimate_run",
            lambda *job: estimates.append(job) or estimate(*job),
        )
        sim_cache.reset_stats()
        prior = set_surrogate(True)
        try:
            fig8_cells = fig8.run(models=("alexnet",))["alexnet"]
            assert sim_cache.stats()["stores"] == 0
            del estimates[:]
            estimated_fig15 = fig15.run(models=("alexnet",))
        finally:
            set_surrogate(prior)
        assert all(
            cell.result.metrics["surrogate.estimated"] == 1.0
            for cell in fig8_cells.values()
        )
        # the four RC/OP variants are estimated first; the fixture's grid
        # gives a utilization estimate for RC+OP alone, so fig15 falls
        # back to exact runs
        assert len(estimates) == 4
        assert estimated_fig15 == exact_fig15


    def test_fault_sweep_stays_exact_in_surrogate_mode(self, private_cache):
        """The sweep's clean baseline and its faulted specs are both
        simulated, so its cells do not depend on the surrogate."""
        from repro.experiments import faults

        _warm()
        train_from_cache(grid=GRID)
        exact = faults.run(event_counts=(0, 1, 2))
        prior = set_surrogate(True)
        try:
            estimated = faults.run(event_counts=(0, 1, 2))
        finally:
            set_surrogate(prior)
        assert estimated == exact


class TestCli:
    def test_train_without_cache_exits_one_with_one_line(
        self, private_cache, capsys
    ):
        rc = cli.main(["surrogate", "train"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_a_missed_grid_point_names_a_command_that_caches_it(
        self, private_cache, capsys
    ):
        from repro.surrogate.dataset import collect_rows

        cli._print_surrogate_misses(["gnn/cpu", "alexnet/hetero-pim@f2"])
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].strip() == "2 training points not cached:"
        assert lines[1].strip() == "gnn/cpu: repro run gnn --config cpu"
        assert lines[2].strip() == (
            "alexnet/hetero-pim@f2: repro experiment summary"
        )
        assert collect_rows(grid=[("gnn", "cpu")])[1] == ["gnn/cpu"]
        command = lines[1].split(": repro ", 1)[1].split()
        assert cli.main(command) == 0
        rows, misses = collect_rows(grid=[("gnn", "cpu")])
        assert len(rows) == 1 and not misses

    def test_eval_without_model_exits_one(self, private_cache, capsys):
        rc = cli.main(["surrogate", "eval"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error: ")


class TestReportEnvelope:
    def test_surrogate_field_round_trips(self, private_cache):
        _warm()
        train_from_cache(grid=GRID)
        report = api.simulate("alexnet", "hetero-pim", steps=1, surrogate=True)
        assert report.surrogate["mode"] == "surrogate"
        from repro.obs.report import RunReport

        again = RunReport.from_json(report.to_json())
        assert again.surrogate == report.surrogate
