"""Experiment modules produce well-formed, paper-shaped outputs."""

import pytest

from repro.experiments import (
    ablation,
    families,
    fig2,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig17,
    table1,
)
from repro.experiments.report import (
    TextTable,
    format_seconds,
    normalized,
    stacked_bar,
)
from repro.profiling import OpCategory

FAST = ("alexnet", "dcgan")


class TestReportHelpers:
    def test_text_table_rendering(self):
        t = TextTable(["a", "b"])
        t.add_row(1, 2.5)
        out = t.render()
        assert "a" in out and "2.50" in out

    def test_text_table_rejects_ragged_rows(self):
        t = TextTable(["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_stacked_bar(self):
        bar = stacked_bar([1.0, 1.0], ["x", "y"], width=10)
        assert bar.startswith("|")
        assert "x=1" in bar

    def test_format_seconds_scales(self):
        assert format_seconds(2.0).endswith(" s")
        assert format_seconds(0.002).endswith(" ms")
        assert format_seconds(2e-6).endswith(" us")

    def test_normalized(self):
        assert normalized([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalized([1.0], 0.0)


class TestTable1:
    def test_run_and_format(self):
        result = table1.run(("alexnet",))
        data = result["alexnet"]
        assert len(data.top_compute) == 5
        assert len(data.top_memory) == 5
        assert data.top_compute[0].op_type == "Conv2DBackpropFilter"
        assert 0 <= data.other_time_share < 0.3
        text = table1.format_result(result)
        assert "Conv2DBackpropFilter" in text


class TestFig2:
    def test_every_type_classified(self):
        result = fig2.run(("alexnet",))
        data = result["alexnet"]
        all_members = set()
        for category in OpCategory:
            all_members.update(data.members(category))
        graph_types = {
            t.op_type
            for t in table1.run(("alexnet",))["alexnet"].profile.by_type
        }
        assert all_members == graph_types
        assert "Conv2DBackpropFilter" in data.members(
            OpCategory.COMPUTE_AND_MEMORY_INTENSIVE
        )


class TestFamilies:
    def test_run_and_format_one_family(self):
        result = families.run(models=("gnn",))
        data = result["gnn"]
        assert data.family == "gnn"
        assert data.unclassified == 0
        assert 0.5 < data.offload_time_coverage <= 1.0
        assert 0.0 < data.offload_memory_coverage <= 1.0
        # message passing is programmable-PIM dominated
        assert data.class_time_shares["prog"] > 0.5
        assert set(data.backends) == {"hmc-hetero", "gradpim", "neurotrainer"}
        for cell in data.backends.values():
            assert cell.step_time_s > 0
            assert cell.dynamic_energy_j > 0
        assert data.fault_time_overheads[0] == pytest.approx(0.0)
        text = families.format_result(result)
        assert "GatherV2" in text
        assert "neurotrainer" in text


class TestFig8:
    def test_cells_and_speedups(self):
        result = fig8.run(models=FAST)
        for model in FAST:
            assert set(result[model]) == {
                "cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim"
            }
            for cell in result[model].values():
                assert cell.step_time_s > 0
                assert cell.breakdown.total_s == pytest.approx(
                    cell.step_time_s, rel=0.02
                )
        ratios = fig8.speedups(result)
        assert ratios["alexnet"]["cpu"] > 10
        text = fig8.format_result(result)
        assert "hetero-pim" in text


class TestFig9:
    def test_normalization_to_hetero(self):
        result = fig9.run(models=FAST)
        for model in FAST:
            assert result[model]["hetero-pim"].normalized == pytest.approx(1.0)
            assert result[model]["cpu"].normalized > 3.0


class TestFig10:
    def test_neurocube_ratios(self):
        result = fig10.run(models=("dcgan",))
        row = result["dcgan"]
        assert row.time_ratio > 2.5
        assert row.energy_ratio > 2.0
        assert "Neurocube" in fig10.format_result(result)


class TestFig11:
    def test_frequency_monotonicity(self):
        result = fig11.run(models=("alexnet",))
        cells = result["alexnet"]
        assert cells[1.0].step_time_s > cells[2.0].step_time_s
        assert cells[2.0].step_time_s > cells[4.0].step_time_s
        # paper: Hetero overtakes the GPU at higher frequencies
        assert cells[4.0].speedup_vs_gpu > cells[1.0].speedup_vs_gpu
        assert cells[4.0].speedup_vs_gpu > 1.0


class TestFig12:
    def test_design_points_and_spread(self):
        result = fig12.run(models=("alexnet",))
        cells = result["alexnet"]
        assert cells[1].n_fixed_units == 444
        assert cells[16].n_fixed_units < cells[4].n_fixed_units
        assert cells[1].relative_to_1p == pytest.approx(1.0)
        # paper: the three configurations differ modestly (12-14%)
        assert fig12.max_spread(result) < 0.35


class TestAblationFigures:
    def test_variants_cover_rc_op_matrix(self):
        labels = [label for label, _rc, _op in ablation.VARIANTS]
        assert labels == ["no RC/OP", "RC", "OP", "RC+OP"]
        with pytest.raises(ValueError):
            ablation._variant_job("dcgan", "bogus")

    def test_fig13_rc_op_speedup(self):
        result = fig13.run(models=("dcgan",))
        data = result["dcgan"]
        assert data.rc_op_speedup > 1.3
        assert data.hetero_hw_vs_prog > 1.0
        assert "RC+OP" in fig13.format_result(result)

    def test_fig14_energy_gain(self):
        result = fig14.run(models=("dcgan",))
        data = result["dcgan"]
        assert data.rc_op_energy_gain > 1.1
        assert data.normalized("RC+OP") == pytest.approx(1.0)

    def test_fig15_utilization_ladder(self):
        result = fig15.run(models=("alexnet",))
        util = result["alexnet"].utilization
        assert util["no RC/OP"] < util["RC"] <= 1.0
        assert util["RC+OP"] >= util["RC"]
        assert result["alexnet"].rc_gain > 0.3


class TestFig17:
    def test_edp_best_at_4x_and_gpu_power_ratio(self):
        result = fig17.run(models=("alexnet",))
        data = result["alexnet"]
        assert data.best_scale == 4.0  # paper: 4x most energy-efficient
        assert data.gpu_power_ratio(4.0) > 1.2  # GPU is power-hungry


class TestSupervisedRunner:
    """run_jobs rides the supervised pool: order, tuple forms, cache hits."""

    def _jobs(self):
        from repro.experiments.common import (
            cached_graph,
            resolve_configuration,
        )

        config, policy = resolve_configuration("hetero-pim")
        graph = cached_graph("alexnet")
        return graph, policy, config

    def test_accepts_4_and_5_tuples(self):
        from repro.experiments.runner import run_jobs

        graph, policy, config = self._jobs()
        four = (graph, policy, config, 1)
        five = (graph, policy, config, 1, None)
        a, b = run_jobs([four, five])
        # the trailing None fault slot is fingerprint-identical
        assert a.to_json() == b.to_json()

    def test_rejects_wrong_arity(self):
        from repro.experiments.runner import run_jobs

        graph, policy, config = self._jobs()
        with pytest.raises(ValueError, match="4 or 5 elements"):
            run_jobs([(graph, policy, config)])

    def test_last_supervision_reports_cache_split(self, tmp_path,
                                                  monkeypatch):
        from repro.experiments import runner
        from repro.sim import cache as sim_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sim_cache, "_memory", {})
        graph, policy, config = self._jobs()
        runner.run_jobs([(graph, policy, config, 1)])
        first = runner.last_supervision()
        assert (first.submitted, first.cached) == (1, 0)
        runner.run_jobs([(graph, policy, config, 1)])
        second = runner.last_supervision()
        assert (second.submitted, second.cached) == (1, 1)
        assert second.completed == 0

    def test_rerun_batch_resumes_from_cache(self, tmp_path, monkeypatch):
        """Re-running a finished batch in a fresh process (cold memory
        tier) answers every job from the disk cache."""
        from repro.experiments import runner
        from repro.sim import cache as sim_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(sim_cache, "_memory", {})
        graph, policy, config = self._jobs()
        jobs = [(graph, policy, config, s) for s in (1, 2)]
        runner.run_jobs(jobs)
        assert runner.last_supervision().completed == 2
        sim_cache._memory.clear()
        runner.run_jobs(jobs)
        supervision = runner.last_supervision()
        assert supervision.cached == 2 and supervision.completed == 0
