"""Remaining surface coverage: baselines registry, summary runner, misc."""

import pytest

from repro.baselines import CONFIGURATION_ORDER, build_configuration
from repro.errors import ReproError
from repro.experiments import summary
from repro.experiments.extensions import (
    format_inference_contrast,
    format_multistack,
    run_inference_contrast,
    run_multistack,
)


class TestBaselineRegistry:
    def test_order_covers_all_builders(self):
        for name in CONFIGURATION_ORDER:
            config, policy = build_configuration(name)
            assert policy.name
            policy.validate()

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ReproError, match="unknown configuration"):
            build_configuration("tpu")

    def test_policies_have_distinct_semantics(self):
        _, cpu = build_configuration("cpu")
        _, gpu = build_configuration("gpu")
        _, fixed = build_configuration("fixed-pim")
        assert not cpu.uses_gpu and gpu.uses_gpu
        assert not fixed.recursive_kernels and not fixed.operation_pipeline

    def test_prog_only_scales_out_arm_pims(self):
        config, policy = build_configuration("prog-pim")
        assert config.prog_pim.n_pims == config.stack.banks
        assert policy.prog_gang_limit > 1


class TestSummaryRunner:
    def test_artifact_list_covers_paper(self):
        headings = [h for h, _m in summary.ARTIFACTS]
        assert headings[0].startswith("Table I")
        assert sum("Figure" in h for h in headings) == 11

    def test_skip_tokens(self):
        # skip everything: cheap smoke of the skip path
        text = summary.run_all(
            skip=tuple(h for h, _m in summary.ARTIFACTS)
        )
        assert text.count("(skipped)") == len(summary.ARTIFACTS)


class TestExtensionFormatting:
    def test_multistack_report(self):
        result = run_multistack(models=("dcgan",), stack_counts=(1, 2))
        text = format_multistack(result)
        assert "dcgan" in text and "Speedup" in text
        assert result["dcgan"][2].speedup_vs_1 > 1.0

    def test_inference_contrast_report(self):
        result = run_inference_contrast(models=("dcgan",))
        text = format_inference_contrast(result)
        assert "dcgan" in text
        row = result["dcgan"]
        assert 0.5 < row.backward_flop_share < 0.8
        assert row.infer_step_s < row.train_step_s


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.1.0"

    def test_top_level_exports(self):
        import repro

        cfg = repro.default_config()
        assert cfg.fixed_pim.n_units == 444

    def test_readme_api_list_matches_all(self):
        """The README's "Python API" list names exactly ``repro.__all__``."""
        import re
        from pathlib import Path

        import repro

        readme = (Path(__file__).parent.parent / "README.md").read_text()
        section = readme.split("### Python API\n", 1)[1].split("\n#", 1)[0]
        named = [
            name
            for item in section.split("\n- ")[1:]
            for name in re.findall(r"`([^`]+)`", item.split(" — ", 1)[0])
        ]
        assert sorted(named) == sorted(repro.__all__)

    def test_design_tables_name_real_code(self):
        """Every dotted name in DESIGN.md's subsystem "Package" column and
        experiment "Modules" column resolves under ``repro``, and every
        path in the experiment "Artifact" column exists."""
        import importlib
        import re
        from pathlib import Path

        repo = Path(__file__).parent.parent
        design = (repo / "DESIGN.md").read_text()
        names = []
        for header, column in (("| Subsystem |", 1), ("| Experiment |", 3)):
            table = design.split(header, 1)[1].split("\n\n", 1)[0]
            for row in table.splitlines()[2:]:
                cell = row.split("|")[column + 1]
                names += re.findall(r"`([A-Za-z_][\w.]*)`", cell)
        assert len(names) > 20
        rows = design.split("| Experiment |", 1)[1].split("\n\n", 1)[0]
        artifacts = [row.split("|")[5].strip(" `") for row in rows.splitlines()[2:]]
        assert [path for path in artifacts if not (repo / path).is_file()] == []
        unresolved = []
        for name in names:
            parts = name.removeprefix("repro.").split(".")
            for cut in range(len(parts), 0, -1):
                module = "repro." + ".".join(parts[:cut])
                try:
                    obj = importlib.import_module(module)
                except ImportError:
                    continue
                try:
                    for attr in parts[cut:]:
                        obj = getattr(obj, attr)
                except AttributeError:
                    unresolved.append(name)
                break
            else:
                unresolved.append(name)
        assert not unresolved

    def test_all_public_modules_importable(self):
        """Every module in the package imports, so a leftover import of a
        deleted module fails here wherever it hides."""
        import importlib
        import pkgutil

        import repro

        names = [
            info.name
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
            if info.name != "repro.__main__"
        ]
        assert "repro.sim.simulation" in names
        for name in names:
            importlib.import_module(name)

    def test_simulation_runs_without_numpy(self, tmp_path):
        """The front doors import, and a clean and a faulted run simulate,
        with numpy unimportable: only ``nn.numeric`` and the surrogate
        need it, and both load it on first use.  The serve daemon loads
        no experiment module."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = """
import sys
sys.modules["numpy"] = None
import repro.serve.daemon
experiments = [m for m in sys.modules if m.startswith("repro.experiments")]
assert not experiments, experiments
import repro.api, repro.cli
from repro.faults import FaultSpec
clean = repro.api.simulate("lstm", "hetero-pim", 1).result
spec = FaultSpec.generate(
    seed=5, horizon_s=clean.makespan_s, n_events=4,
    banks=32, pool_units=444, prog_pims=1,
)
faulted = repro.api.simulate("lstm", "hetero-pim", 1, faults=spec).result
assert faulted.to_json() != clean.to_json()
print("ok")
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "ok"
