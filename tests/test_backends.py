"""Hardware-backend registry, rival backends, and the options record
of ``repro.api.simulate`` (``report.options``).

The pinned digests in ``GOLDEN_DIGESTS`` are sha256 hashes of
``RunResult.to_json()`` captured on the pre-registry codebase — the
default ``hmc-hetero`` backend must keep producing byte-identical
artifacts through the registry refactor.
"""

import hashlib
import json

import pytest

from repro import api
from repro.errors import (
    BackendError,
    DuplicateBackendError,
    ReproError,
    UnknownBackendError,
)
from repro.hardware import registry
from repro.hardware.registry import BackendDescriptor, HardwareBackend
from repro.obs.report import RunReport


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch):
    """Golden digests were pinned cache-off; keep runs hermetic."""
    monkeypatch.setenv("REPRO_CACHE", "0")


BUILTIN_BACKENDS = ("gradpim", "hmc-hetero", "neurotrainer")

#: (model, configuration, steps) -> sha256 of RunResult.to_json() on the
#: pre-registry codebase (commit 19185e3).
GOLDEN_DIGESTS = {
    ("alexnet", "cpu", 2):
        "1e00d15f6a5f813c1eb7e11de909de60f3e6a022d421eef84294705dbf1871c6",
    ("alexnet", "gpu", 2):
        "467b1f92c42ceb93da9491a9332e752be2f73f9025e8d1a446602ce4bd9e2c19",
    ("alexnet", "prog-pim", 2):
        "030d62ad433406b29fcf0870f9f184c3e19619ecb32dfad2ac25a5fca75e0f9e",
    ("alexnet", "fixed-pim", 2):
        "2f180bb21746ae0f461d400867a41092cbad9f106f378e04f156f8779824bc18",
    ("alexnet", "hetero-pim", 2):
        "43593520489f4b6d27b98fb002c5dace49d16758dd18a06597e9d222bfa7f01e",
    ("alexnet", "neurocube", 2):
        "a9518af237c2f218c84573f76e6a4f457eb993e3c0aa9147af1b13ca1d1ce613",
    ("dcgan", "hetero-pim", 3):
        "bb02362e449d429a6a34ba7f155bc52198b8a8b47161f76e5c3d7bdb729724e0",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert registry.list_backends() == BUILTIN_BACKENDS
        assert api.list_backends() == BUILTIN_BACKENDS

    def test_get_unknown_lists_available(self):
        with pytest.raises(UnknownBackendError) as exc:
            registry.get("gradpmi")
        assert exc.value.available == BUILTIN_BACKENDS
        for name in BUILTIN_BACKENDS:
            assert name in str(exc.value)

    def test_duplicate_registration_rejected(self):
        existing = type(registry.get("hmc-hetero"))
        with pytest.raises(DuplicateBackendError):
            registry.register(existing)

    def test_register_rejects_non_backends(self):
        with pytest.raises(BackendError):
            registry.register(object())

    def test_unregister_roundtrip(self):
        class Probe(HardwareBackend):
            name = "probe-backend"

            def describe(self):
                return BackendDescriptor(
                    name=self.name,
                    description="test probe",
                    device_kinds=("cpu",),
                    placement="none",
                    configurations=("probe",),
                    default_configuration="probe",
                )

            def build(self, configuration=None, base=None):
                raise NotImplementedError

        registry.register(Probe)
        try:
            assert "probe-backend" in registry.list_backends()
            assert isinstance(registry.get("probe-backend"), Probe)
        finally:
            registry.unregister("probe-backend")
        assert "probe-backend" not in registry.list_backends()

    def test_build_tags_system_config(self):
        for name in BUILTIN_BACKENDS:
            config, policy = registry.build(name)
            assert config.backend == name, name
            assert policy.name


class TestDescriptors:
    def test_json_round_trip(self):
        for name in BUILTIN_BACKENDS:
            desc = registry.get(name).describe()
            assert desc.name == name
            clone = BackendDescriptor.from_json(desc.to_json())
            assert clone == desc
            # and through plain json too (CI inspects artifacts this way)
            assert BackendDescriptor.from_dict(
                json.loads(desc.to_json())
            ) == desc

    def test_default_configuration_is_listed(self):
        for name in BUILTIN_BACKENDS:
            desc = registry.get(name).describe()
            assert desc.default_configuration in desc.configurations

    @pytest.mark.parametrize("name", BUILTIN_BACKENDS)
    def test_descriptor_is_described_once_per_instance(self, name):
        backend = type(registry.get(name))()
        calls = []
        describe = backend.describe

        def counting_describe():
            calls.append(1)
            return describe()

        backend.describe = counting_describe
        for _ in range(3):
            assert backend.configurations == describe().configurations
            assert (
                backend.default_configuration
                == describe().default_configuration
            )
        assert len(calls) == 1
        assert backend.descriptor is backend.descriptor


class TestRivalBackends:
    @pytest.mark.parametrize("backend", ("gradpim", "neurotrainer"))
    def test_simulates_and_reports_backend(self, backend):
        report = api.simulate(
            "dcgan", steps=1, backend=backend, validate=True
        )
        assert report.backend == backend
        assert report.options["backend"] == backend
        assert report.result.step_time_s > 0
        assert report.result.step_dynamic_energy_j > 0

    def test_gradpim_runs_optimizer_in_dram(self):
        config, policy = registry.build("gradpim")
        assert config.fixed_pim.n_units == 16  # one unit per bank group
        assert policy.uses_gpu
        report = api.simulate("alexnet", steps=1, backend="gradpim")
        busy = report.result.device_busy_fraction
        assert busy["fixed"] > 0  # optimizer updates ran in-DRAM
        assert busy["gpu"] > 0  # fwd/bwd stayed on the accelerator
        assert busy.get("prog", 0.0) == 0

    def test_neurotrainer_runs_everything_in_module(self):
        config, policy = registry.build("neurotrainer")
        assert config.prog_pim.n_pims == 16  # one PE group per vault
        assert not policy.uses_gpu
        report = api.simulate("alexnet", steps=1, backend="neurotrainer")
        busy = report.result.device_busy_fraction
        assert busy["prog"] > 0
        assert busy.get("gpu", 0.0) == 0
        assert busy.get("fixed", 0.0) == 0

    def test_backends_do_not_share_cached_results(self):
        hetero = api.simulate("dcgan", steps=1)
        grad = api.simulate("dcgan", steps=1, backend="gradpim")
        assert hetero.result.to_json() != grad.result.to_json()


class TestDefaultBackendByteIdentity:
    @pytest.mark.parametrize(
        "model,config,steps",
        sorted(GOLDEN_DIGESTS),
        ids=lambda v: str(v),
    )
    def test_golden_digest(self, model, config, steps):
        report = api.simulate(model, config, steps=steps)
        digest = hashlib.sha256(
            report.result.to_json().encode()
        ).hexdigest()
        assert digest == GOLDEN_DIGESTS[(model, config, steps)], (
            f"{model}/{config}/{steps}: the registry refactor changed the "
            "default backend's artifact bytes"
        )


class TestSimulateOptions:
    """``report.options``: the resolved keywords of one ``simulate`` call."""

    def test_resolved_options_recorded(self):
        report = api.simulate("dcgan", steps=1, validate=True)
        opts = report.options
        assert opts["backend"] == "hmc-hetero"
        assert opts["config"] == "hetero-pim"
        assert opts["steps"] == 1
        assert opts["validate"] is True
        assert opts["surrogate"] is False
        assert opts["faults"] is False

    def test_options_survive_report_round_trip(self):
        report = api.simulate("dcgan", steps=1, backend="neurotrainer")
        clone = RunReport.from_json(report.to_json())
        assert clone.options == report.options
        assert clone.backend == "neurotrainer"

    def test_pre_options_reports_default_backend(self):
        report = api.simulate("dcgan", steps=1)
        data = json.loads(report.to_json())
        del data["options"]  # a v4 report never recorded options
        vintage = RunReport.from_dict(data)
        assert vintage.options is None
        assert vintage.backend == "hmc-hetero"


class TestCompareExperiment:
    def test_small_grid_payload_validates(self):
        from repro.experiments import compare

        result = compare.run(models=("dcgan",), steps=1)
        data = compare.validate_payload(compare.payload(result))
        assert data["reference_backend"] == "hmc-hetero"
        assert set(data["backends"]) == set(compare.COMPARE_BACKENDS)
        for cell in data["cells"]:
            if cell["backend"] == "hmc-hetero":
                assert cell["time_vs_hetero"] == 1.0

    def test_reference_backend_required(self):
        from repro.experiments import compare

        with pytest.raises(ReproError):
            compare.run(models=("dcgan",), backends=("gradpim",), steps=1)

    def test_validate_rejects_missing_cells(self):
        from repro.experiments import compare

        result = compare.run(models=("dcgan",), steps=1)
        data = compare.payload(result)
        data["cells"] = data["cells"][:-1]
        with pytest.raises(ReproError):
            compare.validate_payload(data)


class TestCli:
    def test_unknown_backend_friendly_error(self, capsys):
        from repro.cli import main

        assert main(["run", "alexnet", "--backend", "gradpmi"]) == 1
        err = capsys.readouterr().err
        assert "gradpmi" in err
        assert "gradpim" in err  # suggests the registered names
        assert "Traceback" not in err

    def test_run_on_rival_backend(self, capsys):
        from repro.cli import main

        assert main(["run", "dcgan", "--backend", "gradpim",
                     "--steps", "1"]) == 0
        assert "GradPIM" in capsys.readouterr().out

    def test_backends_listing(self, capsys):
        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_BACKENDS:
            assert name in out
