"""Trace export/import round trip."""

import json

import pytest

from repro.errors import SimulationError
from repro.nn.models import build_model
from repro.sim.trace_io import export_trace, import_trace, trace_summary
from repro.sim.tracegen import generate_trace


@pytest.fixture(scope="module")
def dcgan():
    return build_model("dcgan")


class TestRoundTrip:
    def test_export_reports_count(self, dcgan, tmp_path):
        path = tmp_path / "trace.json"
        n = export_trace(dcgan, steps=2, path=path)
        assert n == 2 * dcgan.num_ops
        assert path.exists()

    def test_summary(self, dcgan, tmp_path):
        path = tmp_path / "trace.json"
        export_trace(dcgan, steps=2, path=path)
        summary = trace_summary(path)
        assert summary["model"] == "dcgan"
        assert summary["steps"] == 2
        assert summary["tasks"] == 2 * dcgan.num_ops

    def test_import_reconstructs_tasks(self, dcgan, tmp_path):
        path = tmp_path / "trace.json"
        export_trace(dcgan, steps=2, path=path)
        original = generate_trace(dcgan, steps=2)
        loaded = import_trace(path)
        assert len(loaded) == len(original)
        by_uid = {t.uid: t for t in loaded}
        for orig in original:
            got = by_uid[orig.uid]
            assert got.deps == orig.deps
            assert got.step == orig.step
            assert got.op.op_type == orig.op.op_type
            assert got.op.cost == orig.op.cost
            assert got.topo_index == orig.topo_index

    def test_attrs_preserved(self, dcgan, tmp_path):
        path = tmp_path / "trace.json"
        export_trace(dcgan, steps=1, path=path)
        loaded = {t.op.name: t.op for t in import_trace(path)}
        for op in dcgan.ops:
            got = loaded[op.name]
            assert tuple(got.attrs.get("params_read", ())) == tuple(
                op.attrs.get("params_read", ())
            )

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99, "tasks": []}))
        with pytest.raises(SimulationError):
            import_trace(path)
