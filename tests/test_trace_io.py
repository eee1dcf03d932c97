"""Trace export: the JSON file records the generated trace."""

import json

import pytest

from repro.nn.models import build_model
from repro.sim.trace_io import TRACE_FORMAT_VERSION, export_trace
from repro.sim.tracegen import generate_trace


@pytest.fixture(scope="module")
def dcgan():
    return build_model("dcgan")


def _exported(graph, steps, tmp_path):
    path = tmp_path / "trace.json"
    export_trace(graph, steps=steps, path=path)
    return json.loads(path.read_text())


class TestRoundTrip:
    def test_export_reports_count(self, dcgan, tmp_path):
        path = tmp_path / "trace.json"
        n = export_trace(dcgan, steps=2, path=path)
        assert n == 2 * dcgan.num_ops
        assert path.exists()

    def test_summary(self, dcgan, tmp_path):
        payload = _exported(dcgan, 2, tmp_path)
        assert payload["format_version"] == TRACE_FORMAT_VERSION
        assert payload["model"] == "dcgan"
        assert payload["batch_size"] == dcgan.batch_size
        assert payload["steps"] == 2
        assert len(payload["tasks"]) == 2 * dcgan.num_ops

    def test_export_matches_generated_trace(self, dcgan, tmp_path):
        records = _exported(dcgan, 2, tmp_path)["tasks"]
        original = generate_trace(dcgan, steps=2)
        assert [r["uid"] for r in records] == [t.uid for t in original]
        for record, task in zip(records, original):
            assert record["deps"] == sorted(task.deps)
            assert record["step"] == task.step
            assert record["topo_index"] == task.topo_index
            op = record["op"]
            assert op["name"] == task.op.name
            assert op["op_type"] == task.op.op_type
            cost = task.op.cost
            assert op["cost"] == {
                "muls": cost.muls,
                "adds": cost.adds,
                "other_flops": cost.other_flops,
                "bytes_in": cost.bytes_in,
                "bytes_out": cost.bytes_out,
                "parallelism": cost.parallelism,
            }

    def test_attrs_preserved(self, dcgan, tmp_path):
        records = _exported(dcgan, 1, tmp_path)["tasks"]
        exported = {r["op"]["name"]: r["op"]["attrs"] for r in records}
        assert len(exported) == dcgan.num_ops
        for op in dcgan.ops:
            assert exported[op.name].get("params_read", []) == list(
                op.attrs.get("params_read", ())
            )
