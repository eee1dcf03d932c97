"""Each distinct op is evaluated once.

Compiled binaries, CPU profile samples and cost-table rows are functions
of an op's content (``op_type`` plus ``cost``), so ops of equal content
share them.  These tests prove that sharing changes nothing — a memoized
row or plan equals one evaluated afresh for another op of the same
content — and that the per-op formulas really run once per distinct
content.  The table corpus (``test_table_corpus.py``) pins the values
themselves for the zoo.
"""

import functools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.errors import SchedulingError
from repro.hardware import registry
from repro.hardware.cpu import CpuModel
from repro.hardware.gpu import GpuModel
from repro.nn.graph import Graph
from repro.nn.models import build_model
from repro.nn.ops import OP_TYPES, Op, OpCost
from repro.pimcl import codegen
from repro.profiling.profiler import WorkloadProfiler
from repro.sim.optable import CostRow, _build
from repro.sim.tracegen import compile_kernels

VARIANTS = [
    (backend, configuration)
    for backend in registry.list_backends()
    for configuration in registry.get(backend).configurations
]


def _graph(*ops):
    graph = Graph(name="distinct-ops")
    for op in ops:
        graph.add_op(op)
    return graph


def _table(graph, backend, configuration, scale):
    base = default_config().with_frequency_scale(scale)
    config, policy = registry.build(backend, configuration, base)
    policy.prepare(graph, config)
    return _build(graph, policy, config)


def _row_repr(table, op):
    row, places, priority, allowed = table.entries[id(op)]
    return repr(
        [getattr(row, name) for name in CostRow.__slots__ if name != "op"]
        + [row.op.content, places, priority, allowed]
    )


costs = st.builds(
    OpCost,
    muls=st.integers(min_value=0, max_value=10**10),
    adds=st.integers(min_value=0, max_value=10**10),
    other_flops=st.integers(min_value=0, max_value=10**9),
    bytes_in=st.integers(min_value=0, max_value=10**10),
    bytes_out=st.integers(min_value=0, max_value=10**10),
    parallelism=st.integers(min_value=1, max_value=4096),
)


@given(
    op_type=st.sampled_from(sorted(OP_TYPES)),
    cost=costs,
    variant=st.sampled_from(VARIANTS),
    scale=st.sampled_from((1.0, 2.0, 4.0)),
)
@settings(max_examples=60, deadline=None)
def test_memoized_row_and_plan_equal_fresh_ones(op_type, cost, variant, scale):
    first = Op(name="a/first", op_type=op_type, cost=cost)
    # equal content, but another name, attrs and cost object
    shared = Op(name="b/shared", op_type=op_type, cost=replace(cost),
                attrs={"layer": "b"})
    alone = Op(name="c/alone", op_type=op_type, cost=replace(cost))
    memoized = _table(_graph(first, shared), *variant, scale)
    assert memoized.entries[id(shared)][0] is memoized.entries[id(first)][0]
    memo_binaries = codegen.generate_binaries(shared).binaries
    with mock.patch.dict(codegen._BINARIES, clear=True):
        fresh = _table(_graph(alone), *variant, scale)
        fresh_binaries = codegen._compile(alone)
    assert _row_repr(memoized, shared) == _row_repr(fresh, alone)
    assert repr(sorted(memo_binaries.items())) == repr(
        sorted(fresh_binaries.items())
    )


def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` from here on."""
    calls = []
    original = getattr(owner, name)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("configuration", ["hetero-pim", "fixed-pim"])
def test_formulas_run_once_per_distinct_content(monkeypatch, configuration):
    graph = build_model("lstm")  # fresh ops: no cached derived fields
    distinct = {op.content for op in graph.ops}
    assert (len(distinct), graph.num_ops) == (37, 1206)
    config, policy = registry.build("hmc-hetero", configuration)
    monkeypatch.setattr(codegen, "_BINARIES", {})
    timings = _counting(monkeypatch, CpuModel, "op_timing")
    WorkloadProfiler(config.cpu).profile(graph)
    assert len(timings) == len(distinct)
    policy.prepare(graph, config)
    compiles = _counting(monkeypatch, codegen, "_whole_plan")
    rooflines = _counting(monkeypatch, CpuModel, "op_roofline")
    gpu_times = _counting(monkeypatch, GpuModel, "op_time")
    table = _build(graph, policy, config)
    assert len(table.rows) == len(distinct)
    assert len(table.entries) == graph.num_ops
    assert len(rooflines) == len(gpu_times) == len(distinct)
    # the table compiles only the contents it places on the fixed pool;
    # compiling the whole graph adds each other content once
    assert 0 < len(compiles) < len(distinct)
    compile_kernels(graph)
    assert len(compiles) == len(codegen._BINARIES) == len(distinct)


class TestEstimateErrors:
    @pytest.fixture(scope="class")
    def table(self):
        graph = build_model("alexnet")
        config, policy = registry.build("hmc-hetero", "hetero-pim")
        policy.prepare(graph, config)
        return graph, _build(graph, policy, config)

    def test_an_op_of_another_graph_is_named(self, table):
        _, table = table
        stranger = build_model("lstm").ops[0]
        with pytest.raises(SchedulingError) as raised:
            table.estimate("cpu", stranger, 1.0)
        message = str(raised.value)
        assert repr(stranger.name) in message
        assert "not in this cost table" in message
        assert "placement" not in message

    def test_an_unknown_placement_is_named(self, table):
        graph, table = table
        with pytest.raises(SchedulingError, match="unknown placement 'tpu'"):
            table.estimate("tpu", graph.ops[0], 1.0)
