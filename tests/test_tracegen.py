"""Trace generation: task unrolling and cross-step dependences."""

import pytest

from repro.errors import SimulationError
from repro.nn.models import build_model
from repro.sim.tracegen import (
    compile_kernels,
    generate_trace,
    task_uid,
    trace_stats,
    trace_template,
)


@pytest.fixture(scope="module")
def alexnet():
    return build_model("alexnet")


class TestTraceGeneration:
    def test_task_count(self, alexnet):
        tasks = generate_trace(alexnet, steps=3)
        assert len(tasks) == 3 * alexnet.num_ops

    def test_zero_steps_rejected(self, alexnet):
        with pytest.raises(SimulationError):
            generate_trace(alexnet, steps=0)

    def test_intra_step_deps_match_graph(self, alexnet):
        tasks = {t.uid: t for t in generate_trace(alexnet, steps=1)}
        for op in alexnet.ops:
            expected = {task_uid(0, p) for p in alexnet.predecessors(op.name)}
            assert tasks[task_uid(0, op.name)].deps == expected

    def test_cross_step_param_deps(self, alexnet):
        tasks = {t.uid: t for t in generate_trace(alexnet, steps=2)}
        # step-1 conv1 reads conv1/weights, updated by step-0 Adam
        conv1 = tasks[task_uid(1, "conv1/Conv2D")]
        update = alexnet.param_update_op("conv1/weights")
        assert task_uid(0, update) in conv1.deps
        # step-0 conv1 has no such dependence
        conv1_s0 = tasks[task_uid(0, "conv1/Conv2D")]
        assert all(d.startswith("s0/") for d in conv1_s0.deps)

    def test_optimizer_updates_serialize_across_steps(self, alexnet):
        tasks = {t.uid: t for t in generate_trace(alexnet, steps=2)}
        update = alexnet.param_update_op("conv1/weights")
        assert task_uid(0, update) in tasks[task_uid(1, update)].deps

    def test_sort_key_orders_by_step_then_topo(self, alexnet):
        tasks = generate_trace(alexnet, steps=2)
        keys = [t.sort_key for t in tasks]
        assert keys == sorted(keys)

    def test_stats(self, alexnet):
        tasks = generate_trace(alexnet, steps=2)
        stats = trace_stats(tasks)
        assert stats["tasks"] == 2 * alexnet.num_ops
        assert stats["steps"] == 2
        assert stats["cross_step_edges"] > 0


class TestTraceTemplate:
    def test_one_template_per_graph_and_steps(self, alexnet):
        template = trace_template(alexnet, 2)
        assert trace_template(alexnet, 2) is template
        assert trace_template(alexnet, 3) is not template

    def test_dependents_invert_dependences(self, alexnet):
        template = trace_template(alexnet, 3)
        inverted = [[] for _ in template.deps]
        for i, before in enumerate(template.deps):
            for j in before:
                assert j < i  # a dependence names an earlier position
                inverted[j].append(i)
        assert [list(d) for d in template.dependents] == inverted
        assert list(template.indeg) == [len(d) for d in template.deps]

    def test_positions_match_the_generated_trace(self, alexnet):
        template = trace_template(alexnet, 2)
        specs = generate_trace(alexnet, steps=2)
        assert [t.uid for t in specs] == list(template.uids)
        for spec, before in zip(specs, template.deps):
            assert spec.deps == {template.uids[j] for j in before}
        n = alexnet.num_ops
        assert [t.sort_key for t in specs] == [
            key[1:] for key in template.sort_keys(0)
        ]
        assert template.keys[n] == ("alexnet", 1)


class TestKernelCompilation:
    def test_every_op_gets_a_kernel(self, alexnet):
        kernels = compile_kernels(alexnet)
        assert set(kernels) == {op.name for op in alexnet.ops}

    def test_equal_content_shares_binaries(self, alexnet):
        kernels = compile_kernels(alexnet)
        by_content = {}
        for op in alexnet.ops:
            by_content.setdefault(op.content, kernels[op.name].binaries)
            assert kernels[op.name].binaries is by_content[op.content]
        assert len(by_content) < alexnet.num_ops
