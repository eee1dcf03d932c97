"""Dataflow-graph construction, dependences and merging."""

import pytest

from repro.errors import GraphError
from repro.nn.graph import Graph, merge_graphs
from repro.nn.ops import Op, OpCost
from repro.nn.tensor import TensorSpec


def tiny_graph() -> Graph:
    """a(Conv2D) -> b(Relu) -> c(BiasAddGrad); plus an Adam update."""
    g = Graph(name="tiny", batch_size=4)
    g.add_tensor(TensorSpec("x", (4, 8)))
    g.add_tensor(TensorSpec("w", (8, 8)))
    g.add_tensor(TensorSpec("t1", (4, 8)))
    g.add_tensor(TensorSpec("t2", (4, 8)))
    g.add_tensor(TensorSpec("gw", (8, 8)))
    g.add_tensor(TensorSpec("w_new", (8, 8)))
    g.add_op(Op("a", "MatMul", inputs=("x", "w"), outputs=("t1",),
                cost=OpCost(muls=10, adds=10),
                attrs={"params_read": ("w",)}))
    g.add_op(Op("b", "Relu", inputs=("t1",), outputs=("t2",),
                cost=OpCost(other_flops=5)))
    g.add_op(Op("c", "BiasAddGrad", inputs=("t2",), outputs=("gw",),
                cost=OpCost(adds=5)))
    g.add_op(Op("opt", "ApplyAdam", inputs=("w", "gw"), outputs=("w_new",),
                cost=OpCost(muls=8, adds=8),
                attrs={"param_written": "w"}))
    return g


def _hetero():
    from repro.baselines import build_configuration

    return build_configuration("hetero-pim")


def _fingerprint(g: Graph) -> str:
    from repro.sim.cache import run_fingerprint

    config, policy = _hetero()
    policy.prepare(g, config)
    return run_fingerprint(g, policy, config)


def _simulated_and_fingerprinted(g: Graph) -> Graph:
    from repro.sim.simulation import Simulation

    config, policy = _hetero()
    Simulation(g, policy, config=config, steps=2).run()
    _fingerprint(g)
    return g


class TestConstruction:
    def test_duplicate_tensor_rejected(self):
        g = Graph(name="g")
        g.add_tensor(TensorSpec("x", (1,)))
        with pytest.raises(GraphError):
            g.add_tensor(TensorSpec("x", (2,)))

    def test_duplicate_op_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.add_op(Op("a", "MatMul"))

    def test_unknown_input_rejected(self):
        g = Graph(name="g")
        with pytest.raises(GraphError):
            g.add_op(Op("a", "Relu", inputs=("missing",)))

    def test_undeclared_output_rejected(self):
        g = Graph(name="g")
        g.add_tensor(TensorSpec("x", (1,)))
        with pytest.raises(GraphError):
            g.add_op(Op("a", "Relu", inputs=("x",), outputs=("nope",)))

    def test_double_producer_rejected(self):
        g = Graph(name="g")
        g.add_tensor(TensorSpec("x", (1,)))
        g.add_tensor(TensorSpec("y", (1,)))
        g.add_op(Op("a", "Relu", inputs=("x",), outputs=("y",)))
        with pytest.raises(GraphError):
            g.add_op(Op("b", "Relu", inputs=("x",), outputs=("y",)))


class TestQueries:
    def test_predecessors_follow_tensors(self):
        g = tiny_graph()
        assert g.predecessors("a") == set()
        assert g.predecessors("b") == {"a"}
        assert g.predecessors("opt") == {"c"}

    def test_successors(self):
        g = tiny_graph()
        assert g.successors("a") == {"b"}
        assert g.successors("c") == {"opt"}

    def test_control_deps_join_predecessors(self):
        g = tiny_graph()
        g.add_tensor(TensorSpec("z", (1,)))
        g.add_op(Op("ctl", "NoOp", outputs=("z",),
                    attrs={"control_deps": ("a",)}))
        assert "a" in g.predecessors("ctl")
        assert "ctl" in g.successors("a")

    def test_producer_of(self):
        g = tiny_graph()
        assert g.producer_of("t1") == "a"
        assert g.producer_of("x") is None

    def test_param_update_tracking(self):
        g = tiny_graph()
        assert g.param_update_op("w") == "opt"
        assert g.param_update_op("unknown") is None
        assert g.params_read_by("a") == ("w",)

    def test_invocation_counts(self):
        counts = tiny_graph().invocation_counts()
        assert counts["MatMul"] == 1
        assert counts["Relu"] == 1

    def test_total_cost_sums_components(self):
        total = tiny_graph().total_cost()
        assert total.muls == 10 + 8
        assert total.adds == 10 + 5 + 8
        assert total.other_flops == 5


class TestTopologicalOrder:
    def test_respects_dependences(self):
        g = tiny_graph()
        order = [op.name for op in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("c")
        assert order.index("c") < order.index("opt")

    def test_cycle_detected(self):
        g = Graph(name="cyclic")
        g.add_tensor(TensorSpec("x", (1,)))
        g.add_tensor(TensorSpec("y", (1,)))
        g.add_op(Op("a", "Relu", inputs=("y",), outputs=("x",)))
        with pytest.raises(GraphError):
            g.add_op(Op("b", "Relu", inputs=("x",), outputs=("y",)))
            g.topological_order()

    def test_derived_once_and_dropped_by_add_op(self, monkeypatch):
        g = tiny_graph()
        derived = []
        original = Graph._derive_topological_order
        monkeypatch.setattr(
            Graph,
            "_derive_topological_order",
            lambda self: derived.append(1) or original(self),
        )
        first = g.topological_order()
        assert g.topological_order() == first and len(derived) == 1
        assert g.predecessor_sets() is g.predecessor_sets()
        g.add_tensor(TensorSpec("z", (4, 8)))
        g.add_op(Op("d", "Relu", inputs=("t2",), outputs=("z",)))
        assert g.predecessors("d") == {"b"}
        order = [op.name for op in g.topological_order()]
        assert len(order) == 5 and order.index("b") < order.index("d")
        assert len(derived) == 2

    def test_derived_structure_stays_out_of_equality(self):
        warm, cold = tiny_graph(), tiny_graph()
        warm.topological_order()
        assert warm == cold

    def test_shallow_renamed_copy_keeps_the_order(self):
        import copy

        base = tiny_graph()
        order = [op.name for op in base.topological_order()]
        replica = copy.copy(base)
        replica.name = "tiny#1"
        assert [op.name for op in replica.topological_order()] == order
        assert replica.predecessors("b") == {"a"}
        merged = merge_graphs("both", [base, replica])
        assert merged.predecessors("tiny#1::b") == {"tiny#1::a"}

    def test_pickle_drops_the_memo(self):
        import pickle

        g = _simulated_and_fingerprinted(tiny_graph())
        assert g.memo
        clone = pickle.loads(pickle.dumps(g))
        assert clone.memo == {} and clone == g
        assert g.memo

    def test_renamed_copy_derives_its_own_state(self):
        import copy

        from repro.profiling.profiler import profile_workload

        base = _simulated_and_fingerprinted(tiny_graph())
        replica = copy.copy(base)
        replica.name = "tiny#1"
        assert replica.memo == {}
        assert _fingerprint(replica) != _fingerprint(base)
        cpu = _hetero()[0].cpu
        assert profile_workload(base, cpu).model_name == "tiny"
        assert profile_workload(replica, cpu).model_name == "tiny#1"

    def test_resident_bytes_excludes_gradients(self):
        g = Graph(name="g")
        g.add_tensor(TensorSpec("act", (100,)))
        g.add_tensor(TensorSpec("grad/act", (100,)))
        assert g.resident_bytes() == 400


class TestMergeGraphs:
    def test_merge_prefixes_and_isolates(self):
        a, b = tiny_graph(), tiny_graph()
        b.name = "tiny2"
        merged = merge_graphs("both", [a, b])
        assert merged.num_ops == 2 * a.num_ops
        assert merged.has_op("tiny::a") and merged.has_op("tiny2::a")
        # no cross-model dependences
        assert merged.predecessors("tiny2::b") == {"tiny2::a"}

    def test_merge_rewrites_param_attrs(self):
        a, b = tiny_graph(), tiny_graph()
        b.name = "tiny2"
        merged = merge_graphs("both", [a, b])
        assert merged.param_update_op("tiny::w") == "tiny::opt"
        assert merged.params_read_by("tiny2::a") == ("tiny2::w",)

    def test_merge_tags_source_model(self):
        a, b = tiny_graph(), tiny_graph()
        b.name = "tiny2"
        merged = merge_graphs("both", [a, b])
        assert merged.op("tiny::a").attrs["source_model"] == "tiny"
        assert merged.op("tiny2::a").attrs["source_model"] == "tiny2"

    def test_merge_sums_input_bytes(self):
        a, b = tiny_graph(), tiny_graph()
        a.input_bytes, b.input_bytes = 100, 50
        b.name = "tiny2"
        assert merge_graphs("both", [a, b]).input_bytes == 150
