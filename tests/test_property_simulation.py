"""Property-based tests on whole-simulation invariants.

Random MLP training graphs run through every policy; the properties below
must hold regardless of graph shape: conservation (all tasks complete),
breakdown accounting, energy positivity, and ordering between policies.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import build_configuration
from repro.config import default_config
from repro.nn.layers import GraphBuilder
from repro.sim.simulation import Simulation


@st.composite
def small_training_graph(draw):
    batch = draw(st.integers(min_value=1, max_value=8))
    in_dim = draw(st.integers(min_value=2, max_value=48))
    widths = draw(
        st.lists(st.integers(min_value=2, max_value=96), min_size=1, max_size=4)
    )
    classes = draw(st.integers(min_value=2, max_value=12))
    use_conv = draw(st.booleans())

    b = GraphBuilder("prop-model", batch_size=batch)
    if use_conv:
        side = draw(st.sampled_from([4, 8, 12]))
        chans = draw(st.integers(min_value=1, max_value=8))
        x = b.input((batch, side, side, chans))
        x = b.conv2d(x, draw(st.integers(min_value=1, max_value=16)),
                     (3, 3), name="conv0")
        x = b.flatten(x)
    else:
        x = b.input((batch, in_dim))
    for i, w in enumerate(widths):
        x = b.dense(x, w, name=f"fc{i}")
    x = b.dense(x, classes, activation=None, name="logits")
    b.softmax_loss(x, classes)
    return b.finish()


@given(graph=small_training_graph(), steps=st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_every_policy_completes_and_accounts_time(graph, steps):
    for name in ("cpu", "gpu", "fixed-pim", "hetero-pim"):
        config, policy = build_configuration(name)
        result = Simulation(graph, policy, config=config, steps=steps).run()
        # conservation: simulation finished (would raise on deadlock)
        assert result.makespan_s > 0
        # the three buckets tile the makespan exactly
        assert abs(result.breakdown.total_s - result.makespan_s) < 1e-9
        # energy is positive and finite
        assert 0 < result.energy.total_j < float("inf")
        assert result.step_time_s <= result.makespan_s + 1e-12


@given(graph=small_training_graph())
@settings(max_examples=10, deadline=None)
def test_hetero_never_slower_than_cpu(graph):
    cfg_cpu, pol_cpu = build_configuration("cpu")
    cfg_het, pol_het = build_configuration("hetero-pim")
    cpu = Simulation(graph, pol_cpu, config=cfg_cpu).run()
    hetero = Simulation(graph, pol_het, config=cfg_het).run()
    # offloading may round-trip tiny graphs through launch overheads, but
    # must never lose by more than those overheads
    launch_budget = 0.01  # 10 ms of slack for launch-dominated tiny graphs
    assert hetero.step_time_s <= cpu.step_time_s + launch_budget


@given(graph=small_training_graph())
@settings(max_examples=10, deadline=None)
def test_pool_mac_accounting_is_conservative(graph):
    config, policy = build_configuration("hetero-pim")
    sim = Simulation(graph, policy, config)
    result = sim.run()
    total_macs = graph.total_cost().macs * result.steps
    # the pool never executes more MAC work than the trace contains
    assert result.usage.fixed_macs <= total_macs + 1


@given(
    graph=small_training_graph(),
    scale=st.sampled_from([1.0, 2.0, 4.0]),
)
@settings(max_examples=10, deadline=None)
def test_frequency_never_hurts(graph, scale):
    cfg1, pol1 = build_configuration("hetero-pim")
    base = Simulation(graph, pol1, config=cfg1).run()
    cfgN, polN = build_configuration(
        "hetero-pim", default_config().with_frequency_scale(scale)
    )
    scaled = Simulation(graph, polN, config=cfgN).run()
    # 10% slack: faster clocks shift dispatch timestamps, which can flip
    # greedy placement ties and occasionally pick a slightly worse
    # schedule for tiny graphs; the property is "no systematic harm",
    # not per-tie monotonicity.
    assert scaled.step_time_s <= base.step_time_s * 1.10 + 1e-6


@given(graph=small_training_graph())
@settings(max_examples=8, deadline=None)
def test_timeline_consistent_with_dependences(graph):
    config, policy = build_configuration("hetero-pim")
    sim = Simulation(graph, policy, config, record_timeline=True)
    sim.run()
    ends = {e.uid: e.end_s for e in sim.timeline.entries}
    starts = {e.uid: e.start_s for e in sim.timeline.entries}
    for task in sim._tasks:
        for j in task.dependents:
            assert ends[task.uid] <= starts[sim._tasks[j].uid] + 1e-9
