"""A simulation run leaves no cyclic garbage.

The event recipes never form reference cycles, so everything a run
allocates (tasks, kernels, events, pool jobs, the fault injector) is freed
by reference counting once the run lets go of it; the cyclic collector has
nothing to scan for.  Each case builds and runs one ``Simulation`` with the
collector off, drops it and checks that a collection finds nothing.
"""

import functools
import gc
import weakref

import pytest

from repro.baselines import build_configuration
from repro.config import default_config
from repro.faults import FaultSpec
from repro.faults.spec import DramDerate, ProgPimLoss, UnitLoss
from repro.nn.graph import merge_graphs
from repro.nn.models import build_model
from repro.runtime.scheduler import MixedWorkloadPolicy
from repro.sim.cache import run_fingerprint
from repro.sim.simulation import Simulation

STEPS = 2


@functools.lru_cache(maxsize=None)
def _graph(model):
    return build_model(model)


@functools.lru_cache(maxsize=None)
def _corun_graph():
    return merge_graphs("co", [_graph("dcgan"), _graph("lstm")])


@functools.lru_cache(maxsize=None)
def _fault_spec():
    """A unit loss, a DRAM derate, a prog-PIM loss and the pool's death:
    revoked sub-kernels retry, work degrades and placements are
    re-selected."""
    config, policy = build_configuration("hetero-pim")
    ms = Simulation(_graph("alexnet"), policy, config=config, steps=STEPS).run()
    ms = ms.makespan_s
    return FaultSpec(
        events=(
            UnitLoss(time_s=0.2 * ms, units=300),
            DramDerate(time_s=0.1 * ms, duration_s=0.5 * ms, factor=0.5),
            ProgPimLoss(time_s=0.4 * ms),
            UnitLoss(time_s=0.6 * ms, units=444),
        )
    )


def _hetero_clean():
    config, policy = build_configuration("hetero-pim")
    return Simulation(_graph("inception-v3"), policy, config=config, steps=STEPS)


def _fixed_no_pipeline():
    # the fixed-pim baseline runs without the operation pipeline: one
    # operation at a time holds the pool token
    config, policy = build_configuration("fixed-pim")
    assert not policy.operation_pipeline
    return Simulation(_graph("vgg-19"), policy, config=config, steps=STEPS)


def _faulted():
    config, policy = build_configuration("hetero-pim")
    return Simulation(
        _graph("alexnet"), policy, config=config, steps=STEPS,
        faults=_fault_spec(),
    )


def _timeline_validated():
    config, policy = build_configuration("hetero-pim")
    return Simulation(
        _graph("resnet-50"), policy, config=config, steps=STEPS,
        record_timeline=True, validate=True,
    )


def _corun():
    policy = MixedWorkloadPolicy(frozenset({"lstm"}))
    return Simulation(_corun_graph(), policy, config=default_config(), steps=STEPS)


CASES = {
    "hetero-pim": _hetero_clean,
    "fixed-pim-token": _fixed_no_pipeline,
    "faulted": _faulted,
    "timeline-validate": _timeline_validated,
    "corun": _corun,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_leaves_no_cyclic_garbage(case):
    build = CASES[case]
    # warm up first: lazy imports, cost tables and memo entries are
    # long-lived, not garbage of the measured run
    warm = build().run()
    if case == "faulted":
        counts = warm.faults["counts"]
        assert counts["retries"] and counts["degradations"]
        assert counts["reselections"]
    del warm
    gc.collect()
    gc.disable()
    try:
        sim = build()
        sim.run()
        del sim
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_graph_leaves_no_cyclic_garbage():
    """What a run memoizes on its graph (order, profile, selection,
    template, cost table, signature) forms no cycle back to the graph:
    dropping the graph frees it all by reference counting."""

    def simulate_and_fingerprint():
        graph = build_model("alexnet")
        config, policy = build_configuration("hetero-pim")
        Simulation(graph, policy, config=config, steps=STEPS).run()
        run_fingerprint(graph, policy, config)
        return graph

    simulate_and_fingerprint()  # warm up lazy imports and process memos
    gc.collect()
    gc.disable()
    try:
        graph = simulate_and_fingerprint()
        assert graph.memo
        ref = weakref.ref(graph)
        del graph
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()
