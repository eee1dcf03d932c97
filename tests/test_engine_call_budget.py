"""Calls per simulated event: a cost gate in host-independent units.

Wall-clock time depends on the host; the number of function calls the
event loop makes per processed event does not.  Each case runs one
``Simulation.run()`` under :func:`sys.setprofile`, counts ``call`` events
(Python frames entered) and ``c_call`` events (C functions and builtins
called from Python) and divides each by ``engine.events_processed``.
Each budget is the count measured when it was recorded plus 10%.  The
counts are the same for every hash seed; Python 3.12 and later inline
comprehensions, which only lowers them.

Clean runs gate Python calls.  Fault-injected runs, under the engine
corpus's seeded specs, gate both: their admission check against the
idle/busy registers is where builtin calls would pile up.
"""

import sys

import pytest

from repro.baselines import build_configuration
from repro.faults import FaultSpec
from repro.hardware.hmc import StackGeometry
from repro.nn.models import build_model
from repro.sim.simulation import Simulation

STEPS = 2

#: (model, configuration) -> budget in Python calls per processed event:
#: the count measured on Python 3.11 (8.24, 7.24 and 6.70; the engine
#: before the flat phase recipes made 14.33, 12.60 and 14.16) plus 10%.
BUDGET = {
    ("resnet-50", "hetero-pim"): 9.07,
    ("resnet-50", "fixed-pim"): 7.97,
    ("lstm", "cpu"): 7.38,
}


#: (model, configuration, fault seed) -> budgets in (Python calls, C
#: calls) per processed event, for the engine corpus's fault spec of that
#: seed: the counts measured on Python 3.11 (8.99, 6.98 and 14.35, 10.34;
#: rebuilding the register file per admission check made 9.90, 16.43 and
#: 20.07, 63.70) plus 10%.
FAULT_BUDGET = {
    ("resnet-50", "hetero-pim", 2): (9.90, 7.69),
    ("lstm", "hetero-pim", 5): (15.79, 11.38),
}
FAULT_EVENTS = 4


def _fault_spec(graph, config, policy, seed):
    """The engine corpus's seeded spec, sized to the clean makespan."""
    clean = Simulation(graph, policy, config=config, steps=STEPS).run()
    return FaultSpec.generate(
        seed=seed,
        horizon_s=clean.makespan_s,
        n_events=FAULT_EVENTS,
        banks=len(StackGeometry(config.stack).banks),
        pool_units=config.fixed_pim.n_units,
        prog_pims=config.prog_pim.n_pims,
    )


def calls_per_event(model: str, config: str, seed=None):
    """(Python calls, C calls) per processed event of one
    ``Simulation.run()``, under the corpus fault spec ``seed`` if given."""
    graph = build_model(model)
    spec = None
    if seed is not None:
        system, policy = build_configuration(config)
        spec = _fault_spec(graph, system, policy, seed)
    system, policy = build_configuration(config)
    sim = Simulation(graph, policy, config=system, steps=STEPS, faults=spec)
    calls = c_calls = 0

    def count(frame, event, arg):
        nonlocal calls, c_calls
        if event == "call":
            calls += 1
        elif event == "c_call":
            c_calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    events = sim.engine.events_processed
    return calls / events, c_calls / events


@pytest.mark.parametrize(
    "model, config", list(BUDGET), ids=[f"{m}-{c}" for m, c in BUDGET]
)
def test_calls_per_event_within_budget(model, config):
    measured, _ = calls_per_event(model, config)
    budget = BUDGET[model, config]
    assert measured <= budget, (
        f"{model} on {config}: {measured:.3f} Python calls per event, "
        f"budget {budget}"
    )


@pytest.mark.parametrize(
    "model, config, seed",
    list(FAULT_BUDGET),
    ids=[f"{m}-{c}-fault-seed-{s}" for m, c, s in FAULT_BUDGET],
)
def test_faulted_calls_per_event_within_budget(model, config, seed):
    measured = calls_per_event(model, config, seed)
    budget = FAULT_BUDGET[model, config, seed]
    for kind, value, limit in zip(("Python", "C"), measured, budget):
        assert value <= limit, (
            f"{model} on {config}, fault seed {seed}: {value:.3f} {kind} "
            f"calls per event, budget {limit}"
        )


if __name__ == "__main__":
    # print the current counts (to record new budgets: value x 1.1)
    for model, config in BUDGET:
        py, c = calls_per_event(model, config)
        print(f"{model} {config} {py:.4f} {c:.4f}")
    for model, config, seed in FAULT_BUDGET:
        py, c = calls_per_event(model, config, seed)
        print(f"{model} {config} fault-seed-{seed} {py:.4f} {c:.4f}")
