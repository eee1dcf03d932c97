"""Python calls per simulated event: a cost gate in host-independent units.

Wall-clock time depends on the host; the number of Python function calls
the event loop makes per processed event does not.  Each case runs one
``Simulation.run()`` under :func:`sys.setprofile`, counts ``call`` events
(Python frames entered; C functions raise ``c_call`` and are not counted)
and divides by ``engine.events_processed``.  Each budget is the count
measured when it was recorded plus 10%.  The count is the same for every
hash seed; Python 3.12 and later inline comprehensions, which only lowers
it.
"""

import sys

import pytest

from repro.baselines import build_configuration
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


def calls_per_event(model: str, config: str) -> float:
    """Python calls per processed event of one ``Simulation.run()``."""
    system, policy = build_configuration(config)
    sim = Simulation(build_model(model), policy, config=system, steps=STEPS)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.run()
    finally:
        sys.setprofile(previous)
    return calls / sim.engine.events_processed


@pytest.mark.parametrize(
    "model, config", list(BUDGET), ids=[f"{m}-{c}" for m, c in BUDGET]
)
def test_calls_per_event_within_budget(model, config):
    measured = calls_per_event(model, config)
    budget = BUDGET[model, config]
    assert measured <= budget, (
        f"{model} on {config}: {measured:.3f} Python calls per event, "
        f"budget {budget}"
    )


if __name__ == "__main__":
    # print the current counts (to record new budgets: value x 1.1)
    for model, config in BUDGET:
        print(f"{model} {config} {calls_per_event(model, config):.4f}")
