"""Calls per op to set up a cold simulation: a cost gate in host-independent
units.

The set-up of a run — profiling, offload selection, the cost table, the
trace template and the task build — should scale with the number of
distinct ops, plus one write per op and one object per task.  Each case
builds a fresh graph in a fresh interpreter, so every process-wide memo
(compiled binaries, profiles, tables, templates) is cold, and counts the
Python frames entered (``call`` events under :func:`sys.setprofile`) by
one ``Simulation(graph, policy, config=..., steps=2)``, divided by the
graph's op count.  Each budget is the count measured when it was recorded
plus 10%.  The counts are the same for every hash seed; Python 3.12 and
later inline comprehensions, which only lowers them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

STEPS = 2

#: (model, configuration) -> budget in Python calls per op: the count
#: measured on Python 3.11 (33.94, 11.15 and 30.50; before derived state
#: moved onto the graph's memo, 33.95, 11.15 and 30.50; before a graph
#: derived its predecessor sets and topological order once, 39.96, 15.16
#: and 34.51; before distinct ops were evaluated once and tasks built from
#: a trace template, 98.18, 64.90 and 80.32) plus 10%.
BUDGET = {
    ("resnet-50", "hetero-pim"): 37.33,
    ("lstm", "cpu"): 12.27,
    ("inception-v3", "fixed-pim"): 33.55,
}

SCRIPT = """
import sys
from repro.baselines import build_configuration
from repro.nn.models import build_model
from repro.sim.simulation import Simulation

graph = build_model(sys.argv[1])
system, policy = build_configuration(sys.argv[2])
calls = 0


def count(frame, event, arg):
    global calls
    if event == "call":
        calls += 1


sys.setprofile(count)
try:
    Simulation(graph, policy, config=system, steps=int(sys.argv[3]))
finally:
    sys.setprofile(None)
print(calls / graph.num_ops)
"""


def calls_per_op(model: str, config: str) -> float:
    """Python calls per op of one cold ``Simulation(...)`` set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, model, config, str(STEPS)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


@pytest.mark.parametrize(
    "model, config", list(BUDGET), ids=[f"{m}-{c}" for m, c in BUDGET]
)
def test_setup_calls_per_op_within_budget(model, config):
    measured = calls_per_op(model, config)
    budget = BUDGET[model, config]
    assert measured <= budget, (
        f"{model} on {config}: {measured:.3f} Python calls per op to set "
        f"up a cold run, budget {budget}"
    )


if __name__ == "__main__":
    # print the current counts (to record new budgets: value x 1.1)
    for model, config in BUDGET:
        print(f"{model} {config} {calls_per_op(model, config):.4f}")
