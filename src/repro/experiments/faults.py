"""Experiment E-FAULTS — resilience overhead under injected faults.

Sweeps generated fault specs of increasing event count against the
Hetero-PIM system and reports the time/energy overhead of completing
every training step anyway (retries, offload re-selection, graceful
degradation), relative to the fault-free run.  All specs for one sweep
derive from one seed: ``FaultSpec.generate`` draws events in a fixed
order, so the ``n``-event spec is a prefix-extension of the ``n-1``-event
one — overheads are attributable to the added fault, not to reshuffled
randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..faults import FaultSpec
from ..hardware.hmc import StackGeometry
from .common import model_job, run_points
from .report import TextTable

#: Fault-event counts of the sweep (0 = the fault-free baseline row).
DEFAULT_EVENT_COUNTS = (0, 1, 2, 4, 8)

#: Seed all sweep specs derive from.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class FaultCell:
    """One sweep row: resilience outcome under ``n_events`` faults."""

    n_events: int
    step_time_s: float
    time_overhead: float  # vs fault-free (0.0 for the baseline row)
    dynamic_energy_j: float
    energy_overhead: float
    retries: int
    degradations: int
    reselections: int


def _spec_for(
    n_events: int, seed: int, horizon_s: float, system
) -> FaultSpec:
    return FaultSpec.generate(
        seed=seed,
        horizon_s=horizon_s,
        n_events=n_events,
        banks=len(StackGeometry(system.stack).banks),
        pool_units=system.fixed_pim.n_units,
        prog_pims=system.prog_pim.n_pims,
    )


def run(
    model: str = "alexnet",
    config: str = "hetero-pim",
    event_counts: Tuple[int, ...] = DEFAULT_EVENT_COUNTS,
    seed: int = DEFAULT_SEED,
    steps: int = 2,
) -> Dict[int, FaultCell]:
    # two stages: the fault specs are drawn over the clean run's makespan.
    # Both are exact, also under the surrogate: the overheads compare
    # simulated faulted runs with a simulated baseline.
    job = model_job(model, config, steps=steps)
    graph, policy, system, _ = job
    baseline = run_points({0: job}, exact=True)[0]
    results = run_points(
        {
            n: (
                graph,
                policy,
                system,
                steps,
                _spec_for(n, seed, baseline.makespan_s, system),
            )
            for n in sorted(event_counts)
            if n > 0
        },
        exact=True,
    )
    out: Dict[int, FaultCell] = {}
    for n in event_counts:
        result = baseline if n == 0 else results[n]
        counts = (
            result.faults["counts"]
            if result.faults is not None
            else {"retries": 0, "degradations": 0, "reselections": 0}
        )
        out[n] = FaultCell(
            n_events=n,
            step_time_s=result.step_time_s,
            time_overhead=result.step_time_s / baseline.step_time_s - 1.0,
            dynamic_energy_j=result.step_dynamic_energy_j,
            energy_overhead=(
                result.step_dynamic_energy_j / baseline.step_dynamic_energy_j
                - 1.0
            ),
            retries=counts["retries"],
            degradations=counts["degradations"],
            reselections=counts["reselections"],
        )
    return out


def format_result(result: Dict[int, FaultCell]) -> str:
    table = TextTable(
        [
            "Faults",
            "Step time (ms)",
            "Overhead",
            "Energy (J/step)",
            "Overhead",
            "Retries",
            "Degradations",
            "Re-selections",
        ]
    )
    for n in sorted(result):
        cell = result[n]
        table.add_row(
            n,
            cell.step_time_s * 1e3,
            f"{cell.time_overhead:+.1%}",
            cell.dynamic_energy_j,
            f"{cell.energy_overhead:+.1%}",
            cell.retries,
            cell.degradations,
            cell.reselections,
        )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
