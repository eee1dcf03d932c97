"""Experiment E-F10 — paper Figure 10: comparison with Neurocube.

Normalized execution time and energy of Neurocube relative to Hetero PIM
for the five CNN models.  Paper band: Hetero PIM achieves at least 3x
higher performance and energy efficiency, with the gap widening for
compute-intensive models (VGG-19, Inception-v3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable


@dataclass(frozen=True)
class Fig10Row:
    model: str
    hetero_step_s: float
    neurocube_step_s: float
    hetero_energy_j: float
    neurocube_energy_j: float

    @property
    def time_ratio(self) -> float:
        """Neurocube time / Hetero time (paper plots this normalization)."""
        return self.neurocube_step_s / self.hetero_step_s

    @property
    def energy_ratio(self) -> float:
        return self.neurocube_energy_j / self.hetero_energy_j


def run(models: Tuple[str, ...] = EVAL_MODELS) -> Dict[str, Fig10Row]:
    runs = run_points(
        {
            (m, c): model_job(m, c)
            for m in models
            for c in ("hetero-pim", "neurocube")
        }
    )
    out: Dict[str, Fig10Row] = {}
    for model in models:
        hetero = runs[model, "hetero-pim"]
        neurocube = runs[model, "neurocube"]
        out[model] = Fig10Row(
            model=model,
            hetero_step_s=hetero.step_time_s,
            neurocube_step_s=neurocube.step_time_s,
            hetero_energy_j=hetero.step_dynamic_energy_j,
            neurocube_energy_j=neurocube.step_dynamic_energy_j,
        )
    return out


def format_result(result: Dict[str, Fig10Row]) -> str:
    table = TextTable(
        ["Model", "Neurocube/Hetero time", "Neurocube/Hetero energy"]
    )
    for model, row in result.items():
        table.add_row(model, f"{row.time_ratio:.2f}x", f"{row.energy_ratio:.2f}x")
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
