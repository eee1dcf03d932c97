"""Experiment E-F9 — paper Figure 9: normalized dynamic energy.

Per-step dynamic energy of the five models on the five configurations,
normalized to Hetero PIM.  Paper bands: Hetero PIM uses 3-24x less dynamic
energy than the CPU and 1.3-5x less than the GPU; Progr PIM draws the most
dynamic energy of all configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .common import EVAL_CONFIGS, EVAL_MODELS, model_job, run_points
from .report import TextTable


@dataclass(frozen=True)
class Fig9Cell:
    config: str
    dynamic_energy_j: float
    normalized: float  # relative to Hetero PIM (paper's normalization)


def run(
    models: Tuple[str, ...] = EVAL_MODELS,
    configs: Tuple[str, ...] = EVAL_CONFIGS,
) -> Dict[str, Dict[str, Fig9Cell]]:
    runs = run_points(
        {(m, c): model_job(m, c) for m in models for c in configs}
    )
    out: Dict[str, Dict[str, Fig9Cell]] = {}
    for model in models:
        energies = {
            config: runs[model, config].step_dynamic_energy_j
            for config in configs
        }
        hetero = energies["hetero-pim"]
        out[model] = {
            config: Fig9Cell(
                config=config,
                dynamic_energy_j=e,
                normalized=e / hetero,
            )
            for config, e in energies.items()
        }
    return out


def format_result(result: Dict[str, Dict[str, Fig9Cell]]) -> str:
    table = TextTable(["Model", "Config", "Dynamic energy (J/step)", "Normalized"])
    for model, row in result.items():
        for config, cell in row.items():
            table.add_row(
                model, config, cell.dynamic_energy_j, f"{cell.normalized:.2f}x"
            )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
