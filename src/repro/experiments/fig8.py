"""Experiment E-F8 — paper Figure 8: execution-time breakdown.

Per-training-step time of the five NN models on the five configurations,
broken into synchronization, data-movement and operation time.  The paper's
headline relative results (checked in EXPERIMENTS.md):

* PIM-based designs beat the CPU by 19% to ~28x;
* Hetero PIM beats Progr PIM by 2.5-23x and Fixed PIM by 1.4-5.7x;
* Hetero PIM is close to the GPU, faster on ResNet-50, slower on DCGAN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim.activity import TimeBreakdown
from ..sim.results import RunResult
from .common import EVAL_CONFIGS, EVAL_MODELS, model_job, run_points
from .report import TextTable, format_seconds, stacked_bar


@dataclass(frozen=True)
class Fig8Cell:
    config: str
    step_time_s: float
    breakdown: TimeBreakdown
    result: RunResult


def run(
    models: Tuple[str, ...] = EVAL_MODELS,
    configs: Tuple[str, ...] = EVAL_CONFIGS,
) -> Dict[str, Dict[str, Fig8Cell]]:
    runs = run_points(
        {(m, c): model_job(m, c) for m in models for c in configs}
    )
    return {
        model: {
            config: Fig8Cell(
                config=config,
                step_time_s=runs[model, config].step_time_s,
                breakdown=runs[model, config].step_breakdown,
                result=runs[model, config],
            )
            for config in configs
        }
        for model in models
    }


def speedups(result: Dict[str, Dict[str, Fig8Cell]]) -> Dict[str, Dict[str, float]]:
    """Per-model speedups of Hetero PIM over every other configuration."""
    out: Dict[str, Dict[str, float]] = {}
    for model, row in result.items():
        hetero = row["hetero-pim"].step_time_s
        out[model] = {
            config: cell.step_time_s / hetero
            for config, cell in row.items()
            if config != "hetero-pim"
        }
    return out


def format_result(result: Dict[str, Dict[str, Fig8Cell]]) -> str:
    table = TextTable(
        ["Model", "Config", "Step time", "Operation", "Data mvmt", "Sync", "Bar"]
    )
    for model, row in result.items():
        for config, cell in row.items():
            b = cell.breakdown
            table.add_row(
                model,
                config,
                format_seconds(cell.step_time_s),
                format_seconds(b.operation_s),
                format_seconds(b.data_movement_s),
                format_seconds(b.sync_s),
                stacked_bar(
                    [b.operation_s, b.data_movement_s, b.sync_s],
                    ["op", "dm", "sync"],
                    width=24,
                ),
            )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
