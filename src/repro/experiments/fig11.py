"""Experiment E-F11 — paper Figure 11: 3D-memory frequency scaling.

Hetero PIM execution-time breakdown at 1x / 2x / 4x PIM frequency (PLL
scaled, section VI-D), with the GPU as the reference line.  Paper claims:
at 2x, Hetero beats the GPU by ~36% (VGG-19) and ~17% (AlexNet); at 4x, by
~37% and ~60%; synchronization and data-movement overheads shrink with
frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import FREQUENCY_SCALES, default_config
from ..sim.activity import TimeBreakdown
from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable, format_seconds


@dataclass(frozen=True)
class Fig11Cell:
    scale: float
    step_time_s: float
    breakdown: TimeBreakdown
    speedup_vs_gpu: float


def run(
    models: Tuple[str, ...] = EVAL_MODELS,
    scales: Tuple[float, ...] = FREQUENCY_SCALES,
) -> Dict[str, Dict[float, Fig11Cell]]:
    bases = {s: default_config().with_frequency_scale(s) for s in scales}
    points = {(m, "gpu"): model_job(m, "gpu") for m in models}
    points.update(
        ((m, s), model_job(m, "hetero-pim", bases[s]))
        for m in models
        for s in scales
    )
    runs = run_points(points)
    out: Dict[str, Dict[float, Fig11Cell]] = {}
    for model in models:
        gpu = runs[model, "gpu"]
        row: Dict[float, Fig11Cell] = {}
        for scale in scales:
            result = runs[model, scale]
            row[scale] = Fig11Cell(
                scale=scale,
                step_time_s=result.step_time_s,
                breakdown=result.step_breakdown,
                speedup_vs_gpu=gpu.step_time_s / result.step_time_s,
            )
        out[model] = row
    return out


def format_result(result: Dict[str, Dict[float, Fig11Cell]]) -> str:
    table = TextTable(
        ["Model", "Freq", "Step time", "Operation", "Data mvmt", "Sync",
         "vs GPU"]
    )
    for model, row in result.items():
        for scale, cell in row.items():
            b = cell.breakdown
            table.add_row(
                model,
                f"{scale:.0f}x",
                format_seconds(cell.step_time_s),
                format_seconds(b.operation_s),
                format_seconds(b.data_movement_s),
                format_seconds(b.sync_s),
                f"{cell.speedup_vs_gpu:.2f}x",
            )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
