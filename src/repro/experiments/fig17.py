"""Experiment E-F17 — paper Figure 17: energy efficiency & power vs frequency.

(a) Energy-delay product of Hetero PIM at 1x / 2x / 4x PIM frequency — the
paper finds 4x the most energy-efficient point for all five models.
(b) Average power of the GPU vs Hetero PIM at each frequency — the GPU
draws 1.5-2.6x more power than Hetero PIM even at 4x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import FREQUENCY_SCALES, default_config
from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable


@dataclass(frozen=True)
class Fig17Cell:
    scale: float
    edp: float
    average_power_w: float


@dataclass(frozen=True)
class Fig17Model:
    model: str
    cells: Dict[float, Fig17Cell]
    gpu_power_w: float

    @property
    def best_scale(self) -> float:
        """Frequency with the lowest EDP (paper: 4x)."""
        return min(self.cells, key=lambda s: self.cells[s].edp)

    def gpu_power_ratio(self, scale: float) -> float:
        """GPU power / Hetero power at ``scale`` (paper: 1.5-2.6x at 4x)."""
        return self.gpu_power_w / self.cells[scale].average_power_w


def run(
    models: Tuple[str, ...] = EVAL_MODELS,
    scales: Tuple[float, ...] = FREQUENCY_SCALES,
) -> Dict[str, Fig17Model]:
    bases = {s: default_config().with_frequency_scale(s) for s in scales}
    points = {(m, "gpu"): model_job(m, "gpu") for m in models}
    points.update(
        ((m, s), model_job(m, "hetero-pim", bases[s]))
        for m in models
        for s in scales
    )
    runs = run_points(points)
    out: Dict[str, Fig17Model] = {}
    for model in models:
        gpu = runs[model, "gpu"]
        cells: Dict[float, Fig17Cell] = {}
        for scale in scales:
            result = runs[model, scale]
            cells[scale] = Fig17Cell(
                scale=scale,
                edp=result.edp(),
                average_power_w=result.average_power_w,
            )
        out[model] = Fig17Model(
            model=model, cells=cells, gpu_power_w=gpu.average_power_w
        )
    return out


def format_result(result: Dict[str, Fig17Model]) -> str:
    table = TextTable(
        ["Model", "Freq", "EDP (J*s)", "Hetero power (W)", "GPU power (W)",
         "GPU/Hetero power"]
    )
    for model, data in result.items():
        for scale, cell in data.cells.items():
            table.add_row(
                model,
                f"{scale:.0f}x",
                cell.edp,
                cell.average_power_w,
                data.gpu_power_w,
                f"{data.gpu_power_ratio(scale):.2f}x",
            )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
