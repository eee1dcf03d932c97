"""Experiment E-F12 — paper Figure 12: programmable-PIM scaling.

Hetero PIM with 1 / 4 / 16 programmable PIMs at constant logic-die area
(each extra ARM PIM displaces fixed-function units).  Paper finding: the
configurations differ by only 12-14% — one programmable PIM suffices, and
more of them cost fixed-function throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import PROG_PIM_COUNTS, default_config
from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable, format_seconds


@dataclass(frozen=True)
class Fig12Cell:
    n_prog_pims: int
    n_fixed_units: int
    step_time_s: float
    relative_to_1p: float


def run(
    models: Tuple[str, ...] = EVAL_MODELS,
    counts: Tuple[int, ...] = PROG_PIM_COUNTS,
) -> Dict[str, Dict[int, Fig12Cell]]:
    bases = {n: default_config().with_prog_pims(n) for n in counts}
    runs = run_points(
        {
            (m, n): model_job(m, "hetero-pim", bases[n])
            for m in models
            for n in counts
        }
    )
    out: Dict[str, Dict[int, Fig12Cell]] = {}
    for model in models:
        times = {n: runs[model, n].step_time_s for n in counts}
        ref = times[counts[0]]
        out[model] = {
            n: Fig12Cell(
                n_prog_pims=n,
                n_fixed_units=bases[n].fixed_pim.n_units,
                step_time_s=times[n],
                relative_to_1p=times[n] / ref,
            )
            for n in counts
        }
    return out


def max_spread(result: Dict[str, Dict[int, Fig12Cell]]) -> float:
    """Largest relative difference across the design points (paper: 12-14%)."""
    spread = 0.0
    for row in result.values():
        times = [cell.step_time_s for cell in row.values()]
        spread = max(spread, max(times) / min(times) - 1.0)
    return spread


def format_result(result: Dict[str, Dict[int, Fig12Cell]]) -> str:
    table = TextTable(
        ["Model", "Progr PIMs", "Fixed units", "Step time", "vs 1P"]
    )
    for model, row in result.items():
        for n, cell in row.items():
            table.add_row(
                model,
                f"{n}P",
                cell.n_fixed_units,
                format_seconds(cell.step_time_s),
                f"{(cell.relative_to_1p - 1) * 100:+.1f}%",
            )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
