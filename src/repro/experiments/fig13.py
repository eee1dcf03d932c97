"""Experiment E-F13 — paper Figure 13: execution time with/without RC & OP.

Hetero PIM hardware with the runtime techniques toggled, against the
Fixed-PIM and Progr-PIM baselines.  Paper findings: Hetero hardware alone
(no RC/OP) beats Progr/Fixed PIM by up to 8.5x but Fixed PIM by only
7-30%; adding RC + OP improves Hetero PIM by up to 3.8x.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .ablation import VARIANTS, run_all_variants
from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable, format_seconds


@dataclass(frozen=True)
class Fig13Model:
    model: str
    #: Step time per variant label (plus the two hardware baselines).
    step_times: Dict[str, float]

    @property
    def rc_op_speedup(self) -> float:
        """Gain of the full runtime over bare Hetero hardware."""
        return self.step_times["no RC/OP"] / self.step_times["RC+OP"]

    @property
    def hetero_hw_vs_fixed(self) -> float:
        """Bare Hetero hardware vs the Fixed-PIM baseline (paper: 7-30%)."""
        return self.step_times["Fixed PIM"] / self.step_times["no RC/OP"]

    @property
    def hetero_hw_vs_prog(self) -> float:
        return self.step_times["Progr PIM"] / self.step_times["no RC/OP"]


def run(models: Tuple[str, ...] = EVAL_MODELS) -> Dict[str, Fig13Model]:
    baselines = run_points(
        {
            (m, c): model_job(m, c)
            for m in models
            for c in ("fixed-pim", "prog-pim")
        }
    )
    variants = run_all_variants(models)
    out: Dict[str, Fig13Model] = {}
    for model in models:
        times = {
            label: variants[model][label].step_time_s
            for label, _rc, _op in VARIANTS
        }
        times["Fixed PIM"] = baselines[model, "fixed-pim"].step_time_s
        times["Progr PIM"] = baselines[model, "prog-pim"].step_time_s
        out[model] = Fig13Model(model=model, step_times=times)
    return out


def format_result(result: Dict[str, Fig13Model]) -> str:
    order = ["Progr PIM", "Fixed PIM"] + [label for label, _r, _o in VARIANTS]
    table = TextTable(["Model"] + order + ["RC+OP gain", "HW vs Fixed"])
    for model, data in result.items():
        table.add_row(
            model,
            *[format_seconds(data.step_times[k]) for k in order],
            f"{data.rc_op_speedup:.2f}x",
            f"{(data.hetero_hw_vs_fixed - 1) * 100:+.0f}%",
        )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
