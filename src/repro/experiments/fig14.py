"""Experiment E-F14 — paper Figure 14: energy with/without RC & OP.

Dynamic energy of the Hetero-PIM RC/OP variants normalized to the full
runtime (RC+OP), with the hardware baselines for reference.  Paper
findings: Hetero hardware alone saves up to 2.7x over Progr/Fixed PIM;
RC + OP reduce Hetero PIM energy by up to 3.9x more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .ablation import VARIANTS, run_all_variants
from .common import EVAL_MODELS, model_job, run_points
from .report import TextTable


@dataclass(frozen=True)
class Fig14Model:
    model: str
    #: Dynamic energy per step per variant/baseline label.
    energies_j: Dict[str, float]

    @property
    def rc_op_energy_gain(self) -> float:
        return self.energies_j["no RC/OP"] / self.energies_j["RC+OP"]

    @property
    def hetero_hw_vs_fixed(self) -> float:
        return self.energies_j["Fixed PIM"] / self.energies_j["no RC/OP"]

    def normalized(self, label: str) -> float:
        """Energy normalized to the full runtime (the paper's baseline)."""
        return self.energies_j[label] / self.energies_j["RC+OP"]


def run(models: Tuple[str, ...] = EVAL_MODELS) -> Dict[str, Fig14Model]:
    baselines = run_points(
        {
            (m, c): model_job(m, c)
            for m in models
            for c in ("fixed-pim", "prog-pim")
        }
    )
    variants = run_all_variants(models)
    out: Dict[str, Fig14Model] = {}
    for model in models:
        energies = {
            label: variants[model][label].step_dynamic_energy_j
            for label, _rc, _op in VARIANTS
        }
        energies["Fixed PIM"] = baselines[model, "fixed-pim"].step_dynamic_energy_j
        energies["Progr PIM"] = baselines[model, "prog-pim"].step_dynamic_energy_j
        out[model] = Fig14Model(model=model, energies_j=energies)
    return out


def format_result(result: Dict[str, Fig14Model]) -> str:
    order = ["Progr PIM", "Fixed PIM"] + [label for label, _r, _o in VARIANTS]
    table = TextTable(["Model"] + [f"{k} (norm)" for k in order] + ["RC+OP gain"])
    for model, data in result.items():
        table.add_row(
            model,
            *[f"{data.normalized(k):.2f}x" for k in order],
            f"{data.rc_op_energy_gain:.2f}x",
        )
    return table.render()


def main() -> str:
    text = format_result(run())
    print(text)
    return text


if __name__ == "__main__":
    main()
