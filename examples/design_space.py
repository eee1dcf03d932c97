#!/usr/bin/env python
"""Logic-die design-space exploration (paper section IV-D).

Derives the fixed-function PIM budget from the area/power envelope (the
paper's 444 units), sweeps the programmable/fixed trade-off and the pool
size, and shows the thermal-aware bank placement.

Usage::

    python examples/design_space.py [model]
"""

import sys

from repro.config import default_config
from repro.experiments.ablations import sweep_fixed_units
from repro.hardware.area import LogicDieBudget, explore_prog_pim_tradeoff
from repro.hardware.hmc import StackGeometry
from repro.hardware.placement import place_fixed_pims
from repro.nn.models import available_models


def main() -> None:
    model = sys.argv[1] if len(sys.argv) > 1 else "alexnet"
    if model not in available_models():
        raise SystemExit(f"unknown model {model!r}")
    cfg = default_config()
    budget = LogicDieBudget()

    print("== logic-die budget ==")
    print(f"  die area {budget.die_area_mm2:.0f} mm^2, "
          f"{budget.compute_area_fraction:.0%} available for PIM logic "
          f"({budget.compute_area_mm2:.1f} mm^2), "
          f"power envelope {budget.power_budget_w:.0f} W")

    print("\n== programmable/fixed trade-off (constant area) ==")
    print(f"  {'ARM PIMs':>8s} {'fixed units':>12s} {'area mm^2':>10s} "
          f"{'power W':>8s}")
    for point in explore_prog_pim_tradeoff(
        budget, cfg.fixed_pim, cfg.prog_pim, max_prog_pims=16
    ):
        if point.n_prog_pims in (1, 2, 4, 8, 16):
            print(f"  {point.n_prog_pims:8d} {point.n_fixed_units:12d} "
                  f"{point.area_used_mm2:10.1f} {point.power_used_w:8.1f}")

    print("\n== thermal-aware placement of the 444 units over 32 banks ==")
    geometry = StackGeometry(cfg.stack)
    placement = place_fixed_pims(geometry, cfg.fixed_pim.n_units)
    for row in range(geometry.rows):
        cells = []
        for col in range(geometry.cols):
            bank = geometry.bank(row * geometry.cols + col)
            cells.append(
                f"{placement.units_in(bank.index):3d}{bank.zone.value[0]}"
            )
        print("  " + " ".join(cells))
    print("  (c=corner, e=edge, c/e banks carry more units than center)")

    print(f"\n== pool-size sweep on {model} (Hetero PIM) ==")
    sweep = sweep_fixed_units(model, unit_counts=(111, 222, 444, 888))
    print(f"  {'units':>6s} {'step time':>12s} {'E_dyn (J)':>10s} {'util':>6s}")
    for units, r in sweep.items():
        print(f"  {units:6d} {r.step_time_s * 1e3:10.2f} ms "
              f"{r.step_dynamic_energy_j:10.3f} "
              f"{r.fixed_pim_utilization:6.0%}")
    print("\nthe area-derived 444-unit point sits at the knee: fewer units "
          "saturate,\nmore units go idle (diminishing returns).")


if __name__ == "__main__":
    main()
