"""One-shot evaluation runner: every table and figure in sequence.

``python -m repro experiment all`` (or ``python -m repro.experiments.summary``)
regenerates the complete evaluation — Table I, Figure 2 and Figures 8-17 —
and prints them in paper order.  Useful for producing the full
EXPERIMENTS.md evidence in one run; individual modules are faster when only
one artifact is needed.
"""

from __future__ import annotations

from typing import List, Tuple

from . import (
    families,
    fig2,
    fig8,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    table1,
)

#: (heading, module) in paper presentation order.
ARTIFACTS: Tuple[Tuple[str, object], ...] = (
    ("Table I — operation profiling", table1),
    ("Figure 2 — operation categories", fig2),
    ("Figure 8 — execution-time breakdown", fig8),
    ("Figure 9 — normalized dynamic energy", fig9),
    ("Figure 10 — comparison with Neurocube", fig10),
    ("Figure 11 — frequency scaling", fig11),
    ("Figure 12 — programmable-PIM scaling", fig12),
    ("Figure 13 — time with/without RC & OP", fig13),
    ("Figure 14 — energy with/without RC & OP", fig14),
    ("Figure 15 — fixed-PIM utilization", fig15),
    ("Figure 16 — mixed workloads", fig16),
    ("Figure 17 — EDP & power vs frequency", fig17),
    ("Families — modern workload characterization", families),
)


def run_all(skip: Tuple[str, ...] = ()) -> str:
    """Run every artifact (optionally skipping slow ones by heading
    substring) and return the combined report."""
    blocks: List[str] = []
    for heading, module in ARTIFACTS:
        if any(token in heading for token in skip):
            blocks.append(f"==== {heading} ==== (skipped)")
            continue
        rendered = module.format_result(module.run())
        blocks.append(f"==== {heading} ====\n{rendered}")
    return "\n\n".join(blocks)


def main() -> str:
    text = run_all()
    print(text)
    return text


if __name__ == "__main__":
    main()
