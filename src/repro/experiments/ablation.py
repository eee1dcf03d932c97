"""Shared RC/OP ablation runs for Figures 13, 14 and 15 (section VI-E).

The paper isolates the software impact by toggling the two runtime
techniques: recursive PIM kernel calls (RC) and the operation pipeline
(OP).  The same four Hetero-PIM variants feed the execution-time (Fig 13),
energy (Fig 14) and utilization (Fig 15) views; Figures 13/14 additionally
reference the Fixed-PIM and Progr-PIM hardware baselines.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..baselines import make_hetero_pim
from ..config import default_config
from ..sim.results import RunResult
from . import runner
from .common import cached_graph, run_points

#: (label, recursive_kernels, operation_pipeline), presentation order.
VARIANTS: Tuple[Tuple[str, bool, bool], ...] = (
    ("no RC/OP", False, False),
    ("RC", True, False),
    ("OP", False, True),
    ("RC+OP", True, True),
)

_SETTINGS = {label: (rc, op) for label, rc, op in VARIANTS}


def _variant_job(model: str, label: str) -> runner.Job:
    try:
        rc, op = _SETTINGS[label]
    except KeyError:
        raise ValueError(
            f"unknown variant {label!r}; options: {sorted(_SETTINGS)}"
        ) from None
    config, policy = make_hetero_pim(
        default_config(), recursive_kernels=rc, operation_pipeline=op
    )
    return (cached_graph(model), policy, config, None)


def run_all_variants(
    models: Tuple[str, ...], exact: bool = False
) -> Dict[str, Dict[str, RunResult]]:
    """Every (model, RC/OP variant) run of Hetero PIM.

    In surrogate mode (:func:`repro.experiments.common.set_surrogate`)
    the aggregate step-time/energy targets come from the cost surrogate —
    the variant grid is part of its training set.  Pass ``exact=True``
    when the caller needs event-level fields estimates cannot carry
    (Figure 15 reads pool utilization).
    """
    runs = run_points(
        {
            (m, label): _variant_job(m, label)
            for m in models
            for label, _rc, _op in VARIANTS
        },
        exact=exact,
    )
    return {
        model: {label: runs[model, label] for label, _rc, _op in VARIANTS}
        for model in models
    }
