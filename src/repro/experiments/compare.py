"""Experiment E-CMP — cross-architecture backend comparison.

Runs every evaluated model on each registered rival hardware backend
(:mod:`repro.hardware.backends`) and reports per-model step time and
dynamic energy normalized to the paper's ``hmc-hetero`` design — a
Fig 8/Fig 9-style table across *architectures* instead of across the one
architecture's configurations:

* speedup = rival step time / hmc-hetero step time (>1 means the paper's
  design is faster);
* energy ratio = rival dynamic energy / hmc-hetero dynamic energy (>1
  means the paper's design is more efficient).

Besides printing the table, ``main()`` writes the comparison as a JSON
artifact (``compare_backends.json``, or the path in
``$REPRO_COMPARE_OUT``); :func:`validate_payload` checks its shape — the
CI smoke job runs the small mode and validates the emitted file.

Small mode (``repro experiment compare --steps-small``) shrinks the grid
to two models at one step for smoke tests; its artifacts are not
comparable to full-mode ones.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from .common import (
    EVAL_MODELS,
    cached_graph,
    resolve_configuration,
    run_points,
    write_atomic,
)
from .report import TextTable, format_seconds

#: Backends compared, reference architecture first (the normalizer).
COMPARE_BACKENDS = ("hmc-hetero", "gradpim", "neurotrainer")

#: Artifact schema version (bump on shape changes).
COMPARE_SCHEMA = 1

#: Small-mode grid: the two fastest-simulating models, one step.
SMALL_MODELS = ("alexnet", "dcgan")
SMALL_STEPS = 1

_SMALL = False


def set_small(enabled: bool) -> bool:
    """Toggle the smoke-test grid (``--steps-small``); returns the old
    value."""
    global _SMALL
    old = _SMALL
    _SMALL = bool(enabled)
    return old


@dataclass(frozen=True)
class CompareCell:
    """One (backend, model) measurement plus its hmc-hetero ratios."""

    backend: str
    model: str
    step_time_s: float
    dynamic_energy_j: float
    #: rival time / hmc-hetero time (1.0 on the reference backend).
    time_vs_hetero: float
    #: rival dynamic energy / hmc-hetero dynamic energy.
    energy_vs_hetero: float


def run(
    models: Optional[Tuple[str, ...]] = None,
    backends: Tuple[str, ...] = COMPARE_BACKENDS,
    steps: Optional[int] = None,
) -> Dict[str, Dict[str, CompareCell]]:
    """The comparison grid: ``result[backend][model]``."""
    from ..nn.models import MODERN_MODELS

    if models is None:
        models = SMALL_MODELS if _SMALL else EVAL_MODELS + MODERN_MODELS
    if steps is None:
        steps = SMALL_STEPS if _SMALL else None
    if COMPARE_BACKENDS[0] not in backends:
        raise ReproError(
            f"comparison needs the reference backend "
            f"{COMPARE_BACKENDS[0]!r}; got {backends}"
        )

    points = {}
    for backend in backends:
        config, policy = resolve_configuration(None, backend=backend)
        for model in models:
            points[backend, model] = (cached_graph(model), policy, config, steps)
    runs = run_points(points)

    out: Dict[str, Dict[str, CompareCell]] = {}
    for backend in backends:
        row: Dict[str, CompareCell] = {}
        for model in models:
            result = runs[backend, model]
            ref = runs[COMPARE_BACKENDS[0], model]
            row[model] = CompareCell(
                backend=backend,
                model=model,
                step_time_s=result.step_time_s,
                dynamic_energy_j=result.step_dynamic_energy_j,
                time_vs_hetero=result.step_time_s / ref.step_time_s,
                energy_vs_hetero=(
                    result.step_dynamic_energy_j / ref.step_dynamic_energy_j
                ),
            )
        out[backend] = row
    return out


def payload(result: Dict[str, Dict[str, CompareCell]]) -> Dict[str, object]:
    """JSON-ready artifact of one comparison grid."""
    backends = list(result)
    models = list(next(iter(result.values())))
    return {
        "schema": COMPARE_SCHEMA,
        "reference_backend": COMPARE_BACKENDS[0],
        "backends": backends,
        "models": models,
        "cells": [
            {
                "backend": cell.backend,
                "model": cell.model,
                "step_time_s": cell.step_time_s,
                "dynamic_energy_j": cell.dynamic_energy_j,
                "time_vs_hetero": cell.time_vs_hetero,
                "energy_vs_hetero": cell.energy_vs_hetero,
            }
            for row in result.values()
            for cell in row.values()
        ],
    }


def validate_payload(data: Dict[str, object]) -> Dict[str, object]:
    """Shape-check one comparison artifact; returns it, raises
    :class:`~repro.errors.ReproError` on any problem (the CI smoke job
    and the tests call this on the emitted JSON)."""
    if data.get("schema") != COMPARE_SCHEMA:
        raise ReproError(
            f"compare artifact schema {data.get('schema')!r} != "
            f"{COMPARE_SCHEMA}"
        )
    backends = data.get("backends") or []
    models = data.get("models") or []
    reference = data.get("reference_backend")
    if reference not in backends:
        raise ReproError(
            f"reference backend {reference!r} missing from {backends}"
        )
    cells = data.get("cells") or []
    want = {(b, m) for b in backends for m in models}
    got = {(c.get("backend"), c.get("model")) for c in cells}
    if want != got:
        raise ReproError(
            f"compare artifact cells do not cover the grid: missing "
            f"{sorted(want - got)}, extra {sorted(got - want)}"
        )
    for cell in cells:
        for field in (
            "step_time_s",
            "dynamic_energy_j",
            "time_vs_hetero",
            "energy_vs_hetero",
        ):
            value = cell.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                raise ReproError(
                    f"compare artifact cell {cell.get('backend')}/"
                    f"{cell.get('model')}: {field} must be positive, "
                    f"got {value!r}"
                )
        if cell["backend"] == reference and (
            cell["time_vs_hetero"] != 1.0 or cell["energy_vs_hetero"] != 1.0
        ):
            raise ReproError(
                f"reference backend ratios must be 1.0, got "
                f"{cell['time_vs_hetero']}/{cell['energy_vs_hetero']}"
            )
    return data


def artifact_path() -> str:
    """Where ``main()`` writes the JSON artifact."""
    return os.environ.get("REPRO_COMPARE_OUT", "compare_backends.json")


def format_result(result: Dict[str, Dict[str, CompareCell]]) -> str:
    table = TextTable(
        [
            "Backend",
            "Model",
            "Step time",
            "vs hetero",
            "Dyn energy (J/step)",
            "vs hetero",
        ]
    )
    for row in result.values():
        for cell in row.values():
            table.add_row(
                cell.backend,
                cell.model,
                format_seconds(cell.step_time_s),
                f"{cell.time_vs_hetero:.2f}x",
                cell.dynamic_energy_j,
                f"{cell.energy_vs_hetero:.2f}x",
            )
    return table.render()


def main() -> str:
    from ..sim.results import canonical_dumps

    result = run()
    text = format_result(result)
    print(text)
    data = validate_payload(payload(result))
    path = write_atomic(artifact_path(), canonical_dumps(data, indent=2) + "\n")
    import sys

    print(f"comparison artifact: {path}", file=sys.stderr)
    return text


if __name__ == "__main__":
    main()
