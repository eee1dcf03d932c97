"""Experiments: one module per paper table/figure (see DESIGN.md index).

Submodules load on first attribute access (``experiments.fig9``), so a
process that runs one experiment does not import the other twenty.
"""

import importlib

_SUBMODULES = (
    "ablation",
    "ablations",
    "compare",
    "extensions",
    "families",
    "faults",
    "fig2",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "runner",
    "summary",
    "table1",
)
#: Re-exported from :mod:`.common`.
_COMMON = (
    "EVAL_CONFIGS",
    "EVAL_MODELS",
    "cached_graph",
    "clear_caches",
    "run_model_on",
    "write_atomic",
)

__all__ = sorted(_SUBMODULES + _COMMON)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _COMMON:
        value = getattr(importlib.import_module(f"{__name__}.common"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
