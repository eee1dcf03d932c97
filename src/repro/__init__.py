"""repro — reproduction of "Processing-in-Memory for Energy-efficient
Neural Network Training: A Heterogeneous Approach" (MICRO 2018).

Public API tour:

* :mod:`repro.api` — the one front door: :func:`simulate` runs a model
  name or a built graph on a configuration and returns a ``RunReport``.
* :mod:`repro.nn` — TensorFlow-flavoured op-graph substrate and model zoo.
* :mod:`repro.profiling` — workload characterization (paper Table I, Fig 2).
* :mod:`repro.hardware` — device models: 3D stack, fixed-function PIMs,
  programmable PIM, host CPU, GPU, power/area/thermal.
* :mod:`repro.pimcl` — kernel binaries of the extended-OpenCL model
  (Figure 4).
* :mod:`repro.runtime` — profiling-driven scheduler with recursive kernels
  (RC) and the operation pipeline (OP).
* :mod:`repro.sim` — discrete-event simulator and metrics.
* :mod:`repro.baselines` — the five evaluated configurations + Neurocube.
* :mod:`repro.experiments` — one module per paper table/figure.
"""

from .config import (
    FREQUENCY_SCALES,
    PROG_PIM_COUNTS,
    CPUConfig,
    FixedPIMConfig,
    GPUConfig,
    ProgPIMConfig,
    RuntimeConfig,
    StackConfig,
    SystemConfig,
    default_config,
)
from .errors import ReproError

__version__ = "1.1.0"

__all__ = [
    "CPUConfig",
    "FREQUENCY_SCALES",
    "FixedPIMConfig",
    "GPUConfig",
    "PROG_PIM_COUNTS",
    "ProgPIMConfig",
    "ReproError",
    "RunReport",
    "RuntimeConfig",
    "StackConfig",
    "SystemConfig",
    "api",
    "default_config",
    "list_backends",
    "simulate",
    "__version__",
]

#: Facade entry points, loaded lazily so that ``import repro`` stays cheap
#: and config-only consumers pull in no simulator modules.
_LAZY = {
    "api": ("repro.api", None),
    "simulate": ("repro.api", "simulate"),
    "list_backends": ("repro.api", "list_backends"),
    "RunReport": ("repro.obs.report", "RunReport"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value
