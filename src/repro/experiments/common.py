"""Shared experiment plumbing: the points an experiment reads.

An experiment lists the points of one stage once, as a mapping from its
own keys to :data:`~repro.experiments.runner.Job` tuples
(:func:`model_job` builds a zoo-model x named-config point), and renders
from what :func:`run_points` returns for that mapping: one fingerprint
and one cache lookup per point, the misses simulated in one supervised
batch.  A stage whose points depend on an earlier stage's results
(fig16's co-runs, the fault specs of ``faults``) is a second call.
Callers that want the report view call :func:`repro.api.simulate`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Dict, Hashable, Mapping, Optional, TypeVar, Union

from ..api import cached_graph, clear_caches, resolve_configuration  # noqa: F401
from ..config import SystemConfig
from ..sim.results import RunResult
from . import runner

K = TypeVar("K", bound=Hashable)

#: The five CNN models of the main evaluation, in figure order.
EVAL_MODELS = ("vgg-19", "alexnet", "dcgan", "resnet-50", "inception-v3")

#: The five system configurations, in figure order.
EVAL_CONFIGS = ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")

#: When true, :func:`run_points` answers from the learned cost surrogate
#: (:mod:`repro.surrogate`) where it can, falling back to exact simulation
#: per query.  Off by default: artifacts stay byte-identical unless the
#: user opts in (``repro experiment --surrogate``).
_SURROGATE = False


def set_surrogate(enabled: bool) -> bool:
    """Toggle surrogate-estimated experiment runs; returns the old value."""
    global _SURROGATE
    old = _SURROGATE
    _SURROGATE = bool(enabled)
    return old


def surrogate_enabled() -> bool:
    """Whether experiment runs currently answer from the surrogate."""
    return _SURROGATE


def model_job(
    model: str,
    config_name: str,
    base: Optional[SystemConfig] = None,
    steps: Optional[int] = None,
) -> runner.Job:
    """The job of ``model`` on one named configuration.

    Its cache key is a content fingerprint of the resolved (graph, policy,
    config, steps) — see :mod:`repro.sim.cache` — so modified ``base``
    configs are always cached and can never collide with the defaults.
    """
    config, policy = resolve_configuration(config_name, base)
    return (cached_graph(model), policy, config, steps)


def run_points(
    points: Mapping[K, runner.Job], exact: bool = False
) -> Dict[K, RunResult]:
    """The result of every point, keyed as ``points`` is.

    Exact results come from one :func:`~repro.experiments.runner.run_jobs`
    batch (cached, or simulated and stored).  In surrogate mode
    (:func:`set_surrogate`) a point is first offered to
    :func:`repro.surrogate.estimate_run` — microseconds instead of a
    simulation, flagged via ``metrics["surrogate.estimated"]`` and never
    written to the result cache — and only the points it cannot answer
    join the batch.  Pass ``exact=True`` when the caller reads
    event-level fields only the simulator produces.
    """
    out: Dict[K, RunResult] = {}
    if _SURROGATE and not exact:
        from ..surrogate import SurrogateUnavailable, estimate_run

        for key, job in points.items():
            try:
                out[key] = estimate_run(*job)
            except SurrogateUnavailable:
                pass
    rest = [key for key in points if key not in out]
    out.update(zip(rest, runner.run_jobs([points[key] for key in rest])))
    return {key: out[key] for key in points}


def run_model_on(
    model: str,
    config_name: str,
    base: Optional[SystemConfig] = None,
    steps: Optional[int] = None,
) -> RunResult:
    """The result of one :func:`model_job` point (see :func:`run_points`)."""
    return run_points({0: model_job(model, config_name, base, steps)})[0]


def write_atomic(path: Union[str, Path], text: str) -> Path:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``).

    Every experiment figure/table/summary/trace artifact goes through
    this helper: a kill at any instant leaves either the previous
    complete file or the new complete file on disk — never a truncated
    artifact.  The temp file lives in the target directory so the final
    rename stays on one filesystem (a cross-device rename is a copy, not
    atomic).
    """
    path = Path(path)
    parent = path.parent if str(path.parent) else Path(".")
    parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
