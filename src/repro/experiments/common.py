"""Shared experiment plumbing: cached model builds and simulation runs.

Thin delegation layer over :mod:`repro.api` and the result cache: the
experiments read the cached :class:`~repro.sim.results.RunResult` of each
run through :func:`run_job` (``run_model_on`` resolves a zoo-model x
named-config point and calls it); callers that want the report view call
:func:`repro.api.simulate`.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..api import cached_graph, clear_caches, resolve_configuration  # noqa: F401
from ..config import SystemConfig
from ..sim import cache as sim_cache
from ..sim.results import RunResult

#: The five CNN models of the main evaluation, in figure order.
EVAL_MODELS = ("vgg-19", "alexnet", "dcgan", "resnet-50", "inception-v3")

#: The five system configurations, in figure order.
EVAL_CONFIGS = ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")

#: When true, :func:`run_model_on` answers from the learned cost surrogate
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


def run_model_on(
    model: str,
    config_name: str,
    base: Optional[SystemConfig] = None,
    steps: Optional[int] = None,
) -> RunResult:
    """Simulate ``model`` on one named configuration (cached).

    The cache key is a content fingerprint of the resolved (graph, policy,
    config, steps) — see :mod:`repro.sim.cache` — so modified ``base``
    configs are always cached and can never collide with the defaults.

    In surrogate mode (:func:`set_surrogate`) the answer is an *estimated*
    result from :func:`repro.surrogate.estimate_run` — microseconds
    instead of a simulation, flagged via ``metrics["surrogate.estimated"]``
    and never written to the result cache; queries the surrogate cannot
    answer fall back to the exact path.
    """
    config, policy = resolve_configuration(config_name, base)
    return run_job(cached_graph(model), policy, config, steps=steps)


def run_job(
    graph,
    policy,
    config: SystemConfig,
    steps: Optional[int] = None,
    exact: bool = False,
) -> RunResult:
    """Run one pre-resolved (graph, policy, config) job, cached.

    The raw-job counterpart of :func:`run_model_on` for experiments whose
    jobs are not zoo-model x named-config points (ablation variants,
    mixed-workload co-runs).  Honors surrogate mode the same way; pass
    ``exact=True`` when the caller reads event-level fields only the
    simulator produces.
    """
    if _SURROGATE and not exact:
        from ..surrogate import SurrogateUnavailable, estimate_run

        try:
            return estimate_run(graph, policy, config, steps=steps)
        except SurrogateUnavailable:
            pass
    return sim_cache.simulate_cached(graph, policy, config, steps=steps)


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
