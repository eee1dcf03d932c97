"""Unified facade over the simulator: one call, one report.

:func:`simulate` is the supported entry point for running any paper model
on any evaluated system configuration.  It hides the graph builder, the
baseline factory, the content-addressed result cache and the observability
plumbing behind a single signature and always returns a
:class:`~repro.obs.report.RunReport`::

    from repro.api import simulate

    report = simulate("alexnet", "hetero-pim", steps=3)
    print(report.step_time_s, report.device_busy_fraction)
    report.save_trace("trace.json")   # needs observe=True (see below)

Pass ``observe=True`` (or an existing
:class:`~repro.obs.metrics.MetricsRegistry`) to run the simulation live
with schedule-timeline recording — the report can then export a
Chrome/Perfetto trace.  Unobserved calls go through the result cache
(:mod:`repro.sim.cache`) and are typically instant on a warm cache; the
numbers in the report are identical either way, because the simulator's
accounting is always on.

``model`` is a model-zoo name or a built :class:`~repro.nn.graph.Graph`
(for instance one assembled with :class:`~repro.nn.layers.GraphBuilder`)::

    report = simulate(my_graph, "hetero-pim")

This is the one front door to the simulator: the CLI (``python -m repro
run``), the experiment scripts, the serve daemon and the examples all call
through this module.  :func:`repro.sim.cache.simulate_cached` and
:func:`repro.sim.cache.simulate_fresh` (which builds and runs the
:class:`~repro.sim.simulation.Simulation`) are its internal layers, not
user entry points.
"""

from __future__ import annotations

import copy
import operator
import weakref
from typing import Dict, Optional, Tuple, Union

from .config import SystemConfig, default_config
from .hardware import registry
from .nn.graph import Graph
from .nn.models import available_models, build_model
from .obs.metrics import MetricsRegistry
from .obs.report import RunReport
from .sim import cache as sim_cache
from .sim.policy import SchedulingPolicy

#: Named configurations accepted by :func:`simulate` on the default
#: backend (the paper's five evaluated systems plus the Neurocube
#: comparison point).  Other backends declare their own configuration
#: names — see :func:`list_backends` and
#: :meth:`repro.hardware.registry.HardwareBackend.configurations`.
CONFIGURATIONS = ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim", "neurocube")

#: Backend used when none is requested (the reproduced paper's design).
DEFAULT_BACKEND = "hmc-hetero"

_graph_cache: Dict[Tuple[str, Optional[int]], Graph] = {}

#: Resolved configurations keyed by (backend, configuration name, base
#: identity): the ``SystemConfig`` and a never-prepared policy built with
#: it.  Returning the *same* config object per name lets the downstream
#: id-keyed memoizers (config signatures, cost tables) hit instead of
#: re-deriving, and a repeated request builds no config at all.  Each
#: call gets its own shallow copy of the policy, because ``prepare()``
#: mutates it (by assigning attributes; what a policy's constructor
#: stores is immutable).  Entries tied to an explicit base evict with it.
_resolved_config_cache: Dict[
    Tuple[str, str, Optional[int]], Tuple[SystemConfig, SchedulingPolicy]
] = {}

#: Frequency-scaled variants of the default configuration, keyed by scale
#: (the section VI-D sweep re-resolves the same handful of scales).
_scaled_base_cache: Dict[float, SystemConfig] = {}


def list_models() -> Tuple[str, ...]:
    """Names accepted as :func:`simulate`'s ``model`` argument."""
    return tuple(available_models())


def list_configurations(backend: str = DEFAULT_BACKEND) -> Tuple[str, ...]:
    """Names accepted as :func:`simulate`'s ``config`` argument for
    ``backend`` (default: the paper's six named configurations)."""
    if backend == DEFAULT_BACKEND:
        return CONFIGURATIONS
    return registry.get(backend).configurations


def list_backends() -> Tuple[str, ...]:
    """Registered hardware-backend names (see
    :mod:`repro.hardware.registry`)."""
    return registry.list_backends()


def cached_graph(model: str, batch_size: Optional[int] = None) -> Graph:
    """Build (or fetch) the training-step graph for ``model``."""
    key = (model, batch_size)
    if key not in _graph_cache:
        _graph_cache[key] = build_model(model, batch_size)
    return _graph_cache[key]


def resolve_configuration(
    config_name: Optional[str] = None,
    base: Optional[SystemConfig] = None,
    backend: str = DEFAULT_BACKEND,
) -> Tuple[SystemConfig, SchedulingPolicy]:
    """Instantiate a named configuration of a registered backend.

    ``config_name=None`` selects the backend's default configuration
    (``"hetero-pim"`` on the default backend).  Raises
    :class:`~repro.errors.UnknownBackendError` for an unregistered
    ``backend`` name.
    """
    be = registry.get(backend)
    if config_name is None:
        config_name = be.default_configuration
    key = (backend, config_name, id(base) if base is not None else None)
    cached = _resolved_config_cache.get(key)
    if cached is None:
        cached = registry.build(backend, config_name, base)
        _resolved_config_cache[key] = cached
        if base is not None:
            weakref.finalize(base, _resolved_config_cache.pop, key, None)
    system, policy = cached
    return system, copy.copy(policy)


def clear_caches() -> None:
    """Drop cached graphs and simulation results (memory and disk tiers)."""
    _graph_cache.clear()
    _resolved_config_cache.clear()
    _scaled_base_cache.clear()
    sim_cache.clear()


def _resolve_run(
    model: Union[str, Graph],
    config: Optional[str],
    batch_size: Optional[int],
    frequency_scale: float,
    base: Optional[SystemConfig],
    backend: str,
) -> Tuple[Graph, SystemConfig, SchedulingPolicy, str]:
    """Resolve one request to concrete simulator inputs.

    Shared by :func:`simulate` and :class:`Session` so that a served
    request and a direct call always agree on the graph/config/policy
    (and therefore on the cache fingerprint).  Returns ``(graph, system,
    policy, resolved_config_name)``.
    """
    if frequency_scale != 1.0:
        if base is None:
            scaled = _scaled_base_cache.get(frequency_scale)
            if scaled is None:
                scaled = default_config().with_frequency_scale(frequency_scale)
                _scaled_base_cache[frequency_scale] = scaled
            base = scaled
        else:
            base = base.with_frequency_scale(frequency_scale)
    if isinstance(model, Graph):
        if batch_size is not None:
            raise ValueError("batch_size cannot be combined with a built Graph")
        graph = model
    else:
        graph = cached_graph(model, batch_size)
    if config is None:
        config = registry.get(backend).default_configuration
    system, policy = resolve_configuration(config, base, backend=backend)
    return graph, system, policy, config


def _resolved_options_record(
    backend: str,
    config_name: str,
    steps: int,
    batch_size: Optional[int],
    frequency_scale: float,
    observe,
    validate: bool,
    surrogate: bool,
    faults,
) -> Dict[str, object]:
    """JSON-safe record of one call's resolved options (for the report)."""
    return {
        "backend": backend,
        "config": config_name,
        "steps": steps,
        "batch_size": batch_size,
        "frequency_scale": frequency_scale,
        "observe": bool(observe),
        "validate": bool(validate),
        "surrogate": bool(surrogate),
        "faults": faults is not None,
    }


def simulate(
    model: Union[str, Graph],
    config: Optional[str] = None,
    steps: int = 3,
    *,
    batch_size: Optional[int] = None,
    frequency_scale: float = 1.0,
    base: Optional[SystemConfig] = None,
    observe=None,
    faults=None,
    validate: Optional[bool] = None,
    surrogate: bool = False,
    backend: Optional[str] = None,
) -> RunReport:
    """Simulate one training run of ``model`` on configuration ``config``.

    Parameters
    ----------
    model:
        A model-zoo name (:func:`list_models`) or a built
        :class:`~repro.nn.graph.Graph` (e.g. from
        :class:`~repro.nn.layers.GraphBuilder`), simulated as given.
    config:
        A configuration name (:func:`list_configurations`); ``None``
        selects the backend's default configuration (``"hetero-pim"`` on
        the default backend).
    steps:
        Measured training steps (positive).
    batch_size:
        Override the model's default mini-batch size (model names only;
        a ``Graph`` carries its own, and passing both raises
        ``ValueError``).
    frequency_scale:
        PIM PLL multiplier (paper section VI-D); applied on top of
        ``base`` (or the default configuration).
    base:
        Optional base :class:`~repro.config.SystemConfig` to derive the
        configuration from.
    observe:
        ``None``/``False`` — serve from the result cache, no timeline.
        ``True`` or a :class:`~repro.obs.metrics.MetricsRegistry` — run
        live with timeline recording (enables ``report.save_trace``); a
        supplied registry additionally receives the run's metrics.
    faults:
        Optional :class:`~repro.faults.FaultSpec`.  The run injects the
        spec's fault events and reacts (retries, offload re-selection,
        graceful degradation) so every training step still completes; the
        fault/recovery log (events, re-selections, counts) lands on
        ``report.faults``.  The per-task retry and degradation records are
        kept only on a live run's timeline (``observe``), which exports
        them to the trace's fault lane.  The spec is part of the cache
        fingerprint.
    validate:
        Run under the invariant checker (:mod:`repro.validate`).  The
        simulation executes live with a timeline and every
        conservation/consistency law is asserted — including equivalence
        with any previously cached result and with the serialization
        round-trip — raising :class:`~repro.errors.InvariantViolation`
        on the first broken one.  A passing run's report carries a
        ``validation`` summary.  Defaults to the ``REPRO_VALIDATE``
        environment knob (so CI can validate whole suites unchanged).
    surrogate:
        Answer from the learned cost surrogate (:mod:`repro.surrogate`)
        instead of simulating: microsecond-scale *estimated* results with
        declared error bands (``report.surrogate``).  Falls back to exact
        simulation — recorded on ``report.surrogate["mode"]`` — when no
        trained model exists, the query is out of the trained domain, or
        ``observe``/``validate`` demand a real run.  Estimates are never
        written to the result cache.
    backend:
        A registered hardware backend (:func:`list_backends`); default
        ``"hmc-hetero"``, the reproduced paper's design.  The backend
        name joins the simulation-cache fingerprint.

    The resolved keywords land on ``report.options``.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if backend is None:
        backend = DEFAULT_BACKEND
    graph, system, policy, config = _resolve_run(
        model, config, batch_size, frequency_scale, base, backend
    )
    if validate is None:
        validate = sim_cache.validation_enabled()
    options_record = _resolved_options_record(
        backend,
        config,
        steps,
        batch_size,
        frequency_scale,
        observe,
        validate,
        surrogate,
        faults,
    )

    surrogate_info = None
    if surrogate and not (observe or validate):
        from .surrogate import SurrogateUnavailable, estimate_run

        try:
            result = estimate_run(
                graph, policy, system, steps=steps, faults=faults
            )
        except SurrogateUnavailable as exc:
            surrogate_info = {"mode": "exact", "reason": str(exc)}
        else:
            metrics = result.metrics or {}
            surrogate_info = {
                "mode": "surrogate",
                "tier": int(metrics.get("surrogate.tier", 0)),
                "bands": {
                    "step_time_rel": metrics.get(
                        "surrogate.band.step_time_rel"
                    ),
                    "dynamic_energy_rel": metrics.get(
                        "surrogate.band.dynamic_energy_rel"
                    ),
                    "total_energy_rel": metrics.get(
                        "surrogate.band.total_energy_rel"
                    ),
                },
            }
            return RunReport(
                result=result,
                surrogate=surrogate_info,
                options=options_record,
            )
    elif surrogate:
        surrogate_info = {
            "mode": "exact",
            "reason": "observe/validate requires an exact simulation",
        }

    validation = None
    if observe or validate:
        metrics_registry = (
            observe if isinstance(observe, MetricsRegistry) else None
        )
        fingerprint = sim_cache.run_fingerprint(
            graph, policy, system, steps, faults=faults
        )
        # a validated run must agree with whatever the cache would have
        # served in its place — look that up before overwriting it.  The
        # lookup stays outside the report's cache-stats window: it is a
        # checker internal, and counting it would make reports (and the
        # traces they export) differ between cold and warm caches.
        prior = sim_cache.get(fingerprint) if validate else None
        before = sim_cache.stats()
        result, timeline = sim_cache.simulate_fresh(
            graph,
            policy,
            system,
            steps,
            faults=faults,
            validate=validate,
            record_timeline=True,
            observe=metrics_registry,
        )
        if validate:
            validation = _validation_summary(result, prior)
        # warm the cache: observed runs produce the same result record
        sim_cache.put(
            fingerprint,
            result,
            meta=sim_cache.object_meta(result, graph, system, faults=faults),
        )
        if not observe:
            timeline = None
    else:
        before = sim_cache.stats()
        result = sim_cache.simulate_cached(
            graph, policy, system, steps=steps, faults=faults, validate=False
        )
        timeline = None
    after = sim_cache.stats()
    # both snapshots list the same counters in the same order
    delta = dict(zip(after, map(operator.sub, after.values(), before.values())))

    return RunReport(
        result=result,
        timeline=timeline,
        cache_stats=delta,
        validation=validation,
        surrogate=surrogate_info,
        options=options_record,
    )


def canonical_report(report: RunReport) -> RunReport:
    """``report`` with call-local jitter removed.

    Cache statistics (cold vs warm) and the live timeline are properties
    of one *call*, not of the simulated run; dropping them makes
    ``to_json()`` byte-identical for the same request whatever the cache
    temperature or worker interleaving.  The serve daemon stores and
    serves exactly this form, and ``repro run --report-out`` writes it,
    so the two are byte-comparable.
    """
    return RunReport(
        result=report.result,
        validation=report.validation,
        surrogate=report.surrogate,
        options=report.options,
    )


class Session:
    """Stateful, tenant-aware facade path over :func:`simulate`.

    Long-lived consumers — the serve daemon foremost — need three things
    the one-shot function does not expose:

    * a **tenant identity** under which all cache traffic is accounted
      (:func:`repro.sim.cache.tenant_scope`);
    * the **request fingerprint** *before* running, so identical
      in-flight requests can be deduplicated onto one simulation;
    * **canonical reports** (:func:`canonical_report`) whose JSON is
      byte-identical for the same request no matter when, or on which
      cache temperature, it was answered.

    A ``Session`` is cheap (no resources besides the process-wide caches
    it shares) and safe to call from worker threads.
    """

    def __init__(self, tenant: str = "default"):
        if not tenant or "/" in tenant or tenant.startswith("."):
            raise ValueError(f"invalid tenant name {tenant!r}")
        self.tenant = tenant

    def fingerprint(
        self,
        model: str,
        config: Optional[str] = None,
        steps: int = 3,
        *,
        batch_size: Optional[int] = None,
        frequency_scale: float = 1.0,
        backend: Optional[str] = None,
        surrogate: bool = False,
    ) -> str:
        """Content fingerprint of the request — the dedup/report key.

        Identical requests (after config/backend defaulting) map to the
        same fingerprint; a surrogate-answered request can never collide
        with the exact simulation of the same inputs.
        """
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        graph, system, policy, _name = _resolve_run(
            model,
            config,
            batch_size,
            frequency_scale,
            None,
            backend if backend is not None else DEFAULT_BACKEND,
        )
        digest = sim_cache.run_fingerprint(graph, policy, system, steps)
        return f"{digest}-est" if surrogate else digest

    def simulate(
        self,
        model: str,
        config: Optional[str] = None,
        steps: int = 3,
        *,
        batch_size: Optional[int] = None,
        frequency_scale: float = 1.0,
        backend: Optional[str] = None,
        surrogate: bool = False,
    ) -> RunReport:
        """Run (or fetch) one simulation under this session's tenant and
        return the canonical report (see :func:`canonical_report`)."""
        with sim_cache.tenant_scope(self.tenant):
            report = simulate(
                model,
                config,
                steps,
                batch_size=batch_size,
                frequency_scale=frequency_scale,
                surrogate=surrogate,
                backend=backend,
            )
        return canonical_report(report)


def _validation_summary(result, prior) -> Dict[str, object]:
    """Check a validated run against the result the cache held before it
    (the live invariants and the serialization round trip already ran in
    :func:`repro.sim.cache.simulate_fresh`) and build the report's
    ``validation`` summary."""
    from .validate.invariants import (
        RESULT_INVARIANTS,
        SIMULATION_INVARIANTS,
        check_cache_equivalence,
    )

    check_cache_equivalence(result, prior, source="result cache")
    return {
        "invariants": list(RESULT_INVARIANTS + SIMULATION_INVARIANTS),
        "cache_equivalence": "checked" if prior is not None else "cold",
        "passed": True,
    }
