"""The serving contract: request schema and JSON helpers.

``POST /v1/simulate`` accepts a JSON object with the fields of
:class:`SimulateRequest`; everything else in the body is rejected rather
than silently ignored, so client typos (``"modle"``) surface as 400s.
Validation happens *before* a request is admitted, queued or charged
against a tenant quota — a malformed request never consumes capacity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from ..errors import ProtocolError

#: Protocol version tag answered in every endpoint's envelope.
SERVE_SCHEMA = 1

#: Tenant used when neither the body nor the header names one.
DEFAULT_TENANT = "anonymous"

#: Default request priority (lower runs sooner).
DEFAULT_PRIORITY = 100

#: Header carrying the tenant identity (body field wins when both given).
TENANT_HEADER = "x-repro-tenant"

_ALLOWED_FIELDS = {
    "model",
    "config",
    "backend",
    "steps",
    "batch_size",
    "frequency_scale",
    "surrogate",
    "tenant",
    "priority",
    "wait",
}


@dataclass(frozen=True)
class SimulateRequest:
    """One validated, normalized simulate request."""

    model: str
    config: Optional[str] = None
    backend: Optional[str] = None
    steps: int = 3
    batch_size: Optional[int] = None
    frequency_scale: float = 1.0
    surrogate: bool = False
    tenant: str = DEFAULT_TENANT
    priority: int = DEFAULT_PRIORITY
    wait: bool = True

    def simulate_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for :meth:`repro.api.Session.simulate`."""
        return {
            "model": self.model,
            "config": self.config,
            "steps": self.steps,
            "batch_size": self.batch_size,
            "frequency_scale": self.frequency_scale,
            "backend": self.backend,
            "surrogate": self.surrogate,
        }

    def run_key(self) -> Tuple[object, ...]:
        """The fields :meth:`simulate_kwargs` passes, as a hashable key.

        They decide the request's fingerprint; ``tenant``, ``priority``
        and ``wait`` do not.
        """
        return (
            self.model,
            self.config,
            self.steps,
            self.batch_size,
            self.frequency_scale,
            self.backend,
            self.surrogate,
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message, status=400)


def parse_simulate_request(
    body: bytes, headers: Optional[Dict[str, str]] = None
) -> SimulateRequest:
    """Validate a ``POST /v1/simulate`` body into a request object.

    Raises :class:`~repro.errors.ProtocolError` (status 400) with a
    one-line reason on any malformed field; the daemon answers it as a
    JSON error without touching queue, quota or simulator.
    """
    try:
        data = json.loads(body.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}", status=400)
    _require(isinstance(data, dict), "body must be a JSON object")
    unknown = sorted(set(data) - _ALLOWED_FIELDS)
    _require(
        not unknown,
        f"unknown field(s) {', '.join(unknown)} "
        f"(allowed: {', '.join(sorted(_ALLOWED_FIELDS))})",
    )
    return build_simulate_request(data, headers or {})


def build_simulate_request(
    data: Dict[str, object], headers: Dict[str, str]
) -> SimulateRequest:
    """Validate an already-parsed request mapping (journal recovery path
    shares this with the HTTP path so both enforce one contract)."""
    from ..api import list_backends, list_configurations
    from ..nn.models import available_models

    model = data.get("model")
    _require(isinstance(model, str) and bool(model), "missing field 'model'")
    models = available_models()
    _require(
        model in models,
        f"unknown model {model!r} (available: {', '.join(models)})",
    )

    backend = data.get("backend")
    if backend is not None:
        _require(isinstance(backend, str), "'backend' must be a string")
        backends = list_backends()
        _require(
            backend in backends,
            f"unknown backend {backend!r} "
            f"(registered: {', '.join(backends)})",
        )
    config = data.get("config")
    if config is not None:
        _require(isinstance(config, str), "'config' must be a string")
        effective_backend = backend if backend is not None else None
        from ..api import DEFAULT_BACKEND

        configurations = list_configurations(
            effective_backend if effective_backend else DEFAULT_BACKEND
        )
        _require(
            config in configurations,
            f"unknown configuration {config!r} for backend "
            f"{effective_backend or DEFAULT_BACKEND} "
            f"(available: {', '.join(configurations)})",
        )

    steps = data.get("steps", 3)
    _require(
        isinstance(steps, int) and not isinstance(steps, bool) and steps >= 1,
        f"'steps' must be an integer >= 1, got {steps!r}",
    )
    batch_size = data.get("batch_size")
    if batch_size is not None:
        _require(
            isinstance(batch_size, int)
            and not isinstance(batch_size, bool)
            and batch_size >= 1,
            f"'batch_size' must be an integer >= 1, got {batch_size!r}",
        )
    frequency_scale = data.get("frequency_scale", 1.0)
    _require(
        isinstance(frequency_scale, (int, float))
        and not isinstance(frequency_scale, bool)
        and frequency_scale > 0,
        f"'frequency_scale' must be a positive number, "
        f"got {frequency_scale!r}",
    )
    surrogate = data.get("surrogate", False)
    _require(
        isinstance(surrogate, bool),
        f"'surrogate' must be a boolean, got {surrogate!r}",
    )
    wait = data.get("wait", True)
    _require(isinstance(wait, bool), f"'wait' must be a boolean, got {wait!r}")
    priority = data.get("priority", DEFAULT_PRIORITY)
    _require(
        isinstance(priority, int) and not isinstance(priority, bool),
        f"'priority' must be an integer, got {priority!r}",
    )

    tenant = data.get("tenant", headers.get(TENANT_HEADER) or DEFAULT_TENANT)
    _require(
        isinstance(tenant, str)
        and bool(tenant)
        and "/" not in tenant
        and not tenant.startswith("."),
        f"invalid tenant {tenant!r}",
    )

    return SimulateRequest(
        model=model,
        config=config,
        backend=backend,
        steps=steps,
        batch_size=batch_size,
        frequency_scale=float(frequency_scale),
        surrogate=surrogate,
        tenant=tenant,
        priority=priority,
        wait=wait,
    )


def error_body(status: int, message: str) -> bytes:
    """Canonical JSON error payload."""
    return (
        json.dumps(
            {"schema": SERVE_SCHEMA, "error": message, "status": status},
            sort_keys=True,
        )
        + "\n"
    ).encode()
