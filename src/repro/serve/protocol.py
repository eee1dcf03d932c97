"""The serving contract: request schema and JSON helpers.

``POST /v1/simulate`` accepts a JSON object with the fields of
:class:`SimulateRequest`.  The body goes through
:func:`repro.decode.decode`, which rejects unknown fields, missing fields
and values of the wrong type rather than silently ignoring them, so
client typos (``"modle"``) surface as 400s.
Validation happens *before* a request is admitted, queued or charged
against a tenant quota — a malformed request never consumes capacity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Optional, Tuple

from ..decode import decode
from ..errors import ProtocolError

#: Protocol version tag answered in every endpoint's envelope.
SERVE_SCHEMA = 1

#: Tenant used when neither the body nor the header names one.
DEFAULT_TENANT = "anonymous"

#: Default request priority (lower runs sooner).
DEFAULT_PRIORITY = 100

#: Header carrying the tenant identity (body field wins when both given).
TENANT_HEADER = "x-repro-tenant"


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


def _error(message: str) -> ProtocolError:
    return ProtocolError(message, status=400)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _error(message)


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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"body is not valid JSON: {exc}", status=400)
    return build_simulate_request(data, headers or {})


def build_simulate_request(
    data: Dict[str, object], headers: Dict[str, str]
) -> SimulateRequest:
    """Validate an already-parsed request mapping (journal recovery path
    shares this with the HTTP path so both enforce one contract)."""
    from ..api import DEFAULT_BACKEND, list_backends, list_configurations
    from ..nn.models import available_models

    request = decode(SimulateRequest, data, _error, "request")
    if headers.get(TENANT_HEADER) and "tenant" not in data:
        request = replace(request, tenant=headers[TENANT_HEADER])

    models = available_models()
    _require(
        request.model in models,
        f"unknown model {request.model!r} (available: {', '.join(models)})",
    )
    if request.backend is not None:
        backends = list_backends()
        _require(
            request.backend in backends,
            f"unknown backend {request.backend!r} "
            f"(registered: {', '.join(backends)})",
        )
    backend = request.backend or DEFAULT_BACKEND
    if request.config is not None:
        configurations = list_configurations(backend)
        _require(
            request.config in configurations,
            f"unknown configuration {request.config!r} for backend {backend} "
            f"(available: {', '.join(configurations)})",
        )
    _require(
        request.steps >= 1,
        f"'steps' must be an integer >= 1, got {request.steps!r}",
    )
    _require(
        request.batch_size is None or request.batch_size >= 1,
        f"'batch_size' must be an integer >= 1, got {request.batch_size!r}",
    )
    _require(
        request.frequency_scale > 0,
        f"'frequency_scale' must be a positive number, "
        f"got {request.frequency_scale!r}",
    )
    _require(
        bool(request.tenant)
        and "/" not in request.tenant
        and not request.tenant.startswith("."),
        f"invalid tenant {request.tenant!r}",
    )
    return request


def error_body(status: int, message: str) -> bytes:
    """Canonical JSON error payload."""
    return (
        json.dumps(
            {"schema": SERVE_SCHEMA, "error": message, "status": status},
            sort_keys=True,
        )
        + "\n"
    ).encode()
