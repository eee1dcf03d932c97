"""Pluggable hardware-backend registry (ROADMAP item 3).

A **backend** packages one complete hardware design — device kinds,
placement strategy, per-op energy coefficients, scheduling hooks, area and
power — behind two calls: ``describe()`` (a JSON-serializable
:class:`BackendDescriptor` capability record) and ``build()`` (a concrete
``(SystemConfig, SchedulingPolicy)`` pair the simulator runs).  The
paper's heterogeneous HMC design is the default ``"hmc-hetero"`` backend;
rival PIM-training architectures from the literature register alongside it
(:mod:`repro.hardware.backends`) so cross-architecture comparisons
(``repro experiment compare``) need no simulator fork.

Registration::

    from repro.hardware.registry import HardwareBackend, register

    @register
    class MyBackend(HardwareBackend):
        name = "my-backend"
        ...

Third-party packages can ship backends via the ``repro.backends``
entry-point group; entries are discovered lazily, on the first listing,
unregistration or lookup of a name no builtin has, and must resolve to
a :class:`HardwareBackend` subclass or instance.  Discovery failures
are reported as warnings, never import errors — a broken plugin must
not take down the simulator.

Every built ``SystemConfig`` is tagged with its backend name
(``SystemConfig.backend``), which joins the simulation-cache fingerprint,
the cost-table key and the surrogate calibration key: two backends with
numerically identical sub-configs can never share cached state.
"""

from __future__ import annotations

import threading
import warnings
from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from ..config import SystemConfig
from ..errors import BackendError, DuplicateBackendError, UnknownBackendError

if TYPE_CHECKING:  # policy lives under repro.sim; keep the import graph flat
    from ..sim.policy import SchedulingPolicy

#: Entry-point group scanned for third-party backends.
ENTRY_POINT_GROUP = "repro.backends"


@dataclass(frozen=True)
class BackendDescriptor:
    """Capability record of one hardware backend (JSON round-trippable).

    Purely descriptive: consumers (CLI listings, comparison artifacts,
    design-space tooling) read it instead of instantiating configs.  The
    authoritative numbers live in the built :class:`SystemConfig`.
    """

    #: Registry name (``repro run --backend <name>``).
    name: str
    #: One-line human description.
    description: str
    #: Device lanes the backend schedules onto (simulator lane tokens).
    device_kinds: Tuple[str, ...]
    #: Placement strategy in one phrase (e.g. "profiling-driven runtime").
    placement: str
    #: Named configurations ``build()`` accepts; first-class points only.
    configurations: Tuple[str, ...]
    #: Configuration used when ``build()`` gets no name.
    default_configuration: str
    #: Headline per-op energy coefficients (pJ/MAC, pJ/byte, ...).
    energy_tables: Dict[str, float] = field(default_factory=dict)
    #: Scheduling/offload capability flags (recursive kernels, pipeline,
    #: offloaded op classes, ...).
    scheduling: Dict[str, object] = field(default_factory=dict)
    #: In-memory-compute silicon area (logic die / DRAM overhead).
    area_mm2: float = 0.0
    #: Nominal power of the in-memory compute resources.
    power_w: float = 0.0
    #: Literature reference for the modeled design.
    reference: str = ""

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["device_kinds"] = list(self.device_kinds)
        data["configurations"] = list(self.configurations)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BackendDescriptor":
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            device_kinds=tuple(data.get("device_kinds", ())),
            placement=str(data.get("placement", "")),
            configurations=tuple(data.get("configurations", ())),
            default_configuration=str(data.get("default_configuration", "")),
            energy_tables=dict(data.get("energy_tables", {})),
            scheduling=dict(data.get("scheduling", {})),
            area_mm2=float(data.get("area_mm2", 0.0)),
            power_w=float(data.get("power_w", 0.0)),
            reference=str(data.get("reference", "")),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        from ..sim.results import canonical_dumps

        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "BackendDescriptor":
        import json

        return cls.from_dict(json.loads(text))


class HardwareBackend(ABC):
    """One pluggable hardware design.

    Subclasses set ``name`` and implement :meth:`describe` and
    :meth:`build`.  ``build`` must return a config whose ``backend``
    field equals ``self.name`` (asserted by the registry's
    :func:`build` wrapper) — that tag is what keys every cache.
    """

    #: Registry name; subclasses must override.
    name: str = ""

    @abstractmethod
    def describe(self) -> BackendDescriptor:
        """The backend's capability descriptor."""

    @abstractmethod
    def build(
        self,
        configuration: Optional[str] = None,
        base: Optional[SystemConfig] = None,
    ) -> Tuple[SystemConfig, SchedulingPolicy]:
        """Instantiate one named configuration of this backend.

        ``configuration=None`` selects the backend's default; ``base``
        optionally supplies the host-side :class:`SystemConfig` to derive
        from (frequency-scaled studies etc.).
        """

    @cached_property
    def descriptor(self) -> BackendDescriptor:
        """:meth:`describe`, built once per backend instance."""
        return self.describe()

    @property
    def configurations(self) -> Tuple[str, ...]:
        return self.descriptor.configurations

    @property
    def default_configuration(self) -> str:
        return self.descriptor.default_configuration


_REGISTRY: Dict[str, HardwareBackend] = {}
_load_lock = threading.Lock()
_builtins_loaded = False
_entry_points_loaded = False


def register(
    backend: Union[HardwareBackend, type],
) -> Union[HardwareBackend, type]:
    """Register a backend (usable as a class decorator).

    Accepts a :class:`HardwareBackend` instance or a zero-argument
    subclass; returns its argument so decorated classes stay usable.
    Raises :class:`~repro.errors.DuplicateBackendError` when the name is
    taken — re-registering would silently reroute cached work.
    """
    instance = backend() if isinstance(backend, type) else backend
    if not isinstance(instance, HardwareBackend):
        raise BackendError(
            f"register() needs a HardwareBackend, got {type(instance).__name__}"
        )
    if not instance.name:
        raise BackendError(
            f"backend {type(instance).__name__} has no name; set the "
            "'name' class attribute"
        )
    if instance.name in _REGISTRY:
        raise DuplicateBackendError(
            f"hardware backend {instance.name!r} is already registered "
            f"({type(_REGISTRY[instance.name]).__name__}); unregister it "
            "first or pick a different name"
        )
    _REGISTRY[instance.name] = instance
    return backend


def unregister(name: str) -> None:
    """Remove a registered backend (tests, plugin reloads)."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise UnknownBackendError(name, available=list_backends())
    del _REGISTRY[name]


def get(name: str) -> HardwareBackend:
    """The registered backend called ``name``.

    A builtin (or already registered) name resolves without scanning the
    installed packages' entry points; only a name nobody registered yet
    triggers that scan.  Raises :class:`~repro.errors.UnknownBackendError`
    carrying the registered names so callers (the CLI) can print them.
    """
    _ensure_builtins()
    backend = _REGISTRY.get(name)
    if backend is None:
        _ensure_loaded()
        backend = _REGISTRY.get(name)
        if backend is None:
            raise UnknownBackendError(name, available=list_backends())
    return backend


def list_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    _ensure_loaded()
    return tuple(sorted(_REGISTRY))


def build(
    name: str,
    configuration: Optional[str] = None,
    base: Optional[SystemConfig] = None,
) -> Tuple[SystemConfig, SchedulingPolicy]:
    """Build a configuration of backend ``name`` (registry-level helper).

    Enforces the tagging contract: the returned config's ``backend``
    field must equal the registry name, otherwise cached results from
    different backends could collide.
    """
    backend = get(name)
    system, policy = backend.build(configuration, base)
    if system.backend != name:
        raise BackendError(
            f"backend {name!r} built a config tagged {system.backend!r}; "
            "build() must return base.with_backend(name)-derived configs"
        )
    return system, policy


def _ensure_builtins() -> None:
    """Load the builtin backends, once.

    Thread-safe: the serve daemon fingerprints requests on worker
    threads, so first touch can be concurrent.  The flags flip only
    *after* registration completes — a reader that grabs the lock next
    never observes a half-populated registry.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    with _load_lock:
        if not _builtins_loaded:
            from . import backends  # noqa: F401  (registers on import)

            _builtins_loaded = True


def _ensure_loaded() -> None:
    """Load the builtin backends, then third-party entry points, once.

    Scanning the entry points reads every installed distribution's
    metadata (tens of milliseconds), so only the calls that need the
    complete registry come here.
    """
    global _entry_points_loaded
    _ensure_builtins()
    if _entry_points_loaded:
        return
    with _load_lock:
        if not _entry_points_loaded:
            _load_entry_points()
            _entry_points_loaded = True


def _load_entry_points() -> None:
    """Discover third-party backends from the ``repro.backends`` group.

    Tolerant by design: a plugin that fails to import, returns the wrong
    type, or collides with an existing name produces one warning and is
    skipped — the builtin registry must stay usable regardless.
    """
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - 3.8+aren't supported anyway
        return
    try:
        group = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - pre-3.10 dict API
        group = entry_points().get(ENTRY_POINT_GROUP, ())
    for entry in group:
        try:
            register(entry.load())
        except Exception as exc:  # noqa: BLE001 - plugin isolation
            warnings.warn(
                f"skipping hardware-backend entry point {entry.name!r}: "
                f"{exc}",
                RuntimeWarning,
                stacklevel=2,
            )
