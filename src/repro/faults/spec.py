"""Declarative, seeded fault specifications.

A :class:`FaultSpec` is an immutable, serializable description of every
hardware fault injected into one simulated run, plus the runtime's
recovery parameters (retry budget and backoff).  It is part of the
simulation-cache fingerprint: the same (graph, policy, config, steps,
faults) tuple always maps to the same cached result, and two different
fault specs can never collide.

Five composable fault models are supported, mirroring the failure modes
the paper's runtime is built to survive (idle/busy registers, thermal-
aware placement, offload re-selection):

* :class:`BankFailure` — one bank's fixed-function PIM units drop out of
  the schedulable pool permanently (the placement map decides how many
  units that bank carried);
* :class:`UnitLoss` — a partial, bank-agnostic loss of fixed-function
  units;
* :class:`ThermalThrottle` — a time-windowed frequency derating of the
  fixed-function pool, weighted by the thermal placement (a corner-zone
  throttle hurts more, because corner banks carry more units);
* :class:`ProgPimLoss` — programmable-PIM cores leave the cluster;
* :class:`DramDerate` — a time-windowed in-stack DRAM-timing degradation
  (bandwidth multiplier on streaming phases).

All parameters are validated eagerly so a malformed spec fails at
construction, not mid-simulation.  A spec read as JSON goes through
:func:`repro.decode.decode`, which rejects unknown fields, missing
fields and values of the wrong type before any event is built.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, Tuple, Type, Union, get_args

from ..decode import decode
from ..errors import SimulationError

#: Thermal zones a :class:`ThermalThrottle` may target (see
#: :class:`repro.hardware.hmc.BankZone`).
THERMAL_ZONES = ("corner", "edge", "center")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SimulationError(message)


@dataclass(frozen=True)
class BankFailure:
    """A bank's fixed-function units permanently leave the pool."""

    kind: ClassVar[str] = "bank-failure"
    time_s: float
    bank: int

    def __post_init__(self) -> None:
        _require(self.time_s >= 0, f"fault time must be >= 0, got {self.time_s}")
        _require(self.bank >= 0, f"bank index must be >= 0, got {self.bank}")


@dataclass(frozen=True)
class UnitLoss:
    """Partial fixed-function unit loss (bank-agnostic)."""

    kind: ClassVar[str] = "unit-loss"
    time_s: float
    units: int

    def __post_init__(self) -> None:
        _require(self.time_s >= 0, f"fault time must be >= 0, got {self.time_s}")
        _require(self.units >= 1, f"unit loss needs >= 1 unit, got {self.units}")


@dataclass(frozen=True)
class ThermalThrottle:
    """Time-windowed frequency derating of one thermal zone's banks."""

    kind: ClassVar[str] = "thermal-throttle"
    time_s: float
    duration_s: float
    factor: float
    zone: str = "center"

    def __post_init__(self) -> None:
        _require(self.time_s >= 0, f"fault time must be >= 0, got {self.time_s}")
        _require(
            self.duration_s > 0,
            f"throttle duration must be > 0, got {self.duration_s}",
        )
        _require(
            0 < self.factor <= 1,
            f"throttle factor must be in (0, 1], got {self.factor}",
        )
        _require(
            self.zone in THERMAL_ZONES,
            f"unknown thermal zone {self.zone!r} (expected one of {THERMAL_ZONES})",
        )


@dataclass(frozen=True)
class ProgPimLoss:
    """Programmable-PIM cores permanently leave the cluster."""

    kind: ClassVar[str] = "prog-pim-loss"
    time_s: float
    pims: int = 1

    def __post_init__(self) -> None:
        _require(self.time_s >= 0, f"fault time must be >= 0, got {self.time_s}")
        _require(self.pims >= 1, f"prog-PIM loss needs >= 1 PIM, got {self.pims}")


@dataclass(frozen=True)
class DramDerate:
    """Time-windowed in-stack DRAM-timing (bandwidth) degradation."""

    kind: ClassVar[str] = "dram-derate"
    time_s: float
    duration_s: float
    factor: float

    def __post_init__(self) -> None:
        _require(self.time_s >= 0, f"fault time must be >= 0, got {self.time_s}")
        _require(
            self.duration_s > 0,
            f"derate duration must be > 0, got {self.duration_s}",
        )
        _require(
            0 < self.factor <= 1,
            f"derate factor must be in (0, 1], got {self.factor}",
        )


FaultEvent = Union[BankFailure, UnitLoss, ThermalThrottle, ProgPimLoss, DramDerate]

#: Every fault event class by its kind tag.
FAULT_KINDS: Dict[str, Type] = {cls.kind: cls for cls in get_args(FaultEvent)}


def _event_sort_key(event: FaultEvent) -> Tuple[float, str, str]:
    return (event.time_s, event.kind, repr(event))


@dataclass(frozen=True)
class FaultSpec:
    """Every fault of one run plus the runtime's recovery parameters.

    ``events`` is normalized to injection order (time, then kind) at
    construction, so two specs with the same events in any order are
    equal — and fingerprint-identical.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: int = 0
    #: Retries of an aborted fixed-function sub-kernel before the op
    #: degrades to the programmable PIM (then the CPU).
    max_retries: int = 3
    #: First retry delay; doubles per attempt (capped below).
    retry_backoff_s: float = 50e-6
    retry_backoff_cap_s: float = 400e-6

    def __post_init__(self) -> None:
        _require(self.max_retries >= 0, "max_retries must be >= 0")
        _require(self.retry_backoff_s > 0, "retry_backoff_s must be > 0")
        _require(
            self.retry_backoff_cap_s >= self.retry_backoff_s,
            "retry_backoff_cap_s must be >= retry_backoff_s",
        )
        for event in self.events:
            _require(
                type(event) in FAULT_KINDS.values(),
                f"unknown fault event type {type(event).__name__}",
            )
        ordered = tuple(sorted(self.events, key=_event_sort_key))
        object.__setattr__(self, "events", ordered)

    def backoff_s(self, attempt: int) -> float:
        """Capped exponential retry delay for 1-based ``attempt``."""
        _require(attempt >= 1, f"attempt must be >= 1, got {attempt}")
        return min(
            self.retry_backoff_cap_s,
            self.retry_backoff_s * (2 ** (attempt - 1)),
        )

    # ------------------------------------------------------------------
    # generation
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        seed: int,
        horizon_s: float,
        n_events: int,
        *,
        banks: int = 32,
        pool_units: int = 444,
        prog_pims: int = 1,
        max_retries: int = 3,
        retry_backoff_s: float = 50e-6,
        retry_backoff_cap_s: float = 400e-6,
    ) -> "FaultSpec":
        """Draw ``n_events`` faults over ``[0, horizon_s]``, deterministically.

        The same ``(seed, horizon_s, n_events, hardware shape)`` always
        yields the same spec: the generator is a :class:`random.Random`
        seeded with ``seed`` and the draw order per event is fixed.
        """
        _require(horizon_s > 0, f"horizon must be > 0, got {horizon_s}")
        _require(n_events >= 0, f"n_events must be >= 0, got {n_events}")
        rng = random.Random(seed)
        kinds = sorted(FAULT_KINDS)
        events = []
        for _ in range(n_events):
            time_s = rng.uniform(0.02, 0.85) * horizon_s
            kind = rng.choice(kinds)
            if kind == BankFailure.kind:
                events.append(BankFailure(time_s=time_s, bank=rng.randrange(banks)))
            elif kind == UnitLoss.kind:
                units = max(1, int(rng.uniform(0.05, 0.5) * pool_units))
                events.append(UnitLoss(time_s=time_s, units=units))
            elif kind == ThermalThrottle.kind:
                events.append(
                    ThermalThrottle(
                        time_s=time_s,
                        duration_s=rng.uniform(0.1, 0.4) * horizon_s,
                        factor=rng.uniform(0.4, 0.9),
                        zone=rng.choice(THERMAL_ZONES),
                    )
                )
            elif kind == ProgPimLoss.kind:
                pims = 1 if prog_pims <= 1 else rng.randrange(1, prog_pims + 1)
                events.append(ProgPimLoss(time_s=time_s, pims=pims))
            else:
                events.append(
                    DramDerate(
                        time_s=time_s,
                        duration_s=rng.uniform(0.1, 0.4) * horizon_s,
                        factor=rng.uniform(0.5, 0.95),
                    )
                )
        return cls(
            events=tuple(events),
            seed=seed,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            retry_backoff_cap_s=retry_backoff_cap_s,
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "max_retries": self.max_retries,
            "retry_backoff_s": self.retry_backoff_s,
            "retry_backoff_cap_s": self.retry_backoff_cap_s,
            "events": [{"kind": e.kind, **asdict(e)} for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: object) -> "FaultSpec":
        return decode(cls, data, SimulationError, "fault spec")

    def to_json(self, indent=None) -> str:
        from ..sim.results import canonical_dumps

        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SimulationError(f"fault spec is not valid JSON: {exc}")
        return cls.from_dict(data)
