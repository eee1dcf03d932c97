"""The versioned run report returned by :func:`repro.api.simulate`.

:class:`RunReport` is the stable, renderer-facing view of a simulation:
it wraps the cached :class:`~repro.sim.results.RunResult` with a flat
summary (step time, energy breakdown, per-device busy fractions, the
fixed-pool occupancy histogram, offload decisions) and — when the run was
observed live — the schedule timeline, from which it can export a
Chrome/Perfetto trace.

The dict form is versioned independently of the result schema so that CLI
output, experiment scripts and ``BENCH_summary.json`` can all render from
one shape without re-deriving it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..errors import SimulationError
from ..sim.results import RunResult, canonical_dumps
from ..sim.timeline import Timeline

#: Version tag of the report envelope (the nested run result carries its
#: own ``schema`` field; the two evolve independently).
#: v2: added ``fault_counts`` (retry/degradation/re-selection totals).
#: v3: added ``validation`` (invariant-checker summary of validated runs).
#: v4: added ``surrogate`` (cost-surrogate mode/bands of the answering
#: path).
#: v5: added ``options`` (the resolved keywords of the producing
#: :func:`repro.api.simulate` call, including the hardware-backend name).
REPORT_SCHEMA_VERSION = 5

#: Envelope versions :meth:`RunReport.from_dict` still reads.  Older
#: versions differ from v5 only by absent fields, which default.
_READABLE_SCHEMAS = (2, 3, 4, REPORT_SCHEMA_VERSION)


@dataclass(frozen=True)
class BatchSupervision:
    """Per-batch supervision counts from the crash-safe experiment runner.

    One record summarizes what the supervised pool did to complete (or
    abandon) a batch of jobs: how many were served from the cache, how
    many ran, and every intervention — retries after transient failures,
    watchdog timeouts, worker-pool crashes/respawns, and jobs quarantined
    after exhausting their retry budget.  ``repro experiment`` prints
    this; tests assert on it.
    """

    submitted: int = 0
    cached: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    respawns: int = 0
    quarantined: tuple = ()  # fingerprints/keys of quarantined jobs
    interrupted: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "submitted": self.submitted,
            "cached": self.cached,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "quarantined": list(self.quarantined),
            "interrupted": self.interrupted,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "BatchSupervision":
        return cls(
            submitted=int(data.get("submitted", 0)),
            cached=int(data.get("cached", 0)),
            completed=int(data.get("completed", 0)),
            retries=int(data.get("retries", 0)),
            timeouts=int(data.get("timeouts", 0)),
            crashes=int(data.get("crashes", 0)),
            respawns=int(data.get("respawns", 0)),
            quarantined=tuple(data.get("quarantined", ())),
            interrupted=bool(data.get("interrupted", False)),
        )

    def merge(self, other: "BatchSupervision") -> "BatchSupervision":
        """Accumulate another batch's counts (multi-batch experiments)."""
        return BatchSupervision(
            submitted=self.submitted + other.submitted,
            cached=self.cached + other.cached,
            completed=self.completed + other.completed,
            retries=self.retries + other.retries,
            timeouts=self.timeouts + other.timeouts,
            crashes=self.crashes + other.crashes,
            respawns=self.respawns + other.respawns,
            quarantined=self.quarantined + other.quarantined,
            interrupted=self.interrupted or other.interrupted,
        )

    def summary(self) -> str:
        """One-line human summary (printed to stderr by the CLI)."""
        parts = [
            f"{self.submitted} jobs",
            f"{self.cached} cached",
            f"{self.completed} run",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.timeouts:
            parts.append(f"{self.timeouts} timeouts")
        if self.crashes:
            parts.append(f"{self.crashes} pool crashes")
        if self.respawns:
            parts.append(f"{self.respawns} respawns")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)


@dataclass(frozen=True)
class RunReport:
    """Stable observability view of one simulated run."""

    result: RunResult
    #: Schedule timeline, present only when the run executed live with
    #: recording enabled (cached results carry aggregates, not timelines).
    timeline: Optional[Timeline] = None
    #: Simulation-cache statistics for the call that produced this report.
    cache_stats: Optional[Dict[str, int]] = None
    #: Invariant-checker summary when the run was validated
    #: (``api.simulate(..., validate=True)``): which invariant groups ran
    #: and passed.  None for unvalidated runs; a validated run that fails
    #: raises :class:`~repro.errors.InvariantViolation` instead of
    #: returning a report.
    validation: Optional[Dict[str, object]] = None
    #: How a surrogate-requested call was answered
    #: (``api.simulate(..., surrogate=True)``): ``{"mode": "surrogate",
    #: "tier": ..., "bands": {...}}`` for an estimate, or
    #: ``{"mode": "exact", "reason": ...}`` when the call fell back to
    #: the simulator.  None when the surrogate was never requested.
    surrogate: Optional[Dict[str, object]] = None
    #: Resolved options of the producing :func:`repro.api.simulate` call
    #: (backend, config, steps, observe/validate/surrogate flags, fault
    #: injection).  None for reports built outside the facade.
    options: Optional[Dict[str, object]] = None

    # -- delegating accessors ------------------------------------------
    @property
    def backend(self) -> str:
        """Hardware backend the run executed on (default when unknown)."""
        if self.options and self.options.get("backend"):
            return str(self.options["backend"])
        return "hmc-hetero"

    @property
    def config_name(self) -> str:
        return self.result.config_name

    @property
    def model_name(self) -> str:
        return self.result.model_name

    @property
    def steps(self) -> int:
        return self.result.steps

    @property
    def step_time_s(self) -> float:
        return self.result.step_time_s

    @property
    def makespan_s(self) -> float:
        return self.result.makespan_s

    @property
    def step_energy_j(self) -> float:
        return self.result.step_energy_j

    @property
    def step_dynamic_energy_j(self) -> float:
        return self.result.step_dynamic_energy_j

    @property
    def average_power_w(self) -> float:
        return self.result.average_power_w

    @property
    def device_busy_fraction(self) -> Dict[str, float]:
        return dict(self.result.device_busy_fraction or {})

    @property
    def bank_occupancy_hist_s(self) -> tuple:
        return tuple(self.result.bank_occupancy_hist_s or ())

    @property
    def queue_wait_s(self) -> Dict[str, float]:
        return dict(self.result.queue_wait_s or {})

    @property
    def selection(self) -> Optional[Dict]:
        return self.result.selection

    @property
    def metrics(self) -> Dict[str, float]:
        return dict(self.result.metrics or {})

    @property
    def faults(self) -> Optional[Dict]:
        """Fault/recovery log of a fault-injected run (None otherwise)."""
        return self.result.faults

    @property
    def fault_counts(self) -> Dict[str, int]:
        """Retry/degradation/re-selection totals (zeros when fault-free)."""
        if self.result.faults is None:
            return {
                "events": 0,
                "retries": 0,
                "degradations": 0,
                "reselections": 0,
            }
        return dict(self.result.faults["counts"])

    @property
    def has_timeline(self) -> bool:
        return self.timeline is not None and bool(self.timeline.entries)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict: flat summary plus the nested run record."""
        energy = self.result.energy
        return {
            "report_schema": REPORT_SCHEMA_VERSION,
            "model": self.model_name,
            "config": self.config_name,
            "steps": self.steps,
            "step_time_s": self.step_time_s,
            "makespan_s": self.makespan_s,
            "step_energy_j": self.step_energy_j,
            "step_dynamic_energy_j": self.step_dynamic_energy_j,
            "average_power_w": self.average_power_w,
            "energy_by_device_j": dict(sorted(energy.by_device.items())),
            "device_busy_fraction": self.device_busy_fraction,
            "bank_occupancy_hist_s": list(self.bank_occupancy_hist_s),
            "queue_wait_s": self.queue_wait_s,
            "selection": self.selection,
            "fault_counts": self.fault_counts,
            "validation": self.validation,
            "surrogate": self.surrogate,
            "options": self.options,
            "cache_stats": (
                dict(sorted(self.cache_stats.items()))
                if self.cache_stats is not None
                else None
            ),
            "run": self.result.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        version = data.get("report_schema")
        if version not in _READABLE_SCHEMAS:
            raise SimulationError(
                f"unsupported RunReport schema {version!r} "
                f"(expected one of {_READABLE_SCHEMAS})"
            )
        return cls(
            result=RunResult.from_dict(data["run"]),
            cache_stats=data.get("cache_stats"),
            validation=data.get("validation"),
            surrogate=data.get("surrogate"),
            options=data.get("options"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    # -- trace export --------------------------------------------------
    def trace_events(self) -> List[Dict]:
        """Chrome Trace Event dicts for this run's timeline."""
        if not self.has_timeline:
            raise SimulationError(
                "run has no timeline to trace; simulate with observe=True "
                "(repro.api.simulate) or record_timeline=True"
            )
        from .trace import build_trace_events

        return build_trace_events(
            self.timeline,
            selection=self.selection,
            cache_stats=self.cache_stats,
            process_name=f"{self.model_name} on {self.config_name}",
            faults=self.result.faults,
        )

    def save_trace(self, path: Union[str, Path]) -> int:
        """Write the Chrome/Perfetto trace to ``path``; returns event count."""
        from .trace import to_chrome_payload

        from ..experiments.common import write_atomic

        events = self.trace_events()
        payload = to_chrome_payload(
            events,
            other_data={
                "model": self.model_name,
                "config": self.config_name,
                "steps": self.steps,
            },
        )
        write_atomic(path, canonical_dumps(payload) + "\n")
        return len(events)
