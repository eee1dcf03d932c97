"""Simulation result records and their canonical serialization.

:class:`RunResult` is the cached unit of simulation output.  It carries,
besides the paper's headline metrics, the always-on observability
aggregates (per-device busy fractions, the fixed-pool occupancy histogram,
queue-wait totals, the offload-decision log and a flat metrics snapshot) —
they are collected unconditionally because cached results must be
indistinguishable from fresh ones whatever the caller's observability
settings.

Serialization is versioned and canonical: :meth:`RunResult.to_dict` /
:meth:`RunResult.from_dict` round-trip exactly (floats survive via
``repr``-based JSON), and :func:`canonical_dumps` renders any JSON payload
with sorted keys and fixed separators so the same record always produces
the same bytes.  The result cache (:mod:`repro.sim.cache`), the
:class:`~repro.obs.report.RunReport` facade and the benchmark harness's
``BENCH_summary.json`` all serialize through this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import SimulationError
from ..hardware.power import DeviceUsage, EnergyBreakdown
from .activity import TimeBreakdown

#: Version tag embedded in every serialized result; bump when the schema
#: changes shape (loaders reject unknown versions instead of guessing).
#: v3: added the ``faults`` fault/recovery log (None on fault-free runs).
RESULT_SCHEMA_VERSION = 3


def canonical_dumps(payload, indent: Optional[int] = None) -> str:
    """Deterministic JSON: sorted keys, fixed separators, exact floats."""
    if indent is None:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return json.dumps(payload, sort_keys=True, indent=indent)


@dataclass(frozen=True)
class RunResult:
    """Outcome of simulating one workload on one configuration.

    All "per-step" quantities are steady-state estimates over the measured
    steps (the paper reports per-training-step time and energy).
    """

    config_name: str
    model_name: str
    steps: int
    makespan_s: float
    step_time_s: float
    breakdown: TimeBreakdown
    usage: DeviceUsage
    energy: EnergyBreakdown
    fixed_pim_utilization: float
    events_processed: int
    #: Per-model step completion times for co-run (mixed-workload) runs.
    per_model_step_time_s: Optional[Dict[str, float]] = None
    #: Fraction of capacity-time each device spent busy (0..1), keyed by
    #: device lane ("cpu", "gpu", "prog", "fixed"); absent lanes omitted.
    device_busy_fraction: Optional[Dict[str, float]] = None
    #: Time-at-occupancy histogram of the fixed-function pool (the paper's
    #: bank-level MAC units): seconds spent idle (bin 0) or with busy-unit
    #: fraction in each of 16 equal bins (bins 1..16).  Sums to makespan.
    bank_occupancy_hist_s: Optional[Tuple[float, ...]] = None
    #: Total ready-to-start queueing delay accumulated per device lane.
    queue_wait_s: Optional[Dict[str, float]] = None
    #: Offload-decision log from the scheduling policy (candidate ranks,
    #: coverage), when the policy performs profile-driven selection.
    selection: Optional[Dict[str, object]] = None
    #: Flat observability snapshot (engine/scheduler/pool counters).
    metrics: Optional[Dict[str, float]] = None
    #: Fault/recovery log when the run was fault-injected (None otherwise):
    #: spec, injected events, re-selections and ``counts`` of every record
    #: kind.  Per-task retries and degradations are not stored here; a
    #: run that records a timeline keeps them on ``Timeline.retries`` and
    #: ``Timeline.degradations``.
    faults: Optional[Dict[str, object]] = None

    @property
    def step_breakdown(self) -> TimeBreakdown:
        """Breakdown normalized to one training step (Figure 8 bar)."""
        if self.breakdown.total_s <= 0 or self.makespan_s <= 0:
            return self.breakdown
        return self.breakdown.scaled(self.step_time_s / self.makespan_s)

    @property
    def step_energy_j(self) -> float:
        """Total energy per training step."""
        return self.energy.total_j / self.steps

    @property
    def step_dynamic_energy_j(self) -> float:
        """Dynamic (+memory) energy per step — the Figure 9 quantity."""
        return self.energy.dynamic_total_j / self.steps

    @property
    def average_power_w(self) -> float:
        return self.energy.average_power_w

    def edp(self) -> float:
        """Per-step energy-delay product (Figure 17a metric)."""
        return self.step_energy_j * self.step_time_s

    # ------------------------------------------------------------------
    # versioned serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dict; exact round trip via :meth:`from_dict`."""
        return {
            "schema": RESULT_SCHEMA_VERSION,
            "config_name": self.config_name,
            "model_name": self.model_name,
            "steps": self.steps,
            "makespan_s": self.makespan_s,
            "step_time_s": self.step_time_s,
            "breakdown": self.breakdown.to_dict(),
            "usage": self.usage.to_dict(),
            "energy": self.energy.to_dict(),
            "fixed_pim_utilization": self.fixed_pim_utilization,
            "events_processed": self.events_processed,
            "per_model_step_time_s": (
                dict(sorted(self.per_model_step_time_s.items()))
                if self.per_model_step_time_s is not None
                else None
            ),
            "device_busy_fraction": (
                dict(sorted(self.device_busy_fraction.items()))
                if self.device_busy_fraction is not None
                else None
            ),
            "bank_occupancy_hist_s": (
                list(self.bank_occupancy_hist_s)
                if self.bank_occupancy_hist_s is not None
                else None
            ),
            "queue_wait_s": (
                dict(sorted(self.queue_wait_s.items()))
                if self.queue_wait_s is not None
                else None
            ),
            "selection": self.selection,
            "metrics": (
                {
                    k: list(v) if isinstance(v, (list, tuple)) else v
                    for k, v in sorted(self.metrics.items())
                }
                if self.metrics is not None
                else None
            ),
            "faults": self.faults,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunResult":
        version = data.get("schema")
        if version != RESULT_SCHEMA_VERSION:
            raise SimulationError(
                f"unsupported RunResult schema {version!r} "
                f"(expected {RESULT_SCHEMA_VERSION})"
            )
        hist = data.get("bank_occupancy_hist_s")
        metrics = data.get("metrics")
        if metrics is not None:
            metrics = dict(metrics)
            for key, value in metrics.items():
                if isinstance(value, list):
                    metrics[key] = tuple(value)
        # Filled through ``__dict__``: the frozen ``__init__`` would pay
        # one ``object.__setattr__`` per field on every warm cache hit.
        # The instance is as frozen as any other.
        fields = {
            "config_name": data["config_name"],
            "model_name": data["model_name"],
            "steps": data["steps"],
            "makespan_s": data["makespan_s"],
            "step_time_s": data["step_time_s"],
            "breakdown": TimeBreakdown.from_dict(data["breakdown"]),
            "usage": DeviceUsage.from_dict(data["usage"]),
            "energy": EnergyBreakdown.from_dict(data["energy"]),
            "fixed_pim_utilization": data["fixed_pim_utilization"],
            "events_processed": data["events_processed"],
            "per_model_step_time_s": data.get("per_model_step_time_s"),
            "device_busy_fraction": data.get("device_busy_fraction"),
            "bank_occupancy_hist_s": tuple(hist) if hist is not None else None,
            "queue_wait_s": data.get("queue_wait_s"),
            "selection": data.get("selection"),
            "metrics": metrics,
            "faults": data.get("faults"),
        }
        result = object.__new__(cls)
        object.__setattr__(result, "__dict__", fields)
        return result

    def to_json(self, indent: Optional[int] = None) -> str:
        return canonical_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
