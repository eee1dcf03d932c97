"""Runtime fault injection against a live :class:`~repro.sim.simulation.Simulation`.

The :class:`FaultInjector` schedules every event of a
:class:`~repro.faults.spec.FaultSpec` on the simulation's event engine and
applies it to the hardware models:

* bank failures and unit losses shrink the fixed-function pool (revoking
  in-flight sub-kernels, which the scheduler then retries or degrades);
* thermal throttles derate the pool's effective frequency, weighted by
  how many units the thermal-aware placement put into the affected zone;
* programmable-PIM losses shrink the prog cluster (waiting complex phases
  fall back to the CPU);
* DRAM derates scale the in-stack bandwidth seen by streaming phases.

It also owns the idle/busy register file the scheduler consults while
faults are active, and the run's fault/recovery log.  The result record
(``RunResult.faults``) gets the injected events, the offload
re-selections and the count of every record kind.  The per-task retries
and degradations go to the simulation's
:class:`~repro.sim.timeline.Timeline` when it records one, where the
Chrome trace's fault lane reads them; a cached result stays proportional
to the injected events, not to the tasks.

The simulation holds its injector, so the injector keeps no reference to
the simulation: each scheduled event carries it as an argument instead,
and a finished run leaves no reference cycle behind.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List

from ..hardware.hmc import StackGeometry
from ..hardware.placement import Placement, place_fixed_pims
from ..runtime.registers import UtilizationRegisters
from .spec import (
    BankFailure,
    DramDerate,
    FaultSpec,
    ProgPimLoss,
    ThermalThrottle,
    UnitLoss,
)


class FaultInjector:
    """Applies one :class:`FaultSpec` to one simulation, deterministically."""

    def __init__(self, spec: FaultSpec, sim):
        self.spec = spec
        self.events_log: List[Dict[str, object]] = []
        self.reselections: List[Dict[str, object]] = []
        self.n_retries = 0
        self.n_degradations = 0
        self._timeline = sim.timeline
        self._throttles: Dict[int, float] = {}
        self._derates: Dict[int, float] = {}
        geometry = StackGeometry(sim.config.stack)
        self.geometry = geometry
        self.placement: Placement = place_fixed_pims(
            geometry, sim.config.fixed_pim.n_units
        )
        self.registers = UtilizationRegisters(sim.fixed.pool, self.placement)
        for index, event in enumerate(spec.events):
            sim.engine.at(event.time_s, partial(self._apply, sim, index, event))

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _apply(self, sim, index: int, event) -> None:
        now = sim.engine.now
        if isinstance(event, BankFailure):
            self._apply_bank_failure(sim, index, event, now)
        elif isinstance(event, UnitLoss):
            applied = self._lose_fixed_units(sim, event.units)
            self._log_event(index, event, now, applied)
        elif isinstance(event, ThermalThrottle):
            self._apply_thermal(sim, index, event, now)
        elif isinstance(event, ProgPimLoss):
            lost = sim._on_prog_lost(event.pims)
            self._log_event(index, event, now, {"pims_lost": lost})
        elif isinstance(event, DramDerate):
            self._apply_dram(sim, index, event, now)
        else:  # pragma: no cover - spec validation rejects unknown kinds
            raise AssertionError(f"unhandled fault event {event!r}")

    def _log_event(self, index: int, event, now: float, applied: Dict) -> None:
        entry: Dict[str, object] = {
            "index": index,
            "t_s": now,
            "kind": event.kind,
            "applied": applied,
        }
        self.events_log.append(entry)

    def _apply_bank_failure(
        self, sim, index: int, event: BankFailure, now: float
    ) -> None:
        bank = event.bank % len(self.placement.units_per_bank)
        if bank in self.registers.failed_banks:
            self._log_event(
                index, event, now, {"bank": bank, "units_lost": 0, "revoked": []}
            )
            return
        self.registers.mark_bank_failed(bank)
        units = self.placement.units_in(bank)
        applied = {"bank": bank}
        if units > 0:
            applied.update(self._lose_fixed_units(sim, units))
        else:
            applied.update({"units_lost": 0, "revoked": []})
        self._log_event(index, event, now, applied)

    def _lose_fixed_units(self, sim, units: int) -> Dict[str, object]:
        """Shrink the pool; the simulation retries/degrades revoked work."""
        before = sim.fixed.pool.capacity_units
        revoked = sim.fixed.lose_units(units)
        lost = before - sim.fixed.pool.capacity_units
        sim._recompute_placements()
        sim._schedule_drain()
        return {"units_lost": lost, "revoked": sorted(revoked)}

    def _apply_thermal(
        self, sim, index: int, event: ThermalThrottle, now: float
    ) -> None:
        zone_units = sum(
            self.placement.units_in(bank.index)
            for bank in self.geometry.banks
            if bank.zone.value == event.zone
        )
        share = zone_units / sim.fixed.pool.n_units
        effective = 1.0 - (1.0 - event.factor) * share
        self._throttles[index] = effective
        self._update_pool_speed(sim)
        self._log_event(
            index,
            event,
            now,
            {"zone_units": zone_units, "effective_factor": effective},
        )
        sim.engine.at(
            event.time_s + event.duration_s,
            partial(self._restore_thermal, sim, index, event),
        )

    def _restore_thermal(self, sim, index: int, event: ThermalThrottle) -> None:
        self._throttles.pop(index, None)
        self._update_pool_speed(sim)
        self._log_event(index, event, sim.engine.now, {"restored": True})

    def _update_pool_speed(self, sim) -> None:
        speed = 1.0
        for factor in self._throttles.values():
            speed *= factor
        sim.fixed.set_speed(speed)

    def _apply_dram(self, sim, index: int, event: DramDerate, now: float) -> None:
        self._derates[index] = event.factor
        self._update_dram_scale(sim)
        self._log_event(index, event, now, {"factor": event.factor})
        sim.engine.at(
            event.time_s + event.duration_s,
            partial(self._restore_dram, sim, index, event),
        )

    def _restore_dram(self, sim, index: int, event: DramDerate) -> None:
        self._derates.pop(index, None)
        self._update_dram_scale(sim)
        self._log_event(index, event, sim.engine.now, {"restored": True})

    def _update_dram_scale(self, sim) -> None:
        scale = 1.0
        for factor in self._derates.values():
            scale *= factor
        sim._dram_scale = scale  # read by newly issued streaming phases

    # ------------------------------------------------------------------
    # recovery log (fed by the scheduler)
    # ------------------------------------------------------------------
    def log_retry(self, now: float, uid: str, attempt: int, delay_s: float) -> None:
        self.n_retries += 1
        if self._timeline is not None:
            self._timeline.retries.append(
                {"t_s": now, "uid": uid, "attempt": attempt, "delay_s": delay_s}
            )

    def log_degradation(self, now: float, uid: str, frm: str, to: str) -> None:
        self.n_degradations += 1
        if self._timeline is not None:
            self._timeline.degradations.append(
                {"t_s": now, "uid": uid, "from": frm, "to": to}
            )

    def log_reselection(self, now: float, retargeted: int) -> None:
        self.reselections.append({"t_s": now, "retargeted": retargeted})

    # ------------------------------------------------------------------
    # result payload
    # ------------------------------------------------------------------
    def to_result_dict(self) -> Dict[str, object]:
        """JSON-ready fault/recovery log stored on :class:`RunResult`."""
        return {
            "spec": self.spec.to_dict(),
            "events": list(self.events_log),
            "reselections": list(self.reselections),
            "counts": {
                "events": len(self.events_log),
                "retries": self.n_retries,
                "degradations": self.n_degradations,
                "reselections": len(self.reselections),
            },
        }

    def publish_metrics(self, registry) -> None:
        registry.gauge("faults.events").set(len(self.events_log))
        registry.gauge("faults.retries").set(self.n_retries)
        registry.gauge("faults.degradations").set(self.n_degradations)
        registry.gauge("faults.reselections").set(len(self.reselections))
