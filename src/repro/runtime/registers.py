"""Hardware utilization registers (paper Figure 7).

The architecture exposes one idle/busy register per bank of fixed-function
PIMs plus one for the programmable PIM, letting the software scheduler
"query the completion of any computation and decide the idleness of
processing units" without interrupting the devices.  This module is the
software view over the bank registers: it maps the pool's aggregate busy
count onto per-bank bits through the thermal-aware placement.  The
programmable-PIM register is not modeled: the scheduler reads the
programmable PIM's free slots directly (see DESIGN.md section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Set

from ..errors import HardwareConfigError
from ..hardware.fixed_pim import FixedPIMPool
from ..hardware.placement import Placement


@dataclass(frozen=True)
class RegisterFile:
    """One snapshot of the bank idle registers."""

    bank_busy: List[bool]

    @property
    def any_fixed_idle(self) -> bool:
        return not all(self.bank_busy)


class UtilizationRegisters:
    """Live bank-register view over the fixed-function pool.

    Units are assumed filled bank-by-bank in placement order (the runtime
    maps kernels to units co-located with their data; the register file is
    a conservative busy summary at bank granularity).  Fault losses count
    as occupied capacity: a lost unit can never be idle.

    Each bank therefore reads busy exactly when the pool's *occupancy*
    (``busy_units + lost_units``) reaches that bank's threshold:

    * a healthy bank with units: the prefix sum of bank capacities through
      it, in placement order;
    * a failed bank: 0 (latched busy);
    * a healthy bank with no units: infinity (never busy).

    Some bank is idle iff ``occupancy < all_busy_at``, the largest
    threshold, which changes only when a bank fails: the scheduler's
    admission check is that one comparison.
    """

    def __init__(self, pool: FixedPIMPool, placement: Placement):
        if placement.total_units != pool.n_units:
            raise HardwareConfigError(
                f"placement covers {placement.total_units} units, pool has "
                f"{pool.n_units}"
            )
        self._pool = pool
        capacities = placement.units_per_bank
        self._thresholds: List[float] = [
            through if capacity else float("inf")
            for capacity, through in zip(capacities, accumulate(capacities))
        ]
        #: Occupancy at which every bank reads busy.
        self.all_busy_at: float = max(self._thresholds)

    def mark_bank_failed(self, bank_index: int) -> None:
        """Latch a bank's register as permanently busy (fault injection)."""
        if not 0 <= bank_index < len(self._thresholds):
            raise HardwareConfigError(
                f"bank {bank_index} not covered by the placement"
            )
        self._thresholds[bank_index] = 0
        self.all_busy_at = max(self._thresholds)

    @property
    def failed_banks(self) -> Set[int]:
        # a healthy bank's threshold is never 0
        return {i for i, t in enumerate(self._thresholds) if t == 0}

    def _occupancy(self) -> int:
        """Units that cannot be idle: busy plus lost to faults."""
        pool = self._pool
        return pool.busy_units + pool.lost_units

    def snapshot(self) -> RegisterFile:
        occupancy = self._occupancy()
        return RegisterFile(bank_busy=[occupancy >= t for t in self._thresholds])

    def idle_bank_count(self) -> int:
        occupancy = self._occupancy()
        return sum(1 for t in self._thresholds if occupancy < t)
