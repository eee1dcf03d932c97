"""3D die-stacked memory geometry (HMC 2.0, paper section V-A).

The stack exposes 32 banks (vertical slices); the logic die under them
hosts the heterogeneous PIMs.  Banks are arranged in a rectangular grid for
thermal-placement purposes (paper section IV-D / Figure 3a).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

from ..config import StackConfig
from ..errors import HardwareConfigError


class BankZone(enum.Enum):
    """Thermal zone of a bank in the logic-die grid.

    Corner and edge banks have better heat-dissipation paths than central
    banks and therefore sustain higher compute density (section IV-D).
    """

    CORNER = "corner"
    EDGE = "edge"
    CENTER = "center"


@dataclass(frozen=True)
class BankGeometry:
    """Grid position and thermal zone of one bank."""

    index: int
    row: int
    col: int
    zone: BankZone


@dataclass(frozen=True)
class StackGeometry:
    """Bank layout of the stack's logic die.

    Args:
        config: Stack parameters (bank count, clocks, bandwidth).
        rows / cols: Logic-die grid arrangement; must multiply to the bank
            count (default 4 x 8 = 32).
    """

    config: StackConfig
    rows: int = 4
    cols: int = 8

    def __post_init__(self) -> None:
        if self.rows * self.cols != self.config.banks:
            raise HardwareConfigError(
                f"grid {self.rows}x{self.cols} != {self.config.banks} banks"
            )

    def bank(self, index: int) -> BankGeometry:
        if not 0 <= index < self.config.banks:
            raise HardwareConfigError(
                f"bank index {index} out of range 0..{self.config.banks - 1}"
            )
        row, col = divmod(index, self.cols)
        return BankGeometry(index=index, row=row, col=col, zone=self._zone(row, col))

    def _zone(self, row: int, col: int) -> BankZone:
        on_row_edge = row in (0, self.rows - 1)
        on_col_edge = col in (0, self.cols - 1)
        if on_row_edge and on_col_edge:
            return BankZone.CORNER
        if on_row_edge or on_col_edge:
            return BankZone.EDGE
        return BankZone.CENTER

    @property
    def banks(self) -> List[BankGeometry]:
        return [self.bank(i) for i in range(self.config.banks)]

    def zone_counts(self) -> Tuple[int, int, int]:
        """(corners, edges, centers) bank counts."""
        zones = [b.zone for b in self.banks]
        return (
            zones.count(BankZone.CORNER),
            zones.count(BankZone.EDGE),
            zones.count(BankZone.CENTER),
        )
