"""Runtime system: profiling-driven scheduling, RC and OP (section III-C)."""

from .registers import RegisterFile, UtilizationRegisters
from .scheduler import HeteroPimPolicy
from .selection import RankedOp, SelectionResult, rank_operations, select_candidates

__all__ = [
    "HeteroPimPolicy",
    "RankedOp",
    "RegisterFile",
    "SelectionResult",
    "UtilizationRegisters",
    "rank_operations",
    "select_candidates",
]
