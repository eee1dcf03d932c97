"""Offload-candidate selection (paper section III-C, step 1).

After profiling one step on the CPU, the runtime:

1. sorts operations by execution time (descending) and by main-memory
   accesses (descending), giving each operation two rank indexes;
2. sums the two indexes into a *global index* per operation;
3. sorts operations by global index (ascending — lower is hotter) and
   selects the top operations until they cover x% of the step's execution
   time (x = 90 in the paper's evaluation).

The result is the candidate set of operations that are simultaneously
time-consuming and memory-intensive — the ones worth moving into memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..errors import SchedulingError
from ..profiling.profiler import WorkloadProfile

#: Selection works at operation granularity — the granularity of Table I
#: and of the runtime's scheduling decisions: all invocations of one
#: operation type share kernels, binaries and characteristics, so a type
#: is offloaded as a whole ("all steps almost have the same classes of
#: operations; performance of operations remains stable across steps").


@dataclass(frozen=True)
class RankedOp:
    """One operation type with its selection ranks."""

    op_type: str
    time_s: float
    memory_bytes: int
    invocations: int
    time_rank: int
    memory_rank: int

    @property
    def global_index(self) -> int:
        return self.time_rank + self.memory_rank


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of the candidate-selection algorithm."""

    #: Operation *types* selected for offloading.
    candidate_types: FrozenSet[str]
    #: Operation instance names covered by the selected types.
    candidates: FrozenSet[str]
    ranked: Tuple[RankedOp, ...]
    time_coverage: float
    target_coverage: float

    def is_candidate(self, op_name: str) -> bool:
        return op_name in self.candidates

    def to_dict(self) -> dict:
        """JSON-ready offload-decision log (deterministic order).

        One record per profiled operation type, in global-index order, with
        the two rank indexes behind each decision — the observability
        layer's view of section III-C's selection step.
        """
        return {
            "target_coverage": self.target_coverage,
            "time_coverage": self.time_coverage,
            "candidate_types": sorted(self.candidate_types),
            "decisions": [
                {
                    "op_type": r.op_type,
                    "time_s": r.time_s,
                    "memory_bytes": r.memory_bytes,
                    "invocations": r.invocations,
                    "time_rank": r.time_rank,
                    "memory_rank": r.memory_rank,
                    "global_index": r.global_index,
                    "selected": r.op_type in self.candidate_types,
                }
                for r in self.ranked
            ],
        }


def rank_operations(profile: WorkloadProfile) -> List[RankedOp]:
    """Compute per-type time/memory ranks and global indexes.

    Both source lists are sorted in descending order (hotter = smaller
    index), and the global index is the sum of the two ranks, exactly as
    section III-C describes.
    """
    types = list(profile.by_type)
    # equal-cost types tie-break lexicographically on op_type: the ranks
    # (and therefore the candidate set) must not depend on profile
    # insertion order, which varies with dict/topological ordering
    by_time = sorted(types, key=lambda t: (-t.time_s, t.op_type))
    by_mem = sorted(types, key=lambda t: (-t.memory_bytes, t.op_type))
    time_rank = {t.op_type: i for i, t in enumerate(by_time)}
    mem_rank = {t.op_type: i for i, t in enumerate(by_mem)}
    ranked = [
        RankedOp(
            op_type=t.op_type,
            time_s=t.time_s,
            memory_bytes=t.memory_bytes,
            invocations=t.invocations,
            time_rank=time_rank[t.op_type],
            memory_rank=mem_rank[t.op_type],
        )
        for t in types
    ]
    ranked.sort(key=lambda r: (r.global_index, -r.time_s, r.op_type))
    return ranked


def select_candidates(
    profile: WorkloadProfile, coverage: float = 0.90
) -> SelectionResult:
    """Select offload candidates covering ``coverage`` of step time."""
    if not 0 < coverage <= 1.0:
        raise SchedulingError(f"coverage must be in (0, 1], got {coverage}")
    ranked = rank_operations(profile)
    total_time = profile.step_time_s
    chosen_types: List[str] = []
    acc = 0.0
    for r in ranked:
        if total_time > 0 and acc / total_time >= coverage:
            break
        chosen_types.append(r.op_type)
        acc += r.time_s
    achieved = acc / total_time if total_time > 0 else 0.0
    type_set = frozenset(chosen_types)
    names = frozenset(
        p.op_name for p in profile.per_op if p.op_type in type_set
    )
    return SelectionResult(
        candidate_types=type_set,
        candidates=names,
        ranked=tuple(ranked),
        time_coverage=achieved,
        target_coverage=coverage,
    )

