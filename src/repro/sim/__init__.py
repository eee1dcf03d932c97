"""Discrete-event, trace-driven simulator (paper section V-A).

Run simulations through :func:`repro.api.simulate`, with a model name or
a built :class:`~repro.nn.graph.Graph`; it returns a
:class:`~repro.obs.report.RunReport`.  :func:`repro.sim.cache.simulate_cached`
and :func:`repro.sim.cache.simulate_fresh` (the one place a
:class:`Simulation` is built and run) are the layers beneath that facade.
"""

from .activity import COMPUTE, DATA_MOVEMENT, SYNC, ActivityTracker, TimeBreakdown
from .devices import FixedPoolExecutor, SlotDevice
from .engine import Engine, EventHandle
from .policy import PLACEMENTS, SchedulingPolicy
from .results import RESULT_SCHEMA_VERSION, RunResult, canonical_dumps
from .simulation import Simulation
from .tracegen import TaskSpec, compile_kernels, generate_trace, task_uid, trace_stats

__all__ = [
    "ActivityTracker",
    "COMPUTE",
    "DATA_MOVEMENT",
    "Engine",
    "EventHandle",
    "FixedPoolExecutor",
    "PLACEMENTS",
    "RESULT_SCHEMA_VERSION",
    "RunResult",
    "SYNC",
    "SchedulingPolicy",
    "Simulation",
    "SlotDevice",
    "TaskSpec",
    "TimeBreakdown",
    "canonical_dumps",
    "compile_kernels",
    "generate_trace",
    "task_uid",
    "trace_stats",
]
