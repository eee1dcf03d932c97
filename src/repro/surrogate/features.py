"""Feature extraction and analytic anchors for the cost surrogate.

One run — (graph, prepared policy, system config) — maps to a
:class:`FeatureBundle`:

* **anchors** — cheap analytic per-step estimates of each target, built
  from the vectorized engine's memoized cost table
  (:func:`repro.sim.optable.cost_table`): a greedy list-scheduling
  makespan over the per-op primary-placement durations (respecting tensor
  dependences, CPU slots, programmable-PIM gangs, fixed-pool
  serialization and GPU input staging), and the exact power model
  (:class:`repro.hardware.power.EnergyModel`) applied to
  table-approximated device usage.  The anchors are exact for the
  CPU/GPU baselines and within ~2x everywhere — the surrogate only
  learns the residual *scheduling friction*.
* **features** — log-domain physics quantities (lane work sums, bounds,
  critical path, traffic-over-bandwidth, policy flags) the ridge stage
  regresses the residual on.
* **key** — the calibration identity ``(graph name, policy family)``,
  where the family includes the hardware-backend name: friction is
  empirically stable within a key across frequency scales and PIM
  counts, so the model stores one learned correction per key — but two
  backends never share one (their scheduling friction differs even when
  a policy class is reused).

Everything is per *step*; the model scales by the requested step count.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Tuple

from ..config import SystemConfig
from ..hardware.power import DeviceUsage, EnergyModel
from ..nn.graph import Graph
from ..sim.optable import cost_table
from ..sim.policy import SchedulingPolicy

#: Canonical lane of each placement token: hybrid kernels contend on the
#: fixed-function pool (same map as the engine's parking lanes).
_LANE = {
    "cpu": "cpu",
    "gpu": "gpu",
    "prog": "prog",
    "fixed": "fixed",
    "hybrid": "fixed",
    "hybrid_host": "fixed",
}

#: Tiny additive guard so empty lanes stay finite in log space.
_EPS = 1e-12

FEATURE_NAMES = (
    "log_n_ops",
    "log_total_flops",
    "log_total_mac_flops",
    "log_total_bytes",
    "log_lane_cpu_s",
    "log_lane_gpu_s",
    "log_lane_prog_s",
    "log_lane_fixed_s",
    "log_bottleneck_s",
    "log_cpath_s",
    "log_anchor_s",
    "frac_cpu",
    "frac_gpu",
    "frac_prog",
    "frac_fixed",
    "log_stack_traffic_s",
    "log_staging_s",
    "log_pim_freq_hz",
    "log_prog_pims",
    "cpu_slots",
    "uses_gpu",
    "recursive_kernels",
    "operation_pipeline",
    "pipeline_depth",
    "prog_gang_limit",
    "fault_events",
)

#: Per-step targets every bundle anchors (the model's mandatory heads
#: plus the optional pool-utilization head).
ANCHOR_TARGETS = (
    "step_time_s",
    "step_dynamic_energy_j",
    "step_total_energy_j",
    "fixed_pim_utilization",
)


@dataclass(frozen=True)
class FeatureBundle:
    """Featurization of one run: ridge inputs + anchors + calibration key."""

    features: Tuple[float, ...]
    #: Per-step analytic anchor per target (always positive).
    anchors: Dict[str, float]
    #: Calibration identity: (graph name, policy-family tuple).
    key: Tuple
    #: Policy family alone (fallback tier for unseen graphs).
    family: Tuple


def _log(x: float) -> float:
    return math.log(x + _EPS)


def prepare_policy(
    graph: Graph, policy: SchedulingPolicy, system: SystemConfig
) -> None:
    """Validate + prepare ``policy`` exactly as the simulator would.

    ``prepare`` runs through process-wide memoizers (profiling, candidate
    selection), so repeated calls on the same (graph, config) are free.
    """
    policy.validate()
    policy.prepare(graph, system)


#: Replica-count pattern in merged co-run graph names ("vgg-19+128xword2vec").
_REPLICA_COUNT = re.compile(r"\+\d+x")


def calibration_name(graph_name: str) -> str:
    """Graph identity at calibration grain.

    Merged co-run graphs are parameterized by their tenant replica count
    ``k`` (``cnn+<k>x<tenant>``); the anchors already scale with the
    actual replicated work, so scheduling friction is shared across ``k``
    and all counts calibrate as one key — a surrogate-mode query whose
    ``k`` drifts by a step from the trained one still hits its key.
    """
    return _REPLICA_COUNT.sub("+*x", graph_name)


def policy_family(policy: SchedulingPolicy) -> Tuple:
    """Behavioral family of a policy: stable across frequency scales,
    stack/PIM counts and graph choice — the grain at which scheduling
    friction is calibrated."""
    return (
        type(policy).__name__,
        bool(policy.uses_gpu),
        bool(policy.recursive_kernels),
        bool(policy.operation_pipeline),
        int(policy.pipeline_depth),
        int(policy.prog_gang_limit),
        int(policy.cpu_slots),
    )


def featurize(
    graph: Graph,
    policy: SchedulingPolicy,
    system: SystemConfig,
    faults=None,
) -> FeatureBundle:
    """Featurize one run (policy must be prepared)."""
    table = cost_table(graph, policy, system)

    ops = list(graph.ops)
    slots = max(1, policy.cpu_slots)
    n_pims = max(1, system.prog_pim.n_pims)

    # -- one pass: lane work, usage approximation, critical path, and a
    #    greedy list schedule (earliest-free resource per primary lane) --
    lane_work = {"cpu": 0.0, "gpu": 0.0, "prog": 0.0, "fixed": 0.0}
    total_flops = 0.0
    total_mac_flops = 0.0
    total_bytes = 0.0
    fixed_macs = 0.0
    prog_pim_s = 0.0
    external_bytes = 0.0
    internal_bytes = 0.0
    gpu_bytes = 0.0
    staging_s = table.staging_s if table.staging_s is not None else 0.0

    cpu_free = [0.0] * slots
    prog_free = [0.0] * n_pims
    gpu_free = 0.0
    pool_free = 0.0
    producer: Dict[str, object] = {}
    for op in ops:
        for out in op.outputs:
            producer[out] = op
    finish: Dict[int, float] = {}
    cpath: Dict[int, float] = {}
    makespan = 0.0
    longest_path = 0.0

    entries = table.entries
    for op in ops:
        oid = id(op)
        cost = op.cost
        total_flops += cost.mac_flops + cost.other_flops
        total_mac_flops += cost.mac_flops
        total_bytes += cost.bytes_in + cost.bytes_out

        row, op_places, _, _ = entries[oid]
        primary = op_places[0] if op_places else "cpu"
        dur = table.estimate(primary, op, 1.0)
        gang = row.gang if primary == "prog" else 1
        lane = _LANE.get(primary, "cpu")
        lane_work[lane] += dur * gang

        traffic = op.traffic_bytes
        if primary == "cpu":
            external_bytes += traffic
        elif primary == "gpu":
            gpu_bytes += traffic
        else:
            internal_bytes += traffic
        if primary in ("fixed", "hybrid", "hybrid_host"):
            fixed_macs += cost.macs
        if primary == "prog":
            prog_pim_s += dur * gang

        ready = staging_s if primary == "gpu" else 0.0
        depth = 0.0
        for name in op.inputs:
            prev = producer.get(name)
            if prev is not None:
                pid = id(prev)
                done = finish.get(pid)
                if done is not None and done > ready:
                    ready = done
                prev_depth = cpath.get(pid, 0.0)
                if prev_depth > depth:
                    depth = prev_depth
        cpath[oid] = depth + dur
        if cpath[oid] > longest_path:
            longest_path = cpath[oid]

        if primary == "cpu":
            idx = min(range(slots), key=cpu_free.__getitem__)
            start = max(ready, cpu_free[idx])
            cpu_free[idx] = start + dur
        elif primary == "gpu":
            start = max(ready, gpu_free)
            gpu_free = start + dur
        elif primary == "prog":
            width = min(gang, n_pims)
            prog_free.sort()
            start = max(ready, prog_free[width - 1])
            done = start + dur
            for k in range(width):
                prog_free[k] = done
        else:  # fixed / hybrid / hybrid_host serialize on the pool
            start = max(ready, pool_free)
            pool_free = start + dur
        finish[oid] = start + dur
        if finish[oid] > makespan:
            makespan = finish[oid]

    bounds = {
        "cpu": lane_work["cpu"] / slots,
        "gpu": lane_work["gpu"] + staging_s,
        "prog": lane_work["prog"] / n_pims,
        "fixed": lane_work["fixed"],
    }
    bottleneck = max(bounds.values())
    anchor_time = max(makespan, bottleneck, longest_path, _EPS)

    usage = DeviceUsage(
        cpu_busy_s=lane_work["cpu"],
        gpu_busy_s=lane_work["gpu"],
        fixed_unit_busy_s=0.0,
        fixed_macs=fixed_macs,
        prog_busy_s=prog_pim_s,
        external_bytes=external_bytes,
        internal_bytes=internal_bytes,
        gpu_bytes=gpu_bytes,
    )
    energy = EnergyModel(system, gpu_present=policy.uses_gpu).energy(
        usage, anchor_time
    )
    anchors = {
        "step_time_s": anchor_time,
        "step_dynamic_energy_j": max(energy.dynamic_total_j, _EPS),
        "step_total_energy_j": max(energy.total_j, _EPS),
        # pool-busy fraction of the step; the per-key calibration turns
        # this coarse shape into the simulator's unit-level utilization
        "fixed_pim_utilization": min(
            1.0, max(lane_work["fixed"] / anchor_time, _EPS)
        ),
    }

    total_work = sum(lane_work.values()) or 1.0
    stack_traffic_s = (
        sum(op.traffic_bytes for op in ops) / system.stack.bandwidth
    )
    features = (
        _log(float(len(ops))),
        _log(total_flops),
        _log(total_mac_flops),
        _log(total_bytes),
        _log(lane_work["cpu"]),
        _log(lane_work["gpu"]),
        _log(lane_work["prog"]),
        _log(lane_work["fixed"]),
        _log(bottleneck),
        _log(longest_path),
        _log(anchor_time),
        lane_work["cpu"] / total_work,
        lane_work["gpu"] / total_work,
        lane_work["prog"] / total_work,
        lane_work["fixed"] / total_work,
        _log(stack_traffic_s),
        _log(staging_s),
        _log(system.pim_frequency_hz),
        _log(float(n_pims)),
        float(slots),
        float(bool(policy.uses_gpu)),
        float(bool(policy.recursive_kernels)),
        float(bool(policy.operation_pipeline)),
        float(policy.pipeline_depth),
        float(policy.prog_gang_limit),
        float(_fault_event_count(faults)),
    )
    # the backend name joins the family so calibration never crosses
    # hardware backends, even where a policy class is reused
    family = (system.backend,) + policy_family(policy)
    return FeatureBundle(
        features=features,
        anchors=anchors,
        key=(calibration_name(graph.name),) + family,
        family=family,
    )


def _fault_event_count(faults) -> int:
    """Number of injected fault events in a spec (0 for fault-free)."""
    if faults is None:
        return 0
    events = getattr(faults, "events", None)
    if events is not None:
        return len(events)
    return 1  # unknown spec shape: at least flag the run as faulted
