"""Chrome Trace Event Format export of schedule timelines.

Upgrades the simulator's :class:`~repro.sim.timeline.Timeline` into a JSON
document loadable by ``chrome://tracing`` and https://ui.perfetto.dev:

* one complete (``"ph": "X"``) event per executed task, laned by device in
  :data:`~repro.sim.timeline.DEVICE_ORDER` order (devices with no tasks —
  e.g. the GPU on PIM configurations — get no lane);
* queue-wait intervals on a per-device ``<device> queue`` lane, making
  dependency-ready-but-device-busy time visible;
* instant events for the runtime's offload decisions (section III-C
  candidate selection) and counter events for simulation-cache hit/miss
  statistics when provided.

Timestamps are microseconds (the format's native unit).  Event order is
deterministic: metadata first, then strictly sorted by ``(ts, tid, name)``
— re-exporting the same run yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..sim.results import canonical_dumps
from ..sim.timeline import DEVICE_ORDER, Timeline, TimelineEntry

#: Version tag recorded in the exported document's ``otherData``.
CHROME_TRACE_SCHEMA = 1

#: Single simulated process id for all lanes.
_PID = 1

#: tid offset of the per-device queue-wait lanes.
_QUEUE_TID_OFFSET = 100

#: tid of the fault-injection lane (fault events, retries, degradations).
_FAULT_TID = 90

#: tid of the serve-daemon request-lifecycle lane (queue wait + execution
#: spans per accepted ``POST /v1/simulate``) and its queue sub-lane.
_REQUEST_TID = 95
_REQUEST_QUEUE_TID = 96


def build_trace_events(
    timeline: Union[Timeline, Iterable[TimelineEntry]],
    *,
    selection: Optional[Dict] = None,
    cache_stats: Optional[Dict[str, int]] = None,
    process_name: str = "repro simulator",
    faults: Optional[Dict] = None,
) -> List[Dict]:
    """Convert timeline entries (+ annotations) into Trace Event dicts.

    ``faults`` is a ``RunResult.faults`` fault/recovery log; when present
    its injected events and re-selections, and the per-task retries and
    degradations that ``timeline`` (a :class:`Timeline`) recorded, render
    as instant events on a dedicated "faults" lane.
    """
    entries = (
        list(timeline.entries) if isinstance(timeline, Timeline) else list(timeline)
    )
    devices_present = sorted(
        {e.device for e in entries},
        key=lambda d: (
            DEVICE_ORDER.index(d) if d in DEVICE_ORDER else len(DEVICE_ORDER),
            d,
        ),
    )
    tids = {}
    for device in devices_present:
        if device in DEVICE_ORDER:
            tids[device] = DEVICE_ORDER.index(device) + 1
        else:
            tids[device] = len(DEVICE_ORDER) + 1 + len(tids)

    meta: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for device in devices_present:
        tid = tids[device]
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": device},
            }
        )
        meta.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    events: List[Dict] = []
    queue_lanes = set()
    for e in entries:
        tid = tids[e.device]
        ts = e.start_s * 1e6
        events.append(
            {
                "name": e.op_type,
                "cat": "task",
                "ph": "X",
                "pid": _PID,
                "tid": tid,
                "ts": ts,
                "dur": e.duration_s * 1e6,
                "args": {
                    "uid": e.uid,
                    "step": e.step,
                    "queue_wait_us": e.queue_wait_s * 1e6,
                },
            }
        )
        if e.queue_wait_s > 0:
            queue_tid = tid + _QUEUE_TID_OFFSET
            queue_lanes.add((e.device, queue_tid))
            events.append(
                {
                    "name": f"wait:{e.op_type}",
                    "cat": "queue-wait",
                    "ph": "X",
                    "pid": _PID,
                    "tid": queue_tid,
                    "ts": e.ready_s * 1e6,
                    "dur": e.queue_wait_s * 1e6,
                    "args": {"uid": e.uid, "step": e.step},
                }
            )
    for device, queue_tid in sorted(queue_lanes):
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": queue_tid,
                "args": {"name": f"{device} queue"},
            }
        )

    if selection:
        events.append(
            {
                "name": "offload-selection",
                "cat": "selection",
                "ph": "i",
                "s": "g",
                "pid": _PID,
                "tid": 0,
                "ts": 0.0,
                "args": {
                    "target_coverage": selection.get("target_coverage"),
                    "time_coverage": selection.get("time_coverage"),
                    "candidate_types": selection.get("candidate_types"),
                },
            }
        )
        for decision in selection.get("decisions", ()):
            events.append(
                {
                    "name": f"offload:{decision['op_type']}",
                    "cat": "selection",
                    "ph": "i",
                    "s": "g",
                    "pid": _PID,
                    "tid": 0,
                    "ts": 0.0,
                    "args": dict(decision),
                }
            )

    if faults:
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": _FAULT_TID,
                "args": {"name": "faults"},
            }
        )
        meta.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": _FAULT_TID,
                "args": {"sort_index": _FAULT_TID},
            }
        )

        def fault_instant(name: str, cat: str, t_s: float, args: Dict) -> Dict:
            return {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "pid": _PID,
                "tid": _FAULT_TID,
                "ts": t_s * 1e6,
                "args": args,
            }

        for entry in faults.get("events", ()):
            events.append(
                fault_instant(
                    f"fault:{entry['kind']}",
                    "fault",
                    entry["t_s"],
                    dict(entry),
                )
            )
        if isinstance(timeline, Timeline):
            retries, degradations = timeline.retries, timeline.degradations
        else:
            retries = degradations = ()
        for entry in retries:
            events.append(
                fault_instant(
                    f"retry:{entry['uid']}", "fault-retry", entry["t_s"], dict(entry)
                )
            )
        for entry in degradations:
            events.append(
                fault_instant(
                    f"degrade:{entry['uid']}",
                    "fault-degrade",
                    entry["t_s"],
                    dict(entry),
                )
            )
        for entry in faults.get("reselections", ()):
            events.append(
                fault_instant(
                    "reselect-offloads",
                    "fault-reselect",
                    entry["t_s"],
                    dict(entry),
                )
            )

    if cache_stats:
        events.append(
            {
                "name": "sim-cache",
                "cat": "cache",
                "ph": "C",
                "pid": _PID,
                "tid": 0,
                "ts": 0.0,
                "args": {k: cache_stats[k] for k in sorted(cache_stats)},
            }
        )

    events.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["name"]))
    return meta + events


def build_request_trace_events(
    lifecycle: Iterable[Dict],
    *,
    process_name: str = "repro serve",
) -> List[Dict]:
    """Trace Event dicts for serve-daemon request lifecycles.

    ``lifecycle`` is an iterable of request records as kept by
    :class:`repro.serve.daemon.ServeDaemon`: dicts with ``id``,
    ``tenant``, ``model``/``config``/``backend``, monotonic offsets
    ``received_s``/``started_s``/``finished_s`` (seconds since daemon
    start; unfinished phases may be ``None``), terminal ``status`` and
    the ``dedup`` waiter count.  Each request renders as a queue-wait
    span on the "request queue" lane and an execution span on the
    "requests" lane, so a daemon's serving behavior (dedup fan-in, queue
    buildup, per-request latency) is inspectable in Perfetto exactly
    like a simulated schedule.
    """
    meta: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": process_name},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _REQUEST_TID,
            "args": {"name": "requests"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _REQUEST_QUEUE_TID,
            "args": {"name": "request queue"},
        },
    ]
    events: List[Dict] = []
    for record in lifecycle:
        label = str(record.get("model", "?"))
        if record.get("config"):
            label = f"{label}/{record['config']}"
        args = {
            "id": record.get("id"),
            "tenant": record.get("tenant"),
            "backend": record.get("backend"),
            "status": record.get("status"),
            "dedup": record.get("dedup", 0),
        }
        received = record.get("received_s")
        started = record.get("started_s")
        finished = record.get("finished_s")
        if received is not None and started is not None:
            events.append(
                {
                    "name": f"queued:{label}",
                    "cat": "serve-queue",
                    "ph": "X",
                    "pid": _PID,
                    "tid": _REQUEST_QUEUE_TID,
                    "ts": received * 1e6,
                    "dur": max(0.0, (started - received) * 1e6),
                    "args": args,
                }
            )
        if started is not None and finished is not None:
            events.append(
                {
                    "name": label,
                    "cat": "serve-request",
                    "ph": "X",
                    "pid": _PID,
                    "tid": _REQUEST_TID,
                    "ts": started * 1e6,
                    "dur": max(0.0, (finished - started) * 1e6),
                    "args": args,
                }
            )
        elif received is not None and finished is None:
            events.append(
                {
                    "name": f"pending:{label}",
                    "cat": "serve-request",
                    "ph": "i",
                    "s": "t",
                    "pid": _PID,
                    "tid": _REQUEST_TID,
                    "ts": received * 1e6,
                    "args": args,
                }
            )
    events.sort(key=lambda ev: (ev["ts"], ev["tid"], ev["name"]))
    return meta + events


def to_chrome_payload(
    events: List[Dict], other_data: Optional[Dict] = None
) -> Dict:
    """Wrap events in the JSON-object form of the Trace Event Format."""
    data = {"schema": CHROME_TRACE_SCHEMA}
    if other_data:
        data.update(other_data)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": data,
    }


def export_chrome_trace(
    timeline: Union[Timeline, Iterable[TimelineEntry]],
    path: Union[str, Path],
    *,
    selection: Optional[Dict] = None,
    cache_stats: Optional[Dict[str, int]] = None,
    other_data: Optional[Dict] = None,
) -> int:
    """Write a Chrome/Perfetto trace of ``timeline`` to ``path``.

    Returns the number of events written (metadata included).
    """
    from ..experiments.common import write_atomic

    events = build_trace_events(
        timeline, selection=selection, cache_stats=cache_stats
    )
    payload = to_chrome_payload(events, other_data=other_data)
    write_atomic(path, canonical_dumps(payload) + "\n")
    return len(events)


def validate_chrome_trace(payload: Union[Dict, str, Path]) -> List[Dict]:
    """Validate a trace document against the Trace Event Format.

    Accepts a parsed payload, a JSON string, or a file path.  Checks the
    properties Perfetto/catapult rely on: a ``traceEvents`` list, known
    phase codes, numeric non-negative ``ts``/``dur``, non-decreasing
    ``ts`` over non-metadata events, and B/E begin-end matching per lane.
    Returns the event list; raises :class:`ValueError` on any violation.
    """
    if isinstance(payload, (str, Path)) and not (
        isinstance(payload, str) and payload.lstrip().startswith(("{", "["))
    ):
        payload = json.loads(Path(payload).read_text())
    elif isinstance(payload, str):
        payload = json.loads(payload)
    if isinstance(payload, list):
        events = payload
    else:
        events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace has no traceEvents list")

    open_stacks: Dict[tuple, List[str]] = {}
    last_ts = None
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event #{i} is not an object")
        ph = ev.get("ph")
        if ph not in ("X", "B", "E", "i", "I", "C", "M"):
            raise ValueError(f"event #{i} has unsupported phase {ph!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event #{i} has invalid ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            raise ValueError(
                f"event #{i} ts {ts} precedes previous ts {last_ts}"
            )
        last_ts = ts
        lane = (ev.get("pid"), ev.get("tid"))
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event #{i} has invalid dur {dur!r}")
        elif ph == "B":
            open_stacks.setdefault(lane, []).append(ev.get("name", ""))
        elif ph == "E":
            stack = open_stacks.get(lane)
            if not stack:
                raise ValueError(f"event #{i}: E without matching B on {lane}")
            stack.pop()
    unmatched = {lane: s for lane, s in open_stacks.items() if s}
    if unmatched:
        raise ValueError(f"unmatched B events: {unmatched}")
    return events
