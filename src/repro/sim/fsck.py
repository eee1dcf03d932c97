"""Offline integrity audit and repair for the on-disk store.

``repro cache fsck [--repair]`` drives :func:`fsck` over the three
durable tiers:

* **cache objects** (``objects/v<schema>/``) — every object's sha256 is
  re-hashed and its payload decoded; objects of other schema namespaces
  are counted ``legacy`` and left alone.  Damage is repaired by
  quarantine + *recompute*: the head's self-describing ``meta`` (model,
  config, backend, steps, batch size) is recovered even from a
  payload-mangled file (:func:`repro.sim.cache.extract_meta`), the run
  is re-resolved through the public api, and the recomputed fingerprint
  must equal the damaged file's name before the store is rewritten — so
  a repair can never install the wrong result under a fingerprint.  Deterministic
  simulation makes the recomputed artifact byte-identical, which
  ``tools/check_chaos.py`` asserts in CI.
* **journals** (``journal/``) — loaded with per-line checksum and seal
  verification.  Interior damage is *reported* (the tolerant loader
  already drops such lines; the worst case is one recompute on resume);
  journals without a readable header are quarantined under ``--repair``.
* **serve reports** (``serve/reports/``) — bytes re-hashed against the
  sha256 sidecar.  Damage is repaired by recomputing the report from the
  original request, which the serve journals carry verbatim in their
  ``accepted`` lines; reports predating the sidecar era are counted
  ``unverified`` (and, under ``--repair``, get a sidecar backfilled from
  a recompute when a journaled request allows one).

Exit policy (see :func:`clean`): damaged *artifacts* (objects, reports)
that remain unrepaired fail the audit; tolerated journal line damage
does not.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import CorruptObjectError, ExecutionError, ReproError
from . import cache as sim_cache

Report = Dict[str, Dict[str, int]]


def _new_report() -> Report:
    return {
        "objects": {
            "scanned": 0,
            "ok": 0,
            "corrupt": 0,
            "repaired": 0,
            "unrepairable": 0,
            "legacy": 0,
        },
        "journals": {
            "scanned": 0,
            "ok": 0,
            "damaged": 0,
            "corrupt_lines": 0,
            "unreadable": 0,
            "quarantined": 0,
        },
        "reports": {
            "scanned": 0,
            "ok": 0,
            "corrupt": 0,
            "unverified": 0,
            "repaired": 0,
            "unrepairable": 0,
        },
    }


def clean(report: Report) -> bool:
    """True when no damaged artifact remains in the store."""
    objects = report["objects"]
    reports = report["reports"]
    journals = report["journals"]
    return (
        objects["corrupt"] <= objects["repaired"]
        and reports["corrupt"] <= reports["repaired"]
        and journals["unreadable"] <= journals["quarantined"]
    )


# ---------------------------------------------------------------------------
# cache objects
# ---------------------------------------------------------------------------
def _recompute_object(fingerprint: str, meta: Dict[str, object]) -> bool:
    """Recompute one damaged object from its embedded meta.

    Resolves the run through the public api, *proves* the inputs by
    matching the recomputed fingerprint against the damaged file's name,
    then lets :func:`repro.sim.cache.simulate_cached` rewrite the store.
    Returns False when the meta cannot reproduce this fingerprint
    (faulted runs, scaled configs, missing fields).
    """
    from .. import api

    if not meta or meta.get("faulted"):
        return False
    model = meta.get("model")
    backend = meta.get("backend")
    steps = meta.get("steps")
    batch_size = meta.get("batch_size")
    if not isinstance(model, str) or not isinstance(backend, str):
        return False
    if not isinstance(steps, int) or not isinstance(batch_size, int):
        return False
    try:
        configurations = api.list_configurations(backend)
    except ReproError:
        return False
    for config_id in configurations:
        try:
            graph, system, policy, _name = api._resolve_run(
                model, config_id, batch_size, 1.0, None, backend
            )
        except ReproError:
            continue
        candidate = sim_cache.run_fingerprint(graph, policy, system, steps)
        if candidate != fingerprint:
            continue
        sim_cache._memory.pop(fingerprint, None)
        sim_cache.simulate_cached(graph, policy, system, steps)
        try:
            sim_cache.read_object(sim_cache._object_path(fingerprint), fingerprint)
        except CorruptObjectError:
            return False  # the disk rejected the rewrite (degraded store?)
        return True
    return False


def _scan_objects(report: Report, repair: bool) -> None:
    objects = report["objects"]
    root = sim_cache.cache_dir() / "objects"
    if not root.is_dir():
        return
    current = root / f"v{sim_cache.CACHE_SCHEMA}"
    for entry in sorted(root.rglob("*.json")):
        if current not in entry.parents:
            objects["legacy"] += 1
            continue
        objects["scanned"] += 1
        fingerprint = entry.stem
        try:
            sim_cache.read_object(entry, fingerprint)
        except CorruptObjectError:
            objects["corrupt"] += 1
        else:
            objects["ok"] += 1
            continue
        if not repair:
            continue
        try:
            data = entry.read_bytes()
        except OSError:
            data = b""
        meta = sim_cache.extract_meta(data)
        sim_cache.quarantine(entry)
        if meta is not None and _recompute_object(fingerprint, meta):
            objects["repaired"] += 1
        else:
            objects["unrepairable"] += 1


# ---------------------------------------------------------------------------
# journals
# ---------------------------------------------------------------------------
def _scan_journals(report: Report, repair: bool) -> None:
    from ..experiments import journal as journal_mod

    journals = report["journals"]
    directory = journal_mod.journal_dir()
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.jsonl")):
        journals["scanned"] += 1
        try:
            loaded = journal_mod.RunJournal.load(path.stem)
        except ExecutionError:
            journals["unreadable"] += 1
            if repair:
                sim_cache.quarantine(path)
                journals["quarantined"] += 1
            continue
        if loaded.corrupt_lines or loaded.sealed is False:
            journals["damaged"] += 1
            journals["corrupt_lines"] += loaded.corrupt_lines
        else:
            journals["ok"] += 1


# ---------------------------------------------------------------------------
# serve reports
# ---------------------------------------------------------------------------
def _journaled_requests() -> Dict[str, Dict[str, object]]:
    """request_id -> request dict, from every serve journal's
    ``accepted`` lines (the daemon journals the full request verbatim)."""
    from ..experiments import journal as journal_mod

    requests: Dict[str, Dict[str, object]] = {}
    for run_id in journal_mod.list_runs():
        try:
            loaded = journal_mod.RunJournal.load(run_id)
        except ExecutionError:
            continue
        if loaded.header.get("kind") != "serve":
            continue
        for line in loaded.lines:
            if line.get("event") != "job":
                continue
            if line.get("status") != "accepted":
                continue
            request_id = line.get("fp")
            spec = line.get("request")
            if isinstance(request_id, str) and isinstance(spec, dict):
                requests.setdefault(request_id, spec)
    return requests


def _recompute_report_bytes(spec: Optional[Dict[str, object]]) -> Optional[bytes]:
    """Re-run one journaled serve request; None when it cannot be replayed."""
    from .. import api
    from ..serve.protocol import build_simulate_request

    if spec is None:
        return None
    try:
        request = build_simulate_request(dict(spec), {})
        session = api.Session(request.tenant)
        result = session.simulate(**request.simulate_kwargs())
    except ReproError:
        return None
    return (result.to_json() + "\n").encode()


def _write_report(request_id: str, path: Path, data: bytes) -> bool:
    from ..serve.daemon import ServeDaemon

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        sidecar = ServeDaemon.sidecar_path(request_id)
        sidecar.write_text(hashlib.sha256(data).hexdigest() + "\n")
        path.write_bytes(data)
    except OSError:
        return False
    return True


def _scan_reports(report: Report, repair: bool) -> None:
    from ..serve.daemon import REPORTS_DIR, ServeDaemon

    reports = report["reports"]
    root = sim_cache.cache_dir() / REPORTS_DIR
    if not root.is_dir():
        return
    journaled: Optional[Dict[str, Dict[str, object]]] = None
    for entry in sorted(root.rglob("*.json")):
        reports["scanned"] += 1
        request_id = entry.stem
        sidecar = ServeDaemon.sidecar_path(request_id)
        # bytes, as the daemon compares them: a non-UTF-8 sidecar is a
        # damaged report, not an aborted audit
        recorded = b""
        try:
            recorded = sidecar.read_bytes().strip()
        except OSError:
            pass
        try:
            stored = entry.read_bytes()
        except OSError:
            stored = b""
        damaged = False
        if not recorded:
            reports["unverified"] += 1
        elif hashlib.sha256(stored).hexdigest().encode() == recorded:
            reports["ok"] += 1
            continue
        else:
            damaged = True
            reports["corrupt"] += 1
        if not repair:
            continue
        if journaled is None:
            journaled = _journaled_requests()
        expected = _recompute_report_bytes(journaled.get(request_id))
        if damaged:
            sim_cache.quarantine(entry)
            sim_cache.quarantine(sidecar)
            if expected is not None and _write_report(request_id, entry, expected):
                reports["repaired"] += 1
            else:
                reports["unrepairable"] += 1
        elif expected is not None:
            # pre-sidecar legacy report: only bless bytes that a replay
            # reproduces exactly; a mismatch means the file is damaged
            if expected == stored:
                _write_report(request_id, entry, expected)
            else:
                reports["unverified"] -= 1
                reports["corrupt"] += 1
                sim_cache.quarantine(entry)
                if _write_report(request_id, entry, expected):
                    reports["repaired"] += 1
                else:
                    reports["unrepairable"] += 1


def fsck(repair: bool = False) -> Report:
    """Audit (and with ``repair=True``, heal) the whole durable store."""
    report = _new_report()
    _scan_objects(report, repair)
    _scan_journals(report, repair)
    _scan_reports(report, repair)
    return report


def render(report: Report) -> str:
    """Human-readable per-tier table (the CLI's output)."""
    lines: List[str] = []
    for tier in ("objects", "journals", "reports"):
        counts = report[tier]
        cells = "  ".join(f"{key} {value}" for key, value in counts.items())
        lines.append(f"{tier:9s} {cells}")
    lines.append(f"status    {'clean' if clean(report) else 'DAMAGED'}")
    return "\n".join(lines)


def to_json(report: Report) -> str:
    payload = dict(report)
    payload["clean"] = clean(report)
    return json.dumps(payload, sort_keys=True, indent=2)
