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
* **serve journals** (``journal/``) — loaded by
  :meth:`~repro.serve.journal.RunJournal.load`, which checks each line's
  checksum and the seal, drops damaged lines and counts them; the audit
  reports that count as ``corrupt_lines`` (the worst case of a dropped
  line is one request served again after a restart).  Journals without
  a readable header are quarantined under ``--repair``.
* **serve reports** (``serve/reports/v2/``) — framed like cache
  objects, with the request as ``meta``, and checked the same way;
  reports of other namespaces are counted ``legacy`` and left alone.
  Damage is repaired by quarantine + recompute: the request is recovered
  from the head, rebuilt through the serve protocol's validation, and
  the report is rewritten only if the rebuilt request's id equals the
  damaged file's name.

Exit policy (see :func:`clean`): damaged *artifacts* (objects, reports)
that remain unrepaired fail the audit; tolerated journal line damage
does not.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

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
            "repaired": 0,
            "unrepairable": 0,
            "legacy": 0,
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
    from ..serve import journal as journal_mod

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
def _recompute_report(
    request_id: str, meta: Dict[str, object], path: Path
) -> bool:
    """Recompute one damaged report from the request in its head.

    The request is rebuilt through the serve protocol's validation and
    its recomputed id must equal the damaged file's name before the
    report is rewritten.  Returns False when the head cannot reproduce
    this id.
    """
    from .. import api
    from ..serve.protocol import build_simulate_request

    try:
        request = build_simulate_request(meta, {})
        session = api.Session(request.tenant)
        if session.fingerprint(**request.simulate_kwargs()) != request_id:
            return False
        report = session.simulate(**request.simulate_kwargs())
    except ReproError:
        return False
    data, body_offset = sim_cache.frame(
        (report.to_json() + "\n").encode(), request.to_dict()
    )
    return sim_cache.write_framed(
        path, data, body_offset, "serve.report_write", request_id
    )


def _scan_reports(report: Report, repair: bool) -> None:
    from ..serve.daemon import REPORTS_DIR

    reports = report["reports"]
    current = sim_cache.cache_dir() / REPORTS_DIR
    root = current.parent
    if not root.is_dir():
        return
    for entry in sorted(root.rglob("*.json")):
        if current not in entry.parents:
            reports["legacy"] += 1
            continue
        reports["scanned"] += 1
        request_id = entry.stem
        try:
            data = entry.read_bytes()
        except OSError:
            data = b""
        try:
            sim_cache.unframe(data, entry, request_id)
        except CorruptObjectError:
            reports["corrupt"] += 1
        else:
            reports["ok"] += 1
            continue
        if not repair:
            continue
        meta = sim_cache.extract_meta(data)
        sim_cache.quarantine(entry)
        if meta is not None and _recompute_report(request_id, meta, entry):
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
