"""Serve journal: append-only JSONL record of the requests a daemon accepted.

Each ``repro serve`` daemon (:mod:`repro.serve.daemon`) writes one
line-oriented log under ``<cache-dir>/journal/<run-id>.jsonl``:

* a ``begin`` header naming the daemon (kind ``serve``, host, workers);
* one ``job`` line per request status change — its request id (``fp``),
  status (``accepted`` with the request itself, then ``done``,
  ``failed``, ``expired`` or ``degraded``);
* a terminal ``complete`` event on a clean shutdown (or once a restarted
  daemon has recovered the journal's unserved requests).

Each line is one JSON object written with a **single** ``write()`` on an
``O_APPEND`` descriptor, so concurrent writers and a kill at any byte
offset leave at worst one truncated *final* line — never interleaved or
corrupted earlier lines.  The loader tolerates a truncated tail for
exactly this reason.

Lines are also *verified*: every record carries a short per-line
checksum (``sha``), and a cleanly completed journal ends with a ``seal``
footer covering every byte before it — so **mid-file** damage (bit rot,
a torn interior line) is detected, not silently skipped.  The loader
stays tolerant: it drops the untrustworthy lines and counts them in
:attr:`RunJournal.corrupt_lines`, because the worst case of a lost
``done`` line is one request served again after a restart.  ``repro
cache fsck`` reports that count (see :mod:`repro.sim.fsck`).

Journal writes never crash the daemon: persistent ``OSError`` flips the
shared store into memory-only degraded mode (see
:func:`repro.sim.cache.note_write_failure`) and the journal keeps its
records in memory.

The journal is what lets a restarted daemon re-enqueue requests it had
accepted but not served; a finished report needs no journal line to be
found again, because it lives in the content-addressed report store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Set

from ..chaos import injector as _chaos
from ..errors import ExecutionError
from ..sim import cache as sim_cache

#: Journal line-format version, recorded in the ``begin`` header.
#: 2: every line carries a ``sha`` checksum and completed journals end
#: with a ``seal`` footer; v1 journals (no checksums) still load.
JOURNAL_SCHEMA = 2


def journal_dir() -> Path:
    """Directory holding run journals (beside the result cache tiers)."""
    return sim_cache.cache_dir() / "journal"


def _journal_path(run_id: str) -> Path:
    if not run_id or "/" in run_id or run_id.startswith("."):
        raise ExecutionError(f"invalid run id {run_id!r}")
    return journal_dir() / f"{run_id}.jsonl"


#: Per-process sequence folded into run ids: two daemons started in the
#: same second by one process (an in-process restart loop) cannot
#: collide.
_RUN_SEQ = itertools.count(1)


def new_run_id() -> str:
    """Timestamp + pid + sequence: unique per process, sortable by
    start time."""
    return (
        time.strftime("%Y%m%dT%H%M%S")
        + f"-{os.getpid()}-{next(_RUN_SEQ)}"
    )


def _line_sha(record: Dict) -> str:
    """Short content checksum of one journal record (sans its ``sha``)."""
    canonical = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def list_runs() -> List[str]:
    """Known run ids, most recently modified first."""
    directory = journal_dir()
    if not directory.is_dir():
        return []
    entries = []
    for path in directory.glob("*.jsonl"):
        try:
            entries.append((path.stat().st_mtime, path.stem))
        except OSError:
            continue
    return [run_id for _mtime, run_id in sorted(entries, reverse=True)]


class RunJournal:
    """One run's append-only journal (see module docstring for format)."""

    def __init__(self, run_id: str, lines: List[Dict]):
        self.run_id = run_id
        self._lines = lines
        self._fd: Optional[int] = None
        #: Damaged lines dropped by the tolerant loader (mid-file bit
        #: rot, torn interior lines); 0 for a healthy journal.
        self.corrupt_lines = 0
        #: ``None`` = no seal footer (in-flight or interrupted journal);
        #: ``True`` = seal present and verified; ``False`` = seal broken.
        self.sealed: Optional[bool] = None
        #: True once a disk append has been skipped (degraded store).
        self.degraded = False
        # Running hash of every raw byte appended, so seal() can commit
        # to the exact file contents; _written counts physical disk
        # lines (not memory-only degraded appends).
        self._hasher = hashlib.sha256()
        self._written = 0

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(
        cls,
        kind: str,
        spec: Dict,
        run_id: Optional[str] = None,
    ) -> "RunJournal":
        """Start a new journal; writes the ``begin`` manifest line."""
        run_id = run_id if run_id is not None else new_run_id()
        path = _journal_path(run_id)
        if path.exists():
            raise ExecutionError(f"journal {run_id!r} already exists")
        journal = cls(run_id, [])
        journal._append(
            {
                "event": "begin",
                "schema": JOURNAL_SCHEMA,
                "run": run_id,
                "kind": kind,
                "spec": spec,
                "time": time.time(),
            }
        )
        return journal

    @classmethod
    def load(cls, run_id: str) -> "RunJournal":
        """Open an existing journal for inspection and/or appending.

        Tolerates a truncated final line (a kill mid-append).  Interior
        damage — an unparseable non-final line, or any line whose ``sha``
        checksum mismatches — is *dropped and counted* in
        :attr:`corrupt_lines`.
        Raises :class:`ExecutionError` when the journal does not exist or
        has no readable header.
        """
        path = _journal_path(run_id)
        try:
            raw = path.read_bytes()
        except OSError:
            known = ", ".join(list_runs()[:5]) or "(none)"
            raise ExecutionError(
                f"no journal for run id {run_id!r} under {journal_dir()} "
                f"(known runs: {known})"
            )
        raw_lines = raw.splitlines(keepends=True)
        lines: List[Dict] = []
        corrupt = 0
        sealed: Optional[bool] = None
        hasher = hashlib.sha256()
        written = 0  # lines physically on disk before the current one
        for index, raw_line in enumerate(raw_lines):
            before = hasher.hexdigest()
            hasher.update(raw_line)
            text = raw_line.decode("utf-8", errors="replace").strip()
            if not text:
                written += 1
                continue
            final = index == len(raw_lines) - 1
            try:
                record = json.loads(text)
            except json.JSONDecodeError:
                if final and not raw_line.endswith(b"\n"):
                    break  # truncated tail from a mid-append kill
                corrupt += 1
                written += 1
                continue
            if not isinstance(record, dict):
                corrupt += 1
                written += 1
                continue
            recorded_sha = record.pop("sha", None)
            if recorded_sha is not None and recorded_sha != _line_sha(record):
                corrupt += 1
                written += 1
                continue
            if record.get("event") == "seal":
                sealed = (
                    record.get("sha256") == before
                    and record.get("lines") == written
                )
                if not sealed:
                    corrupt += 1
                written += 1
                continue
            written += 1
            lines.append(record)
        if not lines or lines[0].get("event") != "begin":
            raise ExecutionError(
                f"journal {run_id!r} has no readable begin header"
            )
        journal = cls(run_id, lines)
        journal.corrupt_lines = corrupt
        journal.sealed = sealed
        journal._hasher = hasher
        journal._written = written
        return journal

    def close(self) -> None:
        if self._fd is not None:
            try:
                os.close(self._fd)
            finally:
                self._fd = None

    # -- writing -------------------------------------------------------
    def _append(self, record: Dict) -> None:
        stamped = dict(record)
        stamped["sha"] = _line_sha(record)
        line = json.dumps(stamped, sort_keys=True, separators=(",", ":"))
        data = line.encode() + b"\n"
        self._lines.append(record)
        if sim_cache.writes_suppressed():
            self.degraded = True
            return  # memory-only degraded mode: the record still counts
        try:
            data = _chaos.mangle(
                "journal.append",
                data,
                token=f"{self.run_id}:{len(self._lines)}",
            )
            if self._fd is None:
                path = _journal_path(self.run_id)
                path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(
                    path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
                )
            os.write(self._fd, data)  # one write: atomic under O_APPEND
        except OSError as exc:
            self.degraded = True
            sim_cache.note_write_failure(
                exc, f"journal append for run {self.run_id!r}"
            )
        else:
            # hash what actually landed on disk, so a sealed journal's
            # footer commits to the real file bytes
            self._hasher.update(data)
            self._written += 1
            sim_cache.note_write_success()

    def seal(self) -> None:
        """Append the integrity footer committing to every byte so far.

        Called automatically when a ``complete`` event is journaled; a
        journal without a seal is *expected* for interrupted runs, so
        the loader never treats its absence as damage.
        """
        self._append(
            {
                "event": "seal",
                "lines": self._written,
                "sha256": self._hasher.hexdigest(),
            }
        )

    def record_job(self, fingerprint: str, status: str, **extra) -> None:
        """Journal one request's status (``accepted``, ``done``...)."""
        record = {"event": "job", "fp": fingerprint, "status": status}
        record.update(extra)
        self._append(record)

    def record_event(self, name: str, **extra) -> None:
        """Journal a daemon-level event (``complete``).

        A ``complete`` event also seals the journal: clean completions
        always end with a verified footer.
        """
        record = {"event": name, "time": time.time()}
        record.update(extra)
        self._append(record)
        if name == "complete":
            self.seal()

    # -- reading -------------------------------------------------------
    @property
    def header(self) -> Dict:
        return self._lines[0]

    @property
    def lines(self) -> List[Dict]:
        return list(self._lines)

    def completed_fingerprints(self) -> Set[str]:
        """Ids of every request journaled ``done``."""
        return {
            line["fp"]
            for line in self._lines
            if line.get("event") == "job" and line.get("status") == "done"
        }

    def is_complete(self) -> bool:
        """True when a ``complete`` event was journaled."""
        return any(line.get("event") == "complete" for line in self._lines)
