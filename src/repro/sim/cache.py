"""Content-addressed simulation-result cache (memory + disk tiers).

Every simulation run is identified by a **fingerprint**: a SHA-256 digest
over a canonical serialization of

* the workload graph (ops, costs, tensors, attributes),
* every field of the :class:`~repro.config.SystemConfig` (recursively),
* the scheduling policy's behavioral identity
  (:meth:`~repro.sim.policy.SchedulingPolicy.signature`),
* the effective simulated step count.

The fingerprint is derived from *content*, never supplied by callers, so a
modified configuration can neither collide with nor silently bypass the
cache — the footgun of the old caller-supplied ``cache_key`` mechanism.

Two tiers back the fingerprint:

* an in-process dict (free hits within one run of the evaluation);
* an on-disk store of :class:`~repro.sim.results.RunResult` objects under
  ``<cache-dir>/objects/v<schema>/<aa>/<digest>.json`` (namespaced by
  ``CACHE_SCHEMA`` so newer-code entries are invisible to older
  checkouts rather than misread), shared across processes — the
  parallel experiment runner's parent stores its workers' results
  there, and every later invocation (pytest, benchmarks, the CLI) reads
  the same entries.

The disk tier is content-*verified*, not just content-addressed.  Each
object file is one JSON line, ``{"repro_object":2,"sha256":...,
"meta":...}``, followed by the payload: the ``marshal`` bytes (format 2)
of the versioned :meth:`~repro.sim.results.RunResult.to_dict`, which
decode several times faster than the same record as JSON.  The digest
covers every byte after it, and every disk read checks it before
``marshal.loads`` sees the payload (unverified marshal can load wrong
values or exhaust memory).  ``meta`` records the run inputs (model,
config, backend, steps, batch size) needed to *recompute* the object;
only fsck reads it.  Stored serve reports use the same framing
(:func:`frame`/:func:`unframe`) around their report bytes.  Anything
damaged is quarantined to ``<cache-dir>/quarantine/`` (a counted
:class:`~repro.errors.CorruptObjectError` event, then a recomputable
miss) — corrupt bytes are never returned.  ``repro cache fsck
[--repair]`` audits the whole store offline (see :mod:`repro.sim.fsck`).

Persistent write failures (ENOSPC, read-only mounts, dying disks) flip
the store into a memory-only **degraded mode** — one warning line, a
counter, and a periodic re-probe — instead of crashing a batch or the
serve daemon mid-flight.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache directory (default ``.repro-cache`` under
  the current working directory);
* ``REPRO_CACHE=0`` — disable the disk tier (the memory tier always runs);
* ``REPRO_DEGRADED_REPROBE_S`` — seconds between disk re-probes while in
  degraded mode (default 30).

``CACHE_SCHEMA`` is folded into every fingerprint; bump it whenever the
simulator's observable behavior changes so stale on-disk results can never
leak into a new code version's outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import marshal
import os
import sys
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from ..chaos import injector as _chaos
from ..config import SystemConfig
from ..errors import CorruptObjectError
from ..nn.graph import Graph
from .policy import SchedulingPolicy
from .results import RunResult, canonical_dumps

if TYPE_CHECKING:
    from .timeline import Timeline

#: Schema/behavior version folded into every fingerprint.  2: results carry
#: observability aggregates and the disk tier stores canonical JSON.
#: 3: fault specs join the fingerprint, results carry the fault/recovery
#: log, and disk entries live under a per-schema namespace
#: (``objects/v<N>/``) so entries written by *newer* code are invisible to
#: older code instead of being misread.
# 4: llc_misses clamped >=1 for memory-touching ops feeds the profiler's
# memory ranks, so selection (and thus results) may differ from v3.
# 5: SystemConfig grew the ``backend`` field (hardware-backend registry),
# which joins the config encoding — v4 fingerprints of identical runs no
# longer match, so the namespace advances with it.
# 6: disk objects became checksummed self-describing envelopes
# (repro_object/meta/sha256/payload) — bare-RunResult v5 files would fail
# envelope validation, so the namespace advances with the format.
# 7: per-task retries/degradations left the fault log (they are timeline
# records now; the log keeps their counts).
# 8: marshal payload behind a JSON head (object format 2).
CACHE_SCHEMA = 8

#: Format tag in each object file's head (orthogonal to ``CACHE_SCHEMA``:
#: the namespace isolates *result* semantics, this tag names the file
#: layout).  2: a one-line JSON head, then a marshal payload.
OBJECT_FORMAT = 2

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_ENABLE = "REPRO_CACHE"
_ENV_REPROBE = "REPRO_DEGRADED_REPROBE_S"

_memory: Dict[str, RunResult] = {}

#: Hit/miss counters since process start (or the last ``reset_stats``).
#: ``misses`` is the total; ``misses_absent`` (no file) and
#: ``misses_corrupt`` (file failed integrity) break down its disk-side
#: causes so corruption is never mistaken for a cold cache.
_stats = {
    "memory_hits": 0,
    "disk_hits": 0,
    "misses": 0,
    "misses_absent": 0,
    "misses_corrupt": 0,
    "quarantined": 0,
    "stores": 0,
    "write_errors": 0,
    "degraded_skips": 0,
    "pruned_entries": 0,
    "pruned_bytes": 0,
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
def cache_root() -> str:
    """Directory of the disk tier as a string (what hot reads join onto)."""
    # read on every call: tests and tools repoint the store at run time
    return os.environ.get(_ENV_DIR, ".repro-cache") or "."


def cache_dir() -> Path:
    """Directory of the disk tier (not necessarily existing yet)."""
    return Path(cache_root())


def disk_enabled() -> bool:
    return os.environ.get(_ENV_ENABLE, "1") != "0"


_ENV_VALIDATE = "REPRO_VALIDATE"


def validation_enabled() -> bool:
    """True when ``REPRO_VALIDATE`` requests invariant-checked runs."""
    return os.environ.get(_ENV_VALIDATE, "0") not in ("0", "")


# ---------------------------------------------------------------------------
# degraded (memory-only) mode
# ---------------------------------------------------------------------------
#: Shared by the cache and the run journal: both live on the same
#: filesystem, so persistent write failure on either flips the whole
#: store to memory-only rather than crashing mid-batch.  A periodic
#: re-probe (one real write attempt per interval) ends degradation as
#: soon as the disk recovers.
_DEGRADE_AFTER = 3

_degraded_lock = threading.Lock()
_degraded = {"active": False, "errors": 0, "probe_at": 0.0}


def _reprobe_interval() -> float:
    try:
        return max(0.1, float(os.environ.get(_ENV_REPROBE, "30")))
    except ValueError:
        return 30.0


def degraded() -> bool:
    """True while the store is in memory-only degraded mode."""
    # one dict read is atomic; the lock guards the multi-field updates
    return _degraded["active"]


def writes_suppressed() -> bool:
    """True when a disk write should be skipped (degraded, not yet time
    to re-probe).  Callers seeing False must still expect OSError and
    report it via :func:`note_write_failure`."""
    with _degraded_lock:
        if not _degraded["active"]:
            return False
        return time.monotonic() < _degraded["probe_at"]


def note_write_failure(exc: OSError, what: str) -> None:
    """Record one failed disk write; flip to degraded after a streak."""
    from ..obs.metrics import GLOBAL_REGISTRY

    with _degraded_lock:
        _stats["write_errors"] += 1
        _degraded["errors"] += 1
        entered = (
            not _degraded["active"] and _degraded["errors"] >= _DEGRADE_AFTER
        )
        if entered:
            _degraded["active"] = True
        if _degraded["active"]:
            _degraded["probe_at"] = time.monotonic() + _reprobe_interval()
    GLOBAL_REGISTRY.counter("store.write_errors").inc()
    if entered:
        GLOBAL_REGISTRY.gauge("store.degraded").set(1)
        print(
            f"warning: {what}: {exc} — store degraded to memory-only "
            f"(re-probing disk every {_reprobe_interval():g}s)",
            file=sys.stderr,
        )


def note_write_success() -> None:
    """Record one successful disk write; ends degraded mode if active."""
    with _degraded_lock:
        recovered = _degraded["active"]
        _degraded["active"] = False
        _degraded["errors"] = 0
        _degraded["probe_at"] = 0.0
    if recovered:
        from ..obs.metrics import GLOBAL_REGISTRY

        GLOBAL_REGISTRY.gauge("store.degraded").set(0)
        print(
            "store: disk writes recovered, leaving degraded mode",
            file=sys.stderr,
        )


def _reset_degraded() -> None:
    with _degraded_lock:
        _degraded["active"] = False
        _degraded["errors"] = 0
        _degraded["probe_at"] = 0.0


# ---------------------------------------------------------------------------
# multi-tenant accounting
# ---------------------------------------------------------------------------
#: Both tiers are *shared* across tenants — a result is content-addressed,
#: so whoever computes it first serves everyone after — but the serve
#: daemon needs to know who is using what.  A thread-local tenant scope
#: attributes hits/misses/stores, and every fingerprint a tenant touches
#: is appended (once) to ``<cache-dir>/tenants/<tenant>.idx`` so disk
#: footprints can be broken down per namespace.  Entries referenced by
#: several tenants are *shared*: :func:`tenant_disk_usage` reports their
#: bytes once in the combined total, never once per tenant.
class _TenantLocal(threading.local):
    #: a class default, so that reading it outside any scope raises no
    #: AttributeError for ``getattr`` to swallow (every cache lookup reads it)
    name: Optional[str] = None


_tenant_local = _TenantLocal()

_tenant_stats: Dict[str, Dict[str, int]] = {}

#: Fingerprints already journaled per tenant (write-once dedup).
_tenant_seen: Dict[str, Set[str]] = {}

_tenant_lock = threading.Lock()


@contextmanager
def tenant_scope(tenant: Optional[str]):
    """Attribute cache traffic in the block to ``tenant`` (thread-local)."""
    previous = _tenant_local.name
    _tenant_local.name = tenant
    try:
        yield
    finally:
        _tenant_local.name = previous


def current_tenant() -> Optional[str]:
    return _tenant_local.name


def _tenants_dir() -> Path:
    return cache_dir() / "tenants"


def _valid_tenant(tenant: str) -> bool:
    return bool(tenant) and "/" not in tenant and not tenant.startswith(".")


def _note_tenant(counter: str, fingerprint: Optional[str] = None) -> None:
    """Charge one event (and optionally one touched fingerprint) to the
    current tenant scope; a no-op outside any scope."""
    tenant = _tenant_local.name
    if tenant is None or not _valid_tenant(tenant):
        return
    with _tenant_lock:
        stats = _tenant_stats.setdefault(
            tenant, {"hits": 0, "misses": 0, "stores": 0}
        )
        stats[counter] += 1
        if fingerprint is None:
            return
        seen = _tenant_seen.get(tenant)
        if seen is None:
            seen = _tenant_seen[tenant] = _load_tenant_index(tenant)
        if fingerprint in seen:
            return
        seen.add(fingerprint)
    if disk_enabled():
        try:
            directory = _tenants_dir()
            directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                directory / f"{tenant}.idx",
                os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                0o644,
            )
            try:
                os.write(fd, (fingerprint + "\n").encode())
            finally:
                os.close(fd)
        except OSError:
            pass  # accounting degrades, the cache itself is unaffected


def _load_tenant_index(tenant: str) -> Set[str]:
    try:
        text = (_tenants_dir() / f"{tenant}.idx").read_text()
    except OSError:
        return set()
    return {line.strip() for line in text.splitlines() if line.strip()}


def tenant_stats() -> Dict[str, Dict[str, int]]:
    """Per-tenant hit/miss/store counters since process start."""
    with _tenant_lock:
        return {name: dict(stats) for name, stats in _tenant_stats.items()}


def tenant_disk_usage() -> Dict[str, object]:
    """Disk footprint per tenant, with cross-tenant shared bytes once.

    Returns ``{"tenants": {name: {"entries": n, "bytes": b}},
    "shared_entries": k, "shared_bytes": s, "union_entries": u,
    "union_bytes": t}``.  A tenant's ``bytes`` is what *it* references;
    because the tier is content-addressed and shared, entries referenced
    by more than one tenant exist on disk exactly once, so the combined
    ``union_bytes`` counts each of them once — never once per tenant.
    """
    directory = _tenants_dir()
    references: Dict[str, Set[str]] = {}
    if directory.is_dir():
        for index in sorted(directory.glob("*.idx")):
            references[index.stem] = _load_tenant_index(index.stem)
    per_tenant: Dict[str, Dict[str, int]] = {}
    sizes: Dict[str, int] = {}
    claims: Dict[str, int] = {}
    for tenant, prints in references.items():
        entries = 0
        total = 0
        for fingerprint in prints:
            if fingerprint not in sizes:
                try:
                    sizes[fingerprint] = _object_path(fingerprint).stat().st_size
                except OSError:
                    sizes[fingerprint] = -1  # pruned/absent: skip everywhere
            size = sizes[fingerprint]
            if size < 0:
                continue
            claims[fingerprint] = claims.get(fingerprint, 0) + 1
            entries += 1
            total += size
        per_tenant[tenant] = {"entries": entries, "bytes": total}
    shared = [fp for fp, n in claims.items() if n > 1]
    return {
        "tenants": per_tenant,
        "shared_entries": len(shared),
        "shared_bytes": sum(sizes[fp] for fp in shared),
        "union_entries": len(claims),
        "union_bytes": sum(sizes[fp] for fp in claims),
    }


# ---------------------------------------------------------------------------
# fingerprinting
# ---------------------------------------------------------------------------
def _encode(value, out) -> None:
    """Append a canonical, type-tagged encoding of ``value`` to ``out``.

    Handles the closed set of types that appear in graphs, configs and
    policy signatures.  Type tags keep e.g. ``1`` and ``"1"`` and ``1.0``
    distinct; floats are encoded by hex to be exact.
    """
    if value is None or isinstance(value, (bool, int, str, bytes)):
        out.append(f"{type(value).__name__}:{value!r};")
    elif isinstance(value, float):
        out.append(f"float:{value.hex()};")
    elif isinstance(value, (list, tuple)):
        out.append(f"seq{len(value)}[")
        for item in value:
            _encode(item, out)
        out.append("]")
    elif isinstance(value, (set, frozenset)):
        out.append(f"set{len(value)}[")
        for item in sorted(value, key=repr):
            _encode(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append(f"map{len(value)}[")
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out.append("]")
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out.append(f"dc:{type(value).__name__}[")
        for field in dataclasses.fields(value):
            _encode(getattr(value, field.name), out)
        out.append("]")
    else:
        # enums, odd attr payloads: repr is stable for everything we store
        out.append(f"{type(value).__name__}:{value!r};")


def graph_signature(graph: Graph):
    """Stable structural signature of a workload graph.

    Covers everything the simulator reads: identity fields, per-op costs,
    dependence-defining inputs/outputs/attrs, and tensor sizes (which feed
    GPU working-set/swap modeling).
    """
    ops = tuple(
        (
            op.name,
            op.op_type,
            op.inputs,
            op.outputs,
            (
                op.cost.muls,
                op.cost.adds,
                op.cost.other_flops,
                op.cost.bytes_in,
                op.cost.bytes_out,
                op.cost.parallelism,
            ),
            dict(op.attrs),
        )
        for op in graph.ops
    )
    tensors = {name: spec.nbytes for name, spec in graph.tensors.items()}
    return (
        graph.name,
        graph.batch_size,
        graph.dataset,
        graph.input_bytes,
        ops,
        tensors,
    )


def _graph_signature_hash(graph: Graph) -> "hashlib._Hash":
    """sha256 state fed with the encoded graph signature, memoized on the
    graph.  The signature (up to hundreds of KB) leads every fingerprint,
    which hashes a copy of this state plus its own short tail."""
    state = graph.memo.get("signature")
    if state is None:
        parts = []
        _encode(graph_signature(graph), parts)
        state = graph.memo["signature"] = hashlib.sha256(
            "".join(parts).encode()
        )
    return state


def _encoded_by_id(value, memo: Dict[int, str]) -> str:
    """``_encode(value)`` as one string, memoized in ``memo`` by object
    identity.  Only for frozen values; the entry evicts with the object,
    so ids can't go stale."""
    key = id(value)
    encoded = memo.get(key)
    if encoded is None:
        parts = []
        _encode(value, parts)
        encoded = "".join(parts)
        memo[key] = encoded
        weakref.finalize(value, memo.pop, key, None)
    return encoded


#: Encoded SystemConfig per config object.  Configs are frozen dataclasses
#: shared across a sweep's many runs (the api facade memoizes resolved
#: instances), so encoding each once removes the dominant per-fingerprint
#: cost.
_config_sig_cache: Dict[int, str] = {}


def config_signature(config: SystemConfig) -> str:
    """Canonical encoding of every field of ``config`` (memoized by
    object identity).  Shared by fingerprinting and the vectorized
    cost-table keying (:mod:`repro.sim.optable`)."""
    return _encoded_by_id(config, _config_sig_cache)


#: Encoded FaultSpec per spec object (specs are frozen).  A caller that
#: passes a new spec on every call misses this memo and pays one encoding,
#: as it would without it.
_faults_sig_cache: Dict[int, str] = {}

#: Encoded ``(CACHE_SCHEMA, policy.signature())`` keyed by the signature's
#: ``marshal`` bytes.  Policies are fresh per call, so identity can't key
#: this; a plain tuple key can't either, because ``1 == 1.0 == True``
#: while their encodings differ.  marshal writes only the exact core types
#: (no subclasses), each with its own tag, and format 0 has no
#: back-references, so equal bytes mean equal values of equal types,
#: which encode alike.  A process sees a handful of signatures.
_policy_sig_cache: Dict[bytes, str] = {}


def _policy_encoding(signature: Tuple) -> str:
    try:
        key = marshal.dumps(signature, 0)
    except ValueError:  # enums, subclasses, objects: encoded every time
        key = None
    encoded = _policy_sig_cache.get(key)
    if encoded is None:
        parts = []
        _encode((CACHE_SCHEMA, signature), parts)
        encoded = "".join(parts)
        if key is not None:
            _policy_sig_cache[key] = encoded
    return encoded


def run_fingerprint(
    graph: Graph,
    policy: SchedulingPolicy,
    config: SystemConfig,
    steps: Optional[int] = None,
    faults=None,
) -> str:
    """Hex digest identifying one (graph, policy, config, steps, faults)
    run.  ``faults`` is a :class:`~repro.faults.spec.FaultSpec` (or None
    for the fault-free run — the two never share a fingerprint)."""
    effective_steps = (
        steps if steps is not None else config.runtime.measured_steps
    )
    # the same string as encoding (CACHE_SCHEMA, signature), the config,
    # then (effective_steps, faults), with each part taken from its memo
    policy_part = _policy_encoding(policy.signature())
    config_part = config_signature(config)
    faults_part = (
        None if faults is None else _encoded_by_id(faults, _faults_sig_cache)
    )
    # The memoized parts cache their string hashes, so a repeated run finds
    # its digest in one lookup.  The step count's type joins the key: 3,
    # 3.0 and True are equal keys that encode differently.
    key = (
        policy_part,
        config_part,
        type(effective_steps),
        effective_steps,
        faults_part,
    )
    digests = graph.memo.get("fingerprints")
    if digests is None:
        digests = graph.memo["fingerprints"] = {}
    digest = digests.get(key)
    if digest is None:
        parts = [policy_part, config_part, "seq2["]
        _encode(effective_steps, parts)
        if faults_part is None:
            _encode(None, parts)
        else:
            parts.append(faults_part)
        parts.append("]")
        state = _graph_signature_hash(graph).copy()
        state.update("".join(parts).encode())
        digest = digests[key] = state.hexdigest()
    return digest


# ---------------------------------------------------------------------------
# tiers
# ---------------------------------------------------------------------------
def _object_file(fingerprint: str) -> str:
    """Path of one disk object as a string (what a read opens)."""
    # per-schema namespace: code only ever reads entries written by the
    # same CACHE_SCHEMA, so an entry written by newer code can never be
    # misinterpreted (or half-understood) by an older checkout
    return "%s/objects/v%d/%s/%s.json" % (
        cache_root(), CACHE_SCHEMA, fingerprint[:2], fingerprint
    )


def _object_path(fingerprint: str) -> Path:
    return Path(_object_file(fingerprint))


def quarantine_dir() -> Path:
    return cache_dir() / "quarantine"


def object_meta(
    result: RunResult,
    graph: Graph,
    config: SystemConfig,
    faults=None,
) -> Dict[str, object]:
    """Self-describing repair metadata embedded in a disk object.

    Enough for ``fsck --repair`` to *recompute* the object from scratch
    through the public api and check the recomputed fingerprint against
    the damaged file's name.  Runs that cannot be rebuilt this way
    (faulted runs, hand-modified configs) are tagged so fsck quarantines
    them honestly instead of recomputing the wrong thing.
    """
    meta: Dict[str, object] = {
        "model": result.model_name,
        "config": result.config_name,
        "backend": config.backend,
        "steps": result.steps,
        "batch_size": graph.batch_size,
    }
    if faults is not None:
        meta["faulted"] = True
    return meta


#: Every framed file opens with these bytes, then its 64-hex-digit digest
#: (see :func:`frame`); a read finds the digest at a fixed offset.
_HEAD_PREFIX = b'{"repro_object":%d,"sha256":"' % OBJECT_FORMAT
_DIGEST_END = len(_HEAD_PREFIX) + 64

#: marshal format of the payload.  Formats 3 and later write reference
#: flags and interned-string codes that depend on object identity, so the
#: same result could encode to different bytes after a pickle round trip
#: (the pooled runner's path); format 2 writes values only.
MARSHAL_VERSION = 2


def frame(payload: bytes, meta: Optional[Dict[str, object]]):
    """Frame ``payload`` behind a checksummed head; returns ``(data,
    payload_offset)``.

    The file is one JSON line, ``{"repro_object":2,"sha256":...,
    "meta":...}``, then the payload bytes.  The ``sha256`` covers every
    byte after the digest (the rest of the line, ``meta`` included, and
    the payload), so a read checks the whole file without decoding
    ``meta``.  ``meta`` stays in the head, clear of payload damage, which
    is what lets :func:`extract_meta` recover it for repair.  Cache
    objects and stored serve reports share this format.
    """
    body = (
        b'","meta":' + canonical_dumps(meta or {}).encode() + b"}\n" + payload
    )
    digest = hashlib.sha256(body).hexdigest().encode()
    data = _HEAD_PREFIX + digest + body
    return data, len(data) - len(payload)


def unframe(data: bytes, path, key: Optional[str]) -> memoryview:
    """The payload of a framed file, after checking its digest; raise
    :class:`CorruptObjectError` on any damage (``key`` names the file's
    fingerprint or request id in the error)."""
    if data[: len(_HEAD_PREFIX)] != _HEAD_PREFIX:
        raise CorruptObjectError(
            path, f"no format-{OBJECT_FORMAT} head", key
        )
    recorded = data[len(_HEAD_PREFIX) : _DIGEST_END]
    view = memoryview(data)
    actual = hashlib.sha256(view[_DIGEST_END:]).hexdigest()
    if actual.encode() != recorded:
        raise CorruptObjectError(
            path,
            f"checksum mismatch (recorded "
            f"{recorded[:12].decode('ascii', 'replace')}…, "
            f"actual {actual[:12]}…)",
            key,
        )
    end = data.find(b"\n", _DIGEST_END)
    if end < 0:
        raise CorruptObjectError(path, "head has no end", key)
    return view[end + 1 :]


def _object_bytes(result: RunResult, meta: Optional[Dict[str, object]]):
    """One cache object: the ``marshal`` bytes of
    :meth:`~repro.sim.results.RunResult.to_dict`, framed with ``meta``;
    returns ``(data, payload_offset)``."""
    return frame(marshal.dumps(result.to_dict(), MARSHAL_VERSION), meta)


def _load_object(data: bytes, path, fingerprint: Optional[str]) -> RunResult:
    """Decode one object file; raise :class:`CorruptObjectError` on any
    damage.

    The digest is checked before ``marshal.loads`` sees a byte: marshal
    of damaged bytes can load wrong values or ask for unbounded memory.
    """
    payload = unframe(data, path, fingerprint)
    try:
        return RunResult.from_dict(marshal.loads(payload))
    except Exception as exc:
        raise CorruptObjectError(
            path, f"payload does not deserialize ({exc!r})", fingerprint
        )


def _read_file(path: str) -> bytes:
    """The bytes of the file at ``path``, read unbuffered in one call
    sized by ``fstat`` (no file object: a warm hit reads one small file)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size)
        # read on after a short read (a signal, a network filesystem): a
        # truncated read would fail the digest and quarantine a good file
        while len(data) < size:
            more = os.read(fd, size - len(data))
            if not more:
                break
            data += more
    finally:
        os.close(fd)
    return data


def read_object(path: Path, fingerprint: Optional[str] = None) -> RunResult:
    """Strict loader (fsck, tools): raises :class:`CorruptObjectError`."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise CorruptObjectError(path, f"unreadable ({exc})", fingerprint)
    return _load_object(data, path, fingerprint)


def extract_meta(data: bytes) -> Optional[Dict[str, object]]:
    """Best-effort ``meta`` recovery from a (possibly damaged) object.

    Decodes the JSON value after the head's ``"meta":`` key and ignores
    whatever follows it, so damage to the payload (or to the newline
    that ends the head) leaves ``meta`` readable.  Returns ``None`` when
    the head itself is gone.
    """
    mark = b',"meta":'
    at = data.find(mark)
    if at < 0:
        return None
    text = data[at + len(mark) :].decode("utf-8", errors="replace")
    try:
        meta, _end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None
    return meta if isinstance(meta, dict) else None


def quarantine(path: Path) -> Optional[Path]:
    """Move a damaged file out of the store (never serve it again).

    Mirrors the file's cache-relative path under ``quarantine/`` for
    later forensics; falls back to deletion if even the move fails.
    Returns the quarantined path, or ``None`` when the file is gone.
    """
    try:
        rel = path.resolve().relative_to(cache_dir().resolve())
    except (ValueError, OSError):
        rel = Path(path.name)
    dest = quarantine_dir() / rel
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, dest)
        return dest
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None


def _note_corrupt(path: Path, exc: CorruptObjectError) -> None:
    from ..obs.metrics import GLOBAL_REGISTRY

    _stats["misses_corrupt"] += 1
    _stats["quarantined"] += 1
    GLOBAL_REGISTRY.counter("cache.corrupt_objects").inc()
    quarantine(path)
    print(
        f"warning: quarantined corrupt cache object {path.name}: "
        f"{exc.reason}",
        file=sys.stderr,
    )


def get(fingerprint: str) -> Optional[RunResult]:
    """Look up a result by fingerprint (memory first, then disk).

    A disk object that fails its checksum (or does not decode) is
    quarantined and counted — the caller sees a recomputable miss, never
    corrupt data.
    """
    result = _memory.get(fingerprint)
    if result is not None:
        _stats["memory_hits"] += 1
        _note_tenant("hits", fingerprint)
        return result
    if disk_enabled():
        path = _object_file(fingerprint)
        try:
            data = _read_file(path)
        except OSError:
            _stats["misses_absent"] += 1
        else:
            try:
                result = _load_object(data, path, fingerprint)
            except CorruptObjectError as exc:
                _note_corrupt(Path(path), exc)
                result = None
        if isinstance(result, RunResult):
            _memory[fingerprint] = result
            _stats["disk_hits"] += 1
            _note_tenant("hits", fingerprint)
            try:
                os.utime(path)  # refresh mtime: prune() evicts LRU-first
            except OSError:
                pass
            return result
    else:
        _stats["misses_absent"] += 1
    _stats["misses"] += 1
    _note_tenant("misses")
    return None


def put(
    fingerprint: str,
    result: RunResult,
    meta: Optional[Dict[str, object]] = None,
) -> None:
    """Store a result in both tiers (atomic, checksummed on disk).

    ``meta`` (see :func:`object_meta`) makes the disk object repairable
    by ``fsck``; without it the object is still checksummed and
    quarantinable, just not recomputable from the file alone.
    """
    _memory[fingerprint] = result
    _stats["stores"] += 1
    _note_tenant("stores", fingerprint)
    if not disk_enabled():
        return
    if writes_suppressed():
        _stats["degraded_skips"] += 1
        return
    data, payload_offset = _object_bytes(result, meta)
    write_framed(
        _object_path(fingerprint),
        data,
        payload_offset,
        "cache.object_write",
        fingerprint,
    )


def write_framed(
    path: Path, data: bytes, payload_offset: int, site: str, token: str
) -> bool:
    """Write one framed file atomically (a unique temp file, then
    ``os.replace``); returns True when it landed.

    ``site`` is the chaos write hook (which damages only bytes from
    ``payload_offset`` on, so the head survives for repair) and ``token``
    the file's fingerprint or request id.  A failure is counted toward
    degraded mode (:func:`note_write_failure`) instead of raised:
    read-only/full/odd filesystems degrade to the memory tier.
    """
    try:
        data = _chaos.mangle(site, data, token=token, protect=payload_offset)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)  # atomic: concurrent writers both win
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        note_write_failure(exc, f"{site} for {token[:12]}…")
        return False
    note_write_success()
    return True


def clear(disk: bool = True) -> None:
    """Drop the memory tier and (by default) this cache dir's disk tier."""
    _memory.clear()
    with _tenant_lock:
        _tenant_stats.clear()
        _tenant_seen.clear()
    if not disk:
        return
    tenants = _tenants_dir()
    if tenants.is_dir():
        for index in tenants.glob("*.idx"):
            try:
                index.unlink()
            except OSError:
                pass
    objects = cache_dir() / "objects"
    if not objects.is_dir():
        return
    # rglob sweeps every schema namespace (objects/v<N>/<aa>/) as well as
    # legacy layouts: pre-v3 flat shards (objects/<aa>/*.json) and the
    # pre-JSON pickle format (*.pkl)
    for pattern in ("*.json", "*.pkl"):
        for entry in objects.rglob(pattern):
            try:
                entry.unlink()
            except OSError:
                pass


def _disk_entries():
    """Yield ``(mtime, size, path)`` for every disk-tier entry (all schema
    namespaces and legacy layouts)."""
    objects = cache_dir() / "objects"
    if not objects.is_dir():
        return
    for pattern in ("*.json", "*.pkl"):
        for entry in objects.rglob(pattern):
            try:
                stat = entry.stat()
            except OSError:
                continue  # raced with a concurrent prune/clear
            yield (stat.st_mtime, stat.st_size, entry)


def disk_usage() -> Dict[str, int]:
    """Disk-tier footprint: ``{"disk_entries": N, "disk_bytes": B}``."""
    entries = 0
    total = 0
    for _mtime, size, _path in _disk_entries():
        entries += 1
        total += size
    return {"disk_entries": entries, "disk_bytes": total}


def prune(max_bytes: int) -> Dict[str, int]:
    """Evict least-recently-used disk entries until the tier fits
    ``max_bytes``.

    Recency is file mtime — refreshed on every disk hit — so the entries
    that go first are the ones no run has read for the longest.  The
    memory tier is untouched (it dies with the process anyway).  Returns
    ``removed_entries``/``removed_bytes``/``kept_entries``/``kept_bytes``
    and accumulates the removals into :func:`stats` as ``pruned_entries``
    / ``pruned_bytes``.
    """
    if max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    entries = sorted(_disk_entries())  # oldest mtime first
    total = sum(size for _m, size, _p in entries)
    removed = 0
    removed_bytes = 0
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
        removed_bytes += size
    _stats["pruned_entries"] += removed
    _stats["pruned_bytes"] += removed_bytes
    return {
        "removed_entries": removed,
        "removed_bytes": removed_bytes,
        "kept_entries": len(entries) - removed,
        "kept_bytes": total,
    }


def stats() -> Dict[str, int]:
    """Snapshot of hit/miss/prune counters (for the benchmark harness).

    ``degraded`` reflects the live memory-only flag (0/1), not a count.
    """
    snapshot = dict(_stats)
    snapshot["degraded"] = 1 if _degraded["active"] else 0
    return snapshot


def reset_stats() -> None:
    for key in _stats:
        _stats[key] = 0
    _reset_degraded()


# ---------------------------------------------------------------------------
# simulation entry points
# ---------------------------------------------------------------------------
def simulate_fresh(
    graph: Graph,
    policy: SchedulingPolicy,
    config: SystemConfig,
    steps: Optional[int] = None,
    faults=None,
    validate: bool = False,
    *,
    record_timeline: bool = False,
    observe=None,
) -> Tuple[RunResult, Optional["Timeline"]]:
    """Build and run one :class:`~repro.sim.simulation.Simulation`, with
    no cache lookup or store; returns ``(result, timeline)``.

    The one place a simulation is constructed: :func:`simulate_cached`
    on a miss, ``repro.api.simulate``'s live (observed or validated)
    runs and the batch runner's workers all come here.  ``validate``
    runs the live invariant checker plus two round-trip equivalence
    checks, through the artifacts' JSON and through the disk tier's
    stored form, raising :class:`~repro.errors.InvariantViolation`
    on the first broken law.  ``timeline`` is None unless
    ``record_timeline`` or ``validate`` asked for one.
    """
    from .simulation import Simulation  # local import avoids a cycle

    sim = Simulation(
        graph,
        policy,
        config=config,
        steps=steps,
        record_timeline=record_timeline,
        observe=observe,
        faults=faults,
        validate=validate,
    )
    result = sim.run()
    if validate:
        from ..validate.invariants import check_cache_equivalence

        check_cache_equivalence(
            result,
            RunResult.from_json(result.to_json()),
            source="serialization round-trip",
        )
        stored, _offset = _object_bytes(result, None)
        check_cache_equivalence(
            result,
            _load_object(stored, "<stored form>", None),
            source="stored-form round-trip",
        )
    return result, sim.timeline


def simulate_cached(
    graph: Graph,
    policy: SchedulingPolicy,
    config: Optional[SystemConfig] = None,
    steps: Optional[int] = None,
    faults=None,
    validate: Optional[bool] = None,
) -> RunResult:
    """Run (or fetch) one simulation, keyed by content fingerprint.

    Cached equivalent of :func:`simulate_fresh` for any run that does
    not need a timeline.  ``faults`` (a FaultSpec) is part of the
    fingerprint: faulted and fault-free runs cache independently.

    ``validate`` (default: the ``REPRO_VALIDATE`` environment knob) turns
    on the invariant checker (:mod:`repro.validate.invariants`): cache
    hits get the result-level checks, misses the full checks of
    :func:`simulate_fresh`.
    """
    if config is None:
        from ..config import default_config

        config = default_config()
    if validate is None:
        validate = validation_enabled()
    fingerprint = run_fingerprint(graph, policy, config, steps, faults=faults)
    result = get(fingerprint)
    if result is None:
        result, _ = simulate_fresh(
            graph, policy, config, steps, faults=faults, validate=validate
        )
        put(
            fingerprint,
            result,
            meta=object_meta(result, graph, config, faults=faults),
        )
    elif validate:
        from ..validate.invariants import check_result

        check_result(result)
    return result
