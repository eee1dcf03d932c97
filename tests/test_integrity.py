"""Storage integrity: framed files, verified reads, degraded mode, chaos, fsck.

The invariants under test mirror ``tools/check_chaos.py``'s subprocess
scenarios at unit granularity: a damaged object is never *served* (it is
quarantined and recounted as a corrupt miss), damage never outlives
``fsck --repair`` (repairs are byte-identical, proven here by a
hypothesis sweep over corruption positions), and a failing disk demotes
the store to memory-only instead of crashing the run.
"""

import hashlib
import json
import marshal
import pickle
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosRule,
    ChaosSpec,
    ChaosSpecError,
    corrupt_bytes,
    injector,
    make_spec,
)
from repro.errors import CorruptObjectError
from repro.experiments.common import cached_graph, resolve_configuration
from repro.experiments.journal import RunJournal
from repro.serve import start_in_thread
from repro.serve.daemon import ServeDaemon
from repro.sim import cache as sim_cache
from repro.sim import fsck as fsck_mod

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from serve_client import post_simulate  # noqa: E402


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    """Throwaway cache, no inherited chaos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    monkeypatch.setattr(sim_cache, "_memory", {})
    sim_cache.reset_stats()
    injector.deactivate()
    yield
    injector.deactivate()
    sim_cache.reset_stats()


def _simulate(model="alexnet", steps=1, config="hetero-pim"):
    system, policy = resolve_configuration(config)
    graph = cached_graph(model)
    result = sim_cache.simulate_cached(graph, policy, system, steps)
    fingerprint = sim_cache.run_fingerprint(graph, policy, system, steps)
    return fingerprint, result


def _payload_offset(data: bytes) -> int:
    """First byte of the (corruptible) payload region of an object."""
    return data.index(b"\n") + 1


# ---------------------------------------------------------------------------
# object envelope + verified reads
# ---------------------------------------------------------------------------
class TestEnvelope:
    def test_roundtrip_with_self_describing_meta(self):
        fingerprint, result = _simulate()
        path = sim_cache._object_path(fingerprint)
        data = path.read_bytes()
        head = json.loads(data[: _payload_offset(data)])
        assert list(head) == ["repro_object", "sha256", "meta"]
        assert head["repro_object"] == sim_cache.OBJECT_FORMAT == 2
        meta = head["meta"]
        assert meta["model"] == "alexnet"
        assert meta["backend"] == "hmc-hetero"
        assert meta["steps"] == 1
        assert meta["batch_size"] >= 1
        # the digest sits at a fixed offset and covers every byte after it
        digest_at = data.index(b'"sha256":"') + len(b'"sha256":"')
        assert data[digest_at : digest_at + 64].decode() == head["sha256"]
        assert head["sha256"] == hashlib.sha256(
            data[digest_at + 64 :]
        ).hexdigest()
        payload = data[_payload_offset(data) :]
        assert payload == marshal.dumps(result.to_dict(), 2)
        loaded = sim_cache.read_object(path, fingerprint)
        assert loaded == result
        assert sim_cache.extract_meta(data) == meta

    def test_meta_survives_payload_damage(self):
        fingerprint, _result = _simulate()
        path = sim_cache._object_path(fingerprint)
        data = bytearray(path.read_bytes())
        data[-15] ^= 0x08
        data[_payload_offset(bytes(data)) - 1] ^= 0x01  # the head's newline
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptObjectError):
            sim_cache.read_object(path, fingerprint)
        meta = sim_cache.extract_meta(path.read_bytes())
        assert meta is not None and meta["model"] == "alexnet"

    def test_corrupt_object_is_quarantined_not_served(self):
        fingerprint, result = _simulate()
        path = sim_cache._object_path(fingerprint)
        data = bytearray(path.read_bytes())
        data[_payload_offset(bytes(data)) + 5] ^= 0x01
        path.write_bytes(bytes(data))
        sim_cache._memory.clear()
        sim_cache.reset_stats()

        assert sim_cache.get(fingerprint) is None
        stats = sim_cache.stats()
        assert stats["misses"] == 1
        assert stats["misses_corrupt"] == 1
        assert stats["misses_absent"] == 0
        assert stats["quarantined"] == 1
        assert not path.exists()
        assert list(sim_cache.quarantine_dir().rglob("*.json"))

        # the slot is now empty: a re-read is an *absent* miss
        assert sim_cache.get(fingerprint) is None
        stats = sim_cache.stats()
        assert stats["misses"] == 2 and stats["misses_absent"] == 1

        # and a recompute self-heals the slot byte-stably
        healed_fp, healed = _simulate()
        assert healed_fp == fingerprint and healed == result
        assert sim_cache.read_object(path, fingerprint) == result

    def test_value_equivalent_payload_edit_is_caught(self):
        """The checksum covers the payload bytes as stored: an edit that
        loads to the very same values (the payload's first string tagged
        interned, ``u`` -> ``t``) still fails, though re-encoding the
        loaded payload would match."""
        fingerprint, _result = _simulate()
        path = sim_cache._object_path(fingerprint)
        clean = path.read_bytes()
        start = _payload_offset(clean)
        assert clean[start : start + 2] == b"{u"
        edited = clean[: start + 1] + b"t" + clean[start + 2 :]
        assert marshal.loads(edited[start:]) == marshal.loads(clean[start:])

        path.write_bytes(edited)
        sim_cache._memory.clear()
        sim_cache.reset_stats()
        assert sim_cache.get(fingerprint) is None
        stats = sim_cache.stats()
        assert stats["misses_corrupt"] == 1
        assert stats["quarantined"] == 1
        assert not path.exists()
        assert list(sim_cache.quarantine_dir().rglob(path.name))

        path.write_bytes(edited)
        report = fsck_mod.fsck(repair=False)
        assert report["objects"]["corrupt"] == 1
        assert path.read_bytes() == edited

    @settings(max_examples=60, deadline=None)
    @given(
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        mask=st.integers(min_value=1, max_value=255),
        truncate=st.booleans(),
    )
    def test_no_damage_reaches_marshal(self, frac, mask, truncate):
        """Any byte flip or truncation, head or payload, is a quarantined
        corrupt miss; ``marshal.loads`` only ever sees the clean
        payload, whose digest matches."""
        fingerprint, result = _simulate()
        path = sim_cache._object_path(fingerprint)
        clean = path.read_bytes()
        clean_payload = clean[_payload_offset(clean) :]
        offset = int(frac * len(clean))
        if truncate:
            damaged = clean[:offset]
        else:
            damaged = bytearray(clean)
            damaged[offset] ^= mask
            damaged = bytes(damaged)
        seen = []
        loads = marshal.loads

        def spy(data):
            seen.append(bytes(data))
            return loads(data)

        with mock.patch.object(marshal, "loads", spy):
            path.write_bytes(damaged)
            sim_cache._memory.clear()
            sim_cache.reset_stats()
            assert sim_cache.get(fingerprint) is None
            stats = sim_cache.stats()
            assert stats["misses_corrupt"] == 1
            assert stats["quarantined"] == 1
            assert not path.exists()
            assert seen == []

            path.write_bytes(clean)  # control: a clean read loads once
            assert sim_cache.get(fingerprint) == result
            assert seen == [clean_payload]

    def test_object_bytes_do_not_depend_on_how_the_result_travelled(self):
        """A result's object file is byte-identical whether it was stored
        serially, stored after a pickle round trip (the pooled runner's
        path) or rewritten by ``fsck --repair``."""
        fingerprint, result = _simulate()
        path = sim_cache._object_path(fingerprint)
        serial = path.read_bytes()
        meta = sim_cache.extract_meta(serial)

        path.unlink()
        sim_cache.put(fingerprint, pickle.loads(pickle.dumps(result)), meta)
        assert path.read_bytes() == serial

        damaged = bytearray(serial)
        damaged[-1] ^= 0x01
        path.write_bytes(bytes(damaged))
        sim_cache._memory.clear()
        report = fsck_mod.fsck(repair=True)
        assert report["objects"]["repaired"] == 1, report
        assert path.read_bytes() == serial


# ---------------------------------------------------------------------------
# degraded (memory-only) mode
# ---------------------------------------------------------------------------
class TestDegradedMode:
    def test_enospc_degrades_then_reprobe_recovers(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEGRADED_REPROBE_S", "0")
        _fingerprint, result = _simulate()
        injector.activate(make_spec(1, [
            ChaosRule(site="cache.object_write", kind="enospc", one_in=1),
        ]))
        for i in range(4):
            sim_cache.put(f"{i:02d}" + "ab" * 31, result)
        stats = sim_cache.stats()
        assert stats["degraded"] == 1
        assert stats["write_errors"] == 3  # the 4th write was suppressed
        assert stats["degraded_skips"] == 1
        assert sim_cache.get("00" + "ab" * 31) is result  # memory tier holds

        # disk recovers: after the (floored) re-probe interval the next
        # write probes the disk again and succeeds
        injector.deactivate()
        time.sleep(0.15)
        sim_cache.put("ff" + "ab" * 31, result)
        assert sim_cache.stats()["degraded"] == 0
        assert sim_cache._object_path("ff" + "ab" * 31).exists()

    def test_degraded_journal_keeps_records_in_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEGRADED_REPROBE_S", "3600")
        _fingerprint, result = _simulate()
        injector.activate(make_spec(1, [
            ChaosRule(site="cache.object_write", kind="enospc", one_in=1),
        ]))
        for i in range(3):
            sim_cache.put(f"{i:02d}" + "cd" * 31, result)
        assert sim_cache.degraded()
        injector.deactivate()

        journal = RunJournal.create("experiment", {"id": "x"}, run_id="deg")
        journal.record_job("aaa", "done")
        journal.close()
        assert journal.degraded
        assert journal.completed_fingerprints() == {"aaa"}
        assert not (sim_cache.cache_dir() / "journal" / "deg.jsonl").exists()


# ---------------------------------------------------------------------------
# chaos determinism
# ---------------------------------------------------------------------------
class TestChaos:
    def test_same_seed_fires_at_same_occurrences(self):
        spec = make_spec(42, [
            ChaosRule(site="cache.object_write", kind="bit_flip", one_in=3),
        ])
        patterns = []
        for _ in range(2):
            inj = injector.ChaosInjector(spec)
            patterns.append([
                inj.fire("cache.object_write") is not None
                for _ in range(30)
            ])
        assert patterns[0] == patterns[1]
        assert any(patterns[0]) and not all(patterns[0])

    def test_at_and_limit(self):
        inj = injector.ChaosInjector(make_spec(0, [
            ChaosRule(
                site="journal.append", kind="torn_write", at=(1, 3), limit=1
            ),
        ]))
        fired = [inj.fire("journal.append") is not None for _ in range(5)]
        assert fired == [False, True, False, False, False]

    def test_corrupt_bytes_respects_protect(self):
        rule = ChaosRule(site="cache.object_write", kind="bit_flip", at=(0,))
        data = b"H" * 50 + b"P" * 100
        for token in ("t1", "t2", "t3"):
            damaged = corrupt_bytes(data, rule, seed=7, token=token, protect=50)
            assert damaged != data
            assert damaged[:50] == data[:50]
        torn = ChaosRule(site="cache.object_write", kind="torn_write", at=(0,))
        truncated = corrupt_bytes(data, torn, seed=7, token="t", protect=50)
        assert 50 <= len(truncated) < len(data)
        assert truncated == data[: len(truncated)]

    def test_spec_validation(self):
        with pytest.raises(ChaosSpecError, match="unknown chaos site"):
            ChaosRule(site="nope", kind="bit_flip", at=(0,))
        with pytest.raises(ChaosSpecError, match="cannot fire at site"):
            ChaosRule(site="worker.kill", kind="bit_flip", at=(0,))
        with pytest.raises(ChaosSpecError, match="'at' occurrences"):
            ChaosRule(site="journal.append", kind="bit_flip")
        with pytest.raises(ChaosSpecError, match="not valid JSON"):
            ChaosSpec.from_json("[" * 100_000)
        spec = make_spec(9, [
            ChaosRule(site="serve.execute", kind="slow_io", one_in=2),
        ])
        assert spec.__class__.from_json(spec.to_json()) == spec

    def test_env_activation_and_enospc(self, monkeypatch):
        spec = make_spec(3, [
            ChaosRule(site="cache.object_write", kind="enospc", one_in=1),
        ])
        monkeypatch.setenv("REPRO_CHAOS", spec.to_json())
        assert injector.active() is not None
        with pytest.raises(OSError) as err:
            injector.mangle("cache.object_write", b"data", token="t")
        assert err.value.errno == __import__("errno").ENOSPC
        # other sites are untouched
        assert injector.mangle("journal.append", b"data", token="t") == b"data"


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------
_SNAPSHOTS = {}


def _populated_snapshot():
    """Populate (once per cache dir) and snapshot the clean object bytes."""
    key = str(sim_cache.cache_dir())
    if key not in _SNAPSHOTS:
        _simulate("alexnet", 1)
        _simulate("lstm", 1, config="prog-pim")
        root = sim_cache.cache_dir() / "objects"
        _SNAPSHOTS[key] = {
            path: path.read_bytes() for path in sorted(root.rglob("*.json"))
        }
    return _SNAPSHOTS[key]


class TestFsck:
    def test_clean_store_is_clean(self):
        snapshot = _populated_snapshot()
        report = fsck_mod.fsck()
        assert report["objects"]["scanned"] == len(snapshot)
        assert report["objects"]["ok"] == len(snapshot)
        assert fsck_mod.clean(report)

    def test_detect_without_repair_leaves_the_file(self):
        snapshot = _populated_snapshot()
        path = next(iter(snapshot))
        data = bytearray(snapshot[path])
        data[-10] ^= 0x20
        path.write_bytes(bytes(data))
        report = fsck_mod.fsck(repair=False)
        assert report["objects"]["corrupt"] == 1
        assert not fsck_mod.clean(report)
        assert path.read_bytes() == bytes(data)  # untouched without --repair
        path.write_bytes(snapshot[path])

    def test_json_object_of_the_previous_schema_is_legacy(self):
        """A schema-7 object (a JSON envelope) is counted ``legacy`` and
        left in place, with and without ``--repair``."""
        _fingerprint, result = _simulate()
        payload = result.to_json()
        legacy = (
            sim_cache.cache_dir() / "objects" / "v7" / "ab" / ("ab" * 32 + ".json")
        )
        legacy.parent.mkdir(parents=True)
        legacy.write_text(
            '{"repro_object":1,"meta":{},"sha256":"%s","payload":%s}'
            % (hashlib.sha256(payload.encode()).hexdigest(), payload)
        )
        before = legacy.read_bytes()
        for repair in (False, True):
            report = fsck_mod.fsck(repair=repair)
            assert report["objects"]["legacy"] == 1
            assert report["objects"]["scanned"] == 1
            assert report["objects"]["corrupt"] == 0
            assert fsck_mod.clean(report)
        assert legacy.read_bytes() == before
        assert not sim_cache.quarantine_dir().exists()

    def test_faulted_object_is_unrepairable_but_quarantined(self):
        fingerprint, result = _simulate()
        path = sim_cache._object_path(fingerprint)
        meta = sim_cache.extract_meta(path.read_bytes())
        meta["faulted"] = True  # faulted runs embed no replayable spec
        data, _offset = sim_cache._object_bytes(result, meta)
        damaged = bytearray(data)
        damaged[-10] ^= 0x20
        path.write_bytes(bytes(damaged))
        sim_cache._memory.clear()
        report = fsck_mod.fsck(repair=True)
        assert report["objects"]["corrupt"] == 1
        assert report["objects"]["unrepairable"] == 1
        assert not path.exists()  # quarantined, not silently kept
        assert not fsck_mod.clean(report)

    @settings(max_examples=8, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=1),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        kind=st.sampled_from(["bit_flip", "torn_write"]),
    )
    def test_repair_is_byte_identical_wherever_damage_lands(
        self, index, frac, kind
    ):
        snapshot = _populated_snapshot()
        for path, data in snapshot.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        path = sorted(snapshot)[index]
        clean = snapshot[path]
        protect = _payload_offset(clean)
        offset = protect + int(frac * (len(clean) - protect - 1))
        if kind == "bit_flip":
            damaged = bytearray(clean)
            damaged[offset] ^= 0x10
            path.write_bytes(bytes(damaged))
        else:
            path.write_bytes(clean[: max(offset, protect + 1)])
        sim_cache._memory.clear()

        report = fsck_mod.fsck(repair=True)
        assert report["objects"]["corrupt"] == 1, report
        assert report["objects"]["repaired"] == 1, report
        assert fsck_mod.clean(report)
        assert path.read_bytes() == clean


# ---------------------------------------------------------------------------
# fsck of stored serve reports
# ---------------------------------------------------------------------------
REPORT_REQUEST = {"model": "lstm", "steps": 1}


def _serve(request=REPORT_REQUEST):
    """POST ``request`` to a fresh in-thread daemon; ``(headers, body)``."""
    handle = start_in_thread(workers=1)
    try:
        status, headers, body = post_simulate(handle.host, handle.port, request)
    finally:
        handle.stop()
    assert status == 200, body
    return headers, body


class TestReportFsck:
    def test_damaged_body_is_repaired_byte_identically(self):
        headers, body = _serve()
        request_id = headers["x-repro-request-id"]
        path = ServeDaemon.report_path(request_id)
        served = sim_cache.cache_dir() / "serve"
        assert [p for p in served.rglob("*") if p.is_file()] == [path]
        clean = path.read_bytes()
        assert clean.endswith(b"\n" + body)
        assert sim_cache.extract_meta(clean)["model"] == "lstm"

        damaged = bytearray(clean)
        damaged[-len(body) // 2] ^= 0x01
        path.write_bytes(bytes(damaged))
        report = fsck_mod.fsck(repair=False)
        assert report["reports"]["scanned"] == 1
        assert report["reports"]["corrupt"] == 1
        assert not fsck_mod.clean(report)
        assert path.read_bytes() == bytes(damaged)

        sim_cache._memory.clear()
        report = fsck_mod.fsck(repair=True)
        assert report["reports"]["repaired"] == 1, report
        assert fsck_mod.clean(report)
        assert path.read_bytes() == clean

        headers2, body2 = _serve()
        assert headers2["x-repro-served-from"] == "store"
        assert body2 == body

    def test_report_without_a_head_is_unrepairable(self):
        headers, body = _serve()
        path = ServeDaemon.report_path(headers["x-repro-request-id"])
        path.write_bytes(b"\xff\xfe\n" + body)  # not even UTF-8
        report = fsck_mod.fsck(repair=False)
        assert report["reports"]["corrupt"] == 1
        report = fsck_mod.fsck(repair=True)
        assert report["reports"]["unrepairable"] == 1
        assert not fsck_mod.clean(report)
        assert not path.exists()  # quarantined, not silently kept

    def test_head_of_another_request_is_unrepairable(self):
        """Repair rewrites a report only when the request in its head
        recomputes to the file's own name."""
        headers, _body = _serve()
        path = ServeDaemon.report_path(headers["x-repro-request-id"])
        other = ServeDaemon.report_path("ab" * 32)
        other.parent.mkdir(parents=True, exist_ok=True)
        damaged = bytearray(path.read_bytes())
        damaged[-10] ^= 0x01
        other.write_bytes(bytes(damaged))
        report = fsck_mod.fsck(repair=True)
        assert report["reports"]["scanned"] == 2
        assert report["reports"]["ok"] == 1
        assert report["reports"]["unrepairable"] == 1
        assert not other.exists()

    def test_report_of_the_previous_layout_is_legacy(self):
        """A report and its digest file under ``serve/reports/<aa>/``
        (the layout before framed reports) are counted ``legacy`` and
        left in place, with and without ``--repair``."""
        old = sim_cache.cache_dir() / "serve" / "reports" / "ab" / (
            "ab" * 32 + ".json"
        )
        old.parent.mkdir(parents=True)
        old.write_bytes(b'{"report": 1}\n')
        digest_file = old.with_name(old.name + "." + hashlib.sha256().name)
        digest_file.write_text(
            hashlib.sha256(old.read_bytes()).hexdigest() + "\n"
        )
        before = {p: p.read_bytes() for p in (old, digest_file)}
        for repair in (False, True):
            report = fsck_mod.fsck(repair=repair)
            assert report["reports"]["legacy"] == 1
            assert report["reports"]["scanned"] == 0
            assert report["reports"]["corrupt"] == 0
            assert fsck_mod.clean(report)
        assert {p: p.read_bytes() for p in before} == before
        assert not sim_cache.quarantine_dir().exists()
