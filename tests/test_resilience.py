"""Crash-safe execution layer: supervised pool, serve journal, interrupt
and re-run.

The worker functions live at module level so the pool can pickle them
(workers resolve them by qualified name; the fork start method guarantees
the test module is importable in the child).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import ExecutionError, PoisonJob
from repro.experiments import runner
from repro.experiments.common import write_atomic
from repro.serve.journal import RunJournal, journal_dir, list_runs
from repro.sim import cache as sim_cache
from repro.sim.simulation import Simulation

REPO = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# picklable worker functions
# ---------------------------------------------------------------------------
def _dispatch(task):
    """One worker entry point for every failure mode under test."""
    kind = task[0]
    if kind == "ok":
        return task[1] * 10
    if kind == "poison":
        # deterministically kills its worker: must end up quarantined
        os.kill(os.getpid(), signal.SIGKILL)
    if kind == "crash-once":
        # crashes the worker on the first attempt only (the marker file
        # survives the kill): models an external `kill -9` mid-batch
        marker = Path(task[1])
        if not marker.exists():
            marker.write_text("attempt")
            os.kill(os.getpid(), signal.SIGKILL)
        return "recovered"
    if kind == "hang":
        time.sleep(600)
    if kind == "raise":
        raise ValueError("boom")
    raise AssertionError(f"unknown task kind {kind!r}")


@pytest.fixture(autouse=True)
def _fast_supervision(monkeypatch, tmp_path):
    """Keep retries fast and the cache/journal isolated per test."""
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(sim_cache, "_memory", {})


class TestSupervisedPool:
    def test_plain_batch_in_order(self):
        out = runner.supervise(
            _dispatch, [("ok", i) for i in range(5)], n_workers=2
        )
        assert out.results == [0, 10, 20, 30, 40]
        assert out.supervision.completed == 5
        assert not out.failures

    def test_worker_killed_midbatch_batch_completes(self, tmp_path):
        """A one-off kill -9 breaks the pool; the supervisor respawns it,
        re-runs the in-flight suspects in isolation, and the batch
        completes with no quarantine."""
        marker = tmp_path / "crashed-once"
        out = runner.supervise(
            _dispatch,
            [("ok", 1), ("crash-once", str(marker)), ("ok", 2)],
            n_workers=2,
        )
        assert out.results == [10, "recovered", 20]
        assert out.supervision.crashes >= 1
        assert out.supervision.respawns >= 1
        assert not out.failures

    def test_poison_job_quarantined_batch_completes(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_RETRIES", "1")
        out = runner.supervise(
            _dispatch,
            [("ok", 1), ("poison",), ("ok", 2)],
            keys=["a", "b", "c"],
            n_workers=2,
        )
        # healthy neighbours completed despite sharing the pool
        assert out.results[0] == 10 and out.results[2] == 20
        assert out.results[1] is None
        (failure,) = out.failures
        assert failure.kind == "crash"
        assert failure.key == "b"
        assert failure.attempts == 2  # initial + 1 retry
        assert out.supervision.quarantined == ("b",)

    def test_hung_job_hits_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "0.5")
        monkeypatch.setenv("REPRO_JOB_RETRIES", "0")
        start = time.monotonic()
        out = runner.supervise(
            _dispatch, [("hang",), ("ok", 5)], n_workers=2
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30  # nowhere near the 600 s sleep
        assert out.results[1] == 50
        (failure,) = out.failures
        assert failure.kind == "timeout"
        assert "JobTimeout" in failure.error
        assert out.supervision.timeouts == 1

    def test_raising_job_retried_then_quarantined(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_RETRIES", "1")
        out = runner.supervise(
            _dispatch, [("raise",), ("ok", 7)], n_workers=2
        )
        assert out.results[1] == 70
        (failure,) = out.failures
        assert failure.kind == "error"
        assert "boom" in failure.error
        assert failure.attempts == 2
        assert out.supervision.retries == 1

    def test_env_knobs_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "nope")
        with pytest.raises(ValueError, match="REPRO_JOB_TIMEOUT"):
            runner.job_timeout()
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "-1")
        with pytest.raises(ValueError, match=">= 0"):
            runner.retry_backoff()

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="keys"):
            runner.supervise(_dispatch, [("ok", 1)], keys=["a", "b"])


class TestRunJobsSupervision:
    def _job(self, steps=1):
        from repro.experiments.common import (
            cached_graph,
            resolve_configuration,
        )

        config, policy = resolve_configuration("hetero-pim")
        return (cached_graph("alexnet"), policy, config, steps)

    def test_poison_batch_raises_after_completion(self, monkeypatch):
        """run_jobs surfaces quarantined jobs as PoisonJob, but only after
        the healthy jobs completed and landed in the cache."""
        monkeypatch.setenv("REPRO_JOB_RETRIES", "0")
        runner.set_jobs(2)
        try:
            good = self._job(steps=1)
            fingerprint = sim_cache.run_fingerprint(*good, faults=None)
            monkeypatch.setattr(
                runner, "_worker", _poison_first_worker, raising=True
            )
            with pytest.raises(PoisonJob) as excinfo:
                runner.run_jobs([self._job(steps=2), good])
            assert len(excinfo.value.failures) == 1
            # the healthy job's result is cached despite the poison batch
            assert sim_cache.get(fingerprint) is not None
        finally:
            runner.set_jobs(None)

    def test_results_do_not_depend_on_the_cache_keeping_them(
        self, monkeypatch
    ):
        """run_jobs returns the results it computed, not a read-back: a
        cache that drops everything still yields the serial results."""
        jobs = [self._job(1), self._job(2)]
        serial = [
            Simulation(g, p, config=c, steps=s).run() for g, p, c, s in jobs
        ]
        runner.set_jobs(2)
        try:
            monkeypatch.setattr(sim_cache, "get", lambda fp: None)
            monkeypatch.setattr(
                sim_cache, "put", lambda fp, result, meta=None: None
            )
            assert runner.run_jobs(jobs) == serial
        finally:
            runner.set_jobs(None)

    def test_job_tuple_arity_validated(self):
        with pytest.raises(ValueError, match="4 or 5 elements"):
            runner.run_jobs([(1, 2, 3)])


def _poison_first_worker(job):
    """Kill the worker for the 2-step job; run the rest normally."""
    if job[3] == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return runner.sim_cache.simulate_cached(
        job[0], job[1], job[2], steps=job[3], faults=job[4]
    )


class TestJournal:
    def test_roundtrip_and_completed_set(self):
        journal = RunJournal.create("serve", {"workers": 2})
        journal.record_job("aaa", "accepted", request={"model": "lstm"})
        journal.record_job("aaa", "done")
        journal.record_job("bbb", "done")
        journal.record_job("ccc", "failed", error="x")
        journal.close()

        loaded = RunJournal.load(journal.run_id)
        assert loaded.header["kind"] == "serve"
        assert loaded.header["spec"] == {"workers": 2}
        assert loaded.completed_fingerprints() == {"aaa", "bbb"}
        assert loaded.lines[1]["request"] == {"model": "lstm"}
        assert loaded.lines[4]["error"] == "x"
        assert not loaded.is_complete()

    def test_every_line_is_standalone_json(self):
        journal = RunJournal.create("serve", {})
        for i in range(10):
            journal.record_job(f"fp{i}", "done")
        journal.close()
        path = journal_dir() / f"{journal.run_id}.jsonl"
        lines = path.read_text().splitlines()
        assert len(lines) == 11  # header + 10 jobs
        for line in lines:
            json.loads(line)  # no interleaving, no truncation

    def test_truncated_tail_tolerated(self):
        journal = RunJournal.create("serve", {})
        journal.record_job("aaa", "done")
        journal.close()
        path = journal_dir() / f"{journal.run_id}.jsonl"
        with path.open("a") as fh:
            fh.write('{"event": "job", "fp": "bb')  # kill mid-append
        loaded = RunJournal.load(journal.run_id)
        assert loaded.completed_fingerprints() == {"aaa"}

    def test_complete_seals_and_verifies(self):
        journal = RunJournal.create("serve", {})
        journal.record_job("aaa", "done")
        journal.record_event("complete")
        journal.close()
        loaded = RunJournal.load(journal.run_id)
        assert loaded.sealed is True
        assert loaded.corrupt_lines == 0
        assert loaded.is_complete()

    def test_midfile_bitrot_dropped_and_counted(self):
        journal = RunJournal.create("serve", {})
        for fp in ("aaa", "bbb", "ccc"):
            journal.record_job(fp, "done")
        journal.record_event("complete")
        journal.close()
        path = journal_dir() / f"{journal.run_id}.jsonl"
        # same-length in-place edit: the line stays valid JSON but its
        # content no longer matches its sha — classic silent bit rot
        damaged = path.read_bytes().replace(b'"fp":"bbb"', b'"fp":"bXb"')
        path.write_bytes(damaged)
        loaded = RunJournal.load(journal.run_id)
        # the rotten job line is dropped, and the seal (which commits to
        # the original bytes) no longer verifies
        assert loaded.completed_fingerprints() == {"aaa", "ccc"}
        assert loaded.corrupt_lines == 2  # damaged line + broken seal
        assert loaded.sealed is False

    def test_interior_garbage_line_dropped_not_fatal(self):
        journal = RunJournal.create("serve", {})
        journal.record_job("aaa", "done")
        journal.close()
        path = journal_dir() / f"{journal.run_id}.jsonl"
        header, job = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"\x00garbage\xff\n" + job)
        loaded = RunJournal.load(journal.run_id)
        assert loaded.completed_fingerprints() == {"aaa"}
        assert loaded.corrupt_lines == 1
        assert not loaded.is_complete()

    def test_fsck_counts_dropped_journal_lines(self):
        from repro.sim.fsck import clean, fsck

        journal = RunJournal.create("serve", {})
        journal.record_job("aaa", "done")
        journal.close()
        path = journal_dir() / f"{journal.run_id}.jsonl"
        header, job = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(header + b"not json\n" + job)
        # the load drops the damaged line and keeps the rest ...
        loaded = RunJournal.load(journal.run_id)
        assert loaded.completed_fingerprints() == {"aaa"}
        assert loaded.corrupt_lines == 1
        # ... and the audit reports the dropped line without failing
        report = fsck()
        journals = report["journals"]
        assert journals["scanned"] == 1
        assert journals["damaged"] == 1
        assert journals["corrupt_lines"] == 1
        assert clean(report)

    def test_missing_and_invalid_ids_rejected(self):
        with pytest.raises(ExecutionError, match="no journal"):
            RunJournal.load("never-created")
        with pytest.raises(ExecutionError, match="invalid run id"):
            RunJournal.create("serve", {}, run_id="../escape")

    def test_duplicate_run_id_rejected(self):
        RunJournal.create("serve", {}, run_id="dup").close()
        with pytest.raises(ExecutionError, match="already exists"):
            RunJournal.create("serve", {}, run_id="dup")

    def test_list_runs_most_recent_first(self):
        RunJournal.create("serve", {}, run_id="one").close()
        time.sleep(0.02)
        RunJournal.create("serve", {}, run_id="two").close()
        runs = list_runs()
        assert runs[0] == "two" and "one" in runs


class TestWriteAtomic:
    def test_writes_and_overwrites(self, tmp_path):
        target = tmp_path / "deep" / "artifact.txt"
        write_atomic(target, "one")
        assert target.read_text() == "one"
        write_atomic(target, "two")
        assert target.read_text() == "two"

    def test_no_temp_droppings(self, tmp_path):
        target = tmp_path / "artifact.txt"
        for i in range(3):
            write_atomic(target, f"v{i}")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]


class TestCachePrune:
    def _seed_entries(self, sizes):
        objects = sim_cache.cache_dir() / "objects" / "v0" / "aa"
        objects.mkdir(parents=True)
        now = time.time()
        paths = []
        for i, size in enumerate(sizes):
            path = objects / f"entry{i}.json"
            path.write_text("x" * size)
            # oldest first: entry0 is the least recently used
            os.utime(path, (now - 100 + i, now - 100 + i))
            paths.append(path)
        return paths

    def test_lru_eviction_to_budget(self):
        paths = self._seed_entries([100, 100, 100, 100])
        before = sim_cache.stats()["pruned_entries"]
        outcome = sim_cache.prune(max_bytes=250)
        assert outcome["removed_entries"] == 2
        assert outcome["kept_bytes"] == 200
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        stats = sim_cache.stats()
        assert stats["pruned_entries"] == before + 2
        assert stats["pruned_bytes"] >= 200

    def test_disk_usage_and_noop_prune(self):
        self._seed_entries([50, 50])
        usage = sim_cache.disk_usage()
        assert usage == {"disk_entries": 2, "disk_bytes": 100}
        outcome = sim_cache.prune(max_bytes=1000)
        assert outcome["removed_entries"] == 0
        assert outcome["kept_entries"] == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            sim_cache.prune(-1)

    def test_disk_hit_refreshes_mtime_for_lru(self):
        """Reading an entry must protect it from the next prune."""
        from repro.experiments.common import (
            cached_graph,
            resolve_configuration,
        )

        config, policy = resolve_configuration("hetero-pim")
        graph = cached_graph("alexnet")
        result = sim_cache.simulate_cached(graph, policy, config, steps=1)
        assert result is not None
        fingerprint = sim_cache.run_fingerprint(
            graph, policy, config, 1, faults=None
        )
        path = sim_cache._object_path(fingerprint)
        old = time.time() - 3600
        os.utime(path, (old, old))
        sim_cache._memory.clear()
        assert sim_cache.get(fingerprint) is not None  # disk hit
        assert path.stat().st_mtime > old + 1800


class TestTenantAccounting:
    """Per-tenant accounting over the shared content-addressed tiers."""

    @pytest.fixture(autouse=True)
    def _fresh_tenant_state(self):
        with sim_cache._tenant_lock:
            sim_cache._tenant_stats.clear()
            sim_cache._tenant_seen.clear()
        yield

    def _simulate_as(self, tenant, model, steps=1):
        from repro.experiments.common import (
            cached_graph,
            resolve_configuration,
        )

        config, policy = resolve_configuration("hetero-pim")
        graph = cached_graph(model)
        with sim_cache.tenant_scope(tenant):
            sim_cache.simulate_cached(graph, policy, config, steps=steps)

    def test_counters_attributed_to_scope(self):
        self._simulate_as("a", "lstm")  # miss + store
        self._simulate_as("a", "lstm")  # memory hit
        stats = sim_cache.tenant_stats()
        assert stats["a"] == {"hits": 1, "misses": 1, "stores": 1}
        assert "b" not in stats

    def test_shared_entries_counted_once_in_union(self):
        """Regression: two namespaces referencing the same objects/v5
        entry must not double-count its bytes in the combined total."""
        self._simulate_as("a", "lstm")
        self._simulate_as("b", "lstm")  # same entry, hit under b
        self._simulate_as("a", "word2vec")  # a-only entry
        usage = sim_cache.tenant_disk_usage()
        a, b = usage["tenants"]["a"], usage["tenants"]["b"]
        assert a["entries"] == 2 and b["entries"] == 1
        # the shared lstm entry appears in BOTH per-tenant rows...
        assert a["bytes"] + b["bytes"] > usage["union_bytes"]
        # ...but exactly once in the union: union = a + b - shared
        assert usage["shared_entries"] == 1
        assert (
            usage["union_bytes"]
            == a["bytes"] + b["bytes"] - usage["shared_bytes"]
        )
        assert usage["union_entries"] == 2

    def test_pruned_entries_drop_out_of_usage(self):
        self._simulate_as("a", "lstm")
        usage = sim_cache.tenant_disk_usage()
        assert usage["tenants"]["a"]["entries"] == 1
        sim_cache.prune(max_bytes=0)  # evict everything
        after = sim_cache.tenant_disk_usage()
        assert after["tenants"]["a"] == {"entries": 0, "bytes": 0}
        assert after["union_bytes"] == 0

    def test_cache_stats_cli_reports_tenants(self, tmp_path):
        self._simulate_as("a", "lstm")
        self._simulate_as("b", "lstm")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        out = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats"],
            env=env,
            cwd=REPO,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        assert "tenants:" in out
        assert "(shared)" in out and "(union)" in out


class TestInterruptAndResume:
    """SIGINT mid-batch, then the same command again: the artifact is
    byte-identical to an uninterrupted serial run (the paper-evaluation
    invariant), and the finished jobs come from the cache."""

    def _run_cli(self, args, cache_dir, jobs, **kwargs):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["REPRO_JOBS"] = str(jobs)
        env.pop("REPRO_JOB_TIMEOUT", None)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            **kwargs,
        )

    def test_sigint_then_resume_byte_identical(self, tmp_path):
        baseline = self._run_cli(
            ["experiment", "faults"], tmp_path / "cache-serial", jobs=1
        )
        assert baseline.returncode == 0, baseline.stderr

        chaos_cache = tmp_path / "cache-chaos"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = str(chaos_cache)
        env["REPRO_JOBS"] = "2"
        # the second store (the first is the clean baseline) sleeps 3 s:
        # the signal below lands inside it, in the supervised batch
        env["REPRO_CHAOS"] = (
            '{"seed":0,"rules":[{"site":"cache.object_write",'
            '"kind":"slow_io","at":[1],"delay_s":3.0}]}'
        )
        stderr_path = tmp_path / "killed.stderr"
        with open(stderr_path, "wb") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "experiment", "faults"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )
        objects = chaos_cache / "objects"
        deadline = time.time() + 120
        try:
            while time.time() < deadline and proc.poll() is None:
                # the first batch (one job) runs in-process; pool workers
                # mean the second batch, whose first store is held, runs
                if (
                    objects.is_dir()
                    and any(objects.rglob("*.json"))
                    and self._children(proc.pid)
                ):
                    time.sleep(0.5)
                    proc.send_signal(signal.SIGINT)
                    break
                time.sleep(0.05)
            proc.wait(timeout=120)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        # the supervisor turned the signal into Interrupted; a signal
        # between batches would exit 130 with a bare "interrupted"
        assert proc.returncode == 130
        assert "interrupted — completed jobs are cached" in (
            stderr_path.read_text()
        )

        rerun = self._run_cli(["experiment", "faults"], chaos_cache, jobs=2)
        assert rerun.returncode == 0, rerun.stderr
        assert rerun.stdout == baseline.stdout
        assert not (chaos_cache / "journal").exists()

    @staticmethod
    def _children(pid):
        listing = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(pid)],
            capture_output=True,
            text=True,
        ).stdout
        return listing.split()


class TestFriendlyCliErrors:
    """Missing/empty state must produce a pointer, not a traceback."""

    def _run_cli(self, args, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_cache_stats_missing_dir_exits_1_with_hint(self, tmp_path):
        proc = self._run_cli(["cache", "stats"], tmp_path / "nowhere")
        assert proc.returncode == 1
        assert "missing" in proc.stderr
        assert "repro run" in proc.stderr  # actionable next step
        assert "Traceback" not in proc.stderr

    def test_cache_stats_empty_dir_exits_1_with_hint(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        proc = self._run_cli(["cache", "stats"], empty)
        assert proc.returncode == 1
        assert "empty" in proc.stderr
        assert "Traceback" not in proc.stderr
