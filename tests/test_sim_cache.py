"""Content-addressed simulation cache + parallel runner."""

import dataclasses

import pytest

from repro.baselines import build_configuration
from repro.config import default_config
from repro.experiments import clear_caches, run_model_on, runner
from repro.experiments.common import model_job, run_points
from repro.nn.models import build_model
from repro.runtime.scheduler import HeteroPimPolicy, MixedWorkloadPolicy
from repro.sim import cache as sim_cache
from repro.sim.cache import run_fingerprint, simulate_cached
from repro.sim.simulation import Simulation

MODEL = "lstm"  # smallest evaluation workload: keeps these tests quick


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk tier at a throwaway directory; drop the memory tier."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    sim_cache._memory.clear()
    sim_cache.reset_stats()
    runner.set_jobs(None)
    yield
    sim_cache._memory.clear()
    runner.set_jobs(None)


def _job():
    config, policy = build_configuration("hetero-pim")
    return build_model(MODEL), policy, config


class TestFingerprint:
    def test_stable_across_equal_content(self):
        g1, p1, c1 = _job()
        g2, p2, c2 = _job()
        assert run_fingerprint(g1, p1, c1) == run_fingerprint(g2, p2, c2)

    def test_every_config_field_invalidates(self):
        # perturbing ANY numeric/bool/str field anywhere in the SystemConfig
        # tree must produce a different fingerprint
        graph, policy, config = _job()
        reference = run_fingerprint(graph, policy, config)
        for section_field in dataclasses.fields(config):
            section = getattr(config, section_field.name)
            if not dataclasses.is_dataclass(section):
                # scalar top-level field (e.g. the backend tag)
                assert isinstance(section, str), section_field.name
                mutated = dataclasses.replace(
                    config, **{section_field.name: section + "-x"}
                )
                assert run_fingerprint(graph, policy, mutated) != reference, (
                    f"{section_field.name} change did not change the "
                    "fingerprint"
                )
                continue
            for leaf in dataclasses.fields(section):
                value = getattr(section, leaf.name)
                if isinstance(value, bool):
                    perturbed = not value
                elif isinstance(value, int):
                    perturbed = value + 1
                elif isinstance(value, float):
                    perturbed = value * 1.5 + 1.0
                elif isinstance(value, str):
                    perturbed = value + "-x"
                elif isinstance(value, dict):
                    perturbed = {**value, "__probe__": 1.0}
                else:  # pragma: no cover - new field kinds must be handled
                    raise AssertionError(
                        f"unhandled config field type: "
                        f"{section_field.name}.{leaf.name}"
                    )
                mutated = dataclasses.replace(
                    config,
                    **{
                        section_field.name: dataclasses.replace(
                            section, **{leaf.name: perturbed}
                        )
                    },
                )
                assert run_fingerprint(graph, policy, mutated) != reference, (
                    f"{section_field.name}.{leaf.name} change did not "
                    "change the fingerprint"
                )

    def test_policy_flags_invalidate(self):
        graph, _, config = _job()
        reference = run_fingerprint(graph, HeteroPimPolicy(), config)
        variants = [
            HeteroPimPolicy(recursive_kernels=False),
            HeteroPimPolicy(operation_pipeline=False),
            HeteroPimPolicy(cpu_slots=7),
            MixedWorkloadPolicy(frozenset({"lstm"})),
            MixedWorkloadPolicy(frozenset({"lstm"}), restrict_untagged=True),
            MixedWorkloadPolicy(frozenset({"word2vec"})),
        ]
        prints = [run_fingerprint(graph, p, config) for p in variants]
        assert reference not in prints
        assert len(set(prints)) == len(prints)

    def test_steps_invalidate_but_default_matches_explicit(self):
        graph, policy, config = _job()
        default = run_fingerprint(graph, policy, config)
        explicit = run_fingerprint(
            graph, policy, config, steps=config.runtime.measured_steps
        )
        assert default == explicit
        assert run_fingerprint(graph, policy, config, steps=9) != default

    def test_graph_content_invalidates(self):
        _, policy, config = _job()
        small = build_model(MODEL)
        bigger = build_model(MODEL, batch_size=small.batch_size * 2)
        assert run_fingerprint(small, policy, config) != run_fingerprint(
            bigger, policy, config
        )


class TestCacheTiers:
    def test_hit_returns_equal_result(self):
        graph, policy, config = _job()
        first = simulate_cached(graph, policy, config)
        again = simulate_cached(*_job())
        assert first == again
        stats = sim_cache.stats()
        assert stats["misses"] == 1
        assert stats["memory_hits"] + stats["disk_hits"] == 1

    def test_disk_tier_survives_memory_clear(self):
        graph, policy, config = _job()
        first = simulate_cached(graph, policy, config)
        sim_cache._memory.clear()  # simulates a new process
        sim_cache.reset_stats()
        again = simulate_cached(*_job())
        assert first == again
        assert sim_cache.stats()["disk_hits"] == 1

    def test_disk_tier_can_be_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        graph, policy, config = _job()
        simulate_cached(graph, policy, config)
        assert not (sim_cache.cache_dir() / "objects").exists()

    def test_corrupt_entry_is_a_miss(self):
        graph, policy, config = _job()
        simulate_cached(graph, policy, config)
        fp = run_fingerprint(graph, policy, config)
        path = sim_cache._object_path(fp)
        path.write_bytes(b"not valid json")
        sim_cache._memory.clear()
        assert sim_cache.get(fp) is None

    def test_clear_caches_drops_both_tiers(self):
        result = run_model_on(MODEL, "hetero-pim")
        assert result is run_model_on(MODEL, "hetero-pim")  # memory tier
        objects = sim_cache.cache_dir() / "objects"
        assert any(objects.rglob("*.json"))
        clear_caches()
        assert not sim_cache._memory
        assert not any(objects.rglob("*.json"))
        assert run_model_on(MODEL, "hetero-pim") == result  # re-simulated

    def test_modified_base_config_cached_without_collision(self):
        # the old cache_key footgun: a modified base used to either skip
        # the cache or collide; now it gets its own fingerprint entry
        base = default_config().with_frequency_scale(2.0)
        scaled = run_model_on(MODEL, "hetero-pim", base=base)
        plain = run_model_on(MODEL, "hetero-pim")
        assert scaled.step_time_s != plain.step_time_s
        assert run_model_on(MODEL, "hetero-pim", base=base) is scaled


class TestRunner:
    def test_jobs_resolution(self, monkeypatch):
        assert runner.get_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert runner.get_jobs() == 3
        runner.set_jobs(5)
        assert runner.get_jobs() == 5
        runner.set_jobs(None)
        assert runner.get_jobs() == 3
        with pytest.raises(ValueError):
            runner.set_jobs(0)

    def test_parallel_matches_serial_and_warm_cache(self):
        jobs = []
        for config_name in ("cpu", "hetero-pim"):
            config, policy = build_configuration(config_name)
            jobs.append((build_model(MODEL), policy, config, None))

        serial = [Simulation(g, p, config=c, steps=s).run() for g, p, c, s in jobs]

        sim_cache.clear()
        runner.set_jobs(4)
        try:
            parallel = runner.run_jobs(jobs)
            warm = runner.run_jobs(jobs)
        finally:
            runner.set_jobs(None)
        sim_cache._memory.clear()
        from_disk = runner.run_jobs(jobs)

        for results in (parallel, warm, from_disk):
            assert results == serial

    def test_run_points_stores_what_run_model_on_reads(self):
        runs = run_points({"cpu": model_job(MODEL, "cpu")})
        sim_cache.reset_stats()
        assert run_model_on(MODEL, "cpu") is runs["cpu"]
        assert sim_cache.stats()["misses"] == 0


class TestBatchStoresOnce:
    """``run_jobs`` fingerprints and stores each fresh job once: a worker
    only computes, and the parent's ``put`` is the one store."""

    @pytest.fixture
    def calls(self, tmp_path, monkeypatch):
        """Count ``run_fingerprint``/``put`` calls in this process and in
        forked pool workers (which inherit the patch) via an append log."""
        log = tmp_path / "calls.log"
        log.touch()

        def logged(name, fn):
            def wrapper(*args, **kwargs):
                with open(log, "a") as fh:
                    fh.write(name + "\n")
                return fn(*args, **kwargs)

            return wrapper

        for name in ("run_fingerprint", "put"):
            monkeypatch.setattr(
                sim_cache, name, logged(name, getattr(sim_cache, name))
            )
        return lambda name: log.read_text().split().count(name)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_fresh_job_hashed_and_stored_once(self, calls, workers):
        jobs = []
        for config_name in ("cpu", "fixed-pim", "hetero-pim"):
            config, policy = build_configuration(config_name)
            jobs.append((build_model(MODEL), policy, config, 1))
        n = len(jobs)
        runner.set_jobs(workers)
        try:
            runner.run_jobs(jobs)
            assert calls("run_fingerprint") == n
            assert calls("put") == n
            assert sim_cache.stats()["stores"] == n
            objects = sim_cache.cache_dir() / "objects"
            assert len(list(objects.rglob("*.json"))) == n

            runner.run_jobs(jobs)  # every job is cached now
            assert calls("put") == n
            assert sim_cache.stats()["stores"] == n
        finally:
            runner.set_jobs(None)


class TestSchemaNamespacing:
    """Entries written by a different CACHE_SCHEMA must never be read."""

    def test_object_path_is_schema_namespaced(self):
        graph, policy, config = _job()
        fp = run_fingerprint(graph, policy, config)
        path = sim_cache._object_path(fp)
        assert f"v{sim_cache.CACHE_SCHEMA}" in path.parts

    def test_newer_schema_entry_is_invisible(self):
        graph, policy, config = _job()
        fp = run_fingerprint(graph, policy, config)
        result = simulate_cached(graph, policy, config)
        # plant the same payload under a FUTURE schema namespace: a
        # checkout running newer code left it behind
        future = (
            sim_cache.cache_dir()
            / "objects"
            / f"v{sim_cache.CACHE_SCHEMA + 1}"
            / fp[:2]
            / f"{fp}.json"
        )
        future.parent.mkdir(parents=True, exist_ok=True)
        future.write_text(result.to_json())
        sim_cache._object_path(fp).unlink()
        sim_cache._memory.clear()
        sim_cache.reset_stats()
        assert sim_cache.get(fp) is None  # never reads across namespaces
        assert sim_cache.stats()["misses"] == 1

    def test_clear_sweeps_every_namespace_and_legacy_layouts(self):
        graph, policy, config = _job()
        simulate_cached(graph, policy, config)
        objects = sim_cache.cache_dir() / "objects"
        future = objects / f"v{sim_cache.CACHE_SCHEMA + 1}" / "ab" / "x.json"
        legacy_flat = objects / "ab" / "deadbeef.json"
        legacy_pickle = objects / "ab" / "deadbeef.pkl"
        for planted in (future, legacy_flat, legacy_pickle):
            planted.parent.mkdir(parents=True, exist_ok=True)
            planted.write_text("{}")
        sim_cache.clear()
        assert not any(objects.rglob("*.json"))
        assert not any(objects.rglob("*.pkl"))
