"""Experiments read each point once.

An experiment lists a stage's points once and renders from the results
that one batch returns (``experiments.common.run_points`` over
``runner.run_jobs``): one ``run_fingerprint`` call and one cache lookup per
point, one store per simulated point.  Before, every point was
fingerprinted and looked up by a prefetch and again by the render loop (a
cold ``fig9.run(models=("alexnet",))`` made 10 fingerprints), and fig16
merged each co-run graph twice.
"""

import pytest

from repro.experiments import fig9, fig16
from repro.sim import cache as sim_cache
from repro.validate import invariants


@pytest.fixture(autouse=True)
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.setattr(sim_cache, "_memory", {})
    yield


@pytest.fixture
def calls(monkeypatch):
    """Counts of the cache entry points and of fig16's graph merges."""
    counts = {}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("run_fingerprint", "get", "put"):
        counted(sim_cache, name)
    counted(fig16, "merge_graphs")
    return counts


def test_cold_fig9_fingerprints_looks_up_and_stores_each_point_once(calls):
    fig9.run(models=("alexnet",))
    assert calls == {"run_fingerprint": 5, "get": 5, "put": 5}


def test_one_pair_fig16_reads_each_point_once_and_merges_once(calls):
    result = fig16.run(pairs=(("alexnet", "lstm"),))
    # the CNN solo, the restricted tenant solo and the co-run
    assert calls["run_fingerprint"] == 3
    assert calls["get"] == 3
    assert calls["merge_graphs"] == 1
    assert list(result) == ["alexnet+lstm"]


def test_validate_checks_every_cached_result_read(monkeypatch):
    fig9.run(models=("alexnet",))  # store the five points
    checked = []
    check_result = invariants.check_result
    monkeypatch.setattr(
        invariants,
        "check_result",
        lambda result: checked.append(result) or check_result(result),
    )
    monkeypatch.setenv("REPRO_VALIDATE", "1")
    sim_cache.reset_stats()
    fig9.run(models=("alexnet",))
    assert sim_cache.stats()["stores"] == 0
    assert len(checked) == 5
