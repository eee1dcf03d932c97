"""Tests of the benchmark's own code (no simulator needed).

    python3 -m pytest perfbench -q
"""

from collections import Counter

import pytest

from calibrate import ELASTICITY, scaled
from plan import WORKLOADS, percentile, plan, self_times, serve_universe, trace_cost


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(19)), 0.5) is None
    assert percentile(list(range(20)), 0.5) == pytest.approx(9.5)
    assert percentile(list(range(99)), 0.9) is None
    assert percentile(list(range(100)), 0.9) == pytest.approx(89.1)
    assert percentile(list(range(999)), 0.99) is None
    assert percentile(list(range(1000)), 0.99) == pytest.approx(989.01)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_plan(workload):
    assert plan(workload, 7) == plan(workload, 7)
    assert plan(workload, 7) != plan(workload, 8)


def test_other_seed_keeps_zoo_jobs():
    assert sorted(plan("zoo", 1)) == sorted(plan("zoo", 2))


def test_other_seed_keeps_faulted_composition():
    models = [Counter(m for m, _ in plan("faulted", s)) for s in (1, 2)]
    assert models[0] == models[1]


def test_serve_sequence_composition():
    universe = len(serve_universe())
    for seed in (1, 2, 3):
        seq = plan("serve", seed)
        kinds = Counter(kind for kind, _ in seq)
        assert kinds == Counter(plan("serve", 1)[i][0] for i in range(len(seq)))
        cold = [idx for kind, idx in seq if kind == "cold"]
        assert sorted(cold) == list(range(universe))
        seen = set()
        for kind, idx in seq:
            if kind == "warm":
                assert idx in seen  # a repeat follows its first sight
            seen.add(idx)


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "job", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "parent": 0, "start": 5.0, "end": 6.0},
    ]
    assert self_times(spans) == {"job": 6.0, "a": 3.0, "b": 1.0}


def test_trace_overhead_is_positive_when_tracing_slows_jobs():
    plain = [{"cold_ms": {"a": 100.0, "b": 300.0}}] * 3
    traced = [{"cold_ms": {"a": 125.0, "b": 375.0}, "cold_stage_s": 0.3}] * 2
    cost = trace_cost(plain, traced)
    assert cost["trace.overhead"] == pytest.approx(0.25)
    # 0.3 s of stage spans against 0.4 s of untraced cold time
    assert cost["trace.coverage"] == pytest.approx(0.75)
    faster = [dict(p, cold_ms={"a": 80.0, "b": 240.0}) for p in traced]
    assert trace_cost(plain, faster)["trace.overhead"] == pytest.approx(-0.2)


def test_scaling_to_the_nominal_host():
    # measured on a host at half the nominal speed
    factor = 0.5 ** ELASTICITY
    assert scaled(2.0, "s", 0.5) == pytest.approx(2.0 * factor)
    assert scaled(4.0, "ms", 0.5) == pytest.approx(4.0 * factor)
    assert scaled(10.0, "1/s", 0.5) == pytest.approx(10.0 / factor)
    assert scaled(100.0, "MB", 0.5) == 100.0
    assert scaled(3.0, "s", 1.0) == 3.0
