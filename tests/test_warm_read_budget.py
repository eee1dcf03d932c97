"""Calls per warm cached read: a cost gate in host-independent units.

A warm ``repro.api.simulate`` disk hit should cost little more than
reading and decoding its stored object: the configuration resolves from
the api's memo and the fingerprint from the graph's memo.  Each disk
case stores one run, drops the memory tier and counts the Python calls
(``call`` events under :func:`sys.setprofile`) of one more
``api.simulate`` of the same request.  Every disk read checks its
object's checksum in :func:`repro.sim.cache.unframe` (the check stored
serve reports share), so the count includes that check.  The memory
case serves the same request from the memory tier, where every call is
front-door overhead.  Each budget is the count measured when it was
recorded plus 10%; Python 3.12 and later inline comprehensions, which
only lowers it.

Two exact checks ride along: such a read builds no ``SystemConfig`` and
does not encode the ``FaultSpec`` again.
"""

import sys

import pytest

from repro import api
from repro.config import SystemConfig
from repro.faults import FaultSpec
from repro.sim import cache as sim_cache

STEPS = 1

#: case -> (model, configuration, fault seed or None, tier read, budget
#: in Python calls per warm read).  Measured on Python 3.11: 45 (zoo) and
#: 46 (faulted) calls per disk hit, 27 per memory hit, each budget that
#: plus 10%.  With the policy copied through ``__reduce_ex__``, results
#: built by their frozen ``__init__`` and no digest memo the counts were
#: 60, 60 and 39; with a JSON payload 69, and before the memos 149 and 193.
#: prog-pim derives its config from the default one, so a build there
#: would construct a ``SystemConfig``.
CASES = {
    "zoo": ("lstm", "prog-pim", None, "disk", 50),
    "faulted": ("lstm", "hetero-pim", 5, "disk", 51),
    "memory": ("lstm", "prog-pim", None, "memory", 30),
}


@pytest.fixture(autouse=True)
def isolated_store(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_VALIDATE", raising=False)
    monkeypatch.setattr(sim_cache, "_memory", {})
    yield


def _stored_request(case):
    """(model, configuration, faults) of ``case``, stored on disk."""
    model, config, seed, _tier, _budget = CASES[case]
    faults = None
    if seed is not None:
        clean = api.simulate(model, config, STEPS)
        faults = FaultSpec.generate(
            seed=seed, horizon_s=clean.makespan_s, n_events=4
        )
    api.simulate(model, config, STEPS, faults=faults)
    return model, config, faults


def _warm_read(model, config, faults, tier="disk"):
    if tier == "disk":
        sim_cache._memory.clear()
    hits = sim_cache.stats()[f"{tier}_hits"]
    api.simulate(model, config, STEPS, faults=faults)
    assert sim_cache.stats()[f"{tier}_hits"] == hits + 1


def warm_read_calls(case):
    """Python calls made by one warm hit of ``case``."""
    request = _stored_request(case)
    tier = CASES[case][3]
    _warm_read(*request)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    if tier == "disk":
        sim_cache._memory.clear()
    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        _warm_read(*request, tier)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("case", list(CASES))
def test_warm_read_calls_within_budget(case):
    measured = warm_read_calls(case)
    budget = CASES[case][4]
    assert measured <= budget, (
        f"{case}: {measured} Python calls per warm read, budget {budget}"
    )


@pytest.mark.parametrize(
    "case", [case for case in CASES if CASES[case][3] == "disk"]
)
def test_warm_read_builds_no_config_and_encodes_no_fault_spec(
    case, monkeypatch
):
    request = _stored_request(case)
    _warm_read(*request)
    configs_built = []
    specs_encoded = []
    init = SystemConfig.__init__
    encode = sim_cache._encode

    def counting_init(self, *args, **kwargs):
        configs_built.append(1)
        init(self, *args, **kwargs)

    def counting_encode(value, out):
        if isinstance(value, FaultSpec):
            specs_encoded.append(1)
        encode(value, out)

    monkeypatch.setattr(SystemConfig, "__init__", counting_init)
    monkeypatch.setattr(sim_cache, "_encode", counting_encode)
    _warm_read(*request)
    assert configs_built == []
    assert specs_encoded == []


if __name__ == "__main__":
    # print the current counts (to record new budgets: value x 1.1)
    import os
    import tempfile

    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.environ["REPRO_CACHE_DIR"] = tmp
            sim_cache._memory.clear()
            print(case, warm_read_calls(case))
