"""Pinned result corpus for the simulation engine.

``golden/engine_corpus.json`` maps each run below to the sha256 of its
``RunResult.to_json()``.  The corpus spans every zoo model on the five
evaluated configurations, hetero-pim without recursive kernels and without
the operation pipeline, both rival backends, seeded fault specs on the
two fixed-pool configurations, a hand-built failure of lstm's last two
banks, a Fig 16 co-run (merged graph under ``MixedWorkloadPolicy``, clean
and faulted) with its restricted tenant solo, and one Fig 11
frequency-scale and one Fig 12 prog-PIM-count variant.  Any change to the
bytes of any of these results fails here.

A faulted entry's digest covers its per-task recovery records too.  The
result keeps only their counts, so each faulted run is simulated with a
timeline, and the timeline's retries and degradations are put back into
the fault log as ``faults["retries"]``/``faults["degradations"]`` before
hashing.  The same run without a timeline must encode to that record
minus those two lists.  Every entry also round-trips through the disk
tier's stored form to the bytes of its ``to_json()``.

Regenerate the map only for an intended behavioural change:

    PYTHONPATH=src python tests/test_engine_corpus.py --write

The property tests at the bottom pin that the fault hooks are free (a
fault spec with no events leaves every result field but the fault log
unchanged) and that recording a timeline never changes a faulted result.
"""

import dataclasses
import functools
import hashlib
import json
import pathlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import build_configuration
from repro.baselines.configs import make_hetero_pim
from repro.config import default_config
from repro.experiments import fig16
from repro.faults import BankFailure, FaultSpec
from repro.hardware import registry
from repro.hardware.hmc import StackGeometry
from repro.nn.layers import GraphBuilder
from repro.nn.models import ALL_MODELS, build_model
from repro.sim import cache as sim_cache
from repro.sim.results import RunResult, canonical_dumps
from repro.sim.simulation import Simulation

CORPUS = pathlib.Path(__file__).parent / "golden" / "engine_corpus.json"

STEPS = 2
CONFIGS = ("cpu", "gpu", "prog-pim", "fixed-pim", "hetero-pim")
ABLATIONS = ("hetero-pim-no-rc", "hetero-pim-no-op")
FAULT_MODELS = ("vgg-19", "resnet-50", "lstm", "transformer")
FAULT_CONFIGS = ("fixed-pim", "hetero-pim")
#: Between them the three specs draw every fault kind; seeds 5 and 10
#: kill hetero-pim's programmable PIM (complex phases degrade to the CPU)
#: while a DRAM derate is live.
FAULT_SEEDS = (2, 5, 10)
FAULT_EVENTS = 4
#: Fig 16 co-run: the CNN plus ``CORUN_K`` renamed replicas of the tenant.
CORUN = ("vgg-19", "lstm")
CORUN_K = 2
CORUN_FAULT_SEED = 5
#: Hand-built (bank, fraction of the clean makespan) failures: losing the
#: last two banks in placement order lets the register file read every
#: bank busy while the pool still has free units, which no seeded spec
#: above reaches.
TRAILING_BANK_FAILURES = ((31, 0.05), (30, 0.10))


def _setup(variant):
    """Fresh (config, policy) for one named run variant."""
    if variant in CONFIGS:
        return build_configuration(variant)
    if variant == "hetero-pim-no-rc":
        return make_hetero_pim(default_config(), recursive_kernels=False)
    if variant == "hetero-pim-no-op":
        return make_hetero_pim(default_config(), operation_pipeline=False)
    if variant == "hetero-pim-freq-4x":  # Fig 11
        return build_configuration(
            "hetero-pim", default_config().with_frequency_scale(4.0)
        )
    if variant == "hetero-pim-16p":  # Fig 12
        return build_configuration(
            "hetero-pim", default_config().with_prog_pims(16)
        )
    return registry.build(variant)


@functools.lru_cache(maxsize=None)
def _graph(model):
    return build_model(model)


@functools.lru_cache(maxsize=None)
def _clean(model, variant):
    config, policy = _setup(variant)
    return Simulation(_graph(model), policy, config=config, steps=STEPS).run()


def _spec(config, seed, horizon_s):
    return FaultSpec.generate(
        seed=seed,
        horizon_s=horizon_s,
        n_events=FAULT_EVENTS,
        banks=len(StackGeometry(config.stack).banks),
        pool_units=config.fixed_pim.n_units,
        prog_pims=config.prog_pim.n_pims,
    )


def _simulate_faulted(graph, policy, config, spec, record_timeline):
    """``(result, timeline)`` of a faulted run; the timeline is None
    unless ``record_timeline``."""
    sim = Simulation(
        graph,
        policy,
        config=config,
        steps=STEPS,
        faults=spec,
        record_timeline=record_timeline,
    )
    return sim.run(), sim.timeline


def _faulted(model, variant, seed, record_timeline=False):
    config, policy = _setup(variant)
    spec = _spec(config, seed, _clean(model, variant).makespan_s)
    return _simulate_faulted(_graph(model), policy, config, spec, record_timeline)


def _trailing_banks_failed(model, variant, record_timeline=False):
    config, policy = _setup(variant)
    makespan_s = _clean(model, variant).makespan_s
    spec = FaultSpec(
        events=tuple(
            BankFailure(time_s=share * makespan_s, bank=bank)
            for bank, share in TRAILING_BANK_FAILURES
        )
    )
    return _simulate_faulted(_graph(model), policy, config, spec, record_timeline)


@functools.lru_cache(maxsize=None)
def _corun():
    """The Fig 16 co-run job (merged graph, tenant-restricting policy)."""
    graph, policy, config, _ = fig16._corun_job(*CORUN, CORUN_K)
    return Simulation(graph, policy, config=config, steps=STEPS).run()


def _corun_faulted(seed, record_timeline=False):
    """The co-run under the seeded fault spec sized to the clean makespan."""
    graph, policy, config, _ = fig16._corun_job(*CORUN, CORUN_K)
    spec = _spec(config, seed, _corun().makespan_s)
    return _simulate_faulted(graph, policy, config, spec, record_timeline)


def _restricted_solo():
    graph, policy, config, _ = fig16._solo_restricted_job(CORUN[1])
    return Simulation(graph, policy, config=config, steps=STEPS).run()


def _entries():
    """``{key: thunk}`` for every corpus run, in a fixed order, and the set
    of faulted keys, whose thunks take ``record_timeline`` and return
    ``(result, timeline)``."""
    entries = {}
    faulted = set()
    for model in ALL_MODELS:
        for variant in CONFIGS + ABLATIONS:
            entries[f"{model}-{variant}"] = functools.partial(
                _clean, model, variant
            )
    for backend in ("gradpim", "neurotrainer"):
        entries[f"alexnet-{backend}"] = functools.partial(
            _clean, "alexnet", backend
        )
    for model in FAULT_MODELS:
        for variant in FAULT_CONFIGS:
            for seed in FAULT_SEEDS:
                key = f"{model}-{variant}-fault-seed-{seed}"
                entries[key] = functools.partial(_faulted, model, variant, seed)
                faulted.add(key)
    key = "lstm-hetero-pim-trailing-banks-failed"
    entries[key] = functools.partial(
        _trailing_banks_failed, "lstm", "hetero-pim"
    )
    faulted.add(key)
    corun = f"{CORUN[0]}+{CORUN_K}x{CORUN[1]}"
    entries[f"corun-{corun}"] = _corun
    key = f"corun-{corun}-fault-seed-{CORUN_FAULT_SEED}"
    entries[key] = functools.partial(_corun_faulted, CORUN_FAULT_SEED)
    faulted.add(key)
    entries[f"{CORUN[1]}-restricted-solo"] = _restricted_solo
    entries["resnet-50-hetero-pim-freq-4x"] = functools.partial(
        _clean, "resnet-50", "hetero-pim-freq-4x"
    )
    entries["resnet-50-hetero-pim-16p"] = functools.partial(
        _clean, "resnet-50", "hetero-pim-16p"
    )
    return entries, faulted


ENTRIES, FAULTED = _entries()


def _with_recovery_records(result, timeline):
    """``result``'s record with the timeline's per-task retries and
    degradations put back into its fault log."""
    record = json.loads(result.to_json())
    faults = record["faults"]
    assert "retries" not in faults and "degradations" not in faults
    assert faults["counts"]["retries"] == len(timeline.retries)
    assert faults["counts"]["degradations"] == len(timeline.degradations)
    faults["retries"] = timeline.retries
    faults["degradations"] = timeline.degradations
    return canonical_dumps(record)


@functools.lru_cache(maxsize=None)
def _result(key):
    """``key``'s result, simulated without a timeline."""
    if key not in FAULTED:
        return ENTRIES[key]()
    return ENTRIES[key]()[0]


def _pinned_text(key):
    """The bytes the corpus pins for ``key``."""
    if key not in FAULTED:
        return _result(key).to_json()
    result, timeline = ENTRIES[key](record_timeline=True)
    unrecorded = _result(key)
    assert unrecorded.to_json() == result.to_json(), (
        f"{key}: recording a timeline changed the result"
    )
    return _with_recovery_records(result, timeline)


def _digest(key):
    return hashlib.sha256(_pinned_text(key).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_entry(corpus):
    assert sorted(corpus) == sorted(ENTRIES)


@pytest.mark.parametrize("key", list(ENTRIES))
def test_pinned_digest(corpus, key):
    assert _digest(key) == corpus[key], (
        f"{key}: the simulated result's bytes changed"
    )


@pytest.mark.parametrize("key", list(ENTRIES))
def test_stored_form_round_trip(key, tmp_path, monkeypatch):
    """The disk tier's stored form gives back what the artifacts' JSON
    does: the same bytes and an equal result, as frozen as a fresh one
    (decoding fills the frozen records without their ``__init__``)."""
    fresh = _result(key)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.setattr(sim_cache, "_memory", {})
    fingerprint = "ab" * 32
    sim_cache.put(fingerprint, fresh)
    sim_cache._memory.clear()
    stored = sim_cache.get(fingerprint)
    assert stored is not None and stored is not fresh
    assert stored.to_json() == fresh.to_json()
    assert stored == RunResult.from_json(fresh.to_json())
    for record, field in (
        (stored, "makespan_s"),
        (stored.breakdown, "sync_s"),
        (stored.energy, "dynamic_j"),
    ):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, -1.0)
    assert stored == fresh


@st.composite
def small_training_graph(draw):
    batch = draw(st.integers(min_value=1, max_value=8))
    b = GraphBuilder("corpus-model", batch_size=batch)
    flavor = draw(
        st.sampled_from(("cnn", "mlp", "attention", "gnn", "embedding"))
    )
    if flavor == "cnn":
        side = draw(st.sampled_from([4, 8]))
        x = b.input((batch, side, side, draw(st.integers(1, 4))))
        x = b.conv2d(x, draw(st.integers(1, 8)), (3, 3), name="conv0")
        x = b.flatten(x)
    elif flavor == "attention":
        seq = draw(st.sampled_from([2, 4]))
        dm = draw(st.sampled_from([4, 8]))
        x = b.input((batch * seq, dm))
        q = b.dense(x, dm, activation=None, name="q")
        k = b.dense(x, dm, activation=None, name="k")
        v = b.dense(x, dm, activation=None, name="v")
        qh = b.reshape(q, (batch, seq, dm), name="qh")
        kh = b.reshape(k, (batch, seq, dm), name="kh")
        vh = b.reshape(v, (batch, seq, dm), name="vh")
        scores = b.batch_matmul(qh, kh, transpose_b=True, name="scores")
        weights = b.softmax(scores, name="attn")
        weights = b.dropout(weights, name="attn_drop")
        ctx = b.batch_matmul(weights, vh, name="ctx")
        x = b.reshape(ctx, (batch * seq, dm), name="merge")
        x = b.layer_norm(x, name="ln")
    elif flavor == "gnn":
        nodes = batch * 2
        edges = nodes * draw(st.integers(1, 3))
        feat = draw(st.sampled_from([2, 4]))
        h = b.input((nodes, feat))
        src = b.input((edges,), name="src")
        dst = b.input((edges,), name="dst")
        msgs = b.gather(h, src, name="gather0")
        agg = b.segment_sum(msgs, dst, nodes, name="agg0")
        x = b.concat([h, agg], name="combine")
    elif flavor == "embedding":
        ids = b.input((batch * 2,), name="ids")
        emb = b.embedding_lookup(
            draw(st.sampled_from([16, 64])), 4, ids, name="emb",
            sparse_update=draw(st.booleans()),
        )
        x = b.reshape(emb, (batch, 8), name="pool")
    else:
        x = b.input((batch, draw(st.integers(2, 32))))
    for i in range(draw(st.integers(1, 3))):
        x = b.dense(x, draw(st.integers(2, 64)), name=f"fc{i}")
    classes = draw(st.integers(2, 8))
    x = b.dense(x, classes, activation=None, name="logits")
    b.softmax_loss(x, classes)
    return b.finish()


def _without_fault_log(result):
    record = json.loads(result.to_json())
    record.pop("faults")
    record["metrics"] = {
        k: v for k, v in record["metrics"].items() if not k.startswith("faults.")
    }
    return record


@given(
    graph=small_training_graph(),
    config_name=st.sampled_from(FAULT_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    steps=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_event_free_fault_spec_changes_only_the_fault_log(
    graph, config_name, seed, steps
):
    config, policy = build_configuration(config_name)
    clean = Simulation(graph, policy, config=config, steps=steps).run()
    spec = FaultSpec.generate(seed=seed, horizon_s=1.0, n_events=0)
    config, policy = build_configuration(config_name)
    hooked = Simulation(
        graph, policy, config=config, steps=steps, faults=spec
    ).run()
    assert hooked.faults is not None and clean.faults is None
    assert _without_fault_log(hooked) == _without_fault_log(clean)


@given(
    graph=small_training_graph(),
    config_name=st.sampled_from(FAULT_CONFIGS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_events=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_recording_a_timeline_leaves_a_faulted_result_unchanged(
    graph, config_name, seed, n_events
):
    config, policy = build_configuration(config_name)
    clean = Simulation(graph, policy, config=config, steps=STEPS).run()
    spec = FaultSpec.generate(
        seed=seed, horizon_s=clean.makespan_s, n_events=n_events
    )
    runs = []
    for record_timeline in (False, True):
        config, policy = build_configuration(config_name)
        sim = Simulation(
            graph,
            policy,
            config=config,
            steps=STEPS,
            faults=spec,
            record_timeline=record_timeline,
        )
        runs.append((sim.run(), sim.timeline))
    (plain, no_timeline), (recorded, timeline) = runs
    assert no_timeline is None
    assert plain.to_json() == recorded.to_json()
    counts = recorded.faults["counts"]
    assert len(timeline.retries) == counts["retries"]
    assert len(timeline.degradations) == counts["degradations"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_corpus.py --write")
    digests = {key: _digest(key) for key in ENTRIES}
    CORPUS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {CORPUS}")
