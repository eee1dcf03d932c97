"""Cache keying regressions: cost tables, fingerprints, no leakage.

The vectorized cost table and the result cache are both memoized across
runs; every behavioural knob of a run must reach their keys, or a sweep
(frequency scaling, PIM counts, fault seeds) silently serves one
configuration's numbers for another.
"""

import enum
import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro import api
from repro.baselines import build_configuration
from repro.config import default_config
from repro.faults import FaultSpec
from repro.nn.models import build_model
from repro.nn.ops import Op, OpCost
from repro.nn.tensor import TensorSpec
from repro.runtime.scheduler import HeteroPimPolicy, MixedWorkloadPolicy
from repro.sim import cache as sim_cache
from repro.sim.optable import cost_table
from repro.sim.simulation import Simulation
from repro.sim.tracegen import trace_template


def _prepared(config_name="hetero-pim", base=None):
    config, policy = build_configuration(config_name, base)
    graph = build_model("alexnet")
    policy.prepare(graph, config)
    return graph, policy, config


class TestCostTableKeying:
    def test_same_run_reuses_the_table(self):
        graph, policy, config = _prepared()
        assert cost_table(graph, policy, config) is cost_table(
            graph, policy, config
        )

    def test_frequency_scale_gets_its_own_table(self):
        graph, policy, config = _prepared()
        scaled = config.with_frequency_scale(0.5)
        policy.prepare(graph, scaled)
        try:
            slow = cost_table(graph, policy, scaled)
        finally:
            policy.prepare(graph, config)
        fast = cost_table(graph, policy, config)
        assert slow is not fast
        op = graph.ops[0]
        assert slow.estimate("fixed", op, 1.0) != fast.estimate("fixed", op, 1.0)

    def test_prog_pim_count_gets_its_own_table(self):
        graph, policy, config = _prepared()
        base = default_config().with_prog_pims(4)
        graph2, policy2, shrunk = _prepared(base=base)
        assert cost_table(graph, policy, config) is not cost_table(
            graph2, policy2, shrunk
        )

    def test_distinct_graphs_never_share_tables(self):
        g1, p1, c1 = _prepared()
        g2, p2, c2 = _prepared()
        assert cost_table(g1, p1, c1) is not cost_table(g2, p2, c2)


class TestBackendKeying:
    """The backend tag must split every memoization layer: two backends
    with numerically identical sub-configs never share keys."""

    def test_backend_tag_splits_the_fingerprint(self):
        graph, policy, config = _prepared()
        retagged = config.with_backend("other-backend")
        assert sim_cache.run_fingerprint(
            graph, policy, config
        ) != sim_cache.run_fingerprint(graph, policy, retagged)

    def test_backend_tag_splits_the_cost_table(self):
        graph, policy, config = _prepared()
        retagged = config.with_backend("other-backend")
        policy.prepare(graph, retagged)
        try:
            other = cost_table(graph, policy, retagged)
        finally:
            policy.prepare(graph, config)
        assert cost_table(graph, policy, config) is not other

    def test_backend_tag_splits_the_surrogate_key(self):
        from repro.surrogate.features import featurize

        graph, policy, config = _prepared()
        bundle = featurize(graph, policy, config)
        retagged = config.with_backend("other-backend")
        policy.prepare(graph, retagged)
        try:
            other = featurize(graph, policy, retagged)
        finally:
            policy.prepare(graph, config)
        assert bundle.family != other.family
        assert bundle.key != other.key
        assert config.backend in bundle.family
        assert "other-backend" in other.family


class _Flag(enum.IntEnum):
    ONE = 1


class TestRunFingerprint:
    def test_config_knobs_change_the_fingerprint(self):
        graph, policy, config = _prepared()
        fp = sim_cache.run_fingerprint(graph, policy, config)
        scaled = config.with_frequency_scale(0.5)
        shrunk = default_config().with_prog_pims(4)
        assert sim_cache.run_fingerprint(graph, policy, scaled) != fp
        assert sim_cache.run_fingerprint(graph, policy, shrunk) != fp
        assert sim_cache.run_fingerprint(graph, policy, config, steps=7) != fp

    def test_fault_spec_changes_the_fingerprint(self):
        graph, policy, config = _prepared("fixed-pim")
        fp_clean = sim_cache.run_fingerprint(graph, policy, config)
        spec_a = FaultSpec.generate(seed=1, horizon_s=0.05, n_events=2)
        spec_b = FaultSpec.generate(seed=2, horizon_s=0.05, n_events=2)
        fp_a = sim_cache.run_fingerprint(graph, policy, config, faults=spec_a)
        fp_b = sim_cache.run_fingerprint(graph, policy, config, faults=spec_b)
        assert len({fp_clean, fp_a, fp_b}) == 3

    def test_identical_fault_specs_share_a_fingerprint(self):
        graph, policy, config = _prepared("fixed-pim")
        spec_a = FaultSpec.generate(seed=1, horizon_s=0.05, n_events=2)
        spec_b = FaultSpec.generate(seed=1, horizon_s=0.05, n_events=2)
        assert sim_cache.run_fingerprint(
            graph, policy, config, faults=spec_a
        ) == sim_cache.run_fingerprint(graph, policy, config, faults=spec_b)

    def test_memoized_parts_make_the_one_encoding(self):
        """The fingerprint takes its policy, config and fault-spec parts
        from memos; it must equal the digest of the whole encoding."""

        class FlagPolicy(HeteroPimPolicy):
            def __init__(self, flag):
                super().__init__()
                self.flag = flag

            def signature(self):
                return super().signature() + (self.flag,)

        graph, _policy, config = _prepared()
        head = []
        sim_cache._encode(sim_cache.graph_signature(graph), head)

        def reference(policy, steps, faults):
            parts = list(head)
            sim_cache._encode(
                (sim_cache.CACHE_SCHEMA, policy.signature()), parts
            )
            sim_cache._encode(config, parts)
            effective = config.runtime.measured_steps if steps is None else steps
            sim_cache._encode((effective, faults), parts)
            return hashlib.sha256("".join(parts).encode()).hexdigest()

        seen = set()
        # 1, 1.0 and True are equal as tuple items but encode apart, and
        # an IntEnum member is equal to 1 as well; so are the step counts
        # 2 and 2.0 (each graph memoizes its digests by these parts)
        for flag in (1, 1.0, True, 1, "1", _Flag.ONE, _Flag.ONE):
            for steps in (None, 2, 2.0, 2):
                for seed in (None, 1, 1):
                    faults = (
                        None
                        if seed is None
                        else FaultSpec.generate(
                            seed=seed, horizon_s=0.05, n_events=2
                        )
                    )
                    policy = FlagPolicy(flag)
                    fp = sim_cache.run_fingerprint(
                        graph, policy, config, steps, faults=faults
                    )
                    assert fp == reference(policy, steps, faults)
                    seen.add(fp)
        assert len(seen) == 5 * 3 * 2

    @pytest.mark.parametrize(
        "knob, value", [("cpu_slots", 4), ("pipeline_depth", 3)]
    )
    @pytest.mark.parametrize("mixed", [False, True], ids=["hetero", "co-run"])
    def test_policy_fingerprint_survives_prepare(self, knob, value, mixed):
        """prepare() overwrites cpu_slots and pipeline_depth from the
        config; the same policy must fingerprint the same after it."""
        base = default_config()
        config = replace(base, runtime=replace(base.runtime, **{knob: value}))
        graph = build_model("alexnet")
        policy = (
            MixedWorkloadPolicy(frozenset({"lstm"})) if mixed else HeteroPimPolicy()
        )
        before = sim_cache.run_fingerprint(graph, policy, config)
        policy.prepare(graph, config)
        assert getattr(policy, knob) == value
        assert sim_cache.run_fingerprint(graph, policy, config) == before


    def test_concurrent_fingerprints_agree(self):
        """The serve daemon fingerprints on worker threads: racing
        threads filling one graph's digest memo must each get the digest
        a lone caller gets."""
        config, policy = build_configuration("hetero-pim")
        alone = build_model("alexnet")
        expected = {
            steps: sim_cache.run_fingerprint(alone, policy, config, steps)
            for steps in range(1, 9)
        }
        shared = build_model("alexnet")
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = {
                    pool.submit(
                        sim_cache.run_fingerprint, shared, policy, config, steps
                    ): steps
                    for _ in range(25)
                    for steps in expected
                }
                for future, steps in futures.items():
                    assert future.result(timeout=60) == expected[steps]
        finally:
            sys.setswitchinterval(previous)

    def test_prepare_leaves_the_memoized_policy_unchanged(self):
        """resolve_configuration hands out copies of one memoized policy:
        prepare() on a copy (it sets cpu_slots and the selection from
        the config and graph it is given) must not reach the memo."""
        policy = api.resolve_configuration("hetero-pim")[1]
        memoized = api._resolved_config_cache[
            (api.DEFAULT_BACKEND, "hetero-pim", None)
        ][1]
        assert policy is not memoized
        signature = memoized.signature()
        state = dict(vars(memoized))
        base = default_config()
        slots = base.runtime.cpu_slots + 3
        other = replace(base, runtime=replace(base.runtime, cpu_slots=slots))
        policy.prepare(build_model("alexnet"), other)
        assert policy.cpu_slots == slots and policy.selection is not None
        assert memoized.signature() == signature
        assert vars(memoized) == state
        assert api.resolve_configuration("hetero-pim")[1].signature() == signature


class TestNoCrossRunLeakage:
    def test_scaled_run_does_not_contaminate_the_default(self):
        """A frequency-scaled sweep point run in between must leave the
        default configuration's result byte-identical."""
        graph, policy, config = _prepared()
        before = Simulation(graph, policy, config=config, steps=1).run()

        scaled_cfg = config.with_frequency_scale(0.5)
        g2, p2, _ = _prepared()
        p2.prepare(g2, scaled_cfg)
        scaled = Simulation(g2, p2, config=scaled_cfg, steps=1).run()
        assert scaled.step_time_s != before.step_time_s

        g3, p3, c3 = _prepared()
        after = Simulation(g3, p3, config=c3, steps=1).run()
        assert after.to_json() == before.to_json()

    def test_faulted_run_does_not_contaminate_the_clean_one(self):
        """Clean, faulted and clean again on one graph, policy and config:
        all three share one cost table, and the faulted run (a DRAM
        derate among its events) must leave it untouched."""
        graph, policy, config = _prepared("fixed-pim")
        table = cost_table(graph, policy, config)
        clean = Simulation(graph, policy, config=config, steps=1).run()
        spec = FaultSpec.generate(
            seed=2,
            horizon_s=clean.makespan_s,
            n_events=4,
            pool_units=config.fixed_pim.n_units,
            prog_pims=config.prog_pim.n_pims,
        )
        assert "dram-derate" in {event.kind for event in spec.events}
        faulted = Simulation(
            graph, policy, config=config, steps=1, faults=spec
        ).run()
        assert faulted.faults["counts"]["events"] >= 4
        assert cost_table(graph, policy, config) is table
        again = Simulation(graph, policy, config=config, steps=1).run()
        assert cost_table(graph, policy, config) is table
        assert again.to_json() == clean.to_json()


def _grow(graph):
    """Append one large MatMul consuming the graph's last output."""
    n = 2048
    graph.add_tensor(TensorSpec("extra/out", (n, n)))
    graph.add_op(
        Op(
            "extra/MatMul",
            "MatMul",
            inputs=(graph.ops[-1].outputs[0],),
            outputs=("extra/out",),
            cost=OpCost(
                muls=n ** 3, adds=n ** 3, bytes_in=8 * n * n,
                bytes_out=4 * n * n, parallelism=n,
            ),
        )
    )
    return graph


class TestMutatedGraph:
    """A graph mutated after it was simulated re-derives everything: its
    fingerprint, trace template and result match a fresh identical
    build, never the pre-mutation run's."""

    def test_mutation_drops_every_derived_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        graph = build_model("alexnet")
        config, policy = build_configuration("hetero-pim")
        before = api.simulate(graph, "hetero-pim", steps=1).result
        policy.prepare(graph, config)
        stale_fp = sim_cache.run_fingerprint(graph, policy, config)

        _grow(graph)
        fresh = _grow(build_model("alexnet"))
        policy.prepare(graph, config)
        fp = sim_cache.run_fingerprint(graph, policy, config)
        policy.prepare(fresh, config)
        assert fp != stale_fp
        assert fp == sim_cache.run_fingerprint(fresh, policy, config)
        uids = trace_template(graph, 1).uids
        assert len(uids) == graph.num_ops and "s0/extra/MatMul" in uids

        after = api.simulate(graph, "hetero-pim", steps=1).result
        expected = api.simulate(fresh, "hetero-pim", steps=1).result
        assert after.makespan_s != before.makespan_s
        assert after.to_json() == expected.to_json()
