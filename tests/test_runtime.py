"""Runtime system: selection, scheduler policy, utilization registers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.errors import HardwareConfigError, SchedulingError
from repro.hardware.fixed_pim import FixedPIMPool
from repro.hardware.hmc import StackGeometry
from repro.hardware.placement import place_fixed_pims
from repro.nn.models import build_model
from repro.profiling import WorkloadProfiler
from repro.runtime import (
    HeteroPimPolicy,
    UtilizationRegisters,
    rank_operations,
    select_candidates,
)
from repro.runtime.scheduler import MixedWorkloadPolicy


@pytest.fixture(scope="module")
def vgg_profile():
    return WorkloadProfiler().profile(build_model("vgg-19"))


class TestSelection:
    def test_global_index_is_sum_of_ranks(self, vgg_profile):
        ranked = rank_operations(vgg_profile)
        for r in ranked:
            assert r.global_index == r.time_rank + r.memory_rank
        # sorted by ascending global index
        indexes = [r.global_index for r in ranked]
        assert indexes == sorted(indexes)

    def test_hottest_type_ranks_first(self, vgg_profile):
        ranked = rank_operations(vgg_profile)
        # Conv2DBackpropFilter tops both VGG-19 lists in Table I
        assert ranked[0].op_type == "Conv2DBackpropFilter"
        assert ranked[0].global_index <= ranked[1].global_index

    def test_selection_covers_target(self, vgg_profile):
        sel = select_candidates(vgg_profile, coverage=0.90)
        assert sel.time_coverage >= 0.90
        assert sel.target_coverage == 0.90

    def test_selected_types_include_conv_backprops(self, vgg_profile):
        sel = select_candidates(vgg_profile)
        assert "Conv2DBackpropFilter" in sel.candidate_types
        assert "Conv2DBackpropInput" in sel.candidate_types

    def test_candidates_are_instances_of_selected_types(self, vgg_profile):
        sel = select_candidates(vgg_profile)
        by_name = {p.op_name: p.op_type for p in vgg_profile.per_op}
        for name in sel.candidates:
            assert by_name[name] in sel.candidate_types
        assert sel.is_candidate(next(iter(sel.candidates)))

    def test_full_coverage_selects_all_timed_work(self, vgg_profile):
        sel = select_candidates(vgg_profile, coverage=1.0)
        assert sel.time_coverage == pytest.approx(1.0)
        # every op type with nonzero time is selected (zero-cost
        # bookkeeping types may fall outside the coverage sum)
        timed = {t.op_type for t in vgg_profile.by_type if t.time_s > 0}
        assert timed <= sel.candidate_types

    def test_invalid_coverage_rejected(self, vgg_profile):
        with pytest.raises(SchedulingError):
            select_candidates(vgg_profile, coverage=0.0)
        with pytest.raises(SchedulingError):
            select_candidates(vgg_profile, coverage=1.5)

    def test_equal_cost_ranks_independent_of_insertion_order(self):
        """Regression: equal-cost types used to keep profile insertion
        order in the rank sorts, so the candidate set could flip with
        dict/topological ordering.  Ties now break on op_type."""
        from repro.profiling.profiler import TypeProfile, WorkloadProfile

        def type_profile(op_type):
            # two types with byte-identical cost profiles
            return TypeProfile(
                op_type=op_type, invocations=3, time_s=2.0,
                memory_bytes=4096, time_share=0.5, memory_share=0.5,
            )

        def workload(order):
            return WorkloadProfile(
                model_name="tie", step_time_s=4.0,
                total_memory_bytes=8192, per_op=(),
                by_type=tuple(type_profile(t) for t in order),
            )

        forward = rank_operations(workload(("MatMul", "Relu")))
        reverse = rank_operations(workload(("Relu", "MatMul")))
        assert forward == reverse
        # lexicographic tie-break: MatMul < Relu on every rank
        assert [r.op_type for r in forward] == ["MatMul", "Relu"]
        assert forward[0].time_rank == 0 and forward[1].time_rank == 1
        assert forward[0].memory_rank == 0 and forward[1].memory_rank == 1


class TestHeteroPolicy:
    @pytest.fixture(scope="class")
    def prepared(self):
        policy = HeteroPimPolicy()
        policy.prepare(build_model("alexnet"), default_config())
        return policy

    def test_placement_by_offload_class(self, prepared):
        g = build_model("alexnet")
        conv = next(op for op in g.ops if op.op_type == "Conv2D")
        cbf = next(op for op in g.ops if op.op_type == "Conv2DBackpropFilter")
        relu = next(op for op in g.ops if op.op_type == "Relu")
        reshape = next(op for op in g.ops if op.op_type == "Reshape")
        assert prepared.placements(conv) == ("fixed", "cpu")
        assert prepared.placements(cbf) == ("hybrid", "cpu")
        assert prepared.placements(relu) == ("prog", "cpu")
        assert prepared.placements(reshape) == ("cpu",)

    def test_pipeline_depth_follows_op_flag(self):
        on = HeteroPimPolicy(operation_pipeline=True)
        off = HeteroPimPolicy(operation_pipeline=False)
        on.prepare(build_model("dcgan"), default_config())
        off.prepare(build_model("dcgan"), default_config())
        assert on.pipeline_depth >= 1
        assert off.pipeline_depth == 0


class TestMixedWorkloadPolicy:
    def test_restricted_ops_avoid_the_pool(self):
        from repro.nn.graph import merge_graphs

        cnn = build_model("dcgan")
        tenant = build_model("word2vec")
        merged = merge_graphs("co", [cnn, tenant])
        policy = MixedWorkloadPolicy(frozenset({"word2vec"}))
        policy.prepare(merged, default_config())
        tenant_matmul = next(
            op for op in merged.ops
            if op.attrs.get("source_model") == "word2vec"
            and op.op_type == "MatMul"
        )
        assert "fixed" not in policy.placements(tenant_matmul)
        assert policy.priority(tenant_matmul) == 1
        cnn_conv = next(
            op for op in merged.ops
            if op.attrs.get("source_model") == "dcgan"
            and op.op_type == "Conv2D"
        )
        assert policy.placements(cnn_conv) == ("fixed", "cpu")
        assert policy.priority(cnn_conv) == 0

    def test_restrict_untagged(self):
        g = build_model("word2vec")
        policy = MixedWorkloadPolicy(frozenset(), restrict_untagged=True)
        policy.prepare(g, default_config())
        matmul = next(op for op in g.ops if op.op_type == "MatMul")
        assert "fixed" not in policy.placements(matmul)


class TestRegisters:
    def _registers(self, n_units=444):
        geometry = StackGeometry(default_config().stack)
        placement = place_fixed_pims(geometry, n_units)
        pool = FixedPIMPool(n_units)
        return UtilizationRegisters(pool, placement), pool

    def test_idle_snapshot(self):
        regs, _pool = self._registers()
        snap = regs.snapshot()
        assert not any(snap.bank_busy)
        assert snap.any_fixed_idle

    def test_busy_bits_fill_with_allocation(self):
        regs, pool = self._registers()
        pool.allocate("k", 444, now=0.0)
        snap = regs.snapshot()
        assert all(snap.bank_busy)
        assert not snap.any_fixed_idle
        assert regs.idle_bank_count() == 0

    def test_partial_allocation_leaves_idle_banks(self):
        regs, pool = self._registers()
        pool.allocate("k", 434, now=0.0)  # all but 10 units
        assert 0 < regs.idle_bank_count() < 32

    def test_mismatched_placement_rejected(self):
        geometry = StackGeometry(default_config().stack)
        placement = place_fixed_pims(geometry, 100)
        with pytest.raises(HardwareConfigError):
            UtilizationRegisters(FixedPIMPool(444), placement)


def _reference_bank_busy(units_per_bank, failed, occupancy):
    """The register file's original bank-by-bank fill: units are taken in
    placement order, a failed bank's capacity counts as taken, and a bank
    with no units never reads busy."""
    bank_busy = []
    consumed = 0
    for index, capacity in enumerate(units_per_bank):
        if index in failed:
            bank_busy.append(True)
            consumed += capacity
            continue
        if capacity == 0:
            bank_busy.append(False)
            continue
        in_this_bank = max(0, min(capacity, occupancy - consumed))
        bank_busy.append(in_this_bank == capacity)
        consumed += in_this_bank
    return bank_busy


N_BANKS = len(StackGeometry(default_config().stack).banks)


@st.composite
def _failure_sequences(draw):
    """Failed banks in injection order: any set, a run of trailing banks
    (the last units to fill), or every bank."""
    return draw(
        st.one_of(
            st.lists(st.integers(0, N_BANKS - 1), max_size=N_BANKS),
            st.integers(0, N_BANKS).map(
                lambda k: list(range(N_BANKS - k, N_BANKS))
            ),
            st.permutations(range(N_BANKS)),
        )
    )


@given(
    n_units=st.integers(1, 444),
    failures=_failure_sequences(),
    lost_share=st.floats(0.0, 1.0),
    busy_share=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_threshold_registers_match_bank_fill(
    n_units, failures, lost_share, busy_share
):
    """Every reader of the threshold rule (the per-bank bits, the O(1)
    idle check against ``all_busy_at`` and the idle count) equals the
    bank-by-bank fill, after each failure of a sequence."""
    placement = place_fixed_pims(StackGeometry(default_config().stack), n_units)
    pool = FixedPIMPool(n_units)
    regs = UtilizationRegisters(pool, placement)
    lost = round(lost_share * n_units)
    if lost:
        pool.shrink(lost, now=0.0)
    busy = round(busy_share * (n_units - lost))
    if busy:
        pool.allocate("k", busy, now=0.0)
    occupancy = busy + lost
    failed = set()
    for bank in [None] + failures:
        if bank is not None:
            regs.mark_bank_failed(bank)
            failed.add(bank)
        expected = _reference_bank_busy(
            placement.units_per_bank, failed, occupancy
        )
        assert regs.failed_banks == failed
        assert regs.snapshot().bank_busy == expected
        # the scheduler's admission check, as Simulation._fixed_open reads it
        idle = pool.n_units - pool.free_units < regs.all_busy_at
        assert idle == (not all(expected))
        assert regs.idle_bank_count() == expected.count(False)
