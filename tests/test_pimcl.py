"""Extended-OpenCL programming model: kernel binaries (paper Figure 4)."""

import pytest

from repro.errors import KernelBuildError
from repro.nn.ops import Op, OpCost
from repro.pimcl import BinaryKind, PhaseKind, generate_binaries


def conv_op(name="l1/Conv2D", op_type="Conv2D", **cost):
    defaults = dict(muls=1000, adds=1000, bytes_in=4000, bytes_out=4000,
                    parallelism=27)
    defaults.update(cost)
    return Op(name=name, op_type=op_type, cost=OpCost(**defaults))


class TestBinaryGeneration:
    def test_fixed_op_gets_binaries_1_and_2(self):
        kernel = generate_binaries(conv_op())
        assert kernel.has_binary(BinaryKind.CPU)
        assert kernel.has_binary(BinaryKind.FIXED_FULL)
        assert not kernel.has_binary(BinaryKind.PROG)

    def test_hybrid_op_gets_binaries_3_and_4(self):
        op = conv_op("l1/Conv2DBackpropFilter", "Conv2DBackpropFilter")
        kernel = generate_binaries(op)
        assert kernel.has_binary(BinaryKind.FIXED_SUB)
        assert kernel.has_binary(BinaryKind.PROG)
        plan = kernel.binary(BinaryKind.PROG).plan
        kinds = [p.kind for p in plan]
        # Figure 6: complex and MAC phases interleave, complex at both ends
        assert kinds[0] is PhaseKind.COMPLEX
        assert kinds[-1] is PhaseKind.COMPLEX
        assert plan.n_mac_phases == op.info.mac_chunks

    def test_hybrid_plan_conserves_work(self):
        op = conv_op("l1/Conv2DBackpropInput", "Conv2DBackpropInput",
                     other_flops=500)
        plan = generate_binaries(op).binary(BinaryKind.PROG).plan
        assert plan.total_macs == op.cost.macs
        assert plan.total_other_flops == op.cost.other_flops

    def test_prog_op_gets_binary_4_only(self):
        op = conv_op("p1/Relu", "Relu", muls=0, adds=0, other_flops=100)
        kernel = generate_binaries(op)
        assert kernel.has_binary(BinaryKind.PROG)
        assert not kernel.has_binary(BinaryKind.FIXED_FULL)

    def test_host_op_gets_cpu_binary_only(self):
        op = Op(name="r/Reshape", op_type="Reshape")
        kernel = generate_binaries(op)
        assert set(kernel.binaries) == {BinaryKind.CPU}

    def test_missing_binary_raises(self):
        kernel = generate_binaries(Op(name="r/Reshape", op_type="Reshape"))
        with pytest.raises(KernelBuildError):
            kernel.binary(BinaryKind.FIXED_FULL)

    def test_streaming_fixed_op(self):
        op = Op(name="s/Slice", op_type="Slice",
                cost=OpCost(bytes_in=1000, bytes_out=1000))
        plan = generate_binaries(op).binary(BinaryKind.FIXED_FULL).plan
        assert len(plan) == 1
        assert plan.phases[0].macs == 0
        assert plan.phases[0].bytes_moved > 0
