"""Layer-level graph builder with tape-based backward construction.

:class:`GraphBuilder` provides TensorFlow-flavoured layer primitives
(``conv2d``, ``dense``, ``max_pool``, ``lstm_cell``, ...).  Each primitive
emits the *forward* operations into the graph and records a backward closure
on a tape; :meth:`GraphBuilder.finish` replays the tape in reverse to emit
the backward operations (Conv2DBackpropFilter/Input, BiasAddGrad, ReluGrad,
MaxPoolGrad, ...) and one optimizer update per trainable variable — the full
op population of one training step, matching the vocabulary of the paper's
Table I.

Gradient routing is tensor-keyed reverse-mode at layer granularity: each
backward closure consumes the gradient of its recorded output tensor and
deposits gradients for its input tensors.  When two paths deposit a gradient
for the same tensor (residual connections, shared inputs of Inception
branches) the builder emits an ``AddN`` to combine them — the same ops
TensorFlow inserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import GraphError, ShapeError
from .graph import Graph
from .ops import (
    Op,
    OpCost,
    adam_cost,
    batch_matmul_cost,
    conv2d_cost,
    data_movement_cost,
    elementwise_cost,
    matmul_cost,
    pool_cost,
    reduction_cost,
)
from .tensor import TensorSpec, conv_output_hw, deconv_output_hw

#: Backward closure: receives the gradient tensor of the layer's recorded
#: output and returns ``{input_tensor_name: gradient_tensor_name}`` for every
#: input that needs a gradient.
BackwardFn = Callable[[str], Mapping[str, str]]


@dataclass(frozen=True)
class Activation:
    """Handle to a tensor produced by a layer."""

    tensor: str
    shape: Tuple[int, ...]

    @property
    def num_elements(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class _TapeRecord:
    layer: str
    output: str
    backward: BackwardFn


class GraphBuilder:
    """Builds a one-training-step graph for a model.

    Typical use::

        b = GraphBuilder("alexnet", batch_size=32, dataset="imagenet")
        x = b.input((32, 224, 224, 3))
        x = b.conv2d(x, 96, (11, 11), stride=(4, 4), name="conv1")
        ...
        b.softmax_loss(x, num_classes=1000)
        graph = b.finish()
    """

    def __init__(self, name: str, batch_size: int, dataset: str = "synthetic"):
        self.graph = Graph(name=name, batch_size=batch_size, dataset=dataset)
        self._tape: List[_TapeRecord] = []
        self._params: List[Tuple[str, TensorSpec]] = []
        self._param_cache: Dict[str, TensorSpec] = {}
        self._param_grads: Dict[str, str] = {}
        self._loss_seeds: Dict[str, str] = {}
        self._stop_gradient: set = set()
        self._sparse_rows: Dict[str, int] = {}
        self._uid = 0

    # ------------------------------------------------------------------
    # low-level helpers
    # ------------------------------------------------------------------
    def _fresh(self, hint: str) -> str:
        self._uid += 1
        return f"{hint}:{self._uid}"

    def _tensor(self, hint: str, shape: Sequence[int]) -> TensorSpec:
        spec = TensorSpec(self._fresh(hint), tuple(int(d) for d in shape))
        self.graph.add_tensor(spec)
        return spec

    def _param(self, name: str, shape: Sequence[int]) -> TensorSpec:
        """Create a trainable variable; re-requesting the same name returns
        the existing tensor (weight sharing, e.g. LSTM cells across time)."""
        existing = self._param_cache.get(name)
        if existing is not None:
            if existing.shape != tuple(int(d) for d in shape):
                raise GraphError(
                    f"shared parameter {name!r} requested with shape "
                    f"{tuple(shape)} but exists with {existing.shape}"
                )
            return existing
        spec = TensorSpec(name, tuple(int(d) for d in shape))
        self.graph.add_tensor(spec)
        self._params.append((name, spec))
        self._param_cache[name] = spec
        return spec

    def _op(
        self,
        name: str,
        op_type: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        cost: OpCost,
        **attrs: object,
    ) -> Op:
        op = Op(
            name=name,
            op_type=op_type,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            cost=cost,
            attrs=attrs,
        )
        self.graph.add_op(op)
        return op

    def _record(self, layer: str, output: str, backward: BackwardFn) -> None:
        self._tape.append(_TapeRecord(layer=layer, output=output, backward=backward))

    def _needs_grad(self, tensor: str) -> bool:
        """Gradient flows to a tensor iff some op produced it (not an input)."""
        return (
            self.graph.producer_of(tensor) is not None
            and tensor not in self._stop_gradient
        )

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def input(self, shape: Sequence[int], name: str = "input") -> Activation:
        """Declare an external minibatch input tensor."""
        spec = self._tensor(name, shape)
        self.graph.input_bytes += spec.nbytes
        return Activation(spec.name, spec.shape)

    def stop_gradient(self, x: Activation) -> Activation:
        """Prevent gradients from flowing past ``x`` (GAN discriminator-on-
        fake uses this when updating only one sub-network)."""
        self._stop_gradient.add(x.tensor)
        return x

    # ------------------------------------------------------------------
    # convolution
    # ------------------------------------------------------------------
    def conv2d(
        self,
        x: Activation,
        filters: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int] = (1, 1),
        padding: str = "SAME",
        activation: Optional[str] = "relu",
        use_bias: bool = True,
        name: str = "conv",
    ) -> Activation:
        """2-D convolution + optional bias + optional activation."""
        if len(x.shape) != 4:
            raise ShapeError(f"conv2d expects NHWC input, got {x.shape}")
        n, h, w, c_in = x.shape
        kh, kw = kernel
        ho, wo = conv_output_hw(h, w, kernel, stride, padding)
        w_spec = self._param(f"{name}/weights", (kh, kw, c_in, filters))
        out = self._tensor(f"{name}/conv_out", (n, ho, wo, filters))
        in_spec = self.graph.tensor(x.tensor)
        self._op(
            f"{name}/Conv2D",
            "Conv2D",
            [x.tensor, w_spec.name],
            [out.name],
            conv2d_cost(n, ho, wo, c_in, filters, kernel,
                        in_spec.nbytes, w_spec.nbytes, out.nbytes),
            params_read=(w_spec.name,),
            layer=name,
            kernel=kernel,
            stride=stride,
            padding=padding,
        )
        y = Activation(out.name, out.shape)
        if use_bias:
            y = self._bias_add(y, filters, name)
        if activation:
            y = self._activation(y, activation, name)

        def backward(grad_out: str) -> Mapping[str, str]:
            g = grad_out
            if activation:
                g = self._activation_grad(g, y, activation, name)
            if use_bias:
                self._bias_add_grad(g, out.shape, filters, name)
            gw = self._tensor(f"grad/{name}/weights", w_spec.shape)
            self._op(
                f"{name}/Conv2DBackpropFilter",
                "Conv2DBackpropFilter",
                [x.tensor, g],
                [gw.name],
                conv2d_cost(n, ho, wo, c_in, filters, kernel,
                            in_spec.nbytes, out.nbytes, gw.nbytes,
                            index_overhead=1.0),
                layer=name,
                kernel=kernel,
                stride=stride,
                padding=padding,
            )
            self._register_grad(w_spec.name, gw.name)
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", in_spec.shape)
            cost = conv2d_cost(
                n, ho, wo, c_in, filters, kernel,
                out.nbytes, w_spec.nbytes, gi.nbytes, index_overhead=0.6,
            )
            # backprop-to-input occupies one pair per rotated-filter tap
            cost = OpCost(
                muls=cost.muls, adds=cost.adds, other_flops=cost.other_flops,
                bytes_in=cost.bytes_in, bytes_out=cost.bytes_out,
                parallelism=max(1, kh * kw * filters),
            )
            self._op(
                f"{name}/Conv2DBackpropInput",
                "Conv2DBackpropInput",
                [g, w_spec.name],
                [gi.name],
                cost,
                params_read=(w_spec.name,),
                layer=name,
                kernel=kernel,
                stride=stride,
                padding=padding,
                input_shape=in_spec.shape,
            )
            return {x.tensor: gi.name}

        self._record(name, y.tensor, backward)
        return y

    def conv2d_transpose(
        self,
        x: Activation,
        filters: int,
        kernel: Tuple[int, int],
        stride: Tuple[int, int] = (2, 2),
        activation: Optional[str] = "relu",
        use_bias: bool = True,
        name: str = "deconv",
    ) -> Activation:
        """Transposed convolution (DCGAN generator upsampling)."""
        if len(x.shape) != 4:
            raise ShapeError(f"conv2d_transpose expects NHWC input, got {x.shape}")
        n, h, w, c_in = x.shape
        kh, kw = kernel
        ho, wo = deconv_output_hw(h, w, stride)
        w_spec = self._param(f"{name}/weights", (kh, kw, filters, c_in))
        out = self._tensor(f"{name}/deconv_out", (n, ho, wo, filters))
        in_spec = self.graph.tensor(x.tensor)
        self._op(
            f"{name}/Conv2DTranspose",
            "Conv2DTranspose",
            [x.tensor, w_spec.name],
            [out.name],
            conv2d_cost(n, h, w, filters, c_in, kernel,
                        in_spec.nbytes, w_spec.nbytes, out.nbytes),
            params_read=(w_spec.name,),
            layer=name,
        )
        y = Activation(out.name, out.shape)
        if use_bias:
            y = self._bias_add(y, filters, name)
        if activation:
            y = self._activation(y, activation, name)

        def backward(grad_out: str) -> Mapping[str, str]:
            g = grad_out
            if activation:
                g = self._activation_grad(g, y, activation, name)
            if use_bias:
                self._bias_add_grad(g, out.shape, filters, name)
            gw = self._tensor(f"grad/{name}/weights", w_spec.shape)
            self._op(
                f"{name}/Conv2DBackpropFilter",
                "Conv2DBackpropFilter",
                [x.tensor, g],
                [gw.name],
                conv2d_cost(n, h, w, filters, c_in, kernel,
                            in_spec.nbytes, out.nbytes, gw.nbytes,
                            index_overhead=1.0),
                layer=name,
            )
            self._register_grad(w_spec.name, gw.name)
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", in_spec.shape)
            self._op(
                f"{name}/Conv2DBackpropInput",
                "Conv2DBackpropInput",
                [g, w_spec.name],
                [gi.name],
                conv2d_cost(n, h, w, filters, c_in, kernel,
                            out.nbytes, w_spec.nbytes, gi.nbytes,
                            index_overhead=0.6),
                params_read=(w_spec.name,),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, y.tensor, backward)
        return y

    # ------------------------------------------------------------------
    # bias / activations
    # ------------------------------------------------------------------
    def _bias_add(
        self,
        x: Activation,
        channels: int,
        layer: str,
        param_scope: Optional[str] = None,
    ) -> Activation:
        b_spec = self._param(f"{param_scope or layer}/bias", (channels,))
        out = self._tensor(f"{layer}/bias_out", x.shape)
        self._op(
            f"{layer}/BiasAdd",
            "BiasAdd",
            [x.tensor, b_spec.name],
            [out.name],
            elementwise_cost(x.num_elements, n_inputs=1, mac=True),
            params_read=(b_spec.name,),
            layer=layer,
        )
        return Activation(out.name, x.shape)

    def _bias_add_grad(
        self,
        grad: str,
        shape: Tuple[int, ...],
        channels: int,
        layer: str,
        param_scope: Optional[str] = None,
    ) -> None:
        gb = self._tensor(f"grad/{layer}/bias", (channels,))
        self._op(
            f"{layer}/BiasAddGrad",
            "BiasAddGrad",
            [grad],
            [gb.name],
            reduction_cost(math.prod(shape), channels),
            layer=layer,
        )
        self._register_grad(f"{param_scope or layer}/bias", gb.name)

    _ACTIVATIONS = {
        "relu": ("Relu", "ReluGrad", 1.0, 1.0),
        "sigmoid": ("Sigmoid", "SigmoidGrad", 4.0, 3.0),
        "tanh": ("Tanh", "TanhGrad", 5.0, 3.0),
        "lrelu": ("Relu", "ReluGrad", 2.0, 2.0),
    }

    def _activation(self, x: Activation, kind: str, layer: str) -> Activation:
        if kind not in self._ACTIVATIONS:
            raise GraphError(f"unknown activation {kind!r}")
        fwd, _, flops, _ = self._ACTIVATIONS[kind]
        out = self._tensor(f"{layer}/act_out", x.shape)
        self._op(
            f"{layer}/{fwd}",
            fwd,
            [x.tensor],
            [out.name],
            elementwise_cost(x.num_elements, flops_per_element=flops),
            layer=layer,
        )
        return Activation(out.name, x.shape)

    def _activation_grad(
        self, grad: str, y: Activation, kind: str, layer: str
    ) -> str:
        _, bwd, _, flops = self._ACTIVATIONS[kind]
        out = self._tensor(f"grad/{layer}/act", y.shape)
        self._op(
            f"{layer}/{bwd}",
            bwd,
            [grad, y.tensor],
            [out.name],
            elementwise_cost(y.num_elements, n_inputs=2, flops_per_element=flops),
            layer=layer,
        )
        return out.name

    def relu(self, x: Activation, name: str = "relu") -> Activation:
        """Standalone ReLU with its backward op."""
        y = self._activation(x, "relu", name)

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            g = self._activation_grad(grad_out, y, "relu", name)
            return {x.tensor: g}

        self._record(name, y.tensor, backward)
        return y

    def activation(self, x: Activation, kind: str, name: str) -> Activation:
        """Standalone activation (sigmoid / tanh / lrelu) with backward."""
        y = self._activation(x, kind, name)

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            g = self._activation_grad(grad_out, y, kind, name)
            return {x.tensor: g}

        self._record(name, y.tensor, backward)
        return y

    # ------------------------------------------------------------------
    # pooling / normalization
    # ------------------------------------------------------------------
    def max_pool(
        self,
        x: Activation,
        kernel: Tuple[int, int] = (2, 2),
        stride: Tuple[int, int] = (2, 2),
        padding: str = "VALID",
        name: str = "pool",
    ) -> Activation:
        n, h, w, c = x.shape
        ho, wo = conv_output_hw(h, w, kernel, stride, padding)
        in_spec = self.graph.tensor(x.tensor)
        out = self._tensor(f"{name}/pool_out", (n, ho, wo, c))
        self._op(
            f"{name}/MaxPool",
            "MaxPool",
            [x.tensor],
            [out.name],
            pool_cost(n, ho, wo, c, kernel, in_spec.nbytes, out.nbytes),
            layer=name,
            kernel=kernel,
            stride=stride,
            padding=padding,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", in_spec.shape)
            cost = OpCost(
                other_flops=in_spec.num_elements,
                bytes_in=in_spec.nbytes + 2 * out.nbytes,
                bytes_out=in_spec.nbytes,
                parallelism=max(1, c),
            )
            self._op(
                f"{name}/MaxPoolGrad", "MaxPoolGrad",
                [x.tensor, out.name, grad_out], [gi.name], cost, layer=name,
                kernel=kernel,
                stride=stride,
                padding=padding,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, (n, ho, wo, c))

    def avg_pool(
        self,
        x: Activation,
        kernel: Tuple[int, int],
        stride: Tuple[int, int],
        padding: str = "VALID",
        name: str = "avgpool",
    ) -> Activation:
        n, h, w, c = x.shape
        ho, wo = conv_output_hw(h, w, kernel, stride, padding)
        in_spec = self.graph.tensor(x.tensor)
        out = self._tensor(f"{name}/pool_out", (n, ho, wo, c))
        kh, kw = kernel
        windows = n * ho * wo * c
        self._op(
            f"{name}/AvgPool",
            "AvgPool",
            [x.tensor],
            [out.name],
            OpCost(adds=windows * kh * kw, muls=windows,
                   bytes_in=in_spec.nbytes, bytes_out=out.nbytes,
                   parallelism=max(1, c)),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", in_spec.shape)
            self._op(
                f"{name}/AvgPoolGrad", "AvgPoolGrad",
                [grad_out], [gi.name],
                OpCost(muls=in_spec.num_elements, adds=in_spec.num_elements,
                       bytes_in=out.nbytes, bytes_out=in_spec.nbytes,
                       parallelism=max(1, c)),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, (n, ho, wo, c))

    def lrn(self, x: Activation, name: str = "lrn") -> Activation:
        """Local response normalization (AlexNet)."""
        out = self._tensor(f"{name}/lrn_out", x.shape)
        self._op(
            f"{name}/LRN", "LRN", [x.tensor], [out.name],
            elementwise_cost(x.num_elements, flops_per_element=8.0),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/LRNGrad", "LRNGrad", [grad_out, x.tensor], [gi.name],
                elementwise_cost(x.num_elements, n_inputs=2,
                                 flops_per_element=12.0),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    def batch_norm(self, x: Activation, name: str = "bn") -> Activation:
        """Fused batch normalization (ResNet / Inception)."""
        channels = x.shape[-1]
        scale = self._param(f"{name}/gamma", (channels,))
        offset = self._param(f"{name}/beta", (channels,))
        out = self._tensor(f"{name}/bn_out", x.shape)
        numel = x.num_elements
        in_spec = self.graph.tensor(x.tensor)
        self._op(
            f"{name}/FusedBatchNorm",
            "FusedBatchNorm",
            [x.tensor, scale.name, offset.name],
            [out.name],
            OpCost(muls=2 * numel, adds=2 * numel, other_flops=4 * channels,
                   bytes_in=in_spec.nbytes, bytes_out=in_spec.nbytes,
                   parallelism=max(1, channels)),
            params_read=(scale.name, offset.name),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            gi = self._tensor(f"grad/{name}/input", x.shape)
            gs = self._tensor(f"grad/{name}/gamma", (channels,))
            gb = self._tensor(f"grad/{name}/beta", (channels,))
            self._op(
                f"{name}/FusedBatchNormGrad",
                "FusedBatchNormGrad",
                [grad_out, x.tensor],
                [gi.name, gs.name, gb.name],
                OpCost(muls=3 * numel, adds=3 * numel,
                       other_flops=6 * channels,
                       bytes_in=2 * in_spec.nbytes, bytes_out=in_spec.nbytes,
                       parallelism=max(1, channels)),
                layer=name,
            )
            self._register_grad(scale.name, gs.name)
            self._register_grad(offset.name, gb.name)
            if not self._needs_grad(x.tensor):
                return {}
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    # ------------------------------------------------------------------
    # dense / reshape / dropout
    # ------------------------------------------------------------------
    def flatten(self, x: Activation, name: str = "flatten") -> Activation:
        numel = x.num_elements
        n = x.shape[0]
        out = self._tensor(f"{name}/flat", (n, numel // n))
        self._op(
            f"{name}/Reshape", "Reshape", [x.tensor], [out.name],
            OpCost(), layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/ReshapeGrad", "Reshape", [grad_out], [gi.name],
                OpCost(), layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, out.shape)

    def reshape(
        self, x: Activation, shape: Sequence[int], name: str = "reshape"
    ) -> Activation:
        target = tuple(int(d) for d in shape)
        if math.prod(target) != x.num_elements:
            raise ShapeError(
                f"cannot reshape {x.shape} ({x.num_elements} elems) to {target}"
            )
        out = self._tensor(f"{name}/reshaped", target)
        self._op(
            f"{name}/Reshape", "Reshape", [x.tensor], [out.name],
            OpCost(), layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/ReshapeGrad", "Reshape", [grad_out], [gi.name],
                OpCost(), layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, target)

    def dense(
        self,
        x: Activation,
        units: int,
        activation: Optional[str] = "relu",
        use_bias: bool = True,
        name: str = "fc",
        param_scope: Optional[str] = None,
    ) -> Activation:
        """Fully connected layer.

        ``param_scope`` names the weight/bias variables; passing the same
        scope from several calls shares the parameters (recurrent cells).
        """
        if len(x.shape) != 2:
            raise ShapeError(f"dense expects 2-D input, got {x.shape}")
        m, k = x.shape
        w_spec = self._param(f"{param_scope or name}/weights", (k, units))
        out = self._tensor(f"{name}/matmul_out", (m, units))
        self._op(
            f"{name}/MatMul",
            "MatMul",
            [x.tensor, w_spec.name],
            [out.name],
            matmul_cost(m, k, units),
            params_read=(w_spec.name,),
            layer=name,
        )
        y = Activation(out.name, (m, units))
        if use_bias:
            y = self._bias_add(y, units, name, param_scope)
        if activation:
            y = self._activation(y, activation, name)

        def backward(grad_out: str) -> Mapping[str, str]:
            g = grad_out
            if activation:
                g = self._activation_grad(g, y, activation, name)
            if use_bias:
                self._bias_add_grad(g, (m, units), units, name, param_scope)
            gw = self._tensor(f"grad/{name}/weights", w_spec.shape)
            self._op(
                f"{name}/MatMulGradWeights", "MatMul",
                [x.tensor, g], [gw.name],
                matmul_cost(k, m, units), layer=name,
                transpose_a=True,
            )
            self._register_grad(w_spec.name, gw.name)
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", (m, k))
            self._op(
                f"{name}/MatMulGradInput", "MatMul",
                [g, w_spec.name], [gi.name],
                matmul_cost(m, units, k),
                params_read=(w_spec.name,), layer=name,
                transpose_b=True,
            )
            return {x.tensor: gi.name}

        self._record(name, y.tensor, backward)
        return y

    def dropout(self, x: Activation, name: str = "dropout") -> Activation:
        out = self._tensor(f"{name}/drop_out", x.shape)
        self._op(
            f"{name}/Dropout", "Dropout", [x.tensor], [out.name],
            elementwise_cost(x.num_elements, flops_per_element=3.0),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/DropoutGrad", "DropoutGrad", [grad_out], [gi.name],
                elementwise_cost(x.num_elements), layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    # ------------------------------------------------------------------
    # attention / normalization (transformer)
    # ------------------------------------------------------------------
    def batch_matmul(
        self,
        x: Activation,
        y: Activation,
        transpose_b: bool = False,
        name: str = "bmm",
    ) -> Activation:
        """Batched matrix multiply (attention scores / context).

        ``x`` is ``(B, M, K)``; ``y`` is ``(B, K, N)``, or ``(B, N, K)``
        when ``transpose_b``.  The backward pass emits two BatchMatMuls,
        mirroring TensorFlow's BatchMatMul gradient.
        """
        if len(x.shape) != 3 or len(y.shape) != 3:
            raise ShapeError(
                f"batch_matmul expects rank-3 inputs, got {x.shape} / {y.shape}"
            )
        bx, m, k = x.shape
        if transpose_b:
            by, n, k2 = y.shape
        else:
            by, k2, n = y.shape
        if bx != by or k != k2:
            raise ShapeError(
                f"batch_matmul shape mismatch: {x.shape} x {y.shape} "
                f"(transpose_b={transpose_b})"
            )
        out = self._tensor(f"{name}/bmm_out", (bx, m, n))
        self._op(
            f"{name}/BatchMatMul",
            "BatchMatMul",
            [x.tensor, y.tensor],
            [out.name],
            batch_matmul_cost(bx, m, k, n),
            layer=name,
            transpose_b=transpose_b,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            grads: Dict[str, str] = {}
            if self._needs_grad(x.tensor):
                gx = self._tensor(f"grad/{name}/a", x.shape)
                self._op(
                    f"{name}/BatchMatMulGradA", "BatchMatMul",
                    [grad_out, y.tensor], [gx.name],
                    batch_matmul_cost(bx, m, n, k), layer=name,
                    transpose_b=not transpose_b,
                )
                grads[x.tensor] = gx.name
            if self._needs_grad(y.tensor):
                gy = self._tensor(f"grad/{name}/b", y.shape)
                self._op(
                    f"{name}/BatchMatMulGradB", "BatchMatMul",
                    [x.tensor, grad_out], [gy.name],
                    batch_matmul_cost(bx, k, m, n), layer=name,
                    transpose_a=True,
                )
                grads[y.tensor] = gy.name
            return grads

        self._record(name, out.name, backward)
        return Activation(out.name, (bx, m, n))

    def softmax(self, x: Activation, name: str = "softmax") -> Activation:
        """Standalone softmax over the last axis (attention weights)."""
        out = self._tensor(f"{name}/softmax_out", x.shape)
        self._op(
            f"{name}/Softmax", "Softmax", [x.tensor], [out.name],
            elementwise_cost(x.num_elements, flops_per_element=5.0),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/SoftmaxGrad", "SoftmaxGrad",
                [grad_out, out.name], [gi.name],
                elementwise_cost(x.num_elements, n_inputs=2,
                                 flops_per_element=4.0),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    def layer_norm(self, x: Activation, name: str = "ln") -> Activation:
        """Layer normalization over the last axis (transformer blocks)."""
        features = x.shape[-1]
        scale = self._param(f"{name}/gamma", (features,))
        offset = self._param(f"{name}/beta", (features,))
        out = self._tensor(f"{name}/ln_out", x.shape)
        numel = x.num_elements
        rows = max(1, numel // features)
        in_spec = self.graph.tensor(x.tensor)
        self._op(
            f"{name}/LayerNorm",
            "LayerNorm",
            [x.tensor, scale.name, offset.name],
            [out.name],
            OpCost(muls=2 * numel, adds=2 * numel, other_flops=4 * rows,
                   bytes_in=in_spec.nbytes, bytes_out=in_spec.nbytes,
                   parallelism=rows),
            params_read=(scale.name, offset.name),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            gi = self._tensor(f"grad/{name}/input", x.shape)
            gs = self._tensor(f"grad/{name}/gamma", (features,))
            gb = self._tensor(f"grad/{name}/beta", (features,))
            self._op(
                f"{name}/LayerNormGrad",
                "LayerNormGrad",
                [grad_out, x.tensor],
                [gi.name, gs.name, gb.name],
                OpCost(muls=3 * numel, adds=3 * numel,
                       other_flops=6 * rows,
                       bytes_in=2 * in_spec.nbytes, bytes_out=in_spec.nbytes,
                       parallelism=rows),
                layer=name,
            )
            self._register_grad(scale.name, gs.name)
            self._register_grad(offset.name, gb.name)
            if not self._needs_grad(x.tensor):
                return {}
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    # ------------------------------------------------------------------
    # message passing (GNN)
    # ------------------------------------------------------------------
    def gather(
        self, x: Activation, indices: Activation, name: str = "gather"
    ) -> Activation:
        """Gather rows of a node-state matrix by an index tensor.

        ``x`` is ``(N, F)`` node states, ``indices`` is ``(E,)`` edge
        endpoints; the gradient scatters back with UnsortedSegmentSum —
        the message-passing half of a GNN layer.
        """
        if len(x.shape) != 2:
            raise ShapeError(f"gather expects a 2-D source, got {x.shape}")
        n_rows, feat = x.shape
        e = indices.num_elements
        out_shape = indices.shape + (feat,)
        out = self._tensor(f"{name}/gathered", out_shape)
        self._op(
            f"{name}/GatherV2", "GatherV2",
            [x.tensor, indices.tensor], [out.name],
            OpCost(other_flops=e, bytes_in=e * feat * 4 + e * 4,
                   bytes_out=e * feat * 4, parallelism=max(1, e)),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/UnsortedSegmentSum", "UnsortedSegmentSum",
                [grad_out, indices.tensor], [gi.name],
                OpCost(adds=e * feat, bytes_in=e * feat * 4 + e * 4,
                       bytes_out=n_rows * feat * 4,
                       parallelism=max(1, feat)),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, out_shape)

    def segment_sum(
        self,
        x: Activation,
        segment_ids: Activation,
        num_segments: int,
        name: str = "segsum",
    ) -> Activation:
        """Sum rows of ``x`` into ``num_segments`` buckets (GNN aggregate).

        ``x`` is ``(E, F)`` edge messages, ``segment_ids`` is ``(E,)``
        destination nodes; the gradient gathers back along the same ids.
        """
        if len(x.shape) != 2:
            raise ShapeError(f"segment_sum expects 2-D messages, got {x.shape}")
        e, feat = x.shape
        out = self._tensor(f"{name}/segments", (num_segments, feat))
        self._op(
            f"{name}/UnsortedSegmentSum", "UnsortedSegmentSum",
            [x.tensor, segment_ids.tensor], [out.name],
            OpCost(adds=e * feat, bytes_in=e * feat * 4 + e * 4,
                   bytes_out=num_segments * feat * 4,
                   parallelism=max(1, feat)),
            layer=name,
            num_segments=num_segments,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/GatherV2", "GatherV2",
                [grad_out, segment_ids.tensor], [gi.name],
                OpCost(other_flops=e, bytes_in=e * feat * 4 + e * 4,
                       bytes_out=e * feat * 4, parallelism=max(1, e)),
                layer=name,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, (num_segments, feat))

    # ------------------------------------------------------------------
    # structural ops
    # ------------------------------------------------------------------
    def concat(self, xs: Sequence[Activation], name: str = "concat") -> Activation:
        """Channel-axis concatenation; its gradient emits Slice ops."""
        if not xs:
            raise GraphError("concat needs at least one input")
        base = xs[0].shape[:-1]
        for x in xs:
            if x.shape[:-1] != base:
                raise ShapeError("concat inputs must agree on leading dims")
        channels = sum(x.shape[-1] for x in xs)
        out_shape = base + (channels,)
        out = self._tensor(f"{name}/concat_out", out_shape)
        nbytes = sum(self.graph.tensor(x.tensor).nbytes for x in xs)
        self._op(
            f"{name}/ConcatV2", "ConcatV2",
            [x.tensor for x in xs], [out.name],
            data_movement_cost(nbytes), layer=name, axis=-1,
        )
        offsets = []
        acc = 0
        for x in xs:
            offsets.append(acc)
            acc += x.shape[-1]

        def backward(grad_out: str) -> Mapping[str, str]:
            grads: Dict[str, str] = {}
            for i, x in enumerate(xs):
                if not self._needs_grad(x.tensor):
                    continue
                gi = self._tensor(f"grad/{name}/slice{i}", x.shape)
                self._op(
                    f"{name}/Slice_{i}", "Slice", [grad_out], [gi.name],
                    data_movement_cost(self.graph.tensor(x.tensor).nbytes),
                    layer=name,
                    axis=-1,
                    start=offsets[i],
                    size=x.shape[-1],
                )
                grads[x.tensor] = gi.name
            return grads

        self._record(name, out.name, backward)
        return Activation(out.name, out_shape)

    def add(self, x: Activation, y: Activation, name: str = "add") -> Activation:
        """Element-wise residual addition (ResNet shortcut)."""
        if x.shape != y.shape:
            raise ShapeError(f"add shape mismatch: {x.shape} vs {y.shape}")
        out = self._tensor(f"{name}/add_out", x.shape)
        self._op(
            f"{name}/Add", "Add", [x.tensor, y.tensor], [out.name],
            elementwise_cost(x.num_elements, n_inputs=2, mac=True),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            grads: Dict[str, str] = {}
            # the gradient of an add is the identity toward both inputs
            for operand in (x, y):
                if self._needs_grad(operand.tensor):
                    grads[operand.tensor] = grad_out
            return grads

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    def multiply(self, x: Activation, y: Activation, name: str = "mul") -> Activation:
        """Element-wise product (LSTM gates, GAN losses)."""
        if x.shape != y.shape:
            raise ShapeError(f"mul shape mismatch: {x.shape} vs {y.shape}")
        out = self._tensor(f"{name}/mul_out", x.shape)
        self._op(
            f"{name}/Mul", "Mul", [x.tensor, y.tensor], [out.name],
            elementwise_cost(x.num_elements, n_inputs=2, mac=True),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            grads: Dict[str, str] = {}
            for i, (operand, other) in enumerate(((x, y), (y, x))):
                if not self._needs_grad(operand.tensor):
                    continue
                gi = self._tensor(f"grad/{name}/in{i}", operand.shape)
                self._op(
                    f"{name}/MulGrad_{i}", "Mul",
                    [grad_out, other.tensor], [gi.name],
                    elementwise_cost(operand.num_elements, n_inputs=2, mac=True),
                    layer=name,
                )
                grads[operand.tensor] = gi.name
            return grads

        self._record(name, out.name, backward)
        return Activation(out.name, x.shape)

    def slice_batch(
        self, x: Activation, start: int, size: int, name: str = "slice"
    ) -> Activation:
        """Slice along the batch dimension (DCGAN splits real/fake scores)."""
        if start < 0 or start + size > x.shape[0]:
            raise ShapeError(
                f"slice [{start}:{start + size}] out of range for {x.shape}"
            )
        out_shape = (size,) + x.shape[1:]
        out = self._tensor(f"{name}/sliced", out_shape)
        per_item = self.graph.tensor(x.tensor).nbytes // x.shape[0]
        self._op(
            f"{name}/Slice", "Slice", [x.tensor], [out.name],
            data_movement_cost(per_item * size), layer=name,
            axis=0, start=start, size=size,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/SliceGrad", "Pad", [grad_out], [gi.name],
                data_movement_cost(self.graph.tensor(x.tensor).nbytes),
                layer=name,
                axis=0, start=start, size=size, target_shape=x.shape,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, out_shape)

    def slice_channels(
        self, x: Activation, start: int, size: int, name: str = "chslice"
    ) -> Activation:
        """Slice along the last (channel/feature) axis (LSTM gate split)."""
        if start < 0 or start + size > x.shape[-1]:
            raise ShapeError(
                f"channel slice [{start}:{start + size}] out of range for {x.shape}"
            )
        out_shape = x.shape[:-1] + (size,)
        out = self._tensor(f"{name}/sliced", out_shape)
        frac = size / x.shape[-1]
        nbytes = int(self.graph.tensor(x.tensor).nbytes * frac)
        self._op(
            f"{name}/Slice", "Slice", [x.tensor], [out.name],
            data_movement_cost(nbytes), layer=name,
            axis=-1, start=start, size=size,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            if not self._needs_grad(x.tensor):
                return {}
            gi = self._tensor(f"grad/{name}/input", x.shape)
            self._op(
                f"{name}/SliceGrad", "Pad", [grad_out], [gi.name],
                data_movement_cost(self.graph.tensor(x.tensor).nbytes),
                layer=name,
                axis=-1, start=start, size=size, target_shape=x.shape,
            )
            return {x.tensor: gi.name}

        self._record(name, out.name, backward)
        return Activation(out.name, out_shape)

    # ------------------------------------------------------------------
    # embeddings (Word2vec)
    # ------------------------------------------------------------------
    def embedding_lookup(
        self,
        vocab_size: int,
        embed_dim: int,
        ids: Activation,
        name: str = "embedding",
        sparse_update: bool = False,
    ) -> Activation:
        """Gather rows of an embedding matrix; grad is UnsortedSegmentSum.

        With ``sparse_update`` the optimizer update for the table touches
        only the gathered rows (sparse ApplyAdam — the recommender-model
        path) instead of the full ``vocab_size x embed_dim`` matrix.
        """
        table = self._param(f"{name}/table", (vocab_size, embed_dim))
        n = ids.num_elements
        if sparse_update:
            rows = min(vocab_size, n)
            prev = self._sparse_rows.get(table.name)
            self._sparse_rows[table.name] = (
                rows if prev is None else min(vocab_size, prev + rows)
            )
        out = self._tensor(f"{name}/gathered", ids.shape + (embed_dim,))
        self._op(
            f"{name}/GatherV2", "GatherV2",
            [table.name, ids.tensor], [out.name],
            OpCost(other_flops=n, bytes_in=n * embed_dim * 4 + n * 4,
                   bytes_out=n * embed_dim * 4, parallelism=max(1, n)),
            params_read=(table.name,),
            layer=name,
        )

        def backward(grad_out: str) -> Mapping[str, str]:
            gt = self._tensor(f"grad/{name}/table", table.shape)
            self._op(
                f"{name}/UnsortedSegmentSum", "UnsortedSegmentSum",
                [grad_out, ids.tensor], [gt.name],
                OpCost(adds=n * embed_dim,
                       bytes_in=n * embed_dim * 4,
                       bytes_out=n * embed_dim * 4,
                       parallelism=max(1, embed_dim)),
                layer=name,
            )
            self._register_grad(table.name, gt.name)
            return {}

        self._record(name, out.name, backward)
        return Activation(out.name, ids.shape + (embed_dim,))

    # ------------------------------------------------------------------
    # losses and finalization
    # ------------------------------------------------------------------
    def softmax_loss(
        self, logits: Activation, num_classes: int, name: str = "loss"
    ) -> Activation:
        """Sparse softmax cross-entropy producing the initial gradient."""
        if logits.shape[-1] != num_classes:
            raise ShapeError(
                f"logits last dim {logits.shape[-1]} != num_classes {num_classes}"
            )
        batch = logits.shape[0]
        labels = self._tensor(f"{name}/labels", (batch,))
        self.graph.input_bytes += labels.nbytes
        loss = self._tensor(f"{name}/value", (batch,))
        grad0 = self._tensor(f"grad/{name}/logits", logits.shape)
        numel = logits.num_elements
        self._op(
            f"{name}/SparseSoftmaxCrossEntropyWithLogits",
            "SparseSoftmaxCrossEntropyWithLogits",
            [logits.tensor, labels.name],
            [loss.name, grad0.name],
            OpCost(muls=numel, adds=numel, other_flops=4 * numel,
                   bytes_in=numel * 4, bytes_out=numel * 4,
                   parallelism=max(1, batch)),
            layer=name,
        )
        self._seed_loss(logits.tensor, grad0.name)
        return Activation(loss.name, (batch,))

    def sigmoid_loss(self, logits: Activation, name: str = "sigloss") -> Activation:
        """Sigmoid cross-entropy (GAN discriminator / generator losses)."""
        numel = logits.num_elements
        loss = self._tensor(f"{name}/value", (logits.shape[0],))
        grad0 = self._tensor(f"grad/{name}/logits", logits.shape)
        self._op(
            f"{name}/SigmoidCrossEntropy", "Sigmoid",
            [logits.tensor], [loss.name, grad0.name],
            elementwise_cost(numel, flops_per_element=6.0), layer=name,
        )
        self._seed_loss(logits.tensor, grad0.name)
        return Activation(loss.name, (logits.shape[0],))

    def nce_loss(
        self,
        embeddings: Activation,
        vocab_size: int,
        num_sampled: int,
        name: str = "nce",
    ) -> Activation:
        """Noise-contrastive estimation loss (Word2vec skip-gram)."""
        batch, dim = embeddings.shape
        w = self._param(f"{name}/weights", (vocab_size, dim))
        b = self._param(f"{name}/bias", (vocab_size,))
        logits = self._tensor(f"{name}/logits", (batch, num_sampled + 1))
        loss = self._tensor(f"{name}/value", (batch,))
        grad0 = self._tensor(f"grad/{name}/embed", embeddings.shape)
        macs = batch * dim * (num_sampled + 1)
        self._op(
            f"{name}/NceLoss", "NceLoss",
            [embeddings.tensor, w.name, b.name],
            [logits.name, loss.name, grad0.name],
            OpCost(muls=macs, adds=macs,
                   other_flops=batch * (num_sampled + 1) * 4,
                   bytes_in=(batch * dim + (num_sampled + 1) * dim) * 4,
                   bytes_out=batch * (num_sampled + 1) * 4,
                   parallelism=max(1, dim)),
            params_read=(w.name, b.name),
            layer=name,
        )
        gw = self._tensor(f"grad/{name}/weights", w.shape)
        self._op(
            f"{name}/NceGradWeights", "MatMul",
            [embeddings.tensor, logits.name], [gw.name],
            matmul_cost(dim, batch, num_sampled + 1), layer=name,
        )
        self._register_grad(w.name, gw.name)
        self._seed_loss(embeddings.tensor, grad0.name)
        return Activation(loss.name, (batch,))

    def _seed_loss(self, wrt_tensor: str, grad_tensor: str) -> None:
        if wrt_tensor in self._loss_seeds:
            raise GraphError(f"tensor {wrt_tensor!r} already has a loss seed")
        self._loss_seeds[wrt_tensor] = grad_tensor

    def _register_grad(self, param: str, grad_tensor: str) -> None:
        if param in self._param_grads:
            # shared parameter (e.g. tied embeddings): combine gradients
            prev = self._param_grads[param]
            spec = self.graph.tensor(param)
            combined = self._tensor(f"grad/{param}/combined", spec.shape)
            self._op(
                f"{param}/GradAddN_{self._uid}", "AddN",
                [prev, grad_tensor], [combined.name],
                elementwise_cost(spec.num_elements, n_inputs=2, mac=True),
                layer=param,
            )
            self._param_grads[param] = combined.name
        else:
            self._param_grads[param] = grad_tensor

    def finish(self, optimizer: str = "adam") -> Graph:
        """Emit the backward pass + optimizer updates and return the graph."""
        if not self._loss_seeds:
            raise GraphError(
                f"graph {self.graph.name!r} has no loss; call softmax_loss, "
                "sigmoid_loss or nce_loss before finish()"
            )
        grads: Dict[str, str] = dict(self._loss_seeds)

        def deposit(tensor: str, grad_tensor: str) -> None:
            existing = grads.get(tensor)
            if existing is None:
                grads[tensor] = grad_tensor
                return
            if existing == grad_tensor:
                return
            spec = self.graph.tensor(tensor)
            combined = self._tensor(f"grad/{tensor}/sum", spec.shape)
            self._op(
                self._fresh(f"gradsum/{tensor}/AddN"), "AddN",
                [existing, grad_tensor], [combined.name],
                elementwise_cost(spec.num_elements, n_inputs=2, mac=True),
                layer="gradsum",
            )
            grads[tensor] = combined.name

        # popping the tape breaks its closures' cycle through the builder,
        # so a dropped graph is freed by reference counting
        while self._tape:
            record = self._tape.pop()
            g = grads.get(record.output)
            if g is None:
                continue  # branch not on any loss path
            for tensor, grad_tensor in record.backward(g).items():
                deposit(tensor, grad_tensor)
        self._emit_optimizer(optimizer)
        self.graph.validate()
        return self.graph

    def _emit_optimizer(self, optimizer: str) -> None:
        op_type = "ApplyAdam" if optimizer == "adam" else "ApplyGradientDescent"
        for param, spec in self._params:
            grad_tensor = self._param_grads.get(param)
            if grad_tensor is None:
                continue  # frozen / unused parameter
            updated = self._tensor(f"{param}/updated", spec.shape)
            n = spec.num_elements
            sparse_rows = self._sparse_rows.get(param)
            attrs: Dict[str, object] = {}
            if sparse_rows is not None:
                # sparse optimizer update: only the gathered rows are
                # touched, so the update cost scales with the minibatch's
                # id set, not the full table.
                row_elems = (
                    spec.num_elements // spec.shape[0]
                    if len(spec.shape) > 1 else 1
                )
                n = min(spec.num_elements, sparse_rows * row_elems)
                attrs["sparse_rows"] = sparse_rows
            cost = adam_cost(n) if optimizer == "adam" else elementwise_cost(
                n, n_inputs=2, flops_per_element=2.0, mac=True
            )
            self._op(
                f"{param}/{op_type}",
                op_type,
                [param, grad_tensor],
                [updated.name],
                cost,
                param_written=param,
                layer=param,
                **attrs,
            )

    @property
    def params(self) -> List[Tuple[str, TensorSpec]]:
        return list(self._params)

    def num_parameters(self) -> int:
        """Total trainable parameter count of the model."""
        return sum(spec.num_elements for _, spec in self._params)
