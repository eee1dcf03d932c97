"""Numeric execution of op graphs and gradient verification.

The simulator consumes graphs as cost structures; this module executes the
*same* graphs on real numpy arrays, giving the substrate a semantic ground
truth: :func:`check_gradients` runs a builder-produced training graph
(forward + backward operations) numerically and verifies the backward
operations against finite differences of the loss — proving the tape-based
backward construction in :mod:`repro.nn.layers` computes correct
gradients, not merely correctly-shaped cost records.

Supported operation subset: the dense/conv/pool/elementwise/slicing
vocabulary the builder emits for feed-forward and recurrent-cell networks
(embedding gathers and the GAN loss variants are out of scope; see
``SUPPORTED_OPS``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..errors import ReproError
from .graph import Graph
from .ops import Op


class NumericExecutionError(ReproError):
    """Raised when a graph contains operations the executor cannot run."""


# ---------------------------------------------------------------------------
# padding / windowing helpers (TensorFlow conventions, NHWC)
# ---------------------------------------------------------------------------
def _same_padding(size: int, kernel: int, stride: int) -> Tuple[int, int]:
    out = -(-size // stride)
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _pad_input(
    x: np.ndarray, kernel: Tuple[int, int], stride: Tuple[int, int], padding: str
) -> Tuple[np.ndarray, Tuple[int, int], Tuple[int, int]]:
    """Returns (padded x, output hw, top-left pad)."""
    _n, h, w, _c = x.shape
    kh, kw = kernel
    sh, sw = stride
    if padding == "SAME":
        ph0, ph1 = _same_padding(h, kh, sh)
        pw0, pw1 = _same_padding(w, kw, sw)
        xp = np.pad(x, ((0, 0), (ph0, ph1), (pw0, pw1), (0, 0)))
        ho, wo = -(-h // sh), -(-w // sw)
        return xp, (ho, wo), (ph0, pw0)
    if padding == "VALID":
        ho, wo = (h - kh) // sh + 1, (w - kw) // sw + 1
        return x, (ho, wo), (0, 0)
    raise NumericExecutionError(f"unknown padding {padding!r}")


def _conv2d(x, w, stride, padding):
    kh, kw = w.shape[0], w.shape[1]
    sh, sw = stride
    xp, (ho, wo), _ = _pad_input(x, (kh, kw), stride, padding)
    out = np.zeros((x.shape[0], ho, wo, w.shape[3]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :]
            out += np.einsum("nhwc,cf->nhwf", window, w[i, j])
    return out


def _conv2d_backprop_filter(x, grad, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    xp, (ho, wo), _ = _pad_input(x, kernel, stride, padding)
    dw = np.zeros((kh, kw, x.shape[3], grad.shape[3]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :]
            dw[i, j] = np.einsum("nhwc,nhwf->cf", window, grad)
    return dw


def _conv2d_backprop_input(grad, w, stride, padding, input_shape):
    kh, kw = w.shape[0], w.shape[1]
    sh, sw = stride
    ref = np.zeros(input_shape, dtype=grad.dtype)
    xp, (ho, wo), (ph0, pw0) = _pad_input(ref, (kh, kw), stride, padding)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :] += np.einsum(
                "nhwf,cf->nhwc", grad, w[i, j]
            )
    _n, h, wdt, _c = input_shape
    return dxp[:, ph0 : ph0 + h, pw0 : pw0 + wdt, :]


def _max_pool(x, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    xp, (ho, wo), _ = _pad_input(x, kernel, stride, padding)
    if padding == "SAME":
        # padded cells must never win the max
        mask = np.pad(
            np.ones(x.shape, dtype=bool),
            [(0, 0)] + [
                (p, q) for (p, q) in zip(
                    ((xp.shape[1] - x.shape[1]) // 2,
                     (xp.shape[2] - x.shape[2]) // 2),
                    (xp.shape[1] - x.shape[1] - (xp.shape[1] - x.shape[1]) // 2,
                     xp.shape[2] - x.shape[2] - (xp.shape[2] - x.shape[2]) // 2),
                )
            ] + [(0, 0)],
        )
        xp = np.where(mask, xp, -np.inf)
    out = np.full((x.shape[0], ho, wo, x.shape[3]), -np.inf, dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :]
            out = np.maximum(out, window)
    return out


def _max_pool_grad(x, y, grad, kernel, stride, padding):
    kh, kw = kernel
    sh, sw = stride
    xp, (ho, wo), (ph0, pw0) = _pad_input(x, kernel, stride, padding)
    dxp = np.zeros_like(xp)
    claimed = np.zeros_like(y, dtype=bool)  # route ties to one window cell
    for i in range(kh):
        for j in range(kw):
            window = xp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :]
            winner = (window == y) & ~claimed
            claimed |= winner
            dxp[:, i : i + ho * sh : sh, j : j + wo * sw : sw, :] += (
                grad * winner
            )
    _n, h, w, _c = x.shape
    return dxp[:, ph0 : ph0 + h, pw0 : pw0 + w, :]


def _log_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


#: Operation types the executor understands.
SUPPORTED_OPS = frozenset(
    {
        "Conv2D", "Conv2DBackpropFilter", "Conv2DBackpropInput",
        "MatMul", "BiasAdd", "BiasAddGrad",
        "Relu", "ReluGrad", "Sigmoid", "SigmoidGrad", "Tanh", "TanhGrad",
        "MaxPool", "MaxPoolGrad",
        "Add", "AddN", "Mul", "Sub",
        "Reshape", "ConcatV2", "Slice", "Pad",
        "Dropout", "DropoutGrad",
        "SparseSoftmaxCrossEntropyWithLogits",
        "ApplyAdam", "ApplyGradientDescent",
    }
)

#: Adam hyperparameters used by the numeric optimizer step.
ADAM_LR = 1e-3
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class NumericExecutor:
    """Executes a builder graph on numpy arrays in topological order."""

    def __init__(self, graph: Graph):
        self.graph = graph
        unsupported = sorted(
            {op.op_type for op in graph.ops} - SUPPORTED_OPS
        )
        if unsupported:
            raise NumericExecutionError(
                f"graph {graph.name!r} uses unsupported op types: "
                f"{unsupported}"
            )

    # ------------------------------------------------------------------
    def run(self, feeds: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Evaluate every tensor given external ``feeds`` (inputs + params).

        Returns the full tensor environment, including gradients.
        """
        values: Dict[str, np.ndarray] = {
            name: np.asarray(v, dtype=np.float64) for name, v in feeds.items()
        }
        for op in self.graph.topological_order():
            self._execute(op, values)
        return values

    def loss(self, values: Mapping[str, np.ndarray]) -> float:
        """Mean loss over every loss tensor in the environment."""
        losses = [
            values[op.outputs[0]]
            for op in self.graph.ops
            if op.op_type == "SparseSoftmaxCrossEntropyWithLogits"
        ]
        if not losses:
            raise NumericExecutionError("graph has no loss operation")
        return float(np.mean([np.mean(loss) for loss in losses]))

    # ------------------------------------------------------------------
    def _execute(self, op: Op, env: Dict[str, np.ndarray]) -> None:
        missing = [t for t in op.inputs if t not in env]
        if missing:
            raise NumericExecutionError(
                f"op {op.name!r} missing input values: {missing} "
                "(feed all external inputs and parameters)"
            )
        args = [env[t] for t in op.inputs]
        out = self._dispatch(op, args, env)
        if isinstance(out, tuple):
            for name, value in zip(op.outputs, out):
                env[name] = value
        else:
            env[op.outputs[0]] = out

    def _dispatch(self, op: Op, args: List[np.ndarray], env):
        t = op.op_type
        a = op.attrs
        if t == "Conv2D":
            return _conv2d(args[0], args[1], tuple(a["stride"]), str(a["padding"]))
        if t == "Conv2DBackpropFilter":
            return _conv2d_backprop_filter(
                args[0], args[1], tuple(a["kernel"]), tuple(a["stride"]),
                str(a["padding"]),
            )
        if t == "Conv2DBackpropInput":
            return _conv2d_backprop_input(
                args[0], args[1], tuple(a["stride"]), str(a["padding"]),
                tuple(a["input_shape"]),
            )
        if t == "MatMul":
            x, y = args
            if a.get("transpose_a"):
                x = x.T
            if a.get("transpose_b"):
                y = y.T
            return x @ y
        if t == "BiasAdd":
            return args[0] + args[1]
        if t == "BiasAddGrad":
            g = args[0]
            return g.reshape(-1, g.shape[-1]).sum(axis=0)
        if t == "Relu":
            return np.maximum(args[0], 0.0)
        if t == "ReluGrad":
            g, y = args
            return g * (y > 0)
        if t == "Sigmoid":
            return 1.0 / (1.0 + np.exp(-args[0]))
        if t == "SigmoidGrad":
            g, y = args
            return g * y * (1.0 - y)
        if t == "Tanh":
            return np.tanh(args[0])
        if t == "TanhGrad":
            g, y = args
            return g * (1.0 - y * y)
        if t == "MaxPool":
            return _max_pool(
                args[0], tuple(a["kernel"]), tuple(a["stride"]), str(a["padding"])
            )
        if t == "MaxPoolGrad":
            x, y, g = args
            return _max_pool_grad(
                x, y, g, tuple(a["kernel"]), tuple(a["stride"]), str(a["padding"])
            )
        if t == "Add":
            return args[0] + args[1]
        if t == "Sub":
            return args[0] - args[1]
        if t == "Mul":
            return args[0] * args[1]
        if t == "AddN":
            return sum(args[1:], args[0].copy())
        if t == "Reshape":
            target = self.graph.tensor(op.outputs[0]).shape
            return args[0].reshape(target)
        if t == "ConcatV2":
            return np.concatenate(args, axis=int(a.get("axis", -1)))
        if t == "Slice":
            axis = int(a["axis"])
            start = int(a["start"])
            size = int(a["size"])
            index = [slice(None)] * args[0].ndim
            index[axis] = slice(start, start + size)
            return args[0][tuple(index)]
        if t == "Pad":
            # slice gradient: scatter back into a zero tensor of the
            # original shape at the recorded (axis, start) position
            target = tuple(a["target_shape"])
            axis = int(a["axis"])
            start = int(a["start"])
            size = int(a["size"])
            out = np.zeros(target, dtype=args[0].dtype)
            index = [slice(None)] * len(target)
            index[axis] = slice(start, start + size)
            out[tuple(index)] = args[0]
            return out
        if t in ("Dropout", "DropoutGrad"):
            return args[0]  # evaluation mode: identity
        if t == "SparseSoftmaxCrossEntropyWithLogits":
            logits, labels = args
            labels = labels.astype(int)
            log_probs = _log_softmax(logits)
            batch = logits.shape[0]
            rows = np.arange(batch)
            # log-sum-exp(z) - z[label]: exact however large the logit
            # gap, so the loss never saturates where its gradient does not
            loss = -log_probs[rows, labels]
            grad = np.exp(log_probs)
            grad[rows, labels] -= 1.0
            grad /= batch  # gradient of the *mean* loss
            return loss, grad
        if t in ("ApplyAdam", "ApplyGradientDescent"):
            param, grad = args
            if t == "ApplyGradientDescent":
                return param - ADAM_LR * grad
            # first Adam step from zero moments (bias-corrected)
            m_hat = grad
            v_hat = grad * grad
            return param - ADAM_LR * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        raise NumericExecutionError(f"no numeric rule for op type {t!r}")


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------
def param_gradient_tensors(graph: Graph) -> Dict[str, str]:
    """Map parameter name -> gradient tensor consumed by its update op."""
    out: Dict[str, str] = {}
    for param, update_name in graph.param_update_ops.items():
        update = graph.op(update_name)
        out[param] = update.inputs[1]
    return out


def check_gradients(
    graph: Graph,
    feeds: Mapping[str, np.ndarray],
    params: Optional[Iterable[str]] = None,
    samples_per_param: int = 4,
    eps: float = 1e-5,
    rtol: float = 1e-4,
    atol: float = 1e-6,
    seed: int = 0,
) -> Dict[str, float]:
    """Verify backward ops against central finite differences of the loss.

    For each parameter, ``samples_per_param`` random entries are perturbed
    by ±``eps`` and the resulting loss slope is compared to the analytic
    gradient the graph's backward operations computed.  An entry whose
    +eps and -eps runs give some ``Relu`` input different signs straddles
    a kink, where the loss has no single slope, so another entry replaces
    it.  Returns the maximum relative error per parameter; raises
    AssertionError on mismatch, or when every entry of a parameter
    straddles a kink.
    """
    executor = NumericExecutor(graph)
    env = executor.run(feeds)
    grad_of = param_gradient_tensors(graph)
    relu_inputs = [op.inputs[0] for op in graph.ops if op.op_type == "Relu"]
    rng = np.random.default_rng(seed)
    names = list(params) if params is not None else sorted(grad_of)
    errors: Dict[str, float] = {}
    for pname in names:
        analytic = env[grad_of[pname]]
        base = np.asarray(feeds[pname], dtype=np.float64)
        worst = 0.0
        checked = 0
        for flat in rng.permutation(base.size):
            if checked == samples_per_param:
                break
            idx = np.unravel_index(flat, base.shape)
            plus = _run_with(executor, feeds, pname, base, idx, +eps)
            minus = _run_with(executor, feeds, pname, base, idx, -eps)
            if any(
                np.any((plus[t] > 0) != (minus[t] > 0)) for t in relu_inputs
            ):
                continue
            checked += 1
            numeric = (executor.loss(plus) - executor.loss(minus)) / (2 * eps)
            got = float(analytic[idx])
            err = abs(got - numeric) / max(abs(numeric), abs(got), atol / rtol)
            worst = max(worst, err)
            if abs(got - numeric) > atol + rtol * max(abs(numeric), abs(got)):
                raise AssertionError(
                    f"gradient mismatch for {pname}{list(idx)}: "
                    f"analytic {got:.6g} vs finite-difference {numeric:.6g}"
                )
        if checked == 0:
            raise AssertionError(
                f"no entry of {pname} to check: every ±{eps:g} probe "
                "straddles a ReLU kink"
            )
        errors[pname] = worst
    return errors


def _run_with(executor, feeds, pname, base, idx, delta) -> Dict[str, np.ndarray]:
    perturbed = dict(feeds)
    changed = base.copy()
    changed[idx] += delta
    perturbed[pname] = changed
    return executor.run(perturbed)


def random_feeds(
    graph: Graph, seed: int = 0, scale: float = 0.5
) -> Dict[str, np.ndarray]:
    """Random external inputs + parameters for a builder graph.

    Label tensors (names containing ``/labels``) get integer class ids.
    """
    rng = np.random.default_rng(seed)
    produced = {name for op in graph.ops for name in op.outputs}
    feeds: Dict[str, np.ndarray] = {}
    for name, spec in graph.tensors.items():
        if name in produced:
            continue
        if "/labels" in name:
            n_classes = _infer_classes(graph, name)
            feeds[name] = rng.integers(0, n_classes, size=spec.shape)
        else:
            feeds[name] = rng.normal(0.0, scale, size=spec.shape)
    return feeds


def _infer_classes(graph: Graph, labels_name: str) -> int:
    for op in graph.ops:
        if (
            op.op_type == "SparseSoftmaxCrossEntropyWithLogits"
            and labels_name in op.inputs
        ):
            logits = op.inputs[0]
            return graph.tensor(logits).shape[-1]
    raise NumericExecutionError(f"no loss consumes labels {labels_name!r}")
