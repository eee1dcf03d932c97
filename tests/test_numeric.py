"""Numeric executor + finite-difference gradient verification."""

import numpy as np
import pytest

from repro.nn.layers import GraphBuilder
from repro.nn.numeric import (
    NumericExecutionError,
    NumericExecutor,
    _conv2d,
    _conv2d_backprop_filter,
    _conv2d_backprop_input,
    _max_pool,
    check_gradients,
    param_gradient_tensors,
    random_feeds,
)


def mlp(batch=3, in_dim=5, hidden=7, classes=4):
    b = GraphBuilder("mlp", batch_size=batch)
    x = b.input((batch, in_dim))
    h = b.dense(x, hidden, name="fc1")
    logits = b.dense(h, classes, activation=None, name="fc2")
    b.softmax_loss(logits, classes)
    return b.finish()


class TestConvPrimitives:
    def test_conv_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(1, 4, 4, 1))
        w = np.zeros((1, 1, 1, 1))
        w[0, 0, 0, 0] = 1.0
        out = _conv2d(x, w, (1, 1), "SAME")
        np.testing.assert_allclose(out, x)

    def test_conv_valid_shape(self):
        x = np.ones((2, 5, 5, 3))
        w = np.ones((3, 3, 3, 4))
        out = _conv2d(x, w, (1, 1), "VALID")
        assert out.shape == (2, 3, 3, 4)
        # interior of a ones-conv = kh*kw*cin
        np.testing.assert_allclose(out, 27.0)

    def test_conv_same_stride2_shape(self):
        x = np.ones((1, 7, 7, 2))
        w = np.ones((3, 3, 2, 1))
        out = _conv2d(x, w, (2, 2), "SAME")
        assert out.shape == (1, 4, 4, 1)

    def test_backprop_filter_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 5, 5, 2))
        w = rng.normal(size=(3, 3, 2, 3))
        g = rng.normal(size=_conv2d(x, w, (1, 1), "SAME").shape)
        dw = _conv2d_backprop_filter(x, g, (3, 3), (1, 1), "SAME")
        eps = 1e-6
        idx = (1, 2, 0, 1)
        w2 = w.copy(); w2[idx] += eps
        w3 = w.copy(); w3[idx] -= eps
        numeric = (
            np.sum(_conv2d(x, w2, (1, 1), "SAME") * g)
            - np.sum(_conv2d(x, w3, (1, 1), "SAME") * g)
        ) / (2 * eps)
        assert dw[idx] == pytest.approx(numeric, rel=1e-5)

    def test_backprop_input_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4, 2))
        w = rng.normal(size=(3, 3, 2, 2))
        g = rng.normal(size=_conv2d(x, w, (2, 2), "SAME").shape)
        dx = _conv2d_backprop_input(g, w, (2, 2), "SAME", x.shape)
        eps = 1e-6
        idx = (0, 1, 3, 1)
        x2 = x.copy(); x2[idx] += eps
        x3 = x.copy(); x3[idx] -= eps
        numeric = (
            np.sum(_conv2d(x2, w, (2, 2), "SAME") * g)
            - np.sum(_conv2d(x3, w, (2, 2), "SAME") * g)
        ) / (2 * eps)
        assert dx[idx] == pytest.approx(numeric, rel=1e-5)

    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 4, 4, 1)
        out = _max_pool(x, (2, 2), (2, 2), "VALID")
        np.testing.assert_allclose(out[0, :, :, 0], [[5, 7], [13, 15]])


class TestExecutor:
    def test_forward_loss_is_finite(self):
        g = mlp()
        ex = NumericExecutor(g)
        env = ex.run(random_feeds(g))
        assert np.isfinite(ex.loss(env))

    def test_all_tensors_materialized(self):
        g = mlp()
        env = NumericExecutor(g).run(random_feeds(g))
        for name, spec in g.tensors.items():
            assert name in env, name
            assert tuple(np.shape(env[name])) == spec.shape

    def test_unsupported_graph_rejected(self):
        from repro.nn.models import build_model

        with pytest.raises(NumericExecutionError, match="unsupported"):
            NumericExecutor(build_model("word2vec"))

    def test_missing_feed_detected(self):
        g = mlp()
        feeds = random_feeds(g)
        feeds.pop("fc1/weights")
        with pytest.raises(NumericExecutionError, match="missing input"):
            NumericExecutor(g).run(feeds)

    def test_param_gradient_tensors(self):
        g = mlp()
        grads = param_gradient_tensors(g)
        assert set(grads) == {
            "fc1/weights", "fc1/bias", "fc2/weights", "fc2/bias"
        }

    def test_adam_update_moves_against_gradient(self):
        g = mlp()
        env = NumericExecutor(g).run(random_feeds(g))
        grads = param_gradient_tensors(g)
        for param, grad_tensor in grads.items():
            update_op = g.op(g.param_update_op(param))
            updated = env[update_op.outputs[0]]
            delta = updated - env[param]
            grad = env[grad_tensor]
            moved = np.abs(grad) > 1e-12
            assert np.all(np.sign(delta[moved]) == -np.sign(grad[moved]))


class TestGradientCheck:
    def test_mlp_gradients(self):
        g = mlp()
        errors = check_gradients(g, random_feeds(g, seed=3))
        assert max(errors.values()) < 1e-4

    def test_cnn_gradients_with_pool_and_stride(self):
        b = GraphBuilder("cnn", batch_size=2)
        x = b.input((2, 8, 8, 2))
        h = b.conv2d(x, 3, (3, 3), stride=(2, 2), name="c1")
        h = b.conv2d(h, 4, (3, 3), padding="VALID", activation=None, name="c2")
        h = b.relu(h, name="r2")
        h = b.max_pool(h, (2, 2), (2, 2), name="p")
        h = b.flatten(h)
        logits = b.dense(h, 3, activation=None, name="out")
        b.softmax_loss(logits, 3)
        errors = check_gradients(b.finish(), random_feeds(b.graph, seed=4),
                                 samples_per_param=3)
        assert max(errors.values()) < 1e-4

    def test_residual_and_concat_gradients(self):
        b = GraphBuilder("branchy", batch_size=2)
        x = b.input((2, 6, 6, 3))
        h = b.conv2d(x, 4, (3, 3), name="c1")
        h2 = b.conv2d(h, 4, (3, 3), activation=None, name="c2")
        r = b.relu(b.add(h, h2, name="res"), name="rr")
        branch = b.conv2d(r, 2, (1, 1), name="b1")
        cat = b.concat([r, branch], name="cat")
        f = b.flatten(cat)
        logits = b.dense(f, 3, activation=None, name="out")
        b.softmax_loss(logits, 3)
        errors = check_gradients(b.finish(), random_feeds(b.graph, seed=5),
                                 samples_per_param=3)
        assert max(errors.values()) < 1e-4

    def test_shared_parameter_gradients(self):
        """Weight sharing sums gradients across uses (the AddN path)."""
        b = GraphBuilder("shared", batch_size=2)
        x = b.input((2, 6))
        h = b.dense(x, 6, name="t0", param_scope="cell")
        h = b.dense(h, 6, name="t1", param_scope="cell")
        logits = b.dense(h, 3, activation=None, name="out")
        b.softmax_loss(logits, 3)
        errors = check_gradients(b.finish(), random_feeds(b.graph, seed=6))
        assert max(errors.values()) < 1e-4

    def test_detects_wrong_gradients(self):
        """A corrupted analytic gradient must fail the check."""
        g = mlp()
        feeds = random_feeds(g, seed=7)
        # sanity: the check passes, then break the executor's Relu rule
        check_gradients(g, feeds, params=["fc1/weights"], samples_per_param=2)
        import repro.nn.numeric as numeric_mod

        original = numeric_mod.NumericExecutor._dispatch

        def corrupted(self, op, args, env):
            out = original(self, op, args, env)
            if op.op_type == "BiasAddGrad":
                return out * 1.5  # wrong scale
            return out

        numeric_mod.NumericExecutor._dispatch = corrupted
        try:
            with pytest.raises(AssertionError, match="gradient mismatch"):
                check_gradients(
                    g, feeds, params=["fc1/bias"], samples_per_param=2
                )
        finally:
            numeric_mod.NumericExecutor._dispatch = original


class TestGradientCheckEdgeCases:
    @staticmethod
    def _feed(feeds, prefix):
        return next(name for name in feeds if name.startswith(prefix))

    def test_large_logit_gap_loss_does_not_saturate(self):
        """Logit gaps of 800 and 760 (past the 745 where exp underflows):
        the loss stays exact, so its slope matches probs - onehot."""
        b = GraphBuilder("gap", batch_size=2)
        x = b.input((2, 3))
        logits = b.dense(x, 3, activation=None, name="out")
        b.softmax_loss(logits, 3)
        g = b.finish()
        feeds = random_feeds(g)
        feeds[self._feed(feeds, "input")] = np.array([[1.0, 0, 0], [0, 1.0, 0]])
        weights = np.zeros((3, 3))
        weights[0, 2], weights[1, 2] = 800.0, 760.0
        feeds["out/weights"] = weights
        feeds["out/bias"] = np.zeros(3)
        feeds[self._feed(feeds, "loss/labels")] = np.array([0, 0])
        ex = NumericExecutor(g)
        assert ex.loss(ex.run(feeds)) == pytest.approx(780.0)
        check_gradients(g, feeds, params=["out/weights"], samples_per_param=9)

    def kink_mlp(self, bias):
        """One example, two hidden ReLU units with inputs 0.25 + bias[0]
        and 0.5 + bias[1]; a zero input sits exactly on the kink."""
        b = GraphBuilder("kink", batch_size=1)
        x = b.input((1, 1))
        h = b.dense(x, 2, name="fc")
        logits = b.dense(h, 2, activation=None, name="out")
        b.softmax_loss(logits, 2)
        g = b.finish()
        feeds = random_feeds(g, seed=1)
        feeds[self._feed(feeds, "input")] = np.array([[1.0]])
        feeds["fc/weights"] = np.array([[0.25, 0.5]])
        feeds["fc/bias"] = np.array(bias)
        return g, feeds

    def test_probe_straddling_a_kink_is_replaced(self):
        g, feeds = self.kink_mlp([-0.25, 0.1])
        errors = check_gradients(
            g, feeds, params=["fc/weights", "fc/bias"], samples_per_param=2
        )
        assert max(errors.values()) < 1e-4

    def test_every_probe_on_a_kink_fails(self):
        g, feeds = self.kink_mlp([-0.25, -0.5])
        with pytest.raises(AssertionError, match="straddles a ReLU kink"):
            check_gradients(g, feeds, params=["fc/weights"])


class TestRecurrentCellGradients:
    def test_lstm_cell_chain_gradients(self):
        """Two LSTM timesteps with shared weights: gate slicing (Slice +
        Pad scatter), sigmoid/tanh gates and the c/h recurrences all
        verify against finite differences."""
        H = 4
        b = GraphBuilder("mini-lstm", batch_size=2)
        x0 = b.input((2, H), name="x0")
        x1 = b.input((2, H), name="x1")
        h = b.input((2, H), name="h0")
        c = b.input((2, H), name="c0")
        for t, x in enumerate((x0, x1)):
            xh = b.concat([x, h], name=f"t{t}/xh")
            gates = b.dense(xh, 4 * H, activation=None, name=f"t{t}/gates",
                            param_scope="cell")
            i = b.activation(
                b.slice_channels(gates, 0, H, name=f"t{t}/i"),
                "sigmoid", name=f"t{t}/si")
            f = b.activation(
                b.slice_channels(gates, H, H, name=f"t{t}/f"),
                "sigmoid", name=f"t{t}/sf")
            g = b.activation(
                b.slice_channels(gates, 2 * H, H, name=f"t{t}/g"),
                "tanh", name=f"t{t}/tg")
            o = b.activation(
                b.slice_channels(gates, 3 * H, H, name=f"t{t}/o"),
                "sigmoid", name=f"t{t}/so")
            c = b.add(b.multiply(f, c, name=f"t{t}/fc"),
                      b.multiply(i, g, name=f"t{t}/ig"), name=f"t{t}/c")
            h = b.multiply(
                o, b.activation(c, "tanh", name=f"t{t}/tc"), name=f"t{t}/h")
        logits = b.dense(h, 3, activation=None, name="proj")
        b.softmax_loss(logits, 3)
        graph = b.finish()
        errors = check_gradients(
            graph, random_feeds(graph, seed=9), samples_per_param=4
        )
        assert max(errors.values()) < 1e-4

    def test_batch_slice_gradients(self):
        """slice_batch + its Pad scatter gradient verify numerically."""
        b = GraphBuilder("bs", batch_size=4)
        x = b.input((4, 6))
        h = b.dense(x, 6, name="fc")
        top = b.slice_batch(h, 0, 2, name="top")
        logits = b.dense(top, 3, activation=None, name="out")
        b.softmax_loss(logits, 3)
        graph = b.finish()
        errors = check_gradients(graph, random_feeds(graph, seed=11))
        assert max(errors.values()) < 1e-4
