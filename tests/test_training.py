from dataclasses import replace

import numpy as np
import pytest

from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.spiking import Layer, NeuronConfig, dense_layer, surrogate_derivative, unfold_patches
from hlop.training import (
    ErrorPropConfig,
    GradPacket,
    LayerGrad,
    SpikingNet,
    backprop_error,
    bptt_sg_backward,
    build_conv_net,
    build_mlp,
    init_feedback,
    ottt_backward,
    rate_backward,
    sgd_update,
    softmax,
    _post_block,
)
from reference import dense_grads, dsr_config, fd_weight_grad


def _mlp(seed, sizes, cfg):
    in_dim, *hidden, out = sizes
    return build_mlp(in_dim, hidden, out, 1, cfg, make_rng(seed, 0))


def _onehot(idx, n):
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


class TestBackpropError:
    def test_bp_identity_passthrough(self):
        layer = Layer(weight=np.eye(3), bias=np.zeros(3))
        delta = make_rng(0, 0).normal(size=(4, 3))
        out = backprop_error(delta, layer, ErrorPropConfig(mode="bp"))
        assert np.array_equal(out, delta)

    def test_ss_hand_example(self):
        # W = [[0.5, -1.5]], s = mean |W| = 1, delta = [1]: sign(W)^T delta = [1, -1].
        layer = Layer(weight=np.array([[0.5, -1.5]]), bias=np.zeros(1))
        out = backprop_error(np.array([[1.0]]), layer, ErrorPropConfig(mode="ss"))
        assert np.allclose(out, [[1.0, -1.0]])

    def test_ss_default_scale_is_mean_abs_weight(self):
        layer = Layer(weight=np.array([[2.0, -4.0]]), bias=np.zeros(1))
        out = backprop_error(np.array([[1.0]]), layer, ErrorPropConfig(mode="ss"))
        assert np.allclose(out, [[3.0, -3.0]])

    def test_fa_ignores_forward_weights(self):
        rng = make_rng(1, 0)
        f = rng.normal(size=(4, 2))
        ep = ErrorPropConfig(mode="fa", feedback={"L": f})
        delta = rng.normal(size=(5, 2))
        a = Layer(weight=rng.normal(size=(2, 4)), bias=np.zeros(2), name="L")
        b = Layer(weight=rng.normal(size=(2, 4)), bias=np.zeros(2), name="L")
        assert np.array_equal(backprop_error(delta, a, ep), backprop_error(delta, b, ep))

    def test_fa_requires_feedback(self):
        layer = Layer(weight=np.eye(2), bias=np.zeros(2), name="L")
        with pytest.raises(ValueError, match="feedback"):
            backprop_error(np.zeros((1, 2)), layer, ErrorPropConfig(mode="fa"))

    def test_feedback_shapes(self):
        net = _mlp(2, [3, 4, 2], NeuronConfig())
        fb = init_feedback(net, make_rng(3, 0))
        assert fb["block0"].shape == (3, 4)
        assert fb["head0"].shape == (4, 2)

    def test_feedback_refuses_repeated_layer_names(self):
        net = _mlp(2, [3, 4, 2], NeuronConfig())
        net.blocks[0] = replace(net.blocks[0], name="head0")
        with pytest.raises(ValueError, match="'head0' repeats"):
            init_feedback(net, make_rng(3, 0))


# ---------------------------------------------------------------------------
# independent oracles, written against the recurrences directly


def _oracle_smooth_bptt_loss(net, x, y_onehot):
    """Explicit-loop simulation of the sigmoid-relaxed spiking net, returning
    the summed cross-entropy on the output firing rate. Kept independent of
    the library's forward/backward plumbing."""
    cfg = net.cfg
    layers = net.trainable_layers(0)
    batch = x.shape[0]
    u = [np.zeros((batch, l.out_dim)) for l in layers]
    s = [np.zeros((batch, l.out_dim)) for l in layers]
    rate = np.zeros((batch, layers[-1].out_dim))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            current = carry @ layer.weight.T + layer.bias
            u[i] = cfg.lam * (u[i] - cfg.v_th * s[i]) + current
            s[i] = 1.0 / (1.0 + np.exp((cfg.v_th - u[i]) / cfg.a2))
            carry = s[i]
        rate += s[-1]
    rate /= cfg.T
    p = softmax(rate)
    return float(-np.sum(y_onehot * np.log(p)))


def _oracle_rate_chain_loss(net, x, y_onehot):
    """Explicit clamp-chain forward with summed cross-entropy."""
    cfg = net.cfg
    z = x
    for layer in net.trainable_layers(0):
        z = np.clip((z @ layer.weight.T + layer.bias) / cfg.tau, 0.0, cfg.rate_bound)
    p = softmax(z)
    return float(-np.sum(y_onehot * np.log(p)))


def _oracle_conv_rate_chain_loss(net, x, y_onehot):
    """Explicit clamp chain in map layout: conv over patches, average pool,
    channel-major flatten, then the dense layers; summed cross-entropy."""
    cfg = net.cfg
    conv, *dense = net.trainable_layers(0)
    b, (oh, ow), p = len(x), conv.out_hw, conv.pool
    rows = unfold_patches(x, conv.kernel)
    z = np.clip((rows @ conv.weight.T + conv.bias) / cfg.tau, 0.0, cfg.rate_bound)
    z = z.reshape(b, oh, ow, -1).transpose(0, 3, 1, 2)
    z = z.reshape(b, -1, oh // p, p, ow // p, p).mean(axis=(3, 5)).reshape(b, -1)
    for layer in dense:
        z = np.clip((z @ layer.weight.T + layer.bias) / cfg.tau, 0.0, cfg.rate_bound)
    return float(-np.sum(y_onehot * np.log(softmax(z))))


class TestBpttSg:
    def test_t1_reduces_to_single_step(self):
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=1, a2=0.25)
        net = _mlp(4, [2, 2, 2], cfg)
        x = np.array([[0.4, 0.8]])
        y = _onehot([1], 2)
        packet, _ = bptt_sg_backward(net, x, y, ErrorPropConfig())
        assert packet.layers[0].delta.shape[0] == 1  # one step, one sample
        assert np.array_equal(packet.layers[0].trace, x)

    def test_silent_input_gives_vanishing_gradients(self):
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=4, a2=0.25)
        net = _mlp(5, [3, 4, 2], cfg)
        # All-positive first-layer weights and negative drive pin every
        # first-layer potential far below threshold: no spikes anywhere, and
        # upstream gradients shrink to the surrogate leakage scale.
        net.blocks[0].weight = np.abs(net.blocks[0].weight) + 0.3
        x = np.full((2, 3), -3.0)
        y = _onehot([0, 1], 2)
        packet, _ = bptt_sg_backward(net, x, y, ErrorPropConfig())
        dw0, _ = dense_grads(packet)[0]
        assert np.max(np.abs(dw0)) < 1e-6
        assert np.max(np.abs(dw0)) > 0.0  # leakage, not an exact zero

    def test_matches_finite_differences_on_smooth_relaxation(self, smooth_forward):
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=3, a2=0.25)
        net = _mlp(6, [2, 2, 2], cfg)
        x = make_rng(7, 0).uniform(0.1, 1.2, size=(3, 2))
        y = _onehot([0, 1, 0], 2)
        packet, _ = bptt_sg_backward(net, x, y, ErrorPropConfig())
        for i, layer in enumerate(net.trainable_layers(0)):
            analytic = packet.layers[i].delta.T @ packet.layers[i].trace
            fd = fd_weight_grad(lambda: _oracle_smooth_bptt_loss(net, x, y), layer)
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-4

    def test_reset_path_credit_is_present(self, smooth_forward):
        # With the reset path, credit flows even when only the membrane could
        # not explain the loss change; compare against finite differences at
        # a different leak to make sure the lam*v_th*c term is exercised.
        cfg = NeuronConfig(lam=0.9, v_th=0.8, T=4, a2=0.3)
        net = _mlp(8, [2, 3, 2], cfg)
        x = make_rng(9, 0).uniform(0.2, 1.0, size=(2, 2))
        y = _onehot([1, 0], 2)
        packet, _ = bptt_sg_backward(net, x, y, ErrorPropConfig())
        for i, layer in enumerate(net.trainable_layers(0)):
            analytic = packet.layers[i].delta.T @ packet.layers[i].trace
            fd = fd_weight_grad(lambda: _oracle_smooth_bptt_loss(net, x, y), layer)
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-4


class TestOttt:
    def test_trace_recurrence_hand_sequence(self):
        # A constant drive of 0.8 makes the hidden neuron's potential run
        # 0.8, 1.2, 0.9, 1.25, so it spikes [0, 1, 0, 1]; with lam = 0.5 the
        # head's eligibility traces are 0, 1, 0.5, 1.25, and its update is
        # sum_t c_t^T trace_t. The head's potentials follow its unit weights:
        # 0, 1, 0, 1 for both outputs, which spike with the hidden neuron.
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=4, a2=0.25)
        net = SpikingNet(
            blocks=[Layer(weight=np.array([[1.0]]), bias=np.zeros(1), name="block0")],
            heads=[Layer(weight=np.array([[1.0], [1.0]]), bias=np.zeros(2), name="head0")],
            cfg=cfg,
        )
        y = _onehot([0], 2)
        packet, _ = ottt_backward(net, np.array([[0.8]]), y, ErrorPropConfig())
        u_out = np.repeat(np.array([[0.0], [1.0], [0.0], [1.0]]), 2, axis=1)
        s_out = u_out.copy()
        c_out = (softmax(s_out) - y) / cfg.T * surrogate_derivative(u_out, cfg)
        traces = np.array([0.0, 1.0, 0.5, 1.25])
        dw_head, db_head = dense_grads(packet)[1]
        assert np.abs(c_out.T @ traces).max() > 0.0
        assert np.allclose(dw_head[:, 0], c_out.T @ traces, rtol=0, atol=1e-12)
        assert np.allclose(db_head, c_out.sum(axis=0), rtol=0, atol=1e-12)
        # The packet's trace factor is the raw per-step spikes.
        assert np.array_equal(packet.layers[1].trace[:, 0], [0.0, 1.0, 0.0, 1.0])

    def test_folded_first_layer_hand_sequence(self):
        # Same drive as above, head weights 1 and 0.5: the hidden potential
        # runs 0.8, 1.2, 0.9, 1.25 and the head's (1.0, 0.5) * s_hidden
        # drives potentials (0, 0), (1, 0.5), (0, 0.25), (1, 0.625). The
        # static input's trace is a_t * x with a = 1, 1.5, 1.75, 1.875, so
        # the first layer's factor is one row: (sum_t a_t c_t, x), bias
        # sum_t c_t.
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=4, a2=0.25)
        w_head = np.array([[1.0], [0.5]])
        net = SpikingNet(
            blocks=[Layer(weight=np.array([[1.0]]), bias=np.zeros(1), name="block0")],
            heads=[Layer(weight=w_head.copy(), bias=np.zeros(2), name="head0")],
            cfg=cfg,
        )
        x, y = np.array([[0.8]]), _onehot([0], 2)
        packet, _ = ottt_backward(net, x, y, ErrorPropConfig())
        u_hidden = np.array([0.8, 1.2, 0.9, 1.25])
        u_out = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 0.25], [1.0, 0.625]])
        s_out = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        c_out = (softmax(s_out) - y) / cfg.T * surrogate_derivative(u_out, cfg)
        c = (c_out @ w_head)[:, 0] * surrogate_derivative(u_hidden, cfg)
        assert np.all(c != 0.0)
        first = packet.layers[0]
        assert first.delta.shape == (1, 1) and first.trace.shape == (1, 1)
        assert np.array_equal(first.trace, x)
        assert np.allclose(first.delta[0, 0], np.dot([1.0, 1.5, 1.75, 1.875], c),
                           rtol=0, atol=1e-12)
        assert np.allclose(first.bias[0], c.sum(), rtol=0, atol=1e-12)

    def test_zero_instantaneous_error_gives_zero_packet(self):
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=1, a2=0.25)
        net = _mlp(10, [3, 4, 2], cfg)
        x = make_rng(11, 0).uniform(0.0, 1.5, size=(2, 3))
        # First pass to observe the output spikes (at T = 1 the rate is the
        # spike vector), then feed y = softmax(s).
        _, s_out = ottt_backward(net, x, np.zeros((2, 2)), ErrorPropConfig())
        y = softmax(s_out)
        packet, _ = ottt_backward(net, x, y, ErrorPropConfig())
        for lg in packet.layers:
            assert np.max(np.abs(lg.delta)) == 0.0

    def test_t1_equals_bptt_exactly(self):
        cfg = NeuronConfig(lam=0.5, v_th=1.0, T=1, a2=0.25)
        net = _mlp(12, [4, 5, 3], cfg)
        x = make_rng(13, 0).uniform(0.0, 1.2, size=(6, 4))
        y = _onehot(make_rng(14, 0).integers(0, 3, size=6), 3)
        p_bptt, _ = bptt_sg_backward(net, x, y, ErrorPropConfig())
        p_ottt, _ = ottt_backward(net, x, y, ErrorPropConfig())
        for a, b in zip(dense_grads(p_bptt), dense_grads(p_ottt)):
            assert np.array_equal(a[0], b[0])
            assert np.array_equal(a[1], b[1])


class TestRateTrainer:
    def test_zero_presynaptic_rates_zero_update(self):
        cfg = dsr_config(T=4)
        net = _mlp(17, [3, 4, 2], cfg)
        packet, _ = rate_backward(net, np.zeros((2, 3)), _onehot([0, 1], 2),
                                     ErrorPropConfig())
        dw0, _ = dense_grads(packet)[0]
        assert not dw0.any()

    def test_saturated_unit_gates_error(self):
        cfg = dsr_config()
        net = SpikingNet(
            blocks=[],
            heads=[Layer(weight=np.array([[100.0], [1.0]]), bias=np.zeros(2), name="head0")],
            cfg=cfg,
        )
        x = np.array([[1.0]])
        packet, logits = rate_backward(net, x, _onehot([1], 2), ErrorPropConfig())
        assert logits[0, 0] == cfg.rate_bound  # saturated above
        dw, _ = dense_grads(packet)[0]
        assert dw[0, 0] == 0.0  # clamped unit receives no gradient
        assert dw[1, 0] != 0.0

    def test_matches_finite_differences(self):
        cfg = dsr_config(T=4)
        net = _mlp(18, [2, 2, 2], cfg)
        x = make_rng(19, 0).uniform(0.2, 0.9, size=(3, 2))
        y = _onehot([1, 0, 1], 2)
        packet, _ = rate_backward(net, x, y, ErrorPropConfig())
        for i, layer in enumerate(net.trainable_layers(0)):
            analytic = packet.layers[i].delta.T @ packet.layers[i].trace
            fd = fd_weight_grad(lambda: _oracle_rate_chain_loss(net, x, y), layer)
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-6

    def test_matches_finite_differences_on_conv_net(self):
        cfg = dsr_config(T=4)
        net = build_conv_net(1, (6, 6), 2, 3, 2, 4, 2, 1, cfg, make_rng(20, 0))
        x = make_rng(21, 0).uniform(0.2, 0.9, size=(3, 1, 6, 6))
        y = _onehot([1, 0, 1], 2)
        packet, _ = rate_backward(net, x, y, ErrorPropConfig())
        for i, layer in enumerate(net.trainable_layers(0)):
            analytic = packet.layers[i].delta.T @ packet.layers[i].trace
            fd = fd_weight_grad(lambda: _oracle_conv_rate_chain_loss(net, x, y), layer)
            assert np.abs(fd).max() > 0.0
            rel = np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-6


class TestFlatRows:
    """Between layers every carry is one flat row per sample; only the conv
    layer views its rows as images."""

    @pytest.mark.parametrize("trainer", [rate_backward, bptt_sg_backward, ottt_backward],
                             ids=["rate", "bptt", "ottt"])
    def test_conv_net_takes_rows_or_maps(self, trainer):
        cfg = NeuronConfig(lam=0.5, v_th=0.4, T=3, a2=0.25)
        net = build_conv_net(1, (28, 28), 2, 3, 2, 6, 2, 1, cfg, make_rng(22, 0))
        rows = make_rng(23, 0).uniform(0.0, 1.0, size=(3, 784))
        y = _onehot([0, 1, 1], 2)
        flat, out_flat = trainer(net, rows, y, ErrorPropConfig())
        maps, out_maps = trainer(net, rows.reshape(3, 1, 28, 28), y, ErrorPropConfig())
        assert flat.batch == maps.batch == 3 and np.array_equal(out_flat, out_maps)
        for a, b in zip(flat.layers, maps.layers, strict=True):
            assert np.array_equal(a.delta, b.delta) and np.array_equal(a.trace, b.trace)
            assert np.array_equal(a.bias, b.bias)
        assert all(lg.delta.any() for lg in flat.layers)

    def test_post_block_returns_rows(self):
        net = build_conv_net(1, (6, 6), 3, 3, 2, 4, 2, 1, NeuronConfig(), make_rng(24, 0))
        conv, dense = net.blocks
        s = (make_rng(25, 0).uniform(size=(2 * 4 * 4, 3)) < 0.5).astype(np.float64)
        carry = _post_block(conv, s)
        # (b, y, x, c) spike rows, pooled over 2x2 windows, flattened channel-major.
        want = s.reshape(2, 2, 2, 2, 2, 3).mean(axis=(2, 4)).transpose(0, 3, 1, 2)
        assert carry.shape == (2, dense.in_dim)
        assert np.array_equal(carry, want.reshape(2, -1))
        assert _post_block(dense, carry) is carry


class TestTraceHandOut:
    """``on_trace`` receives each layer's trace rows once, as the packet holds
    them, at a point after which the trainer no longer writes them."""

    @pytest.mark.parametrize("T", [6, 1])
    @pytest.mark.parametrize("conv", [False, True], ids=["mlp", "conv"])
    @pytest.mark.parametrize("trainer", [rate_backward, bptt_sg_backward, ottt_backward],
                             ids=["rate", "bptt", "ottt"])
    def test_each_layer_once_with_its_final_rows(self, trainer, conv, T):
        cfg = NeuronConfig(lam=0.5, v_th=0.2, T=T, a2=0.25)
        if conv:
            net = build_conv_net(1, (8, 8), 3, 3, 2, 12, 3, 1, cfg, make_rng(26, 0))
        else:
            net = _mlp(26, [64, 24, 16, 3], cfg)
        x = make_rng(27, 0).uniform(0.0, 1.0, size=(6, 64))
        handed = []
        packet, _ = trainer(net, x, _onehot([0, 1, 2, 2, 1, 0], 3), ErrorPropConfig(),
                            on_trace=lambda i, rows: handed.append((i, rows, rows.copy())))
        assert [i for i, _, _ in handed] == list(range(len(packet.layers)))
        for i, rows, copy in handed:
            assert rows is packet.layers[i].trace
            assert np.array_equal(copy, rows)
        # No trace is all zeros, so a copy taken before the last write would differ.
        assert all(lg.trace.any() for lg in packet.layers)


class TestSgdUpdate:
    def test_zero_lr_no_change(self):
        layer = dense_layer(2, 3, make_rng(20, 0))
        before = layer.weight.copy()
        grad = LayerGrad(delta=np.ones((4, 2)), trace=np.ones((4, 3)))
        sgd_update(layer, grad, lr=0.0, batch=4)
        assert np.array_equal(layer.weight, before)

    def test_explicit_bias_gradient_is_applied(self):
        # A folded factor's bias is not the column sum of its delta.
        layer = Layer(weight=np.zeros((2, 3)), bias=np.zeros(2))
        grad = LayerGrad(delta=np.ones((4, 2)), trace=np.ones((4, 3)),
                         bias=np.array([2.0, -4.0]))
        sgd_update(layer, grad, lr=0.5, batch=4)
        assert np.array_equal(layer.bias, [-0.25, 0.5])
        assert np.array_equal(dense_grads(GradPacket([grad], batch=4))[0][1], [0.5, -1.0])

    def test_zero_projected_trace_freezes_weights(self):
        layer = dense_layer(2, 3, make_rng(21, 0))
        before = layer.weight.copy()
        sub = LateralSubspace(n=3, H=np.eye(3))  # annihilates everything
        grad = LayerGrad(delta=np.ones((4, 2)), trace=make_rng(22, 0).normal(size=(4, 3)))
        x_hat, learn = sub.hebbian_update(grad.trace)
        learn()
        sgd_update(layer, replace(grad, trace=x_hat), lr=0.5, batch=4)
        assert np.allclose(layer.weight, before, atol=1e-15)

    def test_single_entry_hand_product(self):
        # delta=[[1]], trace=[[2]], lr=0.1: dW = -0.2.
        layer = Layer(weight=np.array([[1.0]]), bias=np.zeros(1))
        grad = LayerGrad(delta=np.array([[1.0]]), trace=np.array([[2.0]]))
        sgd_update(layer, grad, lr=0.1, batch=1)
        assert layer.weight[0, 0] == pytest.approx(0.8)

    def test_bilinear_in_trace(self):
        rng = make_rng(23, 0)
        delta = rng.normal(size=(5, 3))
        trace = rng.normal(size=(5, 4))
        a = dense_layer(3, 4, make_rng(24, 0))
        b = dense_layer(3, 4, make_rng(24, 0))
        w0 = a.weight.copy()
        sgd_update(a, LayerGrad(delta=delta, trace=trace), lr=0.2, batch=5)
        sgd_update(b, LayerGrad(delta=delta, trace=2.0 * trace), lr=0.2, batch=5)
        assert np.allclose(b.weight - w0, 2.0 * (a.weight - w0), atol=1e-14)

    def test_projected_update_preserves_old_responses(self):
        # Criterion occupied in depth by the acceptance suite; spot-check here.
        rng = make_rng(25, 0)
        q, _ = np.linalg.qr(rng.normal(size=(8, 3)))
        sub = LateralSubspace(n=8, H=q.T.copy())
        layer = dense_layer(4, 8, make_rng(26, 0))
        x_old = q @ rng.normal(size=3)  # inside the protected rowspace
        before = layer.weight @ x_old
        grad = LayerGrad(delta=rng.normal(size=(6, 4)), trace=rng.normal(size=(6, 8)))
        x_hat, learn = sub.hebbian_update(grad.trace)
        learn()
        sgd_update(layer, replace(grad, trace=x_hat), lr=0.3, batch=6)
        assert np.max(np.abs(layer.weight @ x_old - before)) < 1e-10

    def test_bias_excluded_from_projection(self):
        sub = LateralSubspace(n=3, H=np.eye(3))
        layer = Layer(weight=np.zeros((2, 3)), bias=np.zeros(2))
        grad = LayerGrad(delta=np.ones((4, 2)), trace=np.ones((4, 3)))
        x_hat, learn = sub.hebbian_update(grad.trace)
        learn()
        sgd_update(layer, replace(grad, trace=x_hat), lr=0.5, batch=4)
        assert not layer.weight.any()
        assert np.allclose(layer.bias, -0.5)


class TestGradPacket:
    def test_merge_structure_mismatch(self):
        a = GradPacket(layers=[LayerGrad(np.zeros((1, 2)), np.zeros((1, 3)))], batch=1)
        b = GradPacket(layers=[], batch=1)
        with pytest.raises(Exception):
            a.merge(b)

    def test_merge_concatenates_rows(self):
        a = GradPacket(layers=[LayerGrad(np.ones((2, 2)), np.ones((2, 3)))], batch=2)
        b = GradPacket(layers=[LayerGrad(np.zeros((2, 2)), np.zeros((2, 3)))], batch=2)
        m = a.merge(b)
        assert m.layers[0].delta.shape == (4, 2)
        assert m.layers[0].trace.shape == (4, 3)
