"""The hoisted hot paths against reference implementations of the plain formulas.

Each reference below is the straightforward form of its rule: the two-stage
Hebbian loop over full circuit responses, row-space trace projection, and
self-contained T-step loops that recompute every per-step value (the first
layer's rows and current included) without the shared layer walk
``_run_steps``. The optimized code must reproduce them exactly (bit for bit
where the arithmetic is unchanged, to 1e-12 where it is reassociated).
"""

import numpy as np
import pytest

from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.spiking import (
    LayerState,
    NeuronConfig,
    avg_pool,
    dense_layer,
    lif_step,
    surrogate_derivative,
)
from hlop.training import (
    ErrorPropConfig,
    GradPacket,
    LayerGrad,
    _delta_rows,
    _layer_current,
    _post_block,
    _presyn_rows,
    _route_error_to_block,
    _spiking_forward_pass,
    _state_shape,
    backprop_error,
    build_conv_net,
    bptt_sg_backward,
    build_mlp,
    ottt_backward,
    sgd_update,
    softmax,
    spiking_rate_readout,
)


def _onehot(idx, n):
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _orthonormal_rows(rng, k, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q.T.copy()


def _subspace(rng, n, k, k_new, mode, stabilize=False):
    sub = LateralSubspace(
        n=n, H=_orthonormal_rows(rng, k, n) if k else None, mode=mode, stabilize=stabilize
    )
    sub.expand(k_new, rng)
    return sub


def _reference_hebbian(sub, x):
    """K repeats of dH' = y' x^T + y' x_tilde^T from the full circuit response."""
    rows = x.shape[0]
    gain = 1.0
    if sub.stabilize:
        energy = float(np.mean(np.sum(x * x, axis=1)))
        cap = 4.0 * (1.0 - sub.momentum) / sub.eta
        if energy > cap:
            gain = cap / energy
    for _ in range(sub.K):
        _, _, y_new, _, x_tilde = sub.lateral_response(x)
        delta = gain * (y_new.T @ x + y_new.T @ x_tilde) / rows
        sub.velocity = sub.momentum * sub.velocity + delta
        sub.H_new = sub.H_new + sub.eta * sub.velocity


class TestHebbianOjaForm:
    @pytest.mark.parametrize("mode", ["linear", "spiking"])
    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("stabilize", [False, True])
    def test_matches_two_stage_loop(self, mode, k, stabilize):
        n, k_new, rows = 16, 3, 24
        fast = _subspace(make_rng(40, k), n, k, k_new, mode, stabilize)
        ref = _subspace(make_rng(40, k), n, k, k_new, mode, stabilize)
        # Large inputs drive the stabilizer's damping branch; small ones
        # keep the undamped rule inside its stable region.
        scale = 3.0 if stabilize else 0.5
        feeds = make_rng(41, k).uniform(0.0, scale, size=(3, rows, n))
        if stabilize:
            assert np.mean(np.sum(feeds[0] ** 2, axis=1)) > 4.0 * 0.1 / fast.eta
        for x in feeds:
            fast.hebbian_update(x)
            _reference_hebbian(ref, x)
        assert np.max(np.abs(fast.H_new - ref.H_new)) <= 1e-12
        assert np.max(np.abs(fast.velocity - ref.velocity)) <= 1e-12
        assert np.array_equal(fast.H, ref.H)


class TestUpdateSpaceProjection:
    def _case(self, mode):
        rng = make_rng(42, 0)
        sub = _subspace(rng, 10, 4, 0, mode)
        layer = dense_layer(5, 10, make_rng(43, 0))
        grad = LayerGrad(delta=rng.normal(size=(30, 5)), trace=rng.uniform(0, 2, size=(30, 10)))
        return sub, layer, grad

    def test_linear_matches_row_space_projection(self):
        sub, layer, grad = self._case("linear")
        expect = layer.weight - 0.3 * (grad.delta.T @ sub.project_trace(grad.trace)) / 30
        sgd_update(layer, grad, 0.3, 30, sub)
        assert np.max(np.abs(layer.weight - expect)) <= 1e-12

    def test_spiking_projects_trace_rows(self):
        sub, layer, grad = self._case("spiking")
        expect = layer.weight - 0.3 * (grad.delta.T @ sub.project_trace(grad.trace)) / 30
        sgd_update(layer, grad, 0.3, 30, sub)
        assert np.array_equal(layer.weight, expect)


def _reference_ottt(net, x, y, epcfg, subspaces, head):
    """Step-by-step OTTT: every layer's rows, current and projected trace
    input recomputed at every step, per-step factors concatenated."""
    cfg = net.cfg
    subspaces = subspaces or {}
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    states = [LayerState.zeros_shape(_state_shape(l, batch)) for l in layers]
    traces = [None] * len(layers)
    deltas = [[] for _ in layers]
    trace_steps = [[] for _ in layers]
    feeds = [[] for _ in layers]
    rate_sum = np.zeros((batch, layers[-1].out_dim))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            rows = _presyn_rows(layer, carry)
            feeds[i].append(rows)
            sub = subspaces.get(i)
            trace_in = rows if sub is None else sub.project_trace(rows)
            if traces[i] is None:
                traces[i] = np.zeros_like(trace_in)
            traces[i] = cfg.lam * traces[i] + trace_in
            lif_step(states[i], _layer_current(layer, rows, batch), cfg)
            carry = _post_block(layer, states[i].s)
        rate_sum += states[-1].s
        err = (softmax(states[-1].s) - y) / cfg.T
        for i in range(len(layers) - 1, -1, -1):
            c = _delta_rows(layers[i], err * surrogate_derivative(states[i].u, cfg))
            deltas[i].append(c)
            trace_steps[i].append(traces[i])
            if i > 0:
                d = backprop_error(c, layers[i], epcfg)
                err = _route_error_to_block(d, layers[i - 1], batch)
    packet = GradPacket(
        layers=[
            LayerGrad(delta=np.concatenate(d), trace=np.concatenate(t))
            for d, t in zip(deltas, trace_steps)
        ],
        batch=batch,
    )
    feeds = [fs[0] if i == 0 else np.concatenate(fs) for i, fs in enumerate(feeds)]
    return packet, feeds, rate_sum / cfg.T


def _reference_bptt(net, x, y, epcfg, subspaces, head):
    """Unrolled BPTT: a plain forward loop that stores every step's u, s and
    rows, then per-step factors concatenated for every layer, the first
    layer's T copies of the static input included."""
    cfg = net.cfg
    subspaces = subspaces or {}
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    states = [LayerState.zeros_shape(_state_shape(l, batch)) for l in layers]
    us, ss, pres = ([[] for _ in layers] for _ in range(3))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            rows = _presyn_rows(layer, carry)
            lif_step(states[i], _layer_current(layer, rows, batch), cfg)
            us[i].append(states[i].u)
            ss[i].append(states[i].s)
            pres[i].append(rows)
            carry = _post_block(layer, states[i].s)
    rate = np.mean(ss[-1], axis=0)
    ext = [[(softmax(rate) - y) / cfg.T] * cfg.T]
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        cs = [None] * cfg.T
        c_next = np.zeros_like(us[i][0])
        for t in range(cfg.T - 1, -1, -1):
            ds = ext[-1][t] - cfg.lam * cfg.v_th * c_next
            cs[t] = c_next = ds * surrogate_derivative(us[i][t], cfg) + cfg.lam * c_next
        sub = subspaces.get(i)
        trace = np.concatenate(pres[i])
        grads.append(LayerGrad(
            delta=np.concatenate([_delta_rows(layers[i], c) for c in cs]),
            trace=trace if sub is None else sub.project_trace(trace),
        ))
        if i > 0:
            ext.append([
                _route_error_to_block(backprop_error(c, layers[i], epcfg), layers[i - 1], batch)
                for c in cs
            ])
    feeds = [fs[0] if i == 0 else np.concatenate(fs) for i, fs in enumerate(pres)]
    return GradPacket(layers=grads[::-1], batch=batch), feeds, rate


def _assert_folded_first_layer(packet, ref_packet, T):
    """The first layer's folded factor is one block of static-input rows and
    gives the unfolded (dW, db) to 1e-12 relative."""
    (dw, db), (ref_dw, ref_db) = packet.dense_grads()[0], ref_packet.dense_grads()[0]
    assert packet.layers[0].trace.shape[0] * T == ref_packet.layers[0].trace.shape[0]
    assert np.max(np.abs(dw - ref_dw)) <= 1e-12 * np.max(np.abs(ref_dw))
    assert np.max(np.abs(db - ref_db)) <= 1e-12 * np.max(np.abs(ref_db))
    assert np.abs(ref_dw).max() > 0.0 and np.abs(ref_db).max() > 0.0


def _reference_readout(net, x, head):
    cfg = net.cfg
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    states = [LayerState.zeros_shape(_state_shape(l, batch)) for l in layers]
    acc = np.zeros((batch, layers[-1].out_dim))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            current = _layer_current(layer, _presyn_rows(layer, carry), batch)
            lif_step(states[i], current, cfg)
            carry = _post_block(layer, states[i].s)
        acc += states[-1].s
    return acc / cfg.T


def _mlp_case():
    cfg = NeuronConfig(lam=0.5, v_th=1.0, T=6, a2=0.25)
    net = build_mlp(12, [9, 7], 4, 1, cfg, make_rng(44, 0))
    x = make_rng(45, 0).uniform(0.0, 1.5, size=(5, 12))
    return net, x, _onehot([0, 1, 2, 3, 1], 4), 0


def _conv_case():
    cfg = NeuronConfig(lam=0.5, v_th=1.0, T=6, a2=0.25)
    net = build_conv_net(1, (8, 8), 3, 3, 2, 6, 4, 2, cfg, make_rng(46, 0))
    x = make_rng(47, 0).uniform(0.0, 1.5, size=(4, 1, 8, 8))
    return net, x, _onehot([0, 3, 2, 1], 4), 1


def _spiking_subspaces(net, head):
    rng = make_rng(48, 0)
    return {
        i: _subspace(rng, layer.in_dim, 2, 0, "spiking")
        for i, layer in enumerate(net.trainable_layers(head))
    }


@pytest.mark.parametrize("case", [_mlp_case, _conv_case], ids=["mlp", "conv"])
class TestStaticInputHoisting:
    @pytest.mark.parametrize("projected", [False, True], ids=["raw", "spiking-projected"])
    def test_ottt_backward_matches_step_loop(self, case, projected):
        net, x, y, head = case()
        subs = _spiking_subspaces(net, head) if projected else None
        packet, feeds, rate = ottt_backward(net, x, y, ErrorPropConfig(), subs, head)
        ref_packet, ref_feeds, ref_rate = _reference_ottt(
            net, x, y, ErrorPropConfig(), subs, head
        )
        assert packet.batch == ref_packet.batch
        _assert_folded_first_layer(packet, ref_packet, net.cfg.T)
        for a, b in zip(packet.layers[1:], ref_packet.layers[1:], strict=True):
            assert np.array_equal(a.delta, b.delta)
            assert np.array_equal(a.trace, b.trace)
        for a, b in zip(feeds, ref_feeds, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(rate, ref_rate)
        assert rate.any()  # the case exercises spiking output

    @pytest.mark.parametrize("projected", [False, True], ids=["raw", "spiking-projected"])
    def test_bptt_matches_unfolded_step_loop(self, case, projected):
        net, x, y, head = case()
        subs = _spiking_subspaces(net, head) if projected else None
        packet, feeds, rate = bptt_sg_backward(net, x, y, ErrorPropConfig(), subs, head)
        ref_packet, ref_feeds, ref_rate = _reference_bptt(
            net, x, y, ErrorPropConfig(), subs, head
        )
        assert packet.batch == ref_packet.batch
        _assert_folded_first_layer(packet, ref_packet, net.cfg.T)
        for a, b in zip(packet.layers[1:], ref_packet.layers[1:], strict=True):
            assert np.array_equal(a.delta, b.delta)
            assert np.array_equal(a.trace, b.trace)
        for a, b in zip(feeds, ref_feeds, strict=True):
            assert np.array_equal(a, b)
        assert np.array_equal(rate, ref_rate)

    def test_readout_matches_step_loop(self, case):
        net, x, _, head = case()
        assert np.array_equal(spiking_rate_readout(net, x, head), _reference_readout(net, x, head))

    def test_forward_pass_matches_step_loop(self, case):
        net, x, _, head = case()
        us, ss, pres = _spiking_forward_pass(net, x, head)
        layers = net.trainable_layers(head)
        states = [LayerState.zeros_shape(_state_shape(l, x.shape[0])) for l in layers]
        for t in range(net.cfg.T):
            carry = x
            for i, layer in enumerate(layers):
                rows = _presyn_rows(layer, carry)
                assert np.array_equal(pres[i][t], rows)
                lif_step(states[i], _layer_current(layer, rows, x.shape[0]), net.cfg)
                assert np.array_equal(us[i][t], states[i].u)
                assert np.array_equal(ss[i][t], states[i].s)
                carry = _post_block(layer, states[i].s)


def test_avg_pool_exact_on_spike_maps():
    s = (make_rng(49, 0).uniform(size=(4, 3, 6, 6)) < 0.4).astype(np.float64)
    mean = s.reshape(4, 3, 3, 2, 3, 2).mean(axis=(-3, -1))
    assert np.array_equal(avg_pool(s, 2), mean)
