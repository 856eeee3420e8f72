"""The hoisted hot paths against reference implementations of the plain formulas.

Each reference below is the straightforward form of its rule: the two-stage
Hebbian loop over full circuit responses, row-space trace projection, and
self-contained T-step loops that recompute every per-step value (the first
layer's rows and current included) without the shared layer walk
``_run_steps``. The optimized code must reproduce them exactly (bit for bit
where the arithmetic is unchanged, to 1e-12 where it is reassociated).
Last, a row's scores do not depend on how many rows share its batch, which
let evaluation move from 256-row to 128-row batches without changing a byte.
"""

import threading
import weakref
from dataclasses import replace

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
    unfold_patches,
)
from hlop import training
from hlop.harness.loop import eval_batch_rows
from hlop.training import (
    ErrorPropConfig,
    GradPacket,
    LayerGrad,
    _layer_current,
    _post_block,
    _presyn_rows,
    _route_error_to_block,
    _run_steps,
    _spiking_forward_pass,
    backprop_error,
    build_conv_net,
    bptt_sg_backward,
    build_mlp,
    ottt_backward,
    predict,
    rate_chain_forward,
    sgd_update,
    softmax,
    spiking_rate_readout,
)

from reference import channel_first_avg_pool, dense_grads, lateral_response


def _onehot(idx, n):
    out = np.zeros((len(idx), n))
    out[np.arange(len(idx)), idx] = 1.0
    return out


def _orthonormal_rows(rng, k, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q.T.copy()


def _subspace(rng, n, k, k_new, mode):
    sub = LateralSubspace(n=n, H=_orthonormal_rows(rng, k, n) if k else None, mode=mode)
    sub.expand(k_new, rng)
    return sub


def _damping_cap(sub):
    return 4.0 * (1.0 - sub.momentum) / sub.eta


def _reference_hebbian(sub, x):
    """K repeats of dH' = y' x^T + y' x_tilde^T from the full circuit response,
    scaled down by cap / energy when the batch's mean row energy exceeds the cap."""
    rows = x.shape[0]
    energy, cap = float(np.mean(np.sum(x * x, axis=1))), _damping_cap(sub)
    gain = cap / energy if energy > cap else 1.0
    for _ in range(sub.K):
        _, _, y_new, _, x_tilde = lateral_response(sub, x)
        delta = gain * (y_new.T @ x + y_new.T @ x_tilde) / rows
        sub.velocity = sub.momentum * sub.velocity + delta
        sub.H_new = sub.H_new + sub.eta * sub.velocity


class TestHebbianOjaForm:
    @pytest.mark.parametrize("mode", ["linear", "spiking"])
    @pytest.mark.parametrize("k", [0, 4])
    @pytest.mark.parametrize("damped", [False, True])
    def test_matches_two_stage_loop(self, mode, k, damped):
        n, k_new, rows = 16, 3, 24
        fast = _subspace(make_rng(40, k), n, k, k_new, mode)
        ref = _subspace(make_rng(40, k), n, k, k_new, mode)
        # Large inputs drive the damping branch; small ones keep the
        # undamped rule inside its stable region.
        scale = 3.0 if damped else 0.5
        feeds = make_rng(41, k).uniform(0.0, scale, size=(3, rows, n))
        energies = np.mean(np.sum(feeds**2, axis=2), axis=1)
        assert np.all((energies > _damping_cap(fast)) == damped)
        for x in feeds:
            _, learn = fast.hebbian_update(x)
            learn()
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
        x_hat, learn = sub.hebbian_update(grad.trace)
        learn()
        sgd_update(layer, replace(grad, trace=x_hat), 0.3, 30)
        assert np.max(np.abs(layer.weight - expect)) <= 1e-12

    def test_spiking_projects_trace_rows(self):
        sub, layer, grad = self._case("spiking")
        expect = layer.weight - 0.3 * (grad.delta.T @ sub.project_trace(grad.trace)) / 30
        x_hat, learn = sub.hebbian_update(grad.trace)
        learn()
        sgd_update(layer, replace(grad, trace=x_hat), 0.3, 30)
        assert np.array_equal(layer.weight, expect)


def _zero_state(layer, batch):
    """A zero state in the row layout: one row per sample, and per output
    position on a conv layer."""
    rows = batch * int(np.prod(layer.out_hw)) if layer.kind == "conv" else batch
    return LayerState.zeros(rows, layer.out_dim)


def _reference_ottt(net, x, y, epcfg, subspaces, head):
    """Step-by-step OTTT: every layer's rows, current and projected trace
    input recomputed at every step, per-step factors concatenated."""
    cfg = net.cfg
    subspaces = subspaces or {}
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    states = [_zero_state(l, batch) for l in layers]
    traces = [None] * len(layers)
    deltas = [[] for _ in layers]
    trace_steps = [[] for _ in layers]
    feeds = [[] for _ in layers]
    rate_sum = np.zeros((batch, layers[-1].out_dim))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            rows = _presyn_rows(layer, carry)
            feeds[i].append(rows.copy())  # a dense layer's rows are a state's spikes
            sub = subspaces.get(i)
            trace_in = rows if sub is None else sub.project_trace(rows)
            if traces[i] is None:
                traces[i] = np.zeros_like(trace_in)
            traces[i] = cfg.lam * traces[i] + trace_in
            lif_step(states[i], _layer_current(layer, rows), cfg)
            carry = _post_block(layer, states[i].s)
        rate_sum += states[-1].s
        err = (softmax(states[-1].s) - y) / cfg.T
        for i in range(len(layers) - 1, -1, -1):
            c = err * surrogate_derivative(states[i].u, cfg)
            deltas[i].append(c)
            trace_steps[i].append(traces[i])
            if i > 0:
                d = backprop_error(c, layers[i], epcfg)
                err = _route_error_to_block(d, layers[i - 1])
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
    states = [_zero_state(l, batch) for l in layers]
    us, ss, pres = ([[] for _ in layers] for _ in range(3))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            rows = _presyn_rows(layer, carry)
            lif_step(states[i], _layer_current(layer, rows), cfg)
            us[i].append(states[i].u.copy())  # lif_step writes into the state's arrays
            ss[i].append(states[i].s.copy())
            pres[i].append(rows.copy())
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
            delta=np.concatenate(cs),
            trace=trace if sub is None else sub.project_trace(trace),
        ))
        if i > 0:
            ext.append([
                _route_error_to_block(backprop_error(c, layers[i], epcfg), layers[i - 1])
                for c in cs
            ])
    feeds = [fs[0] if i == 0 else np.concatenate(fs) for i, fs in enumerate(pres)]
    return GradPacket(layers=grads[::-1], batch=batch), feeds, rate


def _assert_matches_reference(packet, rate, ref, subspaces):
    """Every layer's (dW, db), with its trace rows projected by the layer's
    circuit, matches the reference's to 1e-12 relative; the trace rows are
    the reference's raw feeds and the rate is the same, bit for bit."""
    ref_packet, ref_feeds, ref_rate = ref
    assert packet.batch == ref_packet.batch
    for i, (lg, ref_lg) in enumerate(zip(packet.layers, ref_packet.layers, strict=True)):
        sub = (subspaces or {}).get(i)
        trace = lg.trace if sub is None else sub.project_trace(lg.trace)
        dw, db = lg.delta.T @ trace / packet.batch, lg.bias / packet.batch
        (ref_dw, ref_db) = dense_grads(GradPacket([ref_lg], ref_packet.batch))[0]
        assert np.max(np.abs(dw - ref_dw)) <= 1e-12 * np.max(np.abs(ref_dw))
        assert np.max(np.abs(db - ref_db)) <= 1e-12 * np.max(np.abs(ref_db))
        assert np.abs(ref_dw).max() > 0.0 and np.abs(ref_db).max() > 0.0
        assert np.array_equal(lg.trace, ref_feeds[i])
    assert np.array_equal(rate, ref_rate)


def _reference_readout(net, x, head):
    cfg = net.cfg
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    states = [_zero_state(l, batch) for l in layers]
    acc = np.zeros((batch, layers[-1].out_dim))
    for _ in range(cfg.T):
        carry = x
        for i, layer in enumerate(layers):
            current = _layer_current(layer, _presyn_rows(layer, carry))
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


def _split_case():
    """The shipped split_conv geometry: 28x28 rows, 8 channels, 3x3 kernel,
    pool 2, five 2-way heads."""
    cfg = NeuronConfig(lam=0.5, v_th=0.4, T=6, a2=0.25)
    net = build_conv_net(1, (28, 28), 8, 3, 2, 20, 2, 5, cfg, make_rng(59, 0))
    x = make_rng(55, 0).uniform(0.0, 1.5, size=(5, 784))
    return net, x, _onehot([0, 1, 1, 0, 1], 2), 3


def _spiking_subspaces(net, head):
    rng = make_rng(48, 0)
    return {
        i: _subspace(rng, layer.in_dim, 2, 0, "spiking")
        for i, layer in enumerate(net.trainable_layers(head))
    }


@pytest.mark.parametrize("case", [_mlp_case, _conv_case, _split_case],
                         ids=["mlp", "conv", "split"])
class TestStaticInputHoisting:
    @pytest.mark.parametrize("projected", [False, True], ids=["raw", "spiking-projected"])
    def test_ottt_backward_matches_step_loop(self, case, projected):
        net, x, y, head = case()
        subs = _spiking_subspaces(net, head) if projected else None
        packet, rate = ottt_backward(net, x, y, ErrorPropConfig(), head)
        ref = _reference_ottt(net, x, y, ErrorPropConfig(), subs, head)
        _assert_matches_reference(packet, rate, ref, subs)
        assert rate.any()  # the case exercises spiking output

    @pytest.mark.parametrize("projected", [False, True], ids=["raw", "spiking-projected"])
    def test_bptt_matches_unfolded_step_loop(self, case, projected):
        net, x, y, head = case()
        subs = _spiking_subspaces(net, head) if projected else None
        packet, rate = bptt_sg_backward(net, x, y, ErrorPropConfig(), head)
        ref = _reference_bptt(net, x, y, ErrorPropConfig(), subs, head)
        _assert_matches_reference(packet, rate, ref, subs)

    def test_readout_matches_step_loop(self, case):
        net, x, _, head = case()
        assert np.array_equal(spiking_rate_readout(net, x, head), _reference_readout(net, x, head))

    def test_forward_pass_matches_step_loop(self, case):
        net, x, _, head = case()
        us, ss, feeds = _spiking_forward_pass(net, x, head)
        layers = net.trainable_layers(head)
        states = [_zero_state(l, x.shape[0]) for l in layers]
        for t in range(net.cfg.T):
            carry = x
            for i, layer in enumerate(layers):
                rows = _presyn_rows(layer, carry)
                # The static input's rows once, every other layer's per step.
                n = len(rows)
                assert len(feeds[i]) == (n if i == 0 else net.cfg.T * n)
                assert np.array_equal(feeds[i][0 if i == 0 else t * n :][:n], rows)
                lif_step(states[i], _layer_current(layer, rows), net.cfg)
                assert np.array_equal(us[i][t], states[i].u)
                assert np.array_equal(ss[i][t], states[i].s)
                carry = _post_block(layer, states[i].s)


@pytest.mark.parametrize("case", [_mlp_case, _conv_case], ids=["mlp", "conv"])
def test_walk_reuses_its_state_arrays(case):
    # Across the T steps each layer's u cycles among at most two buffers and
    # s stays in one: a step allocates no state. Holding every array keeps
    # the addresses of distinct buffers distinct.
    net, x, _, head = case()
    held = [[(st.u, st.s) for st in states] for _, states in _run_steps(net, x, head)]
    assert len(held) == net.cfg.T
    for layer_steps in zip(*held):
        assert len({u.ctypes.data for u, _ in layer_steps}) <= 2
        assert len({s.ctypes.data for _, s in layer_steps}) == 1


def test_walk_lets_the_first_rows_go_after_step_0():
    # The trainers take the first layer's rows at step 0; the readout never
    # reads them, so the walk holds the unfolded patches no longer.
    net, x, _, head = _split_case()
    walk = _run_steps(net, x, head)
    rows, _ = next(walk)
    patches = weakref.ref(rows[0])
    assert rows[0].shape == (len(x) * 26 * 26, 9)
    del rows
    rows, _ = next(walk)
    assert rows[0] is None and patches() is None


def _walk_arrays(states):
    return [a for st in states for a in (st.u, st.s)]


def test_walk_arrays_die_with_the_walk():
    net, x, _, head = _split_case()

    def last_step():
        for _, states in _run_steps(net, x, head):
            arrays = [weakref.ref(a) for a in _walk_arrays(states)]
        return arrays

    arrays = last_step()
    assert len(arrays) == 6 and all(a() is None for a in arrays)


def test_ottt_buffers_die_with_the_batch(monkeypatch):
    # The walk's states belong to one batch.
    net, x, y, head = _split_case()
    step, held = training.ottt_step, {}

    def holding(net, states, y_onehot, epcfg, head):
        held.update((id(a), weakref.ref(a)) for a in _walk_arrays(states))
        return step(net, states, y_onehot, epcfg, head)

    monkeypatch.setattr(training, "ottt_step", holding)
    packet, _ = ottt_backward(net, x, y, ErrorPropConfig(), head)
    assert len(held) == 6  # the same six arrays at every step
    del packet
    assert all(r() is None for r in held.values())


def test_two_threads_score_one_split_net_as_one_does():
    # Every buffer belongs to the call that walks the batch, so two threads
    # walking one net at once get the serial scores bit for bit.
    net, x, head = _shipped_conv()
    halves = (x[:128], x[128:])
    serial = [spiking_rate_readout(net, h, head) for h in halves]
    decided = [predict(net, h, "ottt", head) for h in halves]
    start, got, errors = threading.Barrier(2), [[], []], []

    def score(k):
        try:
            start.wait()
            for _ in range(3):
                got[k].append((spiking_rate_readout(net, halves[k], head),
                               predict(net, halves[k], "ottt", head)))
        except BaseException as e:  # pragma: no cover - reported below
            errors.append(e)

    threads = [threading.Thread(target=score, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    for k in (0, 1):
        assert len(got[k]) == 3
        for scores, pred in got[k]:
            assert scores.tobytes() == serial[k].tobytes()
            assert np.array_equal(pred, decided[k])


def test_conv_state_is_the_map_state_in_patch_rows():
    """A conv layer's u and s hold one row per output position: the
    (B, C, oh, ow) state of a plain map-layout walk, channels last. The walk
    forms its own currents, LIF steps and pooling."""
    net, x, _, head = _conv_case()
    us, ss, _ = _spiking_forward_pass(net, x, head)
    cfg, (conv, *dense) = net.cfg, net.trainable_layers(head)
    b, c, (oh, ow), p = len(x), conv.out_dim, conv.out_hw, conv.pool
    rows = unfold_patches(x, conv.kernel)
    current = (rows @ conv.weight.T + conv.bias).reshape(b, oh, ow, c).transpose(0, 3, 1, 2)
    u = s = np.zeros((b, c, oh, ow))
    du = [np.zeros((b, layer.out_dim)) for layer in dense]
    ds = [np.zeros((b, layer.out_dim)) for layer in dense]
    for t in range(cfg.T):
        u = cfg.lam * (u - cfg.v_th * s) + current
        s = (u >= cfg.v_th).astype(np.float64)
        assert us[0][t].shape == ss[0][t].shape == (b * oh * ow, c)
        assert np.array_equal(us[0][t], u.transpose(0, 2, 3, 1).reshape(-1, c))
        assert np.array_equal(ss[0][t], s.transpose(0, 2, 3, 1).reshape(-1, c))
        carry = s.reshape(b, c, oh // p, p, ow // p, p).mean(axis=(3, 5)).reshape(b, -1)
        for j, layer in enumerate(dense):
            du[j] = cfg.lam * (du[j] - cfg.v_th * ds[j]) + carry @ layer.weight.T + layer.bias
            ds[j] = carry = (du[j] >= cfg.v_th).astype(np.float64)
            assert np.array_equal(us[j + 1][t], du[j]) and np.array_equal(ss[j + 1][t], ds[j])


def test_avg_pool_exact_on_spike_maps():
    # Channels-last (B, H, W, C) spike maps; the channel-first pool of the
    # same maps, moved channel-major, gives the same bytes.
    s = (make_rng(49, 0).uniform(size=(4, 6, 6, 3)) < 0.4).astype(np.float64)
    mean = s.reshape(4, 3, 2, 3, 2, 3).mean(axis=(2, 4))
    assert np.array_equal(avg_pool(s, 2), mean)
    first = channel_first_avg_pool(s.transpose(0, 3, 1, 2), 2)
    assert avg_pool(s, 2).transpose(0, 3, 1, 2).tobytes() == first.tobytes()


def _shipped_mlp():
    """The shipped pmnist net, 784-200-200-10, and a 256-row pixel batch."""
    cfg = NeuronConfig(lam=0.5, v_th=0.4, T=6, a2=0.25)
    net = build_mlp(784, [200, 200], 10, 1, cfg, make_rng(50, 0))
    return net, make_rng(51, 0).integers(0, 256, size=(256, 784)) / 255.0, 0


def _shipped_conv():
    """The shipped split_conv net (8 channels, 3x3 kernel, pool 2, 100 hidden,
    five 2-way heads) on 28x28 images, and a 256-row pixel batch."""
    cfg = NeuronConfig(lam=0.5, v_th=0.4, T=6, a2=0.25)
    net = build_conv_net(1, (28, 28), 8, 3, 2, 100, 2, 5, cfg, make_rng(52, 0))
    return net, make_rng(53, 0).integers(0, 256, size=(256, 784)) / 255.0, 3


def _scores(net, x, trainer, head):
    """The scores ``predict`` takes its argmax over."""
    if trainer == "rate":
        return rate_chain_forward(net, x, head)[1][-1]
    return spiking_rate_readout(net, x, head)


@pytest.mark.parametrize("trainer", ["ottt", "rate"])
@pytest.mark.parametrize("case", [_shipped_mlp, _shipped_conv], ids=["mlp", "conv"])
@pytest.mark.parametrize("rows", [128, 100, 37, None], ids=["128", "100", "37", "rule"])
def test_scores_do_not_depend_on_the_batch_row_count(case, trainer, rows):
    net, x, head = case()
    # The evaluation's own size: 24 rows on the conv net, half the dense case's 256.
    rows = rows or eval_batch_rows(net, len(x))
    whole = _scores(net, x, trainer, head)
    parts = np.concatenate([_scores(net, x[i : i + rows], trainer, head)
                            for i in range(0, len(x), rows)])
    if trainer == "rate" and rows % 128:
        # OpenBLAS picks its kernel, and its split of the rows between threads,
        # by the product's shape, so fewer rows may round a row's sums another
        # way; the rate encoding passes that on with no threshold to absorb it.
        np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=0)
    else:
        assert parts.tobytes() == whole.tobytes()
    assert len(np.unique(whole, axis=0)) > 1  # the case scores its rows apart
    decided = [predict(net, x[i : i + rows], trainer, head) for i in range(0, len(x), rows)]
    assert np.array_equal(np.concatenate(decided), predict(net, x, trainer, head))
