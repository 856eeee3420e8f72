"""Gradient production for spiking networks, with interceptable traces.

Three trainers are provided:

* ``rate_backward`` — forward through the clamped rate transform chain,
  errors gated by the clamp derivative, traces are presynaptic rates;
* ``bptt_sg_backward`` — full backpropagation through time with the sigmoid
  surrogate at every spike, credit flowing through both the membrane and the
  reset path, traces are per-step presynaptic spikes;
* ``ottt_backward`` — forward-in-time learning with eligibility traces
  (trace[t+1] = lam * trace[t] + s[t+1]) and instantaneous per-step errors,
  no stored computational graph.

The spiking trainers and the inference readout all read one T-step LIF layer
walk, ``_run_steps``, on a static input; ``ottt_backward`` hands each step of
it to ``ottt_step``, which forms the step's instantaneous errors.

Every trainer emits a ``GradPacket`` of (delta, trace) row matrices per
trainable layer, and every weight update is formed as delta^T @ x_hat — the
single pathway through which lateral circuits modify learning. The trace
factor is always the raw presynaptic rows, the same rows the layer's lateral
circuit learns from, so no trainer sees a circuit: the training loop hands
the rows to ``LateralSubspace.hebbian_update``, which projects them once,
x_hat = x - H^T H x, for its own Hebbian step and returns x_hat for the
layer's update. The projection acts row by row, so this holds for
burst-quantized circuits too. A trainer given ``on_trace`` calls
``on_trace(i, rows)`` once per layer with the packet's trace rows as soon
as it no longer writes them, so the loop may project them during the walk.

The static input is the same at every step, so the spiking trainers emit its
rows once, in one block: (sum_t c_t, x) for BPTT, (sum_t a_t c_t, x) for OTTT.
OTTT's other layers regroup their eligibility-trace sums by the step each row
entered, (e, x) with e_t = c_t + lam * e_{t+1} (see ``ottt_backward``), so no
eligibility trace is formed.

Flat rows in, flat rows out: the net takes one (C*H*W) row per sample, and
every carry between layers is one row per sample. Every layer's currents,
states and errors share the row layout of its presynaptic rows: a conv
layer's neurons live in patch rows, one per output position. Only the conv
layer knows the image geometry, read by ``_presyn_rows`` (view the rows as
maps, unfold), ``_post_block`` (pool, flatten) and ``_route_error_to_block``
(unpool). A net's layers and its input share one float dtype, in which every
layer computes, so no row or error is cast on its way down; bias gradients
sum in float64.

Error signals can travel by plain backprop, feedback alignment (fixed random
matrices), or sign symmetry.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import ShapeError, kaiming_uniform_init
from .spiking import (
    Layer,
    LayerState,
    NeuronConfig,
    avg_pool,
    avg_pool_backward,
    conv_layer,
    dense_layer,
    lif_step,
    pooled_flat_width,
    rate_forward_transform,
    surrogate_derivative,
    unfold_patches,
)

OnTrace = Callable[[int, np.ndarray], None]  # on_trace(i, rows), see the module docstring

# ---------------------------------------------------------------------------
# network container


@dataclass
class SpikingNet:
    """Feedforward stack of spiking blocks plus one or more classifier heads.

    ``blocks`` are hidden layers (dense, or conv-with-pooling); ``heads`` are
    dense output layers, one per task in multi-head mode, a single shared one
    otherwise. All neurons are leaky integrate-and-fire.
    """

    blocks: list[Layer]
    heads: list[Layer]
    cfg: NeuronConfig

    def trainable_layers(self, head: int = 0) -> list[Layer]:
        return [*self.blocks, self.heads[head]]


def build_mlp(
    in_dim: int,
    hidden: list[int],
    n_classes: int,
    n_heads: int,
    cfg: NeuronConfig,
    rng: np.random.Generator,
) -> SpikingNet:
    blocks = []
    prev = in_dim
    for i, h in enumerate(hidden):
        blocks.append(replace(dense_layer(h, prev, rng), name=f"block{i}"))
        prev = h
    heads = [replace(dense_layer(n_classes, prev, rng), name=f"head{i}") for i in range(n_heads)]
    return SpikingNet(blocks=blocks, heads=heads, cfg=cfg)


def build_conv_net(
    in_channels: int,
    in_hw: tuple[int, int],
    channels: int,
    kernel: int,
    pool: int,
    hidden: int,
    n_classes: int,
    n_heads: int,
    cfg: NeuronConfig,
    rng: np.random.Generator,
) -> SpikingNet:
    conv = replace(conv_layer(channels, in_channels, kernel, in_hw, rng, pool=pool), name="block0")
    flat = pooled_flat_width(channels, in_hw, kernel, pool)
    dense = replace(dense_layer(hidden, flat, rng), name="block1")
    heads = [replace(dense_layer(n_classes, hidden, rng), name=f"head{i}") for i in range(n_heads)]
    return SpikingNet(blocks=[conv, dense], heads=heads, cfg=cfg)


# ---------------------------------------------------------------------------
# error propagation backends


@dataclass
class ErrorPropConfig:
    """How error signals cross layers on the way down.

    ``bp`` uses transposed forward weights, ``fa`` fixed random feedback
    matrices (one per layer, frozen after init), ``ss`` the sign pattern of
    the forward weights scaled by the layer's mean absolute forward weight,
    which keeps errors from exploding.
    """

    mode: str = "bp"  # "bp" | "fa" | "ss"
    feedback: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in ("bp", "fa", "ss"):
            raise ValueError(f"unknown error propagation mode {self.mode!r}")


def init_feedback(net: SpikingNet, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fixed feedback matrices for feedback alignment.

    Each layer gets F of shape (in, out) drawn from the same Kaiming-uniform
    distribution as its forward weights, then cast to their dtype, keyed by
    the layer's name.
    """
    feedback = {}
    for layer in [*net.blocks, *net.heads]:
        if layer.name in feedback:
            raise ValueError(f"layer name {layer.name!r} repeats; each F needs its own name")
        out_dim, in_dim = layer.weight.shape
        feedback[layer.name] = kaiming_uniform_init(
            in_dim, out_dim, fan_in=in_dim, rng=rng
        ).astype(layer.weight.dtype, copy=False)
    return feedback


def backprop_error(
    delta_out: np.ndarray, layer: Layer, epcfg: ErrorPropConfig
) -> np.ndarray:
    """Carry an error signal across one connection, per the selected mode.

    Args:
        delta_out: (rows, out) error at the layer's output neurons.
        layer: the connection being crossed; forward weights are never
            modified here.

    Returns:
        (rows, in) error at the presynaptic side.
    """
    if epcfg.mode == "bp":
        return delta_out @ layer.weight
    if epcfg.mode == "fa":
        f = epcfg.feedback.get(layer.name)
        if f is None:
            raise ValueError(f"feedback alignment requires an F matrix for layer {layer.name!r}")
        return delta_out @ f.T
    # sign symmetric
    return float(np.mean(np.abs(layer.weight))) * (delta_out @ np.sign(layer.weight))


# ---------------------------------------------------------------------------
# gradient packets and the single update pathway


@dataclass
class LayerGrad:
    """Row-matrix factors of one layer's update: dW = delta^T @ trace / batch,
    db = bias / batch.

    ``bias`` defaults to the column sums of ``delta``. Factors whose delta is
    not the plain step errors (a folded first layer, sum_t a_t c_t, and
    OTTT's regrouped errors e_t) carry the unweighted sum_t c_t explicitly.
    """

    delta: np.ndarray  # (rows, out)
    trace: np.ndarray  # (rows, in)
    bias: np.ndarray | None = None  # (out,)

    def __post_init__(self) -> None:
        if self.bias is None:
            self.bias = self.delta.sum(axis=0, dtype=np.float64)


@dataclass
class GradPacket:
    """Per-layer (delta, trace) factors for one batch, plus the batch size."""

    layers: list[LayerGrad]
    batch: int

    def merge(self, other: "GradPacket") -> "GradPacket":
        if len(self.layers) != len(other.layers) or self.batch != other.batch:
            raise ShapeError("cannot merge grad packets of different structure")
        merged = [
            LayerGrad(
                delta=np.concatenate([a.delta, b.delta]),
                trace=np.concatenate([a.trace, b.trace]),
                bias=a.bias + b.bias,
            )
            for a, b in zip(self.layers, other.layers)
        ]
        return GradPacket(layers=merged, batch=self.batch)


def sgd_update(layer: Layer, grad: LayerGrad, lr: float, batch: int) -> None:
    """Apply W <- W - lr * delta^T @ trace / batch and b <- b - lr * bias / batch.

    The trace is used as given. On a layer with a lateral circuit the training
    loop first replaces it with the projected trace that
    ``LateralSubspace.hebbian_update`` returns, so the update cannot disturb
    directions old tasks relied on; biases are never projected.
    """
    dw = grad.delta.T @ grad.trace
    dw *= lr
    dw /= batch
    layer.weight -= dw
    layer.bias -= lr * grad.bias / batch


# ---------------------------------------------------------------------------
# shared structural plumbing


def _presyn_rows(layer: Layer, carry: np.ndarray) -> np.ndarray:
    """Presynaptic rows feeding ``layer``: a conv layer views its carry, (B, C*H*W)
    rows or (B, C, H, W) maps, as maps and unfolds their patches; a dense layer
    takes its (B, in) rows as they are."""
    if layer.kind == "conv":
        maps = carry.reshape(len(carry), layer.in_channels, *layer.in_hw)
        return unfold_patches(maps, layer.kernel)
    return carry


def _layer_current(layer: Layer, rows: np.ndarray) -> np.ndarray:
    """Synaptic current from presynaptic rows, in the same row layout."""
    current = rows @ layer.weight.T
    current += layer.bias
    return current


def _post_block(layer: Layer, s: np.ndarray) -> np.ndarray:
    """Spike rows of a block as the carry for the next one, one row per
    sample: conv rows (one per output position) are viewed as channels-last
    (B, oh, ow, C) maps, pooled, and flattened channel-major."""
    if layer.kind != "conv":
        return s
    oh, ow = layer.out_hw
    maps = s.reshape(-1, oh, ow, layer.out_dim)
    pooled = avg_pool(maps, layer.pool) if layer.pool > 1 else maps
    return pooled.transpose(0, 3, 1, 2).reshape(len(pooled), -1)


def _route_error_to_block(delta_flat: np.ndarray, below: Layer) -> np.ndarray:
    """An error on a block's (flattened, pooled) output as error rows at its spikes:
    conv errors are unpooled straight into patch rows, one per output position."""
    if below.kind != "conv":
        return delta_flat
    oh, ow = below.out_hw
    p, c = below.pool, below.out_dim
    g = delta_flat.reshape(-1, c, oh // p, ow // p).transpose(0, 2, 3, 1)
    if p > 1:
        g = avg_pool_backward(g, p)
    return g.reshape(-1, c)


def _error_below(layers: list[Layer], i: int, c: np.ndarray,
                 epcfg: ErrorPropConfig) -> np.ndarray:
    """Carry layer i's error rows ``c`` down to the spikes of layer i - 1."""
    if layers[i].kind == "conv":
        raise ShapeError("error propagation below a conv layer is not supported")
    return _route_error_to_block(backprop_error(c, layers[i], epcfg), layers[i - 1])


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _run_steps(
    net: SpikingNet, x: np.ndarray, head: int = 0
) -> Iterator[tuple[list[np.ndarray], list[LayerState]]]:
    """Walk the layers for T steps on a static input, yielding after each step.

    Each step yields the per-layer presynaptic rows and per-layer states, a
    state in the row layout of its rows: (batch * oh * ow, channels) on a
    conv layer. Layers propagate within a step; the input is injected as a
    constant current at every step. The input and the weights are fixed for
    the batch, so the first layer's rows and current are computed once, and
    the rows are yielded at step 0 only (None after): the walk lets them go
    once a caller has had them.

    The walk owns what it yields. Each state's arrays are allocated once,
    when its layer's first rows are known, and every step writes into them;
    a dense layer's rows are the spike array of the layer below. So a
    caller that keeps a step's arrays past the next step copies them
    (``_stack_rows``). In-place updates keep their operands' shapes and
    order, and so the bytes.
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    first_rows = _presyn_rows(layers[0], x)
    first_current = _layer_current(layers[0], first_rows)
    states = [LayerState.zeros(len(first_rows), layers[0].out_dim, layers[0].weight.dtype)]
    for _ in range(cfg.T):
        rows, first_rows = [first_rows], None
        lif_step(states[0], first_current, cfg)
        for i in range(1, len(layers)):
            rows.append(_presyn_rows(layers[i], _post_block(layers[i - 1], states[i - 1].s)))
            if len(states) == i:
                states.append(LayerState.zeros(len(rows[i]), layers[i].out_dim, rows[i].dtype))
            lif_step(states[i], _layer_current(layers[i], rows[i]), cfg)
        yield rows, states


def _stack_rows(
    feeds: list[np.ndarray], t: int, rows: Sequence[np.ndarray | None], T: int
) -> None:
    """Keep step t of a T-step walk's presynaptic rows in ``feeds``, its trace
    rows: the constant input's rows once, from step 0, and every other
    layer's rows copied into block t of a (T * rows, in) array made at step 0."""
    if t == 0:
        feeds[:] = [rows[0], *(np.empty((T * len(r), r.shape[1]), r.dtype) for r in rows[1:])]
    for feed, r in zip(feeds[1:], rows[1:]):
        feed[t * len(r) : (t + 1) * len(r)] = r


def _spiking_forward_pass(
    net: SpikingNet, x: np.ndarray, head: int
) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]], list[np.ndarray]]:
    """Run T steps, returning per-layer per-step copies of (u, s) and the
    per-layer trace rows of ``_stack_rows``."""
    n_layers = len(net.trainable_layers(head))
    us: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    ss: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    feeds: list[np.ndarray] = []
    for t, (rows, states) in enumerate(_run_steps(net, x, head)):
        _stack_rows(feeds, t, rows, net.cfg.T)
        for i, state in enumerate(states):
            us[i].append(state.u.copy())
            ss[i].append(state.s.copy())
    return us, ss, feeds


# ---------------------------------------------------------------------------
# trainer: BPTT with surrogate gradients


def bptt_sg_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    head: int = 0,
    on_trace: OnTrace | None = None,
) -> tuple[GradPacket, np.ndarray]:
    """Backpropagation through time with the sigmoid surrogate.

    Cross-entropy on the output firing rate; credit for step t flows into
    earlier steps through both the leaky membrane path and the subtraction
    reset path. Traces are the per-step presynaptic spikes. The static
    input's rows are the same at every step, so the first layer's factor is
    one block, (sum_t c_t, x).

    Returns the grad packet and the output firing rate.
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    us, ss, traces = _spiking_forward_pass(net, x, head)
    for i, rows in enumerate(traces if on_trace else ()):
        on_trace(i, rows)

    rate = np.mean(ss[-1], axis=0)
    # External error at the current layer's spikes at each step, top-down.
    ext = [(softmax(rate) - y_onehot) / cfg.T] * cfg.T

    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        cs: list[np.ndarray] = [None] * cfg.T  # type: ignore[list-item]
        c_next = np.zeros_like(us[i][0])
        for t in range(cfg.T - 1, -1, -1):
            ds = ext[t] - cfg.lam * cfg.v_th * c_next
            cs[t] = c_next = ds * surrogate_derivative(us[i][t], cfg) + cfg.lam * c_next
        grads[i] = LayerGrad(delta=sum(cs) if i == 0 else np.concatenate(cs), trace=traces[i])
        if i > 0:
            ext = [_error_below(layers, i, c, epcfg) for c in cs]
    return GradPacket(layers=grads, batch=x.shape[0]), rate


# ---------------------------------------------------------------------------
# trainer: online training through time with eligibility traces


def ottt_step(net: SpikingNet, states: list[LayerState], y_onehot: np.ndarray,
              epcfg: ErrorPropConfig, head: int = 0) -> list[np.ndarray]:
    """The learning half of one forward-in-time step, on the layer states the
    walk has just advanced: the step's instantaneous per-layer errors.

    The error uses the per-step loss L[t] = CE(s_out[t], y)/T and never looks
    at past steps. No eligibility trace is advanced here: ``ottt_backward``
    regroups the trace sum by the step each presynaptic row entered.

    Returns the step's per-layer errors c_t, in the row layout of the
    states and of the presynaptic rows.
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    cs = [surrogate_derivative(st.u, cfg) for st in states]
    err = (softmax(states[-1].s) - y_onehot) / cfg.T
    for i in range(len(layers) - 1, 0, -1):
        cs[i] *= err
        err = _error_below(layers, i, cs[i], epcfg)
    cs[0] *= err
    return cs


def ottt_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    head: int = 0,
    on_trace: OnTrace | None = None,
) -> tuple[GradPacket, np.ndarray]:
    """Run all T steps of online learning on one batch of static inputs.

    A layer's update is sum_t c_t^T trace_t with the eligibility trace
    trace_t = lam * trace_{t-1} + x_t. Regrouped by the step each row x_tau
    entered, it is sum_tau e_tau^T x_tau with e_tau = c_tau + lam * e_{tau+1}
    (e_{T+1} = 0), so every layer above the first gets the factor (e, x) over
    its T step rows and its bias gradient sum_t c_t explicitly; no trace is
    formed. The first layer's rows are the static input at every step, so
    its trace is a_t x with a_1 = 1 and a_{t+1} = lam * a_t + 1, and its
    factor is one block, (sum_t a_t c_t, x), folded forward in time so that
    no T error blocks of the (conv-sized) first layer are held.

    Returns the grad packet, whose trace factors are the raw presynaptic rows
    (per-step spikes; the constant input once), and the output firing rate.
    """
    cfg = net.cfg
    feeds: list[np.ndarray] = []
    step_errs = []  # per step: the errors of the layers above the first
    a = first_bias = 0.0
    for t, (rows, states) in enumerate(_run_steps(net, x, head)):
        if t == 0:  # 0.0 + x, as in a sum from 0.0: -0.0 becomes +0.0
            first_delta, rate_sum = np.zeros_like(states[0].u), np.zeros_like(states[-1].s)
        _stack_rows(feeds, t, rows, cfg.T)
        if on_trace and t == 0:  # the input's rows are final at once
            on_trace(0, feeds[0])
        for i in range(1, len(feeds)) if on_trace and t == cfg.T - 1 else ():
            on_trace(i, feeds[i])
        cs = ottt_step(net, states, y_onehot, epcfg, head)
        a = cfg.lam * a + 1.0
        first_bias = first_bias + cs[0].sum(axis=0, dtype=np.float64)
        first_delta += np.multiply(cs[0], a, out=cs[0])
        step_errs.append(cs[1:])
        rate_sum += states[-1].s
    grads = [LayerGrad(delta=first_delta, trace=feeds[0], bias=first_bias)]
    for trace, errs in zip(feeds[1:], zip(*step_errs)):
        c = np.concatenate(errs)
        e = c.reshape(cfg.T, -1, c.shape[1]).copy()
        for t in range(cfg.T - 2, -1, -1):
            e[t] += cfg.lam * e[t + 1]
        grads.append(LayerGrad(delta=e.reshape(c.shape), trace=trace,
                               bias=c.sum(axis=0, dtype=np.float64)))
    return GradPacket(layers=grads, batch=x.shape[0]), rate_sum / cfg.T


# ---------------------------------------------------------------------------
# trainer: rate representation through the clamp-transform chain


def rate_chain_forward(
    net: SpikingNet, x: np.ndarray, head: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward through the clamped rate transforms.

    Returns per-layer presynaptic rate rows and per-layer outputs (the final
    entry is the classifier's rate encoding, used as logits).
    """
    pres: list[np.ndarray] = []
    outs: list[np.ndarray] = []
    carry = x
    for layer in net.trainable_layers(head):
        rows = _presyn_rows(layer, carry)
        pres.append(rows)
        z = rate_forward_transform(rows, layer.weight, layer.bias, net.cfg)
        outs.append(z)
        carry = _post_block(layer, z)
    return pres, outs


def rate_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    head: int = 0,
    on_trace: OnTrace | None = None,
) -> tuple[GradPacket, np.ndarray]:
    """Gradients through the rate-transform chain.

    Cross-entropy on the output encoding; errors pass the clamp gate (zero
    where a unit saturated at either bound) and scale by 1/tau. Traces are
    the presynaptic rates.

    Returns the grad packet and the output encoding (the logits).
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    pres, outs = rate_chain_forward(net, x, head)
    for i, rows in enumerate(pres if on_trace else ()):
        on_trace(i, rows)
    logits = outs[-1]
    err = softmax(logits) - y_onehot

    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        z = outs[i]
        gate = ((z > 0.0) & (z < cfg.rate_bound)).astype(z.dtype)
        c = err * gate / cfg.tau
        grads[i] = LayerGrad(delta=c, trace=pres[i])
        if i > 0:
            err = _error_below(layers, i, c, epcfg)
    return GradPacket(layers=grads, batch=x.shape[0]), logits


# ---------------------------------------------------------------------------
# inference


def spiking_rate_readout(net: SpikingNet, x: np.ndarray, head: int = 0) -> np.ndarray:
    """Output firing rate over T steps (no learning, no lateral traffic)."""
    return sum(states[-1].s for _, states in _run_steps(net, x, head)) / net.cfg.T


def predict(net: SpikingNet, x: np.ndarray, trainer: str, head: int = 0) -> np.ndarray:
    """Class decisions: firing-rate argmax for spike trainers, rate encoding
    argmax for the rate trainer."""
    if trainer == "rate":
        _, outs = rate_chain_forward(net, x, head)
        scores = outs[-1]
    else:
        scores = spiking_rate_readout(net, x, head)
    return np.argmax(scores, axis=1)
