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

The spiking trainers read one layer-major walk, ``_walk``, on a static
input: each layer runs its T steps in one pass, with one current product over
its rows of every step, before the layer above starts. ``ottt_backward`` hands
the walked states to ``ottt_step``, which forms every step's instantaneous
errors with one product per layer. The inference readout, which keeps no
step, runs every layer one step at a time instead.

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

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from itertools import accumulate

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


# Neuron states per block of batched work, 0.5 MiB per float32 array: evaluation
# batches and the chunks of OTTT's first-layer backward are sized by it.
EVAL_STATES = 2**17


def _walk(
    net: SpikingNet, x: np.ndarray, head: int = 0, every_u: bool = False,
    on_trace: OnTrace | None = None,
) -> Iterator[tuple[np.ndarray, LayerState]]:
    """Walk the layers for T steps on a static input, one layer at a time.

    Yields each layer's presynaptic rows and its ``LayerState`` once the layer
    has run all T steps. Its rows are the static input's once, and above it
    the T step blocks of the layer below's output stacked step-major, (T *
    rows, in): its trace rows, and one current product. Its state holds
    (slots, rows, n) histories (see ``LayerState``): a dense layer's spikes
    keep all T steps, which are the next layer's rows; a conv layer's one
    slot, pooled step by step. ``every_u`` keeps every step's potentials
    (the trainers' surrogates read them), else one. ``on_trace(i, rows)``
    gets each layer's rows as soon as they are formed. The walk holds a
    layer only while it forms the next one.
    """
    cfg, layers = net.cfg, net.trainable_layers(head)
    carry = x
    for i, layer in enumerate(layers):
        rows = _presyn_rows(layer, carry)
        if on_trace:
            on_trace(i, rows)
        current = _layer_current(layer, rows)
        r, n = len(current) // (cfg.T if i else 1), layer.out_dim
        state = LayerState(np.zeros((cfg.T if every_u else 1, r, n), current.dtype),
                           np.zeros((1 if layer.kind == "conv" else cfg.T, r, n), current.dtype))
        currents = np.broadcast_to(current.reshape(-1, r, n), (cfg.T, r, n))
        if layer.kind != "conv":
            lif_step(state, currents, cfg)
            carry = state.s.reshape(-1, n)
        else:  # pool a conv layer's spikes one step at a time
            carry = np.empty((cfg.T, len(x), layers[i + 1].in_dim), current.dtype)
            for t, c in enumerate(currents):
                carry[t] = _post_block(layer, lif_step(state, c, cfg)[1])
            carry = carry.reshape(-1, carry.shape[2])
        yield rows, state


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
    traces, states = zip(*_walk(net, x, head, every_u=True, on_trace=on_trace))
    rate = np.mean(states[-1].s, axis=0)
    # External error at the current layer's spikes at each step, top-down.
    ext = np.broadcast_to((softmax(rate) - y_onehot) / cfg.T, (cfg.T, *rate.shape))

    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        sg = surrogate_derivative(states[i].u, cfg)
        cs: list[np.ndarray] = [None] * cfg.T  # type: ignore[list-item]
        c_next = np.zeros_like(sg[0])
        for t in range(cfg.T - 1, -1, -1):
            ds = ext[t] - cfg.lam * cfg.v_th * c_next
            cs[t] = c_next = ds * sg[t] + cfg.lam * c_next
        grads[i] = LayerGrad(delta=sum(cs) if i == 0 else np.concatenate(cs), trace=traces[i])
        if i > 0:
            ext = _error_below(layers, i, grads[i].delta, epcfg).reshape(states[i - 1].u.shape)
    return GradPacket(layers=grads, batch=x.shape[0]), rate


# ---------------------------------------------------------------------------
# trainer: online training through time with eligibility traces


def ottt_step(net: SpikingNet, states: list[LayerState], y_onehot: np.ndarray,
              epcfg: ErrorPropConfig, head: int = 0) -> list[np.ndarray]:
    """The learning half of OTTT on the layer states of a whole walk: every
    step's instantaneous errors, with one surrogate, one output error and one
    error-below product per layer.

    Step t's error uses the per-step loss L[t] = CE(s_out[t], y)/T and never
    looks at other steps. No eligibility trace is advanced here:
    ``ottt_backward`` regroups the trace sum by the step each presynaptic row
    entered.

    Returns, per trainable layer, (T, rows, n) step blocks: first the error
    at the first layer's output, one row per sample, neither routed into its
    row layout nor gated by its surrogate (``ottt_backward`` does both, a
    few steps at a time), then the errors c_t of every layer above the first,
    in the row layout of its states and presynaptic rows.
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    err = (softmax(states[-1].s) - y_onehot) / cfg.T
    cs = []
    for i in range(len(layers) - 1, 0, -1):
        c = surrogate_derivative(states[i].u, cfg)
        c *= err.reshape(c.shape)
        cs.insert(0, c)
        err = backprop_error(c.reshape(-1, c.shape[2]), layers[i], epcfg)
    return [err.reshape(cfg.T, -1, err.shape[-1]), *cs]


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
    factor is one block, (sum_t a_t c_t, x), folded forward in time in chunks
    of as many steps as keep the chunk within ``EVAL_STATES`` neuron states,
    so that no T error blocks of a conv-sized first layer are held.

    Returns the grad packet, whose trace factors are the raw presynaptic rows
    (per-step spikes; the constant input once), and the output firing rate.
    """
    cfg = net.cfg
    feeds, states = zip(*_walk(net, x, head, every_u=True, on_trace=on_trace))
    err, *cs = ottt_step(net, states, y_onehot, epcfg, head)
    first, u = net.trainable_layers(head)[0], states[0].u
    a = accumulate(range(cfg.T - 1), lambda a_t, _: cfg.lam * a_t + 1.0, initial=1.0)
    weights = np.array(list(a), u.dtype)[:, None, None]  # a_1 = 1, a_{t+1} = lam a_t + 1
    first_delta, first_bias = np.zeros_like(u[0]), np.zeros(u.shape[2])
    chunk = max(1, EVAL_STATES // (u.shape[1] * u.shape[2]))
    for t in range(0, cfg.T, chunk):
        c = surrogate_derivative(u[t : t + chunk], cfg)
        c *= _route_error_to_block(err[t : t + chunk], first).reshape(c.shape)
        first_bias += c.reshape(-1, c.shape[2]).sum(axis=0, dtype=np.float64)
        c *= weights[t : t + chunk]
        for c_t in c:
            first_delta += c_t
    grads = [LayerGrad(delta=first_delta, trace=feeds[0], bias=first_bias)]
    for trace, c in zip(feeds[1:], cs):
        bias = c.reshape(-1, c.shape[2]).sum(axis=0, dtype=np.float64)
        for t in range(cfg.T - 2, -1, -1):
            c[t] += cfg.lam * c[t + 1]
        grads.append(LayerGrad(delta=c.reshape(-1, c.shape[2]), trace=trace, bias=bias))
    return GradPacket(layers=grads, batch=x.shape[0]), states[-1].s.sum(axis=0) / cfg.T


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
    where a unit saturated at either bound). Traces are the presynaptic rates.

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
        c = err * gate
        grads[i] = LayerGrad(delta=c, trace=pres[i])
        if i > 0:
            err = _error_below(layers, i, c, epcfg)
    return GradPacket(layers=grads, batch=x.shape[0]), logits


# ---------------------------------------------------------------------------
# inference


def spiking_rate_readout(net: SpikingNet, x: np.ndarray, head: int = 0) -> np.ndarray:
    """Output firing rate over T steps (no learning, no lateral traffic), every
    layer one step at a time: an evaluation batch fills ``EVAL_STATES`` with one
    step of its first layer, so the walk's T-step histories would outgrow the cache."""
    cfg, layers = net.cfg, net.trainable_layers(head)
    first = _layer_current(layers[0], _presyn_rows(layers[0], x))  # every step's
    states = [LayerState.zeros(len(first) if i == 0 else len(x), layer.out_dim, first.dtype)
              for i, layer in enumerate(layers)]
    rate = 0
    for _ in range(cfg.T):
        carry = None
        for layer, state in zip(layers, states):
            current = first if carry is None else _layer_current(layer, _presyn_rows(layer, carry))
            carry = _post_block(layer, lif_step(state, current, cfg)[1])
        rate = rate + carry
    return rate / cfg.T


def predict(net: SpikingNet, x: np.ndarray, trainer: str, head: int = 0) -> np.ndarray:
    """Class decisions: firing-rate argmax for spike trainers, rate encoding
    argmax for the rate trainer."""
    if trainer == "rate":
        _, outs = rate_chain_forward(net, x, head)
        scores = outs[-1]
    else:
        scores = spiking_rate_readout(net, x, head)
    return np.argmax(scores, axis=1)
