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
it to ``ottt_step``, which advances the eligibility traces and forms the
instantaneous error.

Every trainer emits a ``GradPacket`` of (delta, trace) row matrices per
trainable layer, and every weight update is formed as delta^T @ trace — the
single pathway through which lateral circuits modify learning. Where the
projection x_hat = x - H^T H x happens depends on the circuit's mode:

* linear circuits project the formed update, dW (I - H^T H), in
  ``sgd_update``; by linearity this equals delta^T x_hat, and the update has
  far fewer rows than the trace;
* burst-quantized (spiking-mode) circuits are nonlinear per row, so the
  trainers project each trace row when the circuit is passed to them.

Error signals can travel by plain backprop, feedback alignment (fixed random
matrices), or sign symmetry.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .lateral import LateralSubspace
from .linalg import ShapeError, kaiming_uniform_init
from .spiking import (
    Layer,
    LayerState,
    NeuronConfig,
    avg_pool,
    avg_pool_backward,
    lif_step,
    rate_forward_transform,
    surrogate_derivative,
    unfold_patches,
)

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
    from .spiking import dense_layer

    blocks = []
    prev = in_dim
    for i, h in enumerate(hidden):
        layer = dense_layer(h, prev, rng)
        layer.meta["name"] = f"block{i}"
        blocks.append(layer)
        prev = h
    heads = []
    for i in range(n_heads):
        head = dense_layer(n_classes, prev, rng)
        head.meta["name"] = f"head{i}"
        heads.append(head)
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
    from .spiking import conv_layer, conv_output_hw, dense_layer

    conv = conv_layer(channels, in_channels, kernel, in_hw, rng, pool=pool)
    conv.meta["name"] = "block0"
    oh, ow = conv_output_hw(*in_hw, kernel, 1)
    flat = channels * (oh // pool) * (ow // pool)
    dense = dense_layer(hidden, flat, rng)
    dense.meta["name"] = "block1"
    heads = []
    for i in range(n_heads):
        head = dense_layer(n_classes, hidden, rng)
        head.meta["name"] = f"head{i}"
        heads.append(head)
    return SpikingNet(blocks=[conv, dense], heads=heads, cfg=cfg)


# ---------------------------------------------------------------------------
# error propagation backends


@dataclass
class ErrorPropConfig:
    """How error signals cross layers on the way down.

    ``bp`` uses transposed forward weights, ``fa`` fixed random feedback
    matrices (one per layer, frozen after init), ``ss`` the sign pattern of
    the forward weights scaled to prevent explosion. ``ss_scale`` overrides
    the default per-layer scale (mean absolute forward weight).
    """

    mode: str = "bp"  # "bp" | "fa" | "ss"
    feedback: dict[str, np.ndarray] = field(default_factory=dict)
    ss_scale: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("bp", "fa", "ss"):
            raise ValueError(f"unknown error propagation mode {self.mode!r}")


def init_feedback(net: SpikingNet, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Fixed feedback matrices for feedback alignment.

    Each layer gets F of shape (in, out) drawn from the same Kaiming-uniform
    distribution as its forward weights.
    """
    feedback = {}
    for layer in [*net.blocks, *net.heads]:
        out_dim, in_dim = layer.weight.shape
        feedback[layer.meta["name"]] = kaiming_uniform_init(
            in_dim, out_dim, fan_in=in_dim, rng=rng
        )
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
        name = layer.meta.get("name")
        f = epcfg.feedback.get(name)
        if f is None:
            raise ValueError(f"feedback alignment requires an F matrix for layer {name!r}")
        return delta_out @ f.T
    # sign symmetric
    scale = epcfg.ss_scale
    if scale is None:
        scale = float(np.mean(np.abs(layer.weight)))
    return scale * (delta_out @ np.sign(layer.weight))


# ---------------------------------------------------------------------------
# gradient packets and the single update pathway


@dataclass
class LayerGrad:
    """Row-matrix factors of one layer's update: dW = delta^T @ trace / batch."""

    delta: np.ndarray  # (rows, out)
    trace: np.ndarray  # (rows, in)


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
            )
            for a, b in zip(self.layers, other.layers)
        ]
        return GradPacket(layers=merged, batch=self.batch)

    def dense_grads(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Materialized (dW, db) per layer, batch-averaged."""
        out = []
        for lg in self.layers:
            out.append((lg.delta.T @ lg.trace / self.batch, lg.delta.sum(axis=0) / self.batch))
        return out


def sgd_update(
    layer: Layer,
    grad: LayerGrad,
    lr: float,
    batch: int,
    subspace: LateralSubspace | None = None,
) -> None:
    """Apply W <- W - lr * delta^T @ trace / batch (bias from delta alone).

    When ``subspace`` is given the update is projected off the consolidated
    subspace, so it cannot disturb directions old tasks relied on. A linear
    circuit projects the formed update, delta^T trace (I - H^T H), whose
    (out, in) rows are far fewer than the trace rows; by linearity this
    equals delta^T x_hat. A burst-quantized circuit is nonlinear per row, so
    it projects each trace row first. Biases are excluded from projection.
    """
    if subspace is None:
        dw = grad.delta.T @ grad.trace
    elif subspace.mode == "linear":
        dw = subspace.project_trace(grad.delta.T @ grad.trace)
    else:
        dw = grad.delta.T @ subspace.project_trace(grad.trace)
    layer.weight -= lr * dw / batch
    layer.bias -= lr * grad.delta.sum(axis=0) / batch


# ---------------------------------------------------------------------------
# shared structural plumbing


def _presyn_rows(layer: Layer, carry: np.ndarray) -> np.ndarray:
    """Rows of presynaptic input feeding ``layer`` (unfolds conv patches)."""
    if layer.kind == "conv":
        if carry.ndim != 4:
            raise ShapeError(f"conv layer expects a (B,C,H,W) carry, got {carry.shape}")
        return unfold_patches(carry, layer.kernel, layer.stride)
    if carry.ndim > 2:
        return carry.reshape(carry.shape[0], -1)
    return carry


def _layer_current(layer: Layer, rows: np.ndarray, batch: int) -> np.ndarray:
    """Synaptic current from presynaptic rows; conv currents come back as maps."""
    cur = rows @ layer.weight.T + layer.bias
    if layer.kind == "conv":
        oh, ow = layer.out_hw
        return cur.reshape(batch, oh, ow, layer.out_dim).transpose(0, 3, 1, 2)
    return cur


def _project(sub: LateralSubspace | None, rows: np.ndarray) -> np.ndarray:
    return rows if sub is None else sub.project_trace(rows)


def _post_block(layer: Layer, s: np.ndarray) -> np.ndarray:
    """Spike output of a block as the carry for the next one (pooling included)."""
    if layer.kind == "conv" and layer.pool > 1:
        return avg_pool(s, layer.pool)
    return s


def _delta_rows(layer: Layer, delta: np.ndarray) -> np.ndarray:
    """Match a (batch, out...) delta to the row layout of ``_presyn_rows``."""
    if layer.kind == "conv":
        return delta.transpose(0, 2, 3, 1).reshape(-1, layer.out_dim)
    return delta


def _route_error_to_block(
    delta_flat: np.ndarray, below: Layer, batch: int
) -> np.ndarray:
    """Reshape an error on a block's (flattened, pooled) output back to spikes."""
    if below.kind == "conv":
        oh, ow = below.out_hw
        p = below.pool
        g = delta_flat.reshape(batch, below.out_dim, oh // p, ow // p)
        if p > 1:
            g = avg_pool_backward(g, p)
        return g
    return delta_flat


def _state_shape(layer: Layer, batch: int) -> tuple[int, ...]:
    if layer.kind == "conv":
        oh, ow = layer.out_hw
        return (batch, layer.out_dim, oh, ow)
    return (batch, layer.out_dim)


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _smooth_step(state: LayerState, input_current: np.ndarray, cfg: NeuronConfig) -> None:
    """``lif_step`` with the spike step replaced by its sigmoid relaxation.

    The relaxation's derivative is exactly the surrogate, which makes
    finite-difference checks of the backward pass exact.
    """
    state.u = cfg.lam * (state.u - cfg.v_th * state.s) + input_current
    state.s = 1.0 / (1.0 + np.exp(np.clip((cfg.v_th - state.u) / cfg.a2, -500.0, 500.0)))


def _run_steps(
    net: SpikingNet, x: np.ndarray, head: int = 0, smooth: bool = False
) -> Iterator[tuple[list[np.ndarray], list[LayerState]]]:
    """Walk the layers for T steps on a static input, yielding after each step.

    Each step yields the per-layer presynaptic rows and per-layer states.
    Layers propagate within a step; the input is injected as a constant
    current at every step. The input and the weights are fixed for the batch,
    so the first layer's rows and current are computed once. The states are
    advanced in place by the next step, but their arrays are rebound, never
    mutated, so a caller may keep the ``u`` and ``s`` it reads. With
    ``smooth`` the spike step is replaced by its sigmoid relaxation (used only
    by gradient-checking code paths).
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    step = _smooth_step if smooth else lif_step
    states = [LayerState.zeros_shape(_state_shape(l, batch)) for l in layers]
    first_rows = _presyn_rows(layers[0], x)
    first_current = _layer_current(layers[0], first_rows, batch)
    for _ in range(cfg.T):
        rows = [first_rows]
        step(states[0], first_current, cfg)
        for i in range(1, len(layers)):
            rows.append(_presyn_rows(layers[i], _post_block(layers[i - 1], states[i - 1].s)))
            step(states[i], _layer_current(layers[i], rows[i], batch), cfg)
        yield rows, states


def _stack_feeds(pres: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Hebbian feed rows: per-step rows stacked; the constant input fed once."""
    return [rows[0] if i == 0 else np.concatenate(rows) for i, rows in enumerate(pres)]


def _spiking_forward_pass(
    net: SpikingNet,
    x: np.ndarray,
    head: int,
    smooth: bool = False,
) -> tuple[list[list[np.ndarray]], list[list[np.ndarray]], list[list[np.ndarray]]]:
    """Run T steps, returning per-layer per-step (u, s) and presynaptic rows.

    With ``smooth`` the spike step is replaced by its sigmoid relaxation
    (used only by gradient-checking code paths).
    """
    n_layers = len(net.trainable_layers(head))
    us: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    ss: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    pres: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    for rows, states in _run_steps(net, x, head, smooth):
        for i, state in enumerate(states):
            us[i].append(state.u)
            ss[i].append(state.s)
            pres[i].append(rows[i])
    return us, ss, pres


# ---------------------------------------------------------------------------
# trainer: BPTT with surrogate gradients


def bptt_sg_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    subspaces: dict[int, LateralSubspace] | None = None,
    head: int = 0,
    smooth_forward: bool = False,
) -> tuple[GradPacket, list[np.ndarray], np.ndarray]:
    """Backpropagation through time with the sigmoid surrogate.

    Cross-entropy on the output firing rate; credit for step t flows into
    earlier steps through both the leaky membrane path and the subtraction
    reset path. Traces are the per-step presynaptic spikes, projected when a
    lateral subspace is attached to the layer.

    Returns the grad packet, the raw per-layer Hebbian feed rows, and the
    output firing rate.
    """
    cfg = net.cfg
    subspaces = subspaces or {}
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    us, ss, pres = _spiking_forward_pass(net, x, head, smooth=smooth_forward)

    rate = np.mean(ss[-1], axis=0)
    e_out = (softmax(rate) - y_onehot) / cfg.T

    # Per-layer external errors at each step, filled top-down.
    ext: list[list[np.ndarray] | None] = [None for _ in layers]
    ext[-1] = [e_out for _ in range(cfg.T)]

    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    feeds: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        cs: list[np.ndarray] = [None] * cfg.T  # type: ignore[list-item]
        c_next = np.zeros_like(us[i][0])
        for t in range(cfg.T - 1, -1, -1):
            ds = ext[i][t] - cfg.lam * cfg.v_th * c_next
            c = ds * surrogate_derivative(us[i][t], cfg) + cfg.lam * c_next
            cs[t] = c
            c_next = c
        sub = subspaces.get(i)
        delta_rows = np.concatenate([_delta_rows(layer, c) for c in cs])
        raw_trace = np.concatenate(pres[i])
        trace_rows = _project(sub, raw_trace)
        grads[i] = LayerGrad(delta=delta_rows, trace=trace_rows)
        feeds[i] = raw_trace if i > 0 else pres[i][0]
        if i > 0:
            if layer.kind == "conv":
                raise ShapeError("error propagation below a conv layer is not supported")
            below = layers[i - 1]
            errs = []
            for t in range(cfg.T):
                d = backprop_error(cs[t], layer, epcfg)
                errs.append(_route_error_to_block(d, below, batch))
            ext[i - 1] = errs
    return GradPacket(layers=grads, batch=batch), feeds, rate


# ---------------------------------------------------------------------------
# trainer: online training through time with eligibility traces


def ottt_step(
    net: SpikingNet,
    states: list[LayerState],
    traces: list,
    trace_inputs: list[np.ndarray],
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    head: int = 0,
) -> GradPacket:
    """The learning half of one forward-in-time step, on the layer states the
    walk has just advanced.

    Each layer's eligibility trace advances in place as
    trace = lam * trace + input, where ``trace_inputs`` are the step's
    presynaptic rows after any per-row projection. The instantaneous error
    uses the per-step loss L[t] = CE(s_out[t], y)/T and never looks at past
    steps.

    Returns the step's (delta, trace) factors.
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    batch = y_onehot.shape[0]
    for i, rows in enumerate(trace_inputs):
        traces[i] = cfg.lam * traces[i] + rows
    err = (softmax(states[-1].s) - y_onehot) / cfg.T
    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        c = _delta_rows(layer, err * surrogate_derivative(states[i].u, cfg))
        grads[i] = LayerGrad(delta=c, trace=traces[i])
        if i > 0:
            if layer.kind == "conv":
                raise ShapeError("error propagation below a conv layer is not supported")
            d = backprop_error(c, layer, epcfg)
            err = _route_error_to_block(d, layers[i - 1], batch)
    return GradPacket(layers=grads, batch=batch)


def ottt_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    subspaces: dict[int, LateralSubspace] | None = None,
    head: int = 0,
) -> tuple[GradPacket, list[np.ndarray], np.ndarray]:
    """Run all T steps of online learning on one batch of static inputs.

    Each step's presynaptic rows are first projected by the lateral circuit
    attached in ``subspaces``, then fed to ``ottt_step``. Only
    burst-quantized circuits need this per-row projection, since the
    quantizer acts on each step's signal; the static input's rows are the
    same at every step, so they are projected once. Linear circuits are
    instead handed to ``sgd_update``, which projects the formed update; by
    linearity that equals the update from projected traces. The T step
    factors are concatenated once per layer at the end.

    Returns the accumulated grad packet, the raw Hebbian feed rows per layer
    (per-step presynaptic spikes; the constant input is fed once), and the
    output firing rate.
    """
    cfg = net.cfg
    subspaces = subspaces or {}
    n_layers = len(net.trainable_layers(head))
    traces: list = [0.0] * n_layers  # eligibility trace rows, zero before step 1
    steps: list[GradPacket] = []
    pres: list[list[np.ndarray]] = [[] for _ in range(n_layers)]
    first_input = None
    rate_sum = 0.0
    for rows, states in _run_steps(net, x, head):
        if first_input is None:
            first_input = _project(subspaces.get(0), rows[0])
        trace_inputs = [first_input] + [
            _project(subspaces.get(i), rows[i]) for i in range(1, n_layers)
        ]
        steps.append(ottt_step(net, states, traces, trace_inputs, y_onehot, epcfg, head))
        for i in range(n_layers):
            pres[i].append(rows[i])
        rate_sum = rate_sum + states[-1].s
    packet = GradPacket(
        layers=[
            LayerGrad(
                delta=np.concatenate([p.layers[i].delta for p in steps]),
                trace=np.concatenate([p.layers[i].trace for p in steps]),
            )
            for i in range(n_layers)
        ],
        batch=x.shape[0],
    )
    return packet, _stack_feeds(pres), rate_sum / cfg.T


# ---------------------------------------------------------------------------
# trainer: rate representation through the clamp-transform chain


def rate_chain_forward(
    net: SpikingNet, x: np.ndarray, head: int = 0
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Forward through the clamped rate transforms.

    Returns per-layer presynaptic rate rows and per-layer outputs (the final
    entry is the classifier's rate encoding, used as logits).
    """
    cfg = net.cfg
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    pres: list[np.ndarray] = []
    outs: list[np.ndarray] = []
    carry = x
    for layer in layers:
        rows = _presyn_rows(layer, carry)
        pres.append(rows)
        if layer.kind == "conv":
            z_rows = rate_forward_transform(rows, layer.weight, layer.bias, cfg)
            oh, ow = layer.out_hw
            z = z_rows.reshape(batch, oh, ow, layer.out_dim).transpose(0, 3, 1, 2)
        else:
            z = rate_forward_transform(rows, layer.weight, layer.bias, cfg)
        outs.append(z)
        carry = _post_block(layer, z)
    return pres, outs


def rate_backward(
    net: SpikingNet,
    x: np.ndarray,
    y_onehot: np.ndarray,
    epcfg: ErrorPropConfig,
    subspaces: dict[int, LateralSubspace] | None = None,
    head: int = 0,
) -> tuple[GradPacket, list[np.ndarray], np.ndarray]:
    """Gradients through the rate-transform chain.

    Cross-entropy on the output encoding; errors pass the clamp gate (zero
    where a unit saturated at either bound) and scale by 1/tau. Traces are
    the presynaptic rates, projected when a subspace is attached.
    """
    cfg = net.cfg
    subspaces = subspaces or {}
    layers = net.trainable_layers(head)
    batch = x.shape[0]
    pres, outs = rate_chain_forward(net, x, head)
    logits = outs[-1]
    err = softmax(logits) - y_onehot

    grads: list[LayerGrad] = [None] * len(layers)  # type: ignore[list-item]
    feeds: list[np.ndarray] = [None] * len(layers)  # type: ignore[list-item]
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        z = outs[i]
        gate = ((z > 0.0) & (z < cfg.rate_bound)).astype(np.float64)
        c = _delta_rows(layer, err * gate) / cfg.tau
        sub = subspaces.get(i)
        grads[i] = LayerGrad(delta=c, trace=_project(sub, pres[i]))
        feeds[i] = pres[i]
        if i > 0:
            if layer.kind == "conv":
                raise ShapeError("error propagation below a conv layer is not supported")
            d = backprop_error(c, layer, epcfg)
            err = _route_error_to_block(d, layers[i - 1], batch)
    return GradPacket(layers=grads, batch=batch), feeds, logits


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
