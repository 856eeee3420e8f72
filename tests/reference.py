"""Test-side references: a relaxed spike step, channel-first pooling, a
finite-difference gradient, rate-mode neuron constants, dense gradients of a
packet, a lateral circuit's full two-stage response, a streaming subspace run
and the interference audit's first formula, none of which the system itself
needs."""

from __future__ import annotations

import numpy as np

from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng, rowspace_projector, subspace_alignment_error, topk_principal
from hlop.spiking import NeuronConfig, _slots


def smooth_step(state, input_current, cfg):
    """``lif_step`` with the spike step replaced by its sigmoid relaxation,
    reading and writing the same state slots (see ``hlop.spiking.LayerState``).

    The relaxation's derivative is exactly the surrogate, which makes
    finite-difference checks of the surrogate backward pass exact. Installed
    over ``hlop.training.lif_step`` by the ``smooth_forward`` fixture.
    """
    for current in input_current if np.ndim(input_current) == 3 else [input_current]:
        (u_prev, u), (s_prev, s) = _slots(state.u, state.t), _slots(state.s, state.t)
        u[...] = cfg.lam * (u_prev - cfg.v_th * s_prev) + current
        s[...] = 1.0 / (1.0 + np.exp(np.clip((cfg.v_th - u) / cfg.a2, -500.0, 500.0)))
        state.t += 1
    return state, s


def channel_first_avg_pool(x, size):
    """Non-overlapping average pooling of channel-first (..., C, H, W) maps:
    the size*size strided sub-grids added onto zeros in window order, then
    divided by size*size. ``hlop.spiking.avg_pool`` on channels-last maps
    must give these bytes."""
    *lead, h, w = x.shape
    total = np.zeros((*lead, h // size, w // size))
    for i in range(size):
        for j in range(size):
            total += x[..., i::size, j::size]
    total /= size * size
    return total


def channel_first_avg_pool_backward(grad, size):
    """Adjoint of ``channel_first_avg_pool``: each pooled gradient divided by
    size*size and spread over its window of (..., C, h*size, w*size) maps."""
    *lead, h, w = grad.shape
    g = np.empty((*lead, h, size, w, size))
    g[...] = (grad / (size * size))[..., :, None, :, None]
    return g.reshape(*lead, h * size, w * size)


def fd_weight_grad(loss_fn, layer, h=1e-5):
    """Central differences of ``loss_fn()`` in each entry of ``layer.weight``."""
    g = np.zeros_like(layer.weight)
    for i in range(layer.weight.shape[0]):
        for j in range(layer.weight.shape[1]):
            orig = layer.weight[i, j]
            layer.weight[i, j] = orig + h
            up = loss_fn()
            layer.weight[i, j] = orig - h
            dn = loss_fn()
            layer.weight[i, j] = orig
            g[i, j] = (up - dn) / (2 * h)
    return g


def dsr_config(T: int = 20) -> NeuronConfig:
    """The fixed rate-mode constants: v_th=0.3, tau=1.0, delta_t=0.05 and
    lam=exp(-delta_t/tau)."""
    delta_t, tau = 0.05, 1.0
    return NeuronConfig(lam=float(np.exp(-delta_t / tau)), v_th=0.3, T=T, a2=0.25,
                        delta_t=delta_t, tau=tau)


def dense_grads(packet) -> list[tuple[np.ndarray, np.ndarray]]:
    """Materialized (dW, db) per layer of a ``GradPacket``, batch-averaged."""
    return [(lg.delta.T @ lg.trace / packet.batch, lg.bias / packet.batch)
            for lg in packet.layers]


def lateral_response(sub: LateralSubspace, x):
    """A circuit's full response (y, x_minus, y_new, x_minus_new, x_tilde) to
    rows ``x``, in the circuit's dtype.

    y / x_minus come from the consolidated bank, y_new / x_minus_new from
    the in-training bank, and x_tilde = x_minus + x_minus_new is the
    integrated postsynaptic return signal of the two-stage Hebbian rule.
    """
    x = np.asarray(x, dtype=sub.H.dtype)
    y = sub._out(x @ sub.H.T)
    x_minus = -(y @ sub.H)
    y_new = sub._out(x @ sub.H_new.T)
    x_minus_new = -(y_new @ sub.H_new)
    return y, x_minus, y_new, x_minus_new, x_minus + x_minus_new


def streaming_subspace_demo(
    seed: int = 2024,
    n: int = 20,
    k: int = 3,
    samples: int = 5000,
    batch: int = 1000,
    passes: int = 10,
) -> tuple[float, LateralSubspace, np.ndarray]:
    """Train a lateral circuit on a synthetic Gaussian stream and score it.

    The stream has covariance diag(10, 5, 2, 1, ..., 1); the circuit should
    recover the 3-dimensional dominant subspace. The constant learning rate
    and momentum leave a stochastic fluctuation floor that shrinks with the
    minibatch size; 1000-sample minibatches over 10 passes sit well under
    the 0.1 alignment bound. With no trainer to overlap, each batch's
    ``learn`` runs at once. Returns the alignment error against
    ``topk_principal`` on the same samples, plus both subspaces.
    """
    rng = make_rng(seed, 0)
    spectrum = np.ones(n)
    spectrum[:3] = [10.0, 5.0, 2.0]
    data = rng.normal(size=(samples, n)) * np.sqrt(spectrum)
    sub = LateralSubspace(n=n)
    sub.expand(k, make_rng(seed, 1))
    for _ in range(passes):
        for start in range(0, samples, batch):
            _, learn = sub.hebbian_update(data[start : start + batch])
            learn()
    sub.consolidate()
    m = topk_principal(data, k)
    return subspace_alignment_error(sub.H, m), sub, m


def interference_audit(net, store):
    """``hlop.harness.loop.interference_audit`` by its first formula: the kept
    trace rows copied out and projected, (x P^T), then moved by dW^T."""
    layers = net.trainable_layers(0)
    out = {}
    for i, entry in store.items():
        dw = layers[i].weight - entry["w"]
        p = rowspace_projector(entry["h"])
        x = entry["x"]
        norms = np.linalg.norm(x, axis=1)
        keep = norms > 0
        if not np.any(keep):
            out[i] = 0.0
            continue
        moved = (x[keep] @ p.T) @ dw.T
        out[i] = float(np.max(np.linalg.norm(moved, axis=1) / norms[keep]))
    return out
