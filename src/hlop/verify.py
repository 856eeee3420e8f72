"""Self-contained property suites behind ``hlop verify``.

Each suite runs a handful of named invariant checks and reports pass/fail
per check. The same machinery backs the pytest suite; having it on the CLI
makes the package auditable without a test harness installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lateral import LateralSubspace, QuantConfig, quantize_subspace_output
from .linalg import make_rng, subspace_alignment_error, topk_principal
from .spiking import NeuronConfig
from .training import (
    ErrorPropConfig,
    _run_steps,
    bptt_sg_backward,
    build_mlp,
    ottt_backward,
    ottt_step,
    rate_backward,
    rate_chain_forward,
)
from .harness.metrics import compute_acc_bwt


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(results: list[CheckResult], name: str, ok: bool, detail: str) -> None:
    results.append(CheckResult(name=name, ok=bool(ok), detail=detail))


# ---------------------------------------------------------------------------
# algebra


def verify_algebra(seed: int = 12345) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = make_rng(seed, 0)

    # Two-stage Hebbian form equals the Oja subspace form when nothing is
    # consolidated: y x^T + y xt^T == y x^T - y y^T H.
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        k = int(rng.integers(1, n + 1))
        h = rng.normal(size=(k, n))
        x = rng.normal(size=n)
        sub = LateralSubspace(n=n, H_new=h.copy())
        _, _, y_new, _, x_tilde = sub.lateral_response(x[None, :])
        two_stage = y_new.T @ x[None, :] + y_new.T @ x_tilde
        y = h @ x
        oja = np.outer(y, x) - np.outer(y, y) @ h
        worst = max(worst, float(np.max(np.abs(two_stage - oja))))
    _check(results, "two-stage equals Oja subspace form", worst < 1e-12, f"max dev {worst:.3e}")

    # Projection idempotence and orthogonality for orthonormal consolidated rows.
    worst_idem, worst_orth = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(3, 16))
        k = int(rng.integers(1, n))
        q, _ = np.linalg.qr(rng.normal(size=(n, k)))
        sub = LateralSubspace(n=n, H=q.T.copy())
        x = rng.normal(size=n)
        once = sub.project_trace(x)
        twice = sub.project_trace(once)
        worst_idem = max(worst_idem, float(np.max(np.abs(twice - once))))
        worst_orth = max(worst_orth, float(np.max(np.abs(sub.H @ once))))
    _check(results, "projection idempotent", worst_idem < 1e-10, f"max dev {worst_idem:.3e}")
    _check(results, "projected trace orthogonal to subspace rows", worst_orth < 1e-10,
           f"max inner product {worst_orth:.3e}")
    return results


# ---------------------------------------------------------------------------
# streaming Hebbian extraction vs the eigendecomposition oracle


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


def verify_hebbian_oracle(seed: int = 2024) -> list[CheckResult]:
    results: list[CheckResult] = []
    err, _, _ = streaming_subspace_demo(seed)
    _check(results, "streaming subspace aligns with top-k oracle", err < 0.1,
           f"alignment error {err:.4f} (bound 0.1)")
    return results


# ---------------------------------------------------------------------------
# gradient correctness


def _toy_net(seed: int, trainer: str) -> tuple:
    cfg = (
        NeuronConfig.dsr_defaults(T=4)
        if trainer == "rate"
        else NeuronConfig(lam=0.5, v_th=1.0, T=3, a2=0.25)
    )
    rng = make_rng(seed, 0)
    net = build_mlp(2, [2], 2, 1, cfg, rng)
    x = make_rng(seed, 1).uniform(0.2, 0.9, size=(3, 2))
    y = np.zeros((3, 2))
    y[np.arange(3), make_rng(seed, 2).integers(0, 2, size=3)] = 1.0
    return net, x, y


def _ce_loss_rate_chain(net, x, y) -> float:
    _, outs = rate_chain_forward(net, x, 0)
    z = outs[-1]
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-(y * logp).sum() / x.shape[0] * x.shape[0])  # summed over batch


def _ce_loss_smooth_bptt(net, x, y) -> float:
    from .training import _spiking_forward_pass, softmax

    _, ss, _ = _spiking_forward_pass(net, x, 0, smooth=True)
    rate = np.mean(ss[-1], axis=0)
    p = softmax(rate)
    return float(-np.sum(y * np.log(p)))


def _fd_weight_grad(loss_fn, layer, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(layer.weight)
    it = np.nditer(layer.weight, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = layer.weight[idx]
        layer.weight[idx] = orig + h
        up = loss_fn()
        layer.weight[idx] = orig - h
        down = loss_fn()
        layer.weight[idx] = orig
        g[idx] = (up - down) / (2 * h)
        it.iternext()
    return g


def verify_gradients(seed: int = 77) -> list[CheckResult]:
    results: list[CheckResult] = []
    ep = ErrorPropConfig(mode="bp")

    # Rate trainer against central differences of the clamp chain.
    net, x, y = _toy_net(seed, "rate")
    packet, _ = rate_backward(net, x, y, ep)
    worst = 0.0
    for i, layer in enumerate(net.trainable_layers(0)):
        analytic = packet.layers[i].delta.T @ packet.layers[i].trace
        fd = _fd_weight_grad(lambda: _ce_loss_rate_chain(net, x, y), layer)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / denom)
    _check(results, "rate gradients match finite differences", worst < 1e-6,
           f"max rel err {worst:.3e} (bound 1e-6)")

    # BPTT-SG against central differences of the sigmoid-relaxed net.
    net, x, y = _toy_net(seed + 1, "bptt")
    packet, _ = bptt_sg_backward(net, x, y, ep, smooth_forward=True)
    worst = 0.0
    for i, layer in enumerate(net.trainable_layers(0)):
        analytic = packet.layers[i].delta.T @ packet.layers[i].trace
        fd = _fd_weight_grad(lambda: _ce_loss_smooth_bptt(net, x, y), layer)
        denom = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / denom)
    _check(results, "temporal surrogate gradients match finite differences", worst < 1e-4,
           f"max rel err {worst:.3e} (bound 1e-4)")

    # At T=1 the online trainer and the unrolled trainer coincide exactly.
    net, x, y = _toy_net(seed + 2, "bptt")
    net.cfg.T = 1
    p_b, _ = bptt_sg_backward(net, x, y, ep)
    p_o, _ = ottt_backward(net, x, y, ep)
    dev = 0.0
    for a, b in zip(p_b.dense_grads(), p_o.dense_grads()):
        dev = max(dev, float(np.max(np.abs(a[0] - b[0]))), float(np.max(np.abs(a[1] - b[1]))))
    _check(results, "online trainer equals unrolled trainer at T=1", dev == 0.0,
           f"max dev {dev:.3e}")

    # The online trainer's regrouped factors give the explicit eligibility-trace
    # sum over steps of c_t^T trace_t, trace_t = lam * trace_{t-1} + x_hat_t, on
    # a random 3-layer net at T=6; x_hat = x, or every layer's rows projected
    # by a burst-quantized circuit.
    cfg = NeuronConfig(lam=0.5, v_th=0.4, T=6, a2=0.25)
    x = make_rng(seed + 3, 1).uniform(0.0, 1.5, size=(5, 8))
    y = np.eye(4)[make_rng(seed + 3, 2).integers(0, 4, size=5)]
    for label, k in (("raw traces", 0), ("spiking circuit", 2)):
        net = build_mlp(8, [7, 6], 4, 1, cfg, make_rng(seed + 3, 0))
        subs = []
        for i, layer in enumerate(net.trainable_layers(0)):
            q, _ = np.linalg.qr(make_rng(seed + 3, 3, i).normal(size=(layer.in_dim, k)))
            subs.append(LateralSubspace(n=layer.in_dim, H=q.T.copy(), mode="spiking"))
        traces = [0.0] * len(subs)
        want = [[0.0, 0.0] for _ in subs]
        for rows, states in _run_steps(net, x):
            for i, c in enumerate(ottt_step(net, states, y, ep)):
                traces[i] = cfg.lam * traces[i] + subs[i].project_trace(rows[i])
                want[i] = [want[i][0] + c.T @ traces[i], want[i][1] + c.sum(axis=0)]
        packet, _ = ottt_backward(net, x, y, ep)
        dev = max(
            float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
            for lg, sub, (dw, db) in zip(packet.layers, subs, want)
            for got, ref in ((lg.delta.T @ sub.project_trace(lg.trace), dw), (lg.bias, db))
        )
        _check(results, f"online update equals eligibility-trace sum ({label})",
               dev <= 1e-12, f"max rel dev {dev:.3e} (bound 1e-12)")
    return results


# ---------------------------------------------------------------------------
# quantization


def verify_quantization(seed: int = 5) -> list[CheckResult]:
    results: list[CheckResult] = []
    q = QuantConfig(scale=20.0, T_l=40)
    v = float(quantize_subspace_output(np.array(3.27), q))
    _check(results, "burst grid rounds 3.27 to 3.5", abs(v - 3.5) < 1e-12, f"got {v}")
    v = float(quantize_subspace_output(np.array(25.0), q))
    _check(results, "clamp saturates at the scale", v == 20.0, f"got {v}")

    rng = make_rng(seed, 0)
    y = rng.uniform(-30, 30, size=1000)
    fine = quantize_subspace_output(y, QuantConfig(scale=20.0, T_l=10**7))
    dev = float(np.max(np.abs(fine - np.clip(y, -20, 20))))
    _check(results, "grid refinement approaches plain clamp", dev < 1e-5, f"max dev {dev:.2e}")

    # Spiking-mode projection with a fine grid matches linear mode.
    n, k = 12, 4
    qm, _ = np.linalg.qr(rng.normal(size=(n, k)))
    x = rng.normal(size=(64, n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    lin = LateralSubspace(n=n, H=qm.T.copy())
    spk = LateralSubspace(
        n=n, H=qm.T.copy(), mode="spiking", quant=QuantConfig(scale=20.0, T_l=1000)
    )
    dev = float(np.max(np.abs(lin.project_trace(x) - spk.project_trace(x))))
    _check(results, "fine-grained spiking projection matches linear", dev < 1e-2,
           f"max dev {dev:.2e}")
    return results


# ---------------------------------------------------------------------------
# metrics


def verify_metrics(seed: int = 0) -> list[CheckResult]:
    results: list[CheckResult] = []
    acc, bwt = compute_acc_bwt([[90.0], [85.0, 92.0]], 2)
    _check(results, "hand matrix gives ACC 88.5 / BWT -5", acc == 88.5 and bwt == -5.0,
           f"got {acc}, {bwt}")
    rng = make_rng(seed, 0)
    row = list(rng.uniform(50, 99, size=4))
    matrix = [row[: i + 1] for i in range(4)]
    _, bwt = compute_acc_bwt(matrix, 4)
    _check(results, "identical rows give zero backward transfer", abs(bwt) < 1e-12,
           f"got {bwt}")
    acc, bwt = compute_acc_bwt([[77.0]], 1)
    _check(results, "single task reports no backward transfer", bwt is None, f"got {bwt}")
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "algebra": verify_algebra,
    "hebbian-oracle": verify_hebbian_oracle,
    "gradients": verify_gradients,
    "quantization": verify_quantization,
    "metrics": verify_metrics,
}


def run_suite(name: str) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
