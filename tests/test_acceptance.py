"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all). The task-sequence criteria run the scaled permuted-image
protocol: 5 tasks of 2000 train / 1000 test samples, a 784-200-200-10
spiking net, online trainer with T=6, SGD lr 0.1, batch 64, one epoch,
master seed 2022, on the deterministic synthetic corpus.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hlop import training
from hlop.cli import main
from hlop.config import config_from_dict
from hlop.harness.loop import run_continual
from hlop.harness.metrics import compute_acc_bwt
from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.spiking import NeuronConfig, dense_layer
from hlop.training import (
    ErrorPropConfig,
    LayerGrad,
    bptt_sg_backward,
    build_mlp,
    ottt_backward,
    rate_backward,
    rate_chain_forward,
    sgd_update,
    softmax,
)
from reference import (dense_grads, dsr_config, fd_weight_grad, lateral_response, smooth_step,
                       streaming_subspace_demo)

RUNTIME_BUDGET_S = 1800.0  # per task-sequence run


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _protocol_config(**overrides):
    base = dict(
        seed=2022,
        trainer="ottt",
        errorprop="bp",
        hlop="off",
        T=6,
        hidden_sizes=[200, 200],
        n_tasks=5,
        train_per_task=2000,
        test_per_task=1000,
    )
    base.update(overrides)
    return config_from_dict(base)


@pytest.fixture(scope="module")
def protocol_runs(data_pools):
    """One run per experimental arm, shared across criteria 5-7."""
    arms = {
        "baseline": _protocol_config(),
        "hlop": _protocol_config(hlop="linear"),
        "hlop_fa": _protocol_config(hlop="linear", errorprop="fa"),
        "hlop_ss": _protocol_config(hlop="linear", errorprop="ss"),
        "hlop_spiking": _protocol_config(hlop="spiking"),
    }
    out = {}
    for name, cfg in arms.items():
        t0 = time.perf_counter()
        res = run_continual(cfg, data=data_pools)
        out[name] = (res, time.perf_counter() - t0)
    return out


def test_criterion_1_two_stage_equals_oja():
    rng = make_rng(314, 0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, n + 1))
        h = rng.normal(size=(k, n))
        x = rng.normal(size=(1, n))
        sub = LateralSubspace(n=n, H_new=h.copy())
        _, _, y_new, _, x_tilde = lateral_response(sub, x)
        two_stage = y_new.T @ x + y_new.T @ x_tilde
        y = h @ x[0]
        oja = np.outer(y, x[0]) - np.outer(y, y) @ h
        worst = max(worst, float(np.max(np.abs(two_stage - oja))))
    took = time.perf_counter() - t0
    _report(
        "criterion 1 (two-stage Hebbian = Oja subspace form)",
        worst < 1e-12 and took < 1.0,
        f"max deviation {worst:.2e} over 1000 pairs in {took:.2f}s",
    )


def test_criterion_2_streaming_pca_oracle():
    t0 = time.perf_counter()
    err, _, _ = streaming_subspace_demo(seed=2024)
    took = time.perf_counter() - t0
    _report(
        "criterion 2 (streaming Hebbian vs eigendecomposition oracle)",
        err < 0.1 and took < 30.0,
        f"alignment error {err:.4f} (bound 0.1) in {took:.1f}s",
    )


def test_criterion_3_projection_contract():
    rng = make_rng(271, 0)
    q, _ = np.linalg.qr(rng.normal(size=(40, 12)))
    sub = LateralSubspace(n=40, H=q.T.copy())
    layer = dense_layer(8, 40, make_rng(272, 0))
    w0 = layer.weight.copy()

    worst_null = 0.0
    xs = []
    for _ in range(1000):
        x = q @ rng.normal(size=12)
        xs.append(x)
        ratio = np.linalg.norm(sub.project_trace(x)) / np.linalg.norm(x)
        worst_null = max(worst_null, float(ratio))

    grad = LayerGrad(delta=rng.normal(size=(64, 8)), trace=rng.normal(size=(64, 40)))
    x_hat, learn = sub.hebbian_update(grad.trace)
    learn()
    sgd_update(layer, replace(grad, trace=x_hat), lr=0.5, batch=64)
    worst_resp = 0.0
    for x in xs:
        dev = np.max(np.abs((layer.weight - w0) @ x))
        worst_resp = max(worst_resp, float(dev / np.linalg.norm(x)))

    _report(
        "criterion 3 (projection contract)",
        worst_null < 1e-10 and worst_resp < 1e-10,
        f"max residual ratio {worst_null:.2e}, max response drift {worst_resp:.2e}",
    )


def test_criterion_4_gradient_correctness(monkeypatch):
    # BPTT-SG and rate gradients against central finite differences on
    # two-layer toy nets; the online trainer equals the unrolled one at T=1.
    # The BPTT check steps the sigmoid-relaxed neuron, whose derivative is
    # the surrogate; the T=1 equality runs on real spikes.
    def smooth_loss(net, x, y):
        *_, (_, out) = training._walk(net, x, 0)
        rate = np.mean(out.s, axis=0)
        return float(-np.sum(y * np.log(softmax(rate))))

    def chain_loss(net, x, y):
        _, outs = rate_chain_forward(net, x, 0)
        return float(-np.sum(y * np.log(softmax(outs[-1]))))

    ep = ErrorPropConfig()
    worst = 0.0
    net = build_mlp(2, [2], 2, 1, NeuronConfig(lam=0.5, v_th=1.0, T=3, a2=0.25),
                    make_rng(41, 0))
    x = make_rng(42, 0).uniform(0.1, 1.2, size=(3, 2))
    y = np.zeros((3, 2))
    y[np.arange(3), [0, 1, 0]] = 1.0
    with monkeypatch.context() as m:
        m.setattr(training, "lif_step", smooth_step)
        packet, _ = bptt_sg_backward(net, x, y, ep)
        for i, layer in enumerate(net.trainable_layers(0)):
            analytic = packet.layers[i].delta.T @ packet.layers[i].trace
            g = fd_weight_grad(lambda: smooth_loss(net, x, y), layer)
            rel = np.max(np.abs(analytic - g)) / max(np.max(np.abs(g)), 1e-12)
            worst = max(worst, float(rel))

    net = build_mlp(2, [2], 2, 1, dsr_config(T=4), make_rng(43, 0))
    x = make_rng(44, 0).uniform(0.2, 0.9, size=(3, 2))
    packet, _ = rate_backward(net, x, y, ep)
    for i, layer in enumerate(net.trainable_layers(0)):
        analytic = packet.layers[i].delta.T @ packet.layers[i].trace
        g = fd_weight_grad(lambda: chain_loss(net, x, y), layer)
        worst = max(worst, float(np.max(np.abs(analytic - g)) / max(np.max(np.abs(g)), 1e-12)))

    net = build_mlp(3, [4], 2, 1, NeuronConfig(lam=0.5, v_th=1.0, T=1, a2=0.25),
                    make_rng(45, 0))
    x = make_rng(46, 0).uniform(0.0, 1.2, size=(5, 3))
    y = np.zeros((5, 2))
    y[np.arange(5), make_rng(47, 0).integers(0, 2, 5)] = 1.0
    pb, _ = bptt_sg_backward(net, x, y, ep)
    po, _ = ottt_backward(net, x, y, ep)
    exact = all(
        np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        for a, b in zip(dense_grads(pb), dense_grads(po))
    )
    _report(
        "criterion 4 (gradient correctness)",
        worst < 1e-4 and exact,
        f"max FD relative error {worst:.2e} (bound 1e-4); T=1 equality {exact}",
    )


def test_criterion_5_scaled_protocol(protocol_runs):
    base, t_base = protocol_runs["baseline"]
    hlop, t_hlop = protocol_runs["hlop"]
    acc_b, bwt_b = compute_acc_bwt(base.matrix, 5)
    acc_h, bwt_h = compute_acc_bwt(hlop.matrix, 5)
    ok = (
        bwt_b <= -10.0
        and bwt_h >= -3.0
        and (acc_h - acc_b) >= 10.0
        and t_base < RUNTIME_BUDGET_S
        and t_hlop < RUNTIME_BUDGET_S
    )
    _report(
        "criterion 5 (scaled task-sequence reproduction)",
        ok,
        f"baseline ACC {acc_b:.2f} / BWT {bwt_b:.2f} (bound <= -10); "
        f"projected ACC {acc_h:.2f} / BWT {bwt_h:.2f} (bound >= -3); "
        f"gap {acc_h - acc_b:.2f} (bound >= 10); "
        f"runtimes {t_base:.0f}s / {t_hlop:.0f}s",
    )


def test_criterion_6_error_prop_robustness(protocol_runs):
    _, bwt_fa = compute_acc_bwt(protocol_runs["hlop_fa"][0].matrix, 5)
    _, bwt_ss = compute_acc_bwt(protocol_runs["hlop_ss"][0].matrix, 5)
    t_fa = protocol_runs["hlop_fa"][1]
    t_ss = protocol_runs["hlop_ss"][1]
    ok = (
        bwt_fa >= -3.0
        and bwt_ss >= -3.0
        and t_fa < RUNTIME_BUDGET_S
        and t_ss < RUNTIME_BUDGET_S
    )
    _report(
        "criterion 6 (robust to feedback-alignment and sign-symmetric errors)",
        ok,
        f"BWT fa {bwt_fa:.2f}, ss {bwt_ss:.2f} (bounds >= -3); "
        f"runtimes {t_fa:.0f}s / {t_ss:.0f}s",
    )


def test_criterion_7_spiking_mode_fidelity(protocol_runs):
    acc_lin, _ = compute_acc_bwt(protocol_runs["hlop"][0].matrix, 5)
    acc_spk, _ = compute_acc_bwt(protocol_runs["hlop_spiking"][0].matrix, 5)
    gap = abs(acc_spk - acc_lin)
    _report(
        "criterion 7 (burst-quantized lateral neurons match linear ones)",
        gap <= 2.0,
        f"ACC linear {acc_lin:.2f} vs spiking {acc_spk:.2f}, gap {gap:.2f} (bound 2)",
    )


def test_criterion_8_metrics_exactness():
    acc, bwt = compute_acc_bwt([[90.0], [85.0, 92.0]], 2)
    _report(
        "criterion 8 (metric definitions)",
        acc == 88.5 and bwt == -5.0,
        f"hand matrix gives ({acc}, {bwt}), expected (88.5, -5.0)",
    )


def test_criterion_9_determinism(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HLOP_DATA_DIR", data_dir)
    summaries = {}
    for arm, hlop in (("baseline", "off"), ("hlop", "linear")):
        payloads = []
        for attempt in (0, 1):
            out = tmp_path / f"{arm}{attempt}"
            cfg_path = tmp_path / f"{arm}{attempt}.cfg"
            cfg_path.write_text(
                "seed = 2022\ntrainer = ottt\nhlop = {}\n"
                "n_tasks = 5\ntrain_per_task = 2000\ntest_per_task = 1000\n"
                'output_dir = "{}"\n'.format(hlop, out)
            )
            assert main(["run", str(cfg_path)]) == 0
            payloads.append((out / "summary.csv").read_bytes())
        summaries[arm] = payloads[0] == payloads[1]
    _report(
        "criterion 9 (byte-identical summaries across reruns)",
        all(summaries.values()),
        f"baseline identical {summaries['baseline']}, "
        f"projected identical {summaries['hlop']}",
    )
