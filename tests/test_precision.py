"""The precision contract: lateral circuits compute in the dtype of their
banks, and layers in the dtype of their weights.

The harness builds every layer and every circuit, linear or spiking, in
float32 (``DTYPE``), and hands the net float32 inputs, targets and feedback
matrices; checkpoints hold banks and layers in their own dtype. A circuit
built from float64 banks, or a net from ``build_mlp`` or ``build_conv_net``,
computes in float64, as every one did before. The value checks at the end
hold float32 circuits to their float64 twins within bounds derived from
float32's unit roundoff.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hlop import lateral, spiking, training
from hlop.config import config_from_dict
from hlop.harness import DTYPE, Checkpoint, load_checkpoint, loop, save_checkpoint
from hlop.harness.loop import build_net, run_continual
from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.training import ErrorPropConfig, init_feedback

F32, F64 = np.dtype(np.float32), np.dtype(np.float64)


def _recording_class(seen):
    """An ndarray subclass whose ufunc calls, ``@`` and in-place operators
    included, append (ufunc name, dtype, shape) of each array or numpy-scalar
    operand (outputs too) to ``seen``, one list per call; their results are
    recorded arrays again. Python scalars are not recorded: under NEP 50 they
    take the other operand's dtype."""

    class Recorded(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            def plain(a):
                return a.view(np.ndarray) if isinstance(a, Recorded) else a

            outs = tuple(map(plain, out or ()))
            seen.append([(ufunc.__name__, a.dtype, a.shape) for a in (*inputs, *outs)
                         if isinstance(a, (np.ndarray, np.generic))])
            result = getattr(ufunc, method)(*map(plain, inputs), **kwargs,
                                            **({"out": outs} if outs else {}))
            result = outs[0] if outs else result
            return result.view(Recorded) if isinstance(result, np.ndarray) else result

    return Recorded


def _circuit(mode, dtype=F32, n=16, k=4, k_new=3, seed=50):
    """A circuit as the run builds it: consolidated rows learned on one task,
    then ``k_new`` fresh rows."""
    sub = LateralSubspace(n, np.zeros((0, n), dtype), mode=mode)
    sub.expand(k, make_rng(seed, 0))
    for x in make_rng(seed, 1).uniform(0.0, 0.5, size=(3, 24, n)):
        sub.hebbian_update(x)[1]()
    sub.consolidate()
    sub.expand(k_new, make_rng(seed, 2))
    return sub


def test_the_recorder_sees_a_float64_scalar():
    seen = []
    a = np.ones(3, np.float32).view(_recording_class(seen))
    a *= 0.5  # a Python float: not an operand dtype
    b = a / np.float64(2.0)
    ops = [(name, dtype) for call in seen for name, dtype, _ in call]
    assert b.dtype == F64 and ("divide", F64) in ops and ("multiply", F32) in ops


@pytest.mark.parametrize("mode", ["linear", "spiking"])
@pytest.mark.parametrize("scale", [0.5, 3.0], ids=["undamped", "damped"])
def test_float32_circuit_forms_no_float64_operand(mode, scale):
    # The trainers hand float64 rows; the circuit casts them once and every
    # later product, quantization and in-place step sees float32 operands only.
    # One float64 operand would widen the products back to float64.
    sub = _circuit(mode)
    seen = []
    recorded = _recording_class(seen)
    sub.H, sub.H_new, sub.velocity = (a.view(recorded) for a in (sub.H, sub.H_new, sub.velocity))
    for x in make_rng(51, 0).uniform(0.0, scale, size=(2, 24, 16)):
        x_hat, learn = sub.hebbian_update(x)
        learn()
        assert x_hat.dtype == F32
    assert sub.project_trace(x).dtype == F32
    names = {name for call in seen for name, *_ in call}
    assert {"matmul", "subtract", "multiply"} <= names
    assert mode == "linear" or {"clip", "floor", "sign"} <= names
    assert {dtype for call in seen for _, dtype, _ in call} == {F32}
    assert {a.dtype for a in (sub.H, sub.H_new, sub.velocity)} == {F32}


@pytest.mark.parametrize("banks", [
    dict(H=np.zeros((1, 3), np.float32), H_new=np.zeros((1, 3))),
    dict(H_new=np.zeros((1, 3)), velocity=np.zeros((1, 3), np.float32)),
    dict(H=np.zeros((1, 3)), H_new=np.zeros((0, 3), np.float32)),
    dict(H=np.zeros((1, 3), np.int64)),
], ids=["f32-H-f64-H_new", "f64-H_new-f32-velocity", "f64-H-f32-H_new", "integer"])
def test_mixed_or_non_float_banks_are_refused(banks):
    with pytest.raises(TypeError, match="must share one float dtype"):
        LateralSubspace(n=3, **banks)


def test_harness_dtypes_by_mode():
    # One dtype for every layer and for the circuits of every mode.
    assert DTYPE == F32
    for hlop in ("linear", "spiking"):
        cfg = config_from_dict(dict(hlop=hlop))
        net = build_net(cfg, SimpleNamespace(image_hw=(10, 10), n_classes=2, tasks=[0]))
        subs = loop.make_subspaces(cfg, net).values()
        assert {a.dtype for l in net.trainable_layers(0) for a in (l.weight, l.bias)} == {F32}
        assert {a.dtype for s in subs for a in (s.H, s.H_new, s.velocity)} == {F32}


def test_spiking_helpers_keep_a_float_dtype():
    # Pooling spike maps is exact in float32: a sum of at most four 0/1 values,
    # divided by 4. A non-float input computes in float64.
    rng, cfg = make_rng(55, 0), spiking.NeuronConfig()
    maps = rng.uniform(size=(2, 4, 4, 3)) < 0.5
    pooled = spiking.avg_pool(maps.astype(np.float32), 2)
    assert pooled.dtype == F32 and np.array_equal(pooled, spiking.avg_pool(maps.astype(F64), 2))
    grad = rng.normal(size=(2, 2, 2, 3))
    assert spiking.avg_pool_backward(grad.astype(np.float32), 2).dtype == F32
    assert spiking.unfold_patches(pooled.transpose(0, 3, 1, 2), 2).dtype == F32
    assert spiking.surrogate_derivative(pooled, cfg).dtype == F32
    assert spiking.surrogate_derivative(np.array([0, 1]), cfg).dtype == F64
    state = spiking.LayerState.zeros(2, 3, np.float32)
    assert spiking.lif_step(state, np.ones((2, 3)), cfg)[1].dtype == F32


class _RecordingNumpy:
    """numpy as ``hlop.training`` and ``hlop.spiking`` see it in the next test:
    every array its constructors and casts make is a recorded array, so every
    ufunc the walk and the trainers run on one is recorded."""

    MAKERS = ("zeros", "empty", "zeros_like", "empty_like", "asarray", "ascontiguousarray")

    def __init__(self, recorded):
        self.recorded = recorded

    def __getattr__(self, name):
        make = getattr(np, name)
        if name not in self.MAKERS:
            return make
        return lambda *args, **kwargs: make(*args, **kwargs).view(self.recorded)


@pytest.mark.parametrize("errorprop", ["bp", "fa", "ss"])
@pytest.mark.parametrize("trainer", ["ottt", "bptt", "rate"])
@pytest.mark.parametrize("task", ["pmnist", "split_mnist"])
def test_float32_net_forms_no_float64_layer_sized_operand(monkeypatch, task, trainer, errorprop):
    # On a harness-built net, with the harness's input rows, one-hot targets and
    # feedback matrices, every ufunc call of a batch's walk, errors and updates
    # with a 2-D operand (rows, maps, weights, feedback) sees float32 operands
    # only, numpy scalars included: under NEP 50 one float64 operand would widen
    # the call, and the array it makes, to float64. Only the 1-D bias gradients
    # are summed in float64.
    cfg = config_from_dict(dict(task=task, trainer=trainer, errorprop=errorprop, seed=5))
    batch = 4
    net = build_net(cfg, SimpleNamespace(image_hw=(10, 10), n_classes=2, tasks=[0, 0]))
    feedback = init_feedback(net, make_rng(cfg.seed, 1)) if errorprop == "fa" else {}
    seen = []
    recorded = _recording_class(seen)
    for layer in net.trainable_layers(0):
        layer.weight, layer.bias = layer.weight.view(recorded), layer.bias.view(recorded)
    for module in (training, spiking):
        monkeypatch.setattr(module, "np", _RecordingNumpy(recorded))
    pixels = make_rng(54, 0).integers(0, 256, size=(batch, 100), dtype=np.uint8)
    x = loop._net_input(pixels).view(recorded)
    y = loop._onehot(np.array([0, 1, 1, 0]), 2).view(recorded)
    feedback = {name: f.view(recorded) for name, f in feedback.items()}
    epcfg = ErrorPropConfig(mode=errorprop, feedback=feedback)
    packet, _ = loop._TRAINERS[trainer](net, x, y, epcfg)
    for layer, grad in zip(net.trainable_layers(0), packet.layers):
        training.sgd_update(layer, grad, cfg.lr, packet.batch)

    layer_sized = [call for call in seen if any(len(shape) >= 2 for *_, shape in call)]
    wide = [call for call in layer_sized if any(d.kind == "f" and d != F32 for _, d, _ in call)]
    assert wide == []
    names = {name for call in layer_sized for name, *_ in call}
    assert {"matmul", "add", "multiply", "subtract", "exp"} <= names
    assert trainer == "rate" or "greater_equal" in names
    assert {a.dtype for lg in packet.layers for a in (lg.delta, lg.trace)} == {F32}
    assert {lg.bias.dtype for lg in packet.layers} == {F64}
    assert {a.dtype for l in net.trainable_layers(0) for a in (l.weight, l.bias)} == {F32}


@pytest.mark.parametrize("mode", ["linear", "spiking"])
def test_checkpoint_loads_each_mode_in_its_dtype(tmp_path, mode):
    # Banks are stored in their own dtype, float32 as a run writes them or
    # float64 as a test builds them, and load in it with the same bytes.
    subs = {i: _circuit(mode, dtype) for i, dtype in enumerate((F32, F64))}
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=1, layers=[],
                                     subspaces=subs, acc_matrix=[[50.0]]))
    back = load_checkpoint(path).subspaces
    for i, dtype in enumerate((F32, F64)):
        for name in ("H", "H_new", "velocity"):
            assert getattr(back[i], name).dtype == dtype
            assert getattr(back[i], name).tobytes() == getattr(subs[i], name).tobytes(), name


@pytest.mark.parametrize("mode", ["linear", "spiking"])
def test_float64_circuit_computes_in_float64_as_before(mode):
    # Built from float64 banks, a circuit casts any input to float64, as every
    # circuit did before: its bytes are the float64 rule's on float64 rows,
    # whatever dtype the rows arrive in.
    fast, ref = _circuit(mode, np.float64), _circuit(mode, np.float64)
    for x in make_rng(52, 0).uniform(0.0, 3.0, size=(3, 24, 16)).astype(np.float32):
        x_hat, learn = fast.hebbian_update(x)
        learn()
        x64 = x.astype(np.float64)
        x_ref = ref.project_trace(x64)
        rows, energy = x64.shape[0], float(np.mean(np.sum(x64 * x64, axis=1)))
        cap = 4.0 * (1.0 - ref.momentum) / ref.eta
        gain = cap / energy if energy > cap else 1.0
        for _ in range(ref.K):
            y_new = ref._out(x64 @ ref.H_new.T)
            delta = gain * (y_new.T @ x_ref - (y_new.T @ y_new) @ ref.H_new) / rows
            ref.velocity = ref.momentum * ref.velocity + delta
            ref.H_new = ref.H_new + ref.eta * ref.velocity
        assert x_hat.dtype == F64 and x_hat.tobytes() == x_ref.tobytes()
        for name in ("H", "H_new", "velocity"):
            assert getattr(fast, name).dtype == F64
            assert getattr(fast, name).tobytes() == getattr(ref, name).tobytes(), name


@pytest.mark.parametrize("hlop,kw", [("linear", dict()), ("linear", dict(task="split_mnist")),
                                     ("spiking", dict())], ids=["dense", "split-conv", "spiking"])
def test_runs_keep_each_circuit_in_its_dtype(data_pools, monkeypatch, hlop, kw):
    # A circuit's x_hat comes back in its dtype. Every layer and circuit is
    # float32, so each circuit's x_hat replaces the trace rows it was handed,
    # with no copy, in both modes.
    returned, handed, taken = {}, {}, {}
    hebbian_update, sgd_update = LateralSubspace.hebbian_update, loop.sgd_update

    def recording_hebbian(sub, x):
        x_hat, learn = hebbian_update(sub, x)
        returned.setdefault(sub.n, set()).add(x_hat.dtype)
        handed[id(x)] = (x, x_hat)  # holding x keeps its id unique
        return x_hat, learn

    def recording_sgd(layer, grad, lr, batch):
        assert grad.trace.dtype == layer.weight.dtype == DTYPE
        for rows, x_hat in list(handed.values()):
            if grad.trace is x_hat:
                taken.setdefault(layer.name, set()).add("x_hat")
            elif grad.trace is rows:
                taken.setdefault(layer.name, set()).add("rows")
        sgd_update(layer, grad, lr, batch)

    monkeypatch.setattr(LateralSubspace, "hebbian_update", recording_hebbian)
    monkeypatch.setattr(loop, "sgd_update", recording_sgd)
    monkeypatch.setattr(loop, "_spare_cpu", lambda: True)
    cfg = config_from_dict(dict(seed=99, hlop=hlop, n_tasks=2, train_per_task=200,
                                test_per_task=50, checkpoint_every_task=False,
                                audit_samples=0, **kw))
    res = run_continual(cfg, data=data_pools)
    names = [layer.name for layer in res.net.trainable_layers(0)[: len(res.subspaces)]]
    assert len(res.subspaces) >= 2
    assert returned == {sub.n: {DTYPE} for sub in res.subspaces.values()}
    for i, sub in res.subspaces.items():
        assert sub.k > 0 and {a.dtype for a in (sub.H, sub.H_new, sub.velocity)} == {DTYPE}
    assert taken == {name: {"x_hat"} for name in names}


# Value checks: a float32 circuit against its float64 twin, the same banks cast
# up, on float32 rows. Each bound is fixed before measuring, from float32's unit
# roundoff u = 2**-24 and each product's length m: a length-m dot product
# computed in any order, with or without FMA, is off by at most
# gamma_m = m u / (1 - m u) times the dot product of the absolute values
# (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), and each
# elementwise step by u times its result. The twin's own errors obey the same
# bounds with 2**-53, and gamma is superadditive, so one gamma with
# U = 2**-24 + 2**-53 bounds the gap between the two sides. Errors carried
# into a step are propagated to first order; their products are O(u**2).
U = 2.0**-24 + 2.0**-53


def _gamma(m):
    return m * U / (1 - m * U)


def _recording_outputs(sub):
    """The subspace-neuron outputs ``sub`` forms, in call order: project_trace's
    y (when it holds rows), then one per Hebbian repeat."""
    outs, out = [], sub._out

    def recording(y):
        outs.append(out(y).copy())
        return outs[-1]

    sub._out = recording
    return outs


def _quantized_twin(q32, y, ey, quant):
    """The float64 quantizer output for y, whose float32 counterpart is off by at
    most ey, checked against the float32 output q32. z = clip(y)/scale*T_l is
    off by at most E_z = T_l/scale*ey + 3u(|z| + 1/2) (the division, the product
    and the half added before the floor), so the level round(z) may differ only
    where z lies within E_z of a half-integer. Returns the twin's output with
    the float32 level at each such flip, and the number of flips; a level both
    sides share gives outputs within u|q|, the rounding of the last division."""
    scale, steps = quant.scale, quant.T_l
    z = np.clip(y, -scale, scale) / scale * steps
    ez = steps / scale * ey + 3 * U * (np.abs(z) + 0.5)
    level32 = np.rint(q32.astype(F64) * steps / scale)
    level = np.rint(lateral.quantize_subspace_output(y, quant) * steps / scale)
    flips = level32 != level
    near = np.abs(np.abs(z) - np.floor(np.abs(z)) - 0.5) <= ez
    assert not (flips & ~near).any(), "a level flipped away from any rounding boundary"
    q = np.where(flips, level32, level) * scale / steps
    assert np.all(np.abs(q32 - q) <= U * np.abs(q))
    return q, int(flips.sum())


_SHAPES = {  # n, k, k', rows, row maker: uniform rates undamped, 30% spikes damped
    "n16": (16, 4, 3, 24, lambda rng, r, n: rng.uniform(size=(r, n))),
    "n200": (200, 40, 30, 64, lambda rng, r, n: rng.uniform(size=(r, n)) < 0.3),
}


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("mode", ["linear", "spiking"])
def test_float32_circuit_values_stay_within_roundoff_of_float64(mode, shape):
    n, k, k_new, rows, make = _SHAPES[shape]
    sub = _circuit(mode, F32, n=n, k=k, k_new=k_new)
    x = make(make_rng(56, 0), rows, n).astype(np.float32)
    h_old, h, v = (a.astype(F64) for a in (sub.H, sub.H_new, sub.velocity))
    outs = _recording_outputs(sub)
    x_hat, learn = sub.hebbian_update(x)
    learn()
    flips = 0
    ax = np.abs(x)

    def subspace_output(q32, y, ey):  # the twin's output and its bound
        nonlocal flips
        if mode == "linear":
            return y, ey
        q, n_flips = _quantized_twin(q32, y, ey, sub.quant)
        flips += n_flips
        return q, U * np.abs(q)

    # project_trace: y = x H^T (length n), x_hat = x - y H (length k), then
    # the subtraction.
    y = x @ h_old.T
    q, eq = subspace_output(outs[0], y, _gamma(n) * (ax @ np.abs(h_old).T))
    ref = x - q @ h_old
    bound = eq @ np.abs(h_old) + _gamma(k) * (np.abs(q) @ np.abs(h_old)) + U * np.abs(ref)
    margins = {"project": np.max(np.abs(x_hat - ref) / bound)}

    # One learn on the x_hat it was handed: K repeats of the products
    # y' = x H'^T (length n), y'^T x_hat and y'^T y' (length rows) and
    # (y'^T y') H' (length k'), then the elementwise steps in their order. The
    # subtraction, the gain's product and the division by rows add 4u|delta|
    # (the gain rounds to float32 before its product: u more); the momentum's
    # product 2u|m v| (m rounds too) and its sum u|v|; the step's product
    # 2u|eta v| and its sum u|H'|. The float32 energy sums n squares and
    # averages the rows, so the damping gain may differ by
    # gamma_n + gamma_rows + 2u relative.
    xh = x_hat.astype(F64)
    energy = float(np.mean(np.sum(x.astype(F64) ** 2, axis=1)))
    cap = 4.0 * (1.0 - sub.momentum) / sub.eta
    gain = cap / energy if energy > cap else 1.0
    e_gain = _gamma(n) + _gamma(rows) + 2 * U
    e_gain = e_gain if energy * (1 + e_gain) > cap else 0.0
    eh, ev = np.zeros_like(h), np.zeros_like(v)
    for q32 in outs[1:]:
        y = x @ h.T
        q, eq = subspace_output(q32, y, ax @ eh.T + _gamma(n) * (ax @ np.abs(h).T))
        aq = np.abs(q)
        a, ea = q.T @ xh, eq.T @ np.abs(xh) + _gamma(rows) * (aq.T @ np.abs(xh))
        c, ec = q.T @ q, 2 * eq.T @ aq + _gamma(rows) * (aq.T @ aq)
        d = c @ h
        ed = ec @ np.abs(h) + np.abs(c) @ eh + _gamma(k_new) * (np.abs(c) @ np.abs(h))
        delta = gain * (a - d) / rows
        e_delta = gain * (ea + ed) / rows + (4 * U + e_gain) * np.abs(delta)
        v_old, v = v, sub.momentum * v + delta
        ev = sub.momentum * ev + e_delta + 2 * U * sub.momentum * np.abs(v_old) + U * np.abs(v)
        h = h + sub.eta * v
        eh = eh + sub.eta * ev + 2 * U * sub.eta * np.abs(v) + U * np.abs(h)
    assert len(outs) == 1 + sub.K
    margins["H_new"] = np.max(np.abs(sub.H_new - h) / eh)
    margins["velocity"] = np.max(np.abs(sub.velocity - v) / ev)
    print(f"{mode} {shape}: flips {flips}, "
          + ", ".join(f"{key} {m:.3g} of its bound" for key, m in margins.items()))
    assert all(m <= 1.0 for m in margins.values()), margins
