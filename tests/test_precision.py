"""The precision contract: lateral circuits compute in the dtype of their
banks, and layers in the dtype of their weights.

The harness builds linear circuits in float32 and spiking ones in float64
(``CIRCUIT_DTYPES``), every layer in float32 (``LAYER_DTYPE``), and hands the
net float32 inputs, targets and feedback matrices; checkpoints hold exact
float64 copies of banks and layers. A circuit built from float64 banks, or a
net from ``build_mlp`` or ``build_conv_net``, computes in float64, as every
one did before.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from hlop import spiking, training
from hlop.config import config_from_dict
from hlop.harness import (CIRCUIT_DTYPES, LAYER_DTYPE, Checkpoint, load_checkpoint, loop,
                          save_checkpoint)
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
    # One float64 operand would widen the products back to float64. The harness
    # keeps spiking circuits float64, but the one implementation takes either dtype.
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
    assert CIRCUIT_DTYPES == {"linear": F32, "spiking": F64}
    assert LAYER_DTYPE == F32


def test_spiking_helpers_keep_a_float_dtype():
    # Pooling spike maps is exact in float32: a sum of at most four 0/1 values,
    # divided by 4. A non-float input computes in float64.
    rng, cfg = make_rng(55, 0), spiking.NeuronConfig()
    maps = rng.uniform(size=(2, 4, 4, 3)) < 0.5
    pooled = spiking.avg_pool(maps.astype(np.float32), 2)
    assert pooled.dtype == F32 and np.array_equal(pooled, spiking.avg_pool(maps.astype(F64), 2))
    grad = rng.normal(size=(2, 2, 2, 3))
    assert spiking.avg_pool_backward(grad.astype(np.float32), 2).dtype == F32
    out = spiking.avg_pool_backward(grad, 2, np.empty((2, 4, 4, 3), np.float32))
    assert out.dtype == F32 and np.array_equal(out, spiking.avg_pool_backward(grad, 2).astype(F32))
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
    sub = _circuit(mode, CIRCUIT_DTYPES[mode])
    path = str(tmp_path / "c.ckpt")
    save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=1, layers=[],
                                     subspaces={0: sub}, acc_matrix=[[50.0]]))
    back = load_checkpoint(path).subspaces[0]
    for name in ("H", "H_new", "velocity"):
        assert getattr(back, name).dtype == CIRCUIT_DTYPES[mode]
        assert getattr(back, name).tobytes() == getattr(sub, name).tobytes(), name


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
    # A circuit's x_hat comes back in its dtype. Every layer is float32, so a
    # float32 circuit's x_hat replaces the trace rows it was handed, with no
    # copy, and the loop rounds a float64 circuit's x_hat into those rows: on
    # task 2, once the circuits hold rows, that rounding moves some values.
    returned, handed, taken, rounded = {}, {}, {}, set()
    hebbian_update, sgd_update = LateralSubspace.hebbian_update, loop.sgd_update

    def recording_hebbian(sub, x):
        x_hat, learn = hebbian_update(sub, x)
        returned.setdefault(sub.n, set()).add(x_hat.dtype)
        handed[id(x)] = (x, x_hat)  # holding x keeps its id unique
        return x_hat, learn

    def recording_sgd(layer, grad, lr, batch):
        assert grad.trace.dtype == layer.weight.dtype == LAYER_DTYPE
        for rows, x_hat in list(handed.values()):
            if grad.trace is x_hat:
                taken.setdefault(layer.name, set()).add("x_hat")
            elif grad.trace is rows:
                assert np.array_equal(rows, x_hat.astype(F32))
                taken.setdefault(layer.name, set()).add("rounded rows")
                if not np.array_equal(rows, x_hat):
                    rounded.add(layer.name)
        sgd_update(layer, grad, lr, batch)

    monkeypatch.setattr(LateralSubspace, "hebbian_update", recording_hebbian)
    monkeypatch.setattr(loop, "sgd_update", recording_sgd)
    monkeypatch.setattr(loop, "_spare_cpu", lambda: True)
    cfg = config_from_dict(dict(seed=99, hlop=hlop, n_tasks=2, train_per_task=200,
                                test_per_task=50, checkpoint_every_task=False,
                                audit_samples=0, **kw))
    res = run_continual(cfg, data=data_pools)
    dtype = CIRCUIT_DTYPES[hlop]
    names = [layer.name for layer in res.net.trainable_layers(0)[: len(res.subspaces)]]
    assert len(res.subspaces) >= 2
    assert returned == {sub.n: {dtype} for sub in res.subspaces.values()}
    for i, sub in res.subspaces.items():
        assert sub.k > 0 and {a.dtype for a in (sub.H, sub.H_new, sub.velocity)} == {dtype}
    assert taken == {name: {"x_hat" if dtype == F32 else "rounded rows"} for name in names}
    assert rounded == (set() if dtype == F32 else set(names))
