"""The worker thread: same bytes on or off, errors and thread lifetime.

``run_continual`` runs each circuit's projections and Hebbian repeats, and
half of each task's evaluation batches, on one worker thread when
``loop._spare_cpu()`` says a CPU is left beside the BLAS threads. These tests
force the worker on and off by monkeypatching that check.
"""

import sys
import threading

import numpy as np
import pytest

from hlop.cli import main
from hlop.config import config_from_dict
from hlop.harness import loop
from hlop.harness.loop import run_continual
from hlop.lateral import LateralSubspace


def _write_cfg(path, out_dir, **kw):
    lines = {
        "seed": 99,
        "hlop": "linear",
        "n_tasks": 2,
        "train_per_task": 300,
        "test_per_task": 150,
        "output_dir": f'"{out_dir}"',
        **kw,
    }
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return str(path)


@pytest.fixture()
def run_env(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HLOP_DATA_DIR", data_dir)
    return tmp_path


def _force_worker(monkeypatch, on):
    monkeypatch.setattr(loop, "_spare_cpu", lambda: on)


def _wrap_learn(monkeypatch, after):
    """Wrap every circuit's ``learn`` so that ``after(sub, call)`` runs once the
    real repeats are done; ``call`` counts the Hebbian updates of that circuit."""
    hebbian_update = LateralSubspace.hebbian_update
    calls = {}

    def hebbian(sub, rows):
        x_hat, learn = hebbian_update(sub, rows)
        call = calls[id(sub)] = calls.get(id(sub), 0) + 1

        def wrapped():
            learn()
            after(sub, call)

        return x_hat, wrapped

    monkeypatch.setattr(LateralSubspace, "hebbian_update", hebbian)


OUTPUTS = ("metrics.csv", "summary.csv", "task1.ckpt", "task2.ckpt")


@pytest.mark.parametrize("cpus, pins, spare", [
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (2, {"OMP_NUM_THREADS": "1"}, True),
    (2, {}, False),  # an unpinned BLAS pool already takes both CPUs
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
    (4, {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    # OpenBLAS takes the first positive pin, read as C's atoi reads it.
    (2, {"OPENBLAS_NUM_THREADS": "0"}, False),
    (2, {"GOTO_NUM_THREADS": "1"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "-1", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),
    (2, {"OPENBLAS_NUM_THREADS": " 1x"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "3"}, False),
    (2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
])
def test_worker_needs_a_cpu_that_blas_leaves_free(monkeypatch, cpus, pins, spare):
    for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    for key, value in pins.items():
        monkeypatch.setenv(key, value)
    monkeypatch.setattr(loop.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert loop._spare_cpu() is spare


@pytest.mark.parametrize("kw", [dict(hlop="linear"), dict(hlop="spiking"),
                                dict(hlop="linear", task="split_mnist")],
                         ids=["linear", "spiking", "split-conv"])
def test_worker_on_and_off_write_the_same_bytes(run_env, monkeypatch, kw):
    on_main = set()
    _wrap_learn(monkeypatch, lambda sub, call: on_main.add(
        threading.current_thread() is threading.main_thread()))
    outputs = {}
    interval = sys.getswitchinterval()
    try:
        # A short switch interval makes the two threads interleave finely.
        sys.setswitchinterval(1e-5)
        for on in (True, False):
            _force_worker(monkeypatch, on)
            on_main.clear()
            out = run_env / f"out-{on}"
            assert main(["run", _write_cfg(run_env / f"{on}.cfg", out, **kw)]) == 0
            assert on_main == {not on}
            outputs[on] = {name: (out / name).read_bytes() for name in OUTPUTS}
    finally:
        sys.setswitchinterval(interval)
    for name in OUTPUTS:
        assert outputs[True][name] == outputs[False][name], name


def test_worker_on_resume_reproduces_both_csvs(run_env, monkeypatch):
    _force_worker(monkeypatch, True)
    out = run_env / "out"
    cfg = _write_cfg(run_env / "exp.cfg", out)
    assert main(["run", cfg]) == 0
    full = {name: (out / name).read_bytes() for name in ("metrics.csv", "summary.csv")}
    assert main(["run", cfg, "--resume", str(out / "task1.ckpt")]) == 0
    for name, data in full.items():
        assert (out / name).read_bytes() == data, name


@pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
def test_error_in_learn_comes_out_of_run_continual(data_pools, monkeypatch, on):
    _force_worker(monkeypatch, on)
    boom = RuntimeError("repeat failed")

    def fail(sub, call):
        if sub.n == 784 and call == 3:
            raise boom

    cfg = config_from_dict(dict(seed=99, hlop="linear", n_tasks=2, train_per_task=300,
                                test_per_task=150))
    threads = threading.active_count()
    assert run_continual(cfg, data=data_pools).matrix
    assert threading.active_count() == threads
    _wrap_learn(monkeypatch, fail)
    with pytest.raises(RuntimeError) as exc:
        run_continual(cfg, data=data_pools)
    assert exc.value is boom
    assert threading.active_count() == threads


def _wrap_projection(monkeypatch, before):
    """Wrap every circuit's ``hebbian_update`` so that ``before(sub)`` runs first."""
    hebbian_update = LateralSubspace.hebbian_update

    def hebbian(sub, rows):
        before(sub)
        return hebbian_update(sub, rows)

    monkeypatch.setattr(LateralSubspace, "hebbian_update", hebbian)


_TWO_TASKS = dict(seed=99, hlop="linear", n_tasks=2, train_per_task=300, test_per_task=150)


@pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
def test_projection_runs_on_the_worker_while_the_trainer_walks(data_pools, monkeypatch, on):
    # The trainer hands each layer's rows out once they are final, and the
    # worker projects every one of them; the loop waits for it.
    _force_worker(monkeypatch, on)
    on_main = []
    _wrap_projection(monkeypatch, lambda sub: on_main.append(
        threading.current_thread() is threading.main_thread()))
    run_continual(config_from_dict(_TWO_TASKS), data=data_pools)
    assert len(on_main) == 2 * 5 * 3  # two tasks of 5 batches, three circuits
    assert not any(on_main) if on else all(on_main)


@pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
def test_error_in_projection_comes_out_of_run_continual(data_pools, monkeypatch, on):
    _force_worker(monkeypatch, on)
    boom = RuntimeError("projection failed")
    calls = []

    def fail(sub):
        calls.append(sub.n)
        if sub.n == 784 and calls.count(784) == 3:
            raise boom

    _wrap_projection(monkeypatch, fail)
    threads = threading.active_count()
    with pytest.raises(RuntimeError) as exc:
        run_continual(config_from_dict(_TWO_TASKS), data=data_pools)
    assert exc.value is boom
    assert threading.active_count() == threads


@pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
@pytest.mark.parametrize("field", ["H_new", "velocity"])
def test_divergence_names_task_batch_and_circuit(run_env, monkeypatch, capsys, on, field):
    # The 784-wide input circuit is circuit 0; its third update writes a NaN.
    _force_worker(monkeypatch, on)

    def poison(sub, call):
        if sub.n == 784 and call == 3:
            getattr(sub, field)[0, 0] = np.nan

    _wrap_learn(monkeypatch, poison)
    threads = threading.active_count()
    assert main(["run", _write_cfg(run_env / "exp.cfg", run_env / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "divergence: task 1, batch 3, circuit 0: non-finite Hebbian state"
    assert not (run_env / "out" / "metrics.csv").exists()
    assert threading.active_count() == threads


def _explode(sub, call):
    # After its third update the 784-wide input circuit holds finite rows of
    # norm 1e3, far past the Oja fixed point's unit rows.
    if sub.n == 784 and call == 3:
        sub.H_new[...] = 1e3 / np.sqrt(sub.n)


@pytest.mark.parametrize("on", [True, False], ids=["worker", "inline"])
def test_exploding_hebbian_rows_raise_divergence(data_pools, monkeypatch, on):
    _force_worker(monkeypatch, on)
    _wrap_learn(monkeypatch, _explode)
    cfg = config_from_dict(dict(seed=99, hlop="linear", n_tasks=2, train_per_task=300,
                                test_per_task=150))
    threads = threading.active_count()
    with pytest.raises(loop.DivergenceError) as exc:
        run_continual(cfg, data=data_pools)
    assert str(exc.value) == "task 1, batch 3, circuit 0: Hebbian row norm 1e+03 exceeds 100"
    assert threading.active_count() == threads


def test_exploding_hebbian_rows_exit_1(run_env, monkeypatch, capsys):
    _wrap_learn(monkeypatch, _explode)
    assert main(["run", _write_cfg(run_env / "exp.cfg", run_env / "out")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "divergence: task 1, batch 3, circuit 0: Hebbian row norm 1e+03 exceeds 100"
    assert not (run_env / "out" / "metrics.csv").exists()


def _record_predict(monkeypatch, before=lambda on_main, rows: None):
    """Wrap the loop's ``predict``: each call appends (on the main thread, rows)
    and first runs ``before`` with the same two values."""
    predict = loop.predict
    scored = []

    def recording(net, x, trainer, head):
        on_main = threading.current_thread() is threading.main_thread()
        scored.append((on_main, len(x)))
        before(on_main, len(x))
        return predict(net, x, trainer, head)

    monkeypatch.setattr(loop, "predict", recording)
    return scored


@pytest.mark.parametrize("task, test_per_task, sizes", [
    # 24 conv-layer samples (676x8 states each) fill the state budget.
    ("split_mnist", 50, [24, 24, 2]),
    # A pmnist set under one budget batch (655 samples) is scored in halves.
    ("pmnist", 261, [131, 130]),
    ("pmnist", 1, [1]),
], ids=["three-batches", "under-one-batch", "one-row"])
def test_worker_scores_the_odd_batches_and_the_accuracies_hold(data_pools, monkeypatch,
                                                                task, test_per_task, sizes):
    cfg = config_from_dict(dict(seed=99, hlop="linear", n_tasks=2, train_per_task=300,
                                test_per_task=test_per_task, task=task))
    scored = _record_predict(monkeypatch)
    matrices = {}
    for on in (True, False):
        _force_worker(monkeypatch, on)
        scored.clear()
        res = run_continual(cfg, data=data_pools)
        assert [t.test_x.shape[0] for t in res.seq.tasks] == [test_per_task] * 2
        # Three evaluations: task 1 after each task, task 2 after the second.
        batches = [(not on or k % 2 == 0, rows) for k, rows in enumerate(sizes)]
        assert sorted(scored) == sorted(batches * 3)
        matrices[on] = res.matrix
    assert matrices[True] == matrices[False]


@pytest.mark.parametrize("where", ["worker", "main"])
def test_error_in_an_evaluation_half_comes_out_of_run_continual(data_pools, monkeypatch, where):
    _force_worker(monkeypatch, True)
    boom = RuntimeError("scoring failed")
    halves = []

    def fail(on_main, rows):
        halves.append(on_main)
        if on_main == (where == "main"):
            raise boom

    cfg = config_from_dict(dict(seed=99, hlop="linear", n_tasks=2, train_per_task=300,
                                test_per_task=150))
    threads = threading.active_count()
    _record_predict(monkeypatch, fail)
    with pytest.raises(RuntimeError) as exc:
        run_continual(cfg, data=data_pools)
    assert exc.value is boom
    assert halves and (where == "main") in halves
    assert threading.active_count() == threads
