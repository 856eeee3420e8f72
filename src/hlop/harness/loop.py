"""The continual-learning loop: expand, train, evaluate, consolidate.

For each task the harness grows every lateral circuit by its scheduled
number of subspace neurons, trains the network for the configured epochs
(per batch, each circuit learns from its layer's raw trace rows and returns
them projected for the layer's update), evaluates on all tasks seen so far,
and freezes the new subspace rows. All randomness derives from the master
seed through fixed sub-stream paths, so one integer reproduces the whole
run, and a checkpoint written at any task boundary resumes it bit for bit.
Batches enter the net as flat float rows, one per sample, whatever the task:
only the conv layer views them as images. The run checks, before training
and against the data, that the conv kernel and pool tile the images and
that each circuit's schedule fits its layer's width.
With a CPU to spare, one FIFO worker thread projects each layer's trace rows as
soon as the trainer has finished them, runs the circuits' Hebbian repeats beside
the next batch, in each circuit's order, and, once training has joined them,
counts half of each task's evaluation batches; no result byte changes.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from ..config import ExperimentConfig, default_subspace_schedule
from ..lateral import LateralSubspace
from ..linalg import make_rng, rowspace_projector  # noqa: F401 (a perfbench trace site)
from ..spiking import NeuronConfig, conv_output_hw
from ..training import (
    EVAL_STATES,
    ErrorPropConfig,
    SpikingNet,
    bptt_sg_backward,
    build_conv_net,
    build_mlp,
    init_feedback,
    ottt_backward,
    predict,
    rate_backward,
    rate_chain_forward,
    sgd_update,
    _walk,
)
from .checkpoint import (Checkpoint, CheckpointError, blas_threads, load_checkpoint,
                         save_checkpoint)
from .data import (
    Dataset,
    ImageSizeError,
    SEED_AUDIT,
    SEED_FEEDBACK,
    SEED_SUBSPACE,
    SEED_WEIGHTS,
    Task,
    TaskSequence,
    load_data_dir,
    make_pmnist_tasks,
    make_split_tasks,
)

SEED_SHUFFLE = 7
# Every layer's and circuit's dtype, and that of what the loop hands the net: the
# acceptance gate holds in float32, whose products run about twice as fast.
DTYPE = np.dtype(np.float32)
AUDIT_SAMPLES = 200  # task-1 training samples the interference audit stores

_TRAINERS = {"rate": rate_backward, "bptt": bptt_sg_backward, "ottt": ottt_backward}


@dataclass
class RunResult:
    matrix: list[list[float]]
    logs: list[str]
    net: SpikingNet
    subspaces: dict[int, LateralSubspace]
    seq: TaskSequence
    audit: dict | None = None


def build_net(cfg: ExperimentConfig, seq: TaskSequence) -> SpikingNet:
    rng = make_rng(cfg.seed, SEED_WEIGHTS)
    ncfg = NeuronConfig(
        lam=cfg.lam, v_th=cfg.v_th, T=cfg.T, a2=cfg.a2, delta_t=cfg.delta_t, tau=cfg.tau
    )
    if cfg.task == "split_mnist":
        net = build_conv_net(
            in_channels=1,
            in_hw=seq.image_hw,
            channels=cfg.conv_channels,
            kernel=cfg.conv_kernel,
            pool=cfg.conv_pool,
            hidden=cfg.conv_hidden,
            n_classes=seq.n_classes,
            n_heads=len(seq.tasks),
            cfg=ncfg,
            rng=rng,
        )
    else:
        in_dim = seq.image_hw[0] * seq.image_hw[1]
        net = build_mlp(in_dim, list(cfg.hidden_sizes), seq.n_classes, 1, ncfg, rng)
    for layer in [*net.blocks, *net.heads]:
        layer.weight, layer.bias = (a.astype(DTYPE) for a in (layer.weight, layer.bias))
    return net


def subspace_schedule(cfg: ExperimentConfig, net: SpikingNet) -> list:
    """Per-circuit [first, expand] rows: the config's, or when it gives none,
    the default sized from the widths of ``net``'s trainable layers."""
    widths = [layer.in_dim for layer in net.trainable_layers(0)]
    return cfg.subspace_schedule or default_subspace_schedule(widths, cfg.task == "split_mnist")


def make_subspaces(cfg: ExperimentConfig, net: SpikingNet) -> dict[int, LateralSubspace]:
    """One lateral circuit per entry of the run's ``subspace_schedule``, in ``DTYPE``:
    layer i of the trainable layers hosts the circuit of entry i."""
    if cfg.hlop == "off":
        return {}
    widths = [layer.in_dim for layer in net.trainable_layers(0)][: len(subspace_schedule(cfg, net))]
    mode = "spiking" if cfg.hlop == "spiking" else "linear"
    return {i: LateralSubspace(n, np.zeros((0, n), DTYPE), mode=mode) for i, n in enumerate(widths)}


def make_task_sequence(
    cfg: ExperimentConfig, train: Dataset, test: Dataset
) -> TaskSequence:
    if cfg.task == "split_mnist":
        return make_split_tasks(
            train, test, cfg.seed, cfg.train_per_task, cfg.test_per_task, cfg.n_tasks
        )
    return make_pmnist_tasks(
        train, test, cfg.n_tasks, cfg.seed, cfg.train_per_task, cfg.test_per_task
    )


def _net_input(x: np.ndarray) -> np.ndarray:
    """Scale a uint8 pixel batch to the net's input rows in [0, 1], in
    ``DTYPE``: the only pixel scaling."""
    return x.astype(DTYPE) / 255.0


def _onehot(y: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes, dtype=DTYPE)[y]


def eval_batch_rows(net: SpikingNet, n: int) -> int:
    """Samples per evaluation batch of an ``n``-row test set: as many as keep one step
    of the first trainable layer's state (rows per sample times width) within
    ``EVAL_STATES``, and at most half the set, so that both threads get rows."""
    first = net.trainable_layers(0)[0]
    states = first.out_dim * (int(np.prod(first.out_hw)) if first.kind == "conv" else 1)
    return max(1, min(EVAL_STATES // states, -(-n // 2)))


def evaluate_task(
    cfg: ExperimentConfig,
    net: SpikingNet,
    task: Task,
    head: int,
    pool: ThreadPoolExecutor | None = None,
) -> float:
    """Accuracy (%) on one task's test set, inference mode only.

    The test rows are scored in ``eval_batch_rows``-sample batches. With a
    ``pool`` (whose worker is idle: training has joined every Hebbian job), the
    worker counts the odd-numbered batches while the caller counts the even
    ones, so the two integer counts add up to the serial count. On an error in
    the caller's half, the pool's owner joins the worker's."""
    n = task.test_x.shape[0]
    size = eval_batch_rows(net, n)
    starts = range(0, n, size)

    def count(batch_starts: range) -> int:
        correct = 0
        for start in batch_starts:
            rows = slice(start, start + size)
            pred = predict(net, _net_input(task.test_x[rows]), cfg.trainer, head)
            correct += int(np.sum(pred == task.test_y[rows]))
        return correct

    if pool is None:
        return 100.0 * count(starts) / n
    odd = pool.submit(count, starts[1::2])
    return 100.0 * (count(starts[0::2]) + odd.result()) / n


def collect_feeds(
    cfg: ExperimentConfig, net: SpikingNet, x: np.ndarray, head: int = 0
) -> list[np.ndarray]:
    """Raw per-layer presynaptic trace rows for a batch, no learning.

    Matches what each trainer would feed the lateral circuits: presynaptic
    rates for the rate trainer, stacked per-step spikes otherwise (the
    constant input layer contributes one copy).
    """
    if cfg.trainer == "rate":
        pres, _ = rate_chain_forward(net, x, head)
        return pres
    return [rows for rows, _ in _walk(net, x, head)]


# The Oja fixed point has unit rows, and healthy runs keep H_new's row norms
# at or below 1.01, so a row two orders of magnitude longer is divergence.
MAX_HEBBIAN_ROW_NORM = 100.0


class DivergenceError(ArithmeticError):
    """A trained layer's weights or a lateral circuit's in-training state
    became non-finite, or an in-training row outgrew ``MAX_HEBBIAN_ROW_NORM``."""


class ScheduleError(ValueError):
    """A subspace schedule asks a circuit for more rows than its layer is wide."""


def _spare_cpu() -> bool:
    """Whether a CPU is left for the worker that runs the Hebbian repeats and half
    of the evaluation batches: more CPUs than BLAS threads (``blas_threads``)."""
    return len(os.sched_getaffinity(0)) > blas_threads()


def _train_one_task(
    cfg: ExperimentConfig,
    net: SpikingNet,
    epcfg: ErrorPropConfig,
    subspaces: dict[int, LateralSubspace],
    task: Task,
    task_idx: int,
    head: int,
    pool: ThreadPoolExecutor | None = None,
) -> None:
    """Train on one task. With a ``pool``, the trainer hands each circuit's rows to the
    worker mid-walk for ``hebbian_update``, and every ``learn`` runs there too. A
    circuit's ``learn`` is joined, and its state
    checked finite with rows no longer than ``MAX_HEBBIAN_ROW_NORM``, before its next
    update and before this returns; every trained layer's weights and biases are checked
    finite after each batch's update. On an error the pool's owner joins what is left."""
    trainer = _TRAINERS[cfg.trainer]
    layers = net.trainable_layers(head)
    n = task.train_x.shape[0]
    pending: dict[int, tuple[Future | None, int]] = {}
    early: dict[int, Future] = {}

    def project_early(i: int, rows: np.ndarray) -> None:  # the trainers' on_trace
        if i in subspaces:
            early[i] = pool.submit(subspaces[i].hebbian_update, rows)

    def join(i: int) -> None:
        job, batch_no = pending.pop(i, (None, 0))
        if job is not None:
            job.result()
        sub = subspaces[i]
        where = f"task {task_idx + 1}, batch {batch_no}, circuit {i}"
        if not (np.isfinite(sub.H_new).all() and np.isfinite(sub.velocity).all()):
            raise DivergenceError(f"{where}: non-finite Hebbian state")
        norm = np.max(np.linalg.norm(sub.H_new, axis=1), initial=0.0)
        if norm > MAX_HEBBIAN_ROW_NORM:
            raise DivergenceError(
                f"{where}: Hebbian row norm {norm:.3g} exceeds {MAX_HEBBIAN_ROW_NORM:g}")

    batch_no = 0
    for epoch in range(cfg.epochs):
        order = make_rng(cfg.seed, SEED_SHUFFLE, task_idx, epoch).permutation(n)
        for start in range(0, n, cfg.batch):
            batch_no += 1
            sl = order[start : start + cfg.batch]
            x = _net_input(task.train_x[sl])
            y1h = _onehot(task.train_y[sl], layers[-1].out_dim)
            packet, _ = trainer(net, x, y1h, epcfg, head, project_early if pool else None)
            for i, (layer, grad) in enumerate(zip(layers, packet.layers)):
                # The circuit learns from the raw rows and returns them projected.
                if i in subspaces:
                    join(i)
                    job = early.pop(i, None)
                    x_hat, learn = job.result() if job else subspaces[i].hebbian_update(grad.trace)
                    pending[i] = (pool.submit(learn) if pool else learn(), batch_no)
                    grad = replace(grad, trace=x_hat)
                with np.errstate(over="ignore", invalid="ignore"):  # named below instead
                    sgd_update(layer, grad, cfg.lr, packet.batch)
            for layer in layers:
                if not (np.isfinite(layer.weight).all() and np.isfinite(layer.bias).all()):
                    raise DivergenceError(
                        f"task {task_idx + 1}, batch {batch_no}, layer {layer.name}: "
                        "non-finite weights")
    for i in list(pending):
        join(i)


def run_continual(
    cfg: ExperimentConfig,
    data: tuple[Dataset, Dataset] | None = None,
    resume_path: str | None = None,
    checkpoint_dir: str | None = None,
) -> RunResult:
    """Execute a full task sequence and return the accuracy matrix.

    Args:
        cfg: validated experiment configuration.
        data: optional preloaded (train, test) pool pair; otherwise loaded
            from the configured data directory.
        resume_path: checkpoint to continue from (task boundary).
        checkpoint_dir: when set, a checkpoint is written after every task.

    The interference audit (``AUDIT_SAMPLES`` stored task-1 samples, weight snapshot,
    and the consolidated subspace at task-1 end) is collected for uninterrupted runs
    with lateral circuits enabled.
    """
    if data is None:
        data_dir = cfg.resolved_data_dir()
        if not data_dir:
            raise FileNotFoundError(
                "no data directory: set data_dir in the config or $HLOP_DATA_DIR"
            )
        data = load_data_dir(data_dir)
    train, test = data
    seq = make_task_sequence(cfg, train, test)
    if cfg.task == "split_mnist":
        (h, w), k, p = seq.image_hw, cfg.conv_kernel, cfg.conv_pool
        oh, ow = conv_output_hw(h, w, k)
        if min(oh, ow) < 1 or oh % p or ow % p:
            raise ImageSizeError(f"conv_kernel {k} and conv_pool {p} do not tile "
                                 f"{h}x{w} images (conv map {oh}x{ow})")
    net = build_net(cfg, seq)
    sched = subspace_schedule(cfg, net)
    epcfg = ErrorPropConfig(
        mode=cfg.errorprop,
        feedback=(
            init_feedback(net, make_rng(cfg.seed, SEED_FEEDBACK))
            if cfg.errorprop == "fa"
            else {}
        ),
    )
    subspaces = make_subspaces(cfg, net)
    for i, sub in subspaces.items():
        first, expand = sched[i]
        if (rows := first + expand * (cfg.n_tasks - 1)) > sub.n:
            raise ScheduleError(
                f"subspace {i}: schedule needs {rows} rows, but layer "
                f"{net.trainable_layers(0)[i].name} has presynaptic width {sub.n} "
                f"on {seq.image_hw[0]}x{seq.image_hw[1]} images"
            )
    layers_all = [*net.blocks, *net.heads]

    matrix: list[list[float]] = []
    start_task = 0
    if resume_path is not None:
        ckpt = load_checkpoint(resume_path)
        _check_resume_fits(ckpt, cfg, net, subspaces)
        by_name = {name: (w, b) for name, w, b in ckpt.layers}
        for layer in layers_all:
            layer.weight[...], layer.bias[...] = by_name[layer.name]
        subspaces.update(ckpt.subspaces)
        matrix = [list(row) for row in ckpt.acc_matrix]
        start_task = ckpt.task_cursor

    logs: list[str] = []
    audit_store: dict | None = None
    with ThreadPoolExecutor(max_workers=1) if _spare_cpu() else nullcontext() as pool:
        for t in range(start_task, len(seq.tasks)):
            task = seq.tasks[t]
            head = t if len(net.heads) > 1 else 0
            for i, sub in subspaces.items():
                first, expand = sched[i]
                sub.expand(expand if t else first, make_rng(cfg.seed, SEED_SUBSPACE, t, i))
            t0 = time.perf_counter()
            _train_one_task(cfg, net, epcfg, subspaces, task, t, head, pool)
            train_s = time.perf_counter() - t0

            row = [
                evaluate_task(cfg, net, seq.tasks[i], i if len(net.heads) > 1 else 0, pool)
                for i in range(t + 1)
            ]
            matrix.append(row)
            logs.append(
                f"task {t + 1} ({task.name}): train {train_s:.1f}s, "
                + " ".join(f"acc[{i + 1}]={a:.2f}" for i, a in enumerate(row))
            )

            for sub in subspaces.values():
                sub.consolidate()

            if t == 0 and start_task == 0 and cfg.hlop != "off":
                n_pick = min(AUDIT_SAMPLES, task.train_x.shape[0])
                pick = make_rng(cfg.seed, SEED_AUDIT, 0).choice(
                    task.train_x.shape[0], size=n_pick, replace=False
                )
                feeds = collect_feeds(cfg, net, _net_input(task.train_x[pick]), head=0)
                audit_store = {
                    i: {
                        "x": feeds[i],
                        "h": subspaces[i].H.copy(),
                        "w": net.trainable_layers(0)[i].weight.copy(),
                    }
                    for i in subspaces
                }

            if checkpoint_dir is not None:
                save_checkpoint(
                    f"{checkpoint_dir}/task{t + 1}.ckpt",
                    Checkpoint(
                        master_seed=cfg.seed,
                        task_cursor=t + 1,
                        layers=[
                            (l.name, l.weight.copy(), l.bias.copy())
                            for l in layers_all
                        ],
                        subspaces=subspaces,
                        acc_matrix=[list(r) for r in matrix],
                    ),
                )

    audit = None
    if audit_store is not None:
        audit = interference_audit(net, audit_store)
    return RunResult(
        matrix=matrix, logs=logs, net=net, subspaces=subspaces, seq=seq, audit=audit
    )


def _check_resume_fits(
    ckpt: Checkpoint,
    cfg: ExperimentConfig,
    net: SpikingNet,
    subspaces: dict[int, LateralSubspace],
) -> None:
    """Refuse a checkpoint whose seed, BLAS thread count, task cursor, accuracy
    rows (row k holds k entries), layer shapes and dtypes or lateral circuits (width,
    mode, dtype) differ from the run built from ``cfg``."""
    if ckpt.master_seed != cfg.seed:
        raise CheckpointError(f"checkpoint seed {ckpt.master_seed} != config seed {cfg.seed}")
    if ckpt.blas_threads != blas_threads():
        raise CheckpointError(f"checkpoint written under {ckpt.blas_threads} BLAS threads, "
                              f"run has {blas_threads()}: float32 products round by the count")
    if not 1 <= ckpt.task_cursor <= cfg.n_tasks:
        raise CheckpointError(
            f"checkpoint task cursor {ckpt.task_cursor} is outside 1..{cfg.n_tasks}")
    lengths = [len(row) for row in ckpt.acc_matrix]
    if lengths != list(range(1, ckpt.task_cursor + 1)):
        raise CheckpointError(f"checkpoint accuracy rows hold {lengths} entries; after "
                              f"task {ckpt.task_cursor}, row k must hold k")
    saved, built = {}, {}
    own = [(l.name, l.weight, l.bias) for l in [*net.blocks, *net.heads]]
    for table, layers, subs in ((saved, ckpt.layers, ckpt.subspaces), (built, own, subspaces)):
        for name, w, b in layers:
            table[name] = (w.shape, b.shape)
            table[f"{name} dtype"] = f"{w.dtype} weight, {b.dtype} bias"
        for i, sub in subs.items():
            table.update((f"subspace {i} {k}", getattr(sub, k)) for k in ("n", "mode"))
            table[f"subspace {i} dtype"] = sub.H.dtype.name
    for key in sorted(saved.keys() | built.keys()):
        if saved.get(key) != built.get(key):
            raise CheckpointError(
                f"{key}: checkpoint has {saved.get(key, 'none')}, run has {built.get(key, 'none')}"
            )


def interference_audit(net: SpikingNet, store: dict) -> dict:
    """Bound on how much post-task-1 learning moved protected directions.

    For each projected layer, with dW the total weight change since task-1
    end and P the projector onto the rowspace of the subspace consolidated
    then, reports max_x ||dW @ P x|| / ||x|| over the stored task-1 trace
    samples (zero-activity rows are skipped).
    """
    layers = net.trainable_layers(0)
    out = {}
    for i, entry in store.items():
        x = entry["x"]
        norms = np.linalg.norm(x, axis=1)
        keep = norms > 0
        if not np.any(keep):
            out[i] = 0.0
            continue
        # (dW P) x on every row, with P = pinv(h) h never formed: (dW pinv(h)) h
        # is (out, k) then (out, n), in float64, and meets the rows in their dtype.
        h = np.asarray(entry["h"], np.float64)
        dw_p = (layers[i].weight - entry["w"]) @ np.linalg.pinv(h, rcond=1e-8) @ h
        moved = np.linalg.norm(x @ dw_p.T.astype(x.dtype, copy=False), axis=1)
        out[i] = float(np.max(moved[keep] / norms[keep]))
    return out
