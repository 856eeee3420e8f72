"""The continual-learning loop: expand, train, evaluate, consolidate.

For each task the harness grows every lateral circuit by its scheduled
number of subspace neurons, trains the network for the configured epochs
(weight updates from projected traces, Hebbian learning on raw traces,
interleaved per batch), evaluates on all tasks seen so far, and freezes the
new subspace rows. All randomness derives from the master seed through
fixed sub-stream paths, so one integer reproduces the whole run, and a
checkpoint written at any task boundary resumes it bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..config import ExperimentConfig
from ..lateral import LateralSubspace, QuantConfig
from ..linalg import make_rng, rowspace_projector
from ..spiking import NeuronConfig
from ..training import (
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
    _spiking_forward_pass,
    _stack_feeds,
)
from .checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from .data import (
    Dataset,
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

_TRAINERS = {"rate": rate_backward, "bptt": bptt_sg_backward, "ottt": ottt_backward}


@dataclass
class RunResult:
    matrix: list[list[float]]
    logs: list[str]
    net: SpikingNet
    subspaces: dict[int, LateralSubspace]
    seq: TaskSequence
    audit: dict | None = None
    extras: dict = field(default_factory=dict)


def neuron_config(cfg: ExperimentConfig) -> NeuronConfig:
    return NeuronConfig(
        lam=cfg.lam,
        v_th=cfg.v_th,
        T=cfg.T,
        a2=cfg.a2,
        delta_t=cfg.delta_t,
        tau=cfg.tau,
    )


def build_net(cfg: ExperimentConfig, seq: TaskSequence) -> SpikingNet:
    rng = make_rng(cfg.seed, SEED_WEIGHTS)
    ncfg = neuron_config(cfg)
    if cfg.task == "split_mnist":
        return build_conv_net(
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
    in_dim = seq.image_hw[0] * seq.image_hw[1]
    return build_mlp(in_dim, list(cfg.hidden_sizes), seq.n_classes, 1, ncfg, rng)


def projected_layer_indices(cfg: ExperimentConfig, net: SpikingNet) -> list[int]:
    """Which trainable layers carry a lateral circuit.

    Single-head runs project every connection including the shared
    classifier; multi-head runs project the blocks only, since per-task
    heads are never revisited.
    """
    if cfg.head_mode == "multi":
        return list(range(len(net.blocks)))
    return list(range(len(net.blocks) + 1))


def make_subspaces(cfg: ExperimentConfig, net: SpikingNet) -> dict[int, LateralSubspace]:
    if cfg.hlop == "off":
        return {}
    layers = net.trainable_layers(0)
    quant = QuantConfig(scale=cfg.quant_scale, T_l=cfg.quant_t_l)
    mode = "spiking" if cfg.hlop == "spiking" else "linear"
    subs = {}
    for i in projected_layer_indices(cfg, net):
        subs[i] = LateralSubspace(
            n=layers[i].in_dim, mode=mode, quant=quant, stabilize=True
        )
    return subs


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


def _net_input(cfg: ExperimentConfig, x: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    if cfg.task == "split_mnist":
        return x.reshape(x.shape[0], 1, *hw)
    return x


def _onehot(y: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((y.shape[0], n_classes))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def evaluate_task(
    cfg: ExperimentConfig,
    net: SpikingNet,
    task: Task,
    hw: tuple[int, int],
    head: int,
    eval_batch: int = 256,
) -> float:
    """Accuracy (%) on one task's test set, inference mode only."""
    correct = 0
    n = task.test_x.shape[0]
    for start in range(0, n, eval_batch):
        x = _net_input(cfg, task.test_x[start : start + eval_batch], hw)
        pred = predict(net, x, cfg.trainer, head)
        correct += int(np.sum(pred == task.test_y[start : start + eval_batch]))
    return 100.0 * correct / n


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
    _, _, pres = _spiking_forward_pass(net, x, head)
    return _stack_feeds(pres)


def _train_one_task(
    cfg: ExperimentConfig,
    net: SpikingNet,
    epcfg: ErrorPropConfig,
    subspaces: dict[int, LateralSubspace],
    task: Task,
    task_idx: int,
    hw: tuple[int, int],
    n_classes: int,
    head: int,
) -> None:
    trainer = _TRAINERS[cfg.trainer]
    layers = net.trainable_layers(head)
    # Linear circuits are projected in sgd_update, on whichever factor has
    # fewer rows (exact by linearity); burst-quantized ones project each
    # trace row inside the trainer.
    row_projected = {i: s for i, s in subspaces.items() if s.mode == "spiking"}
    update_projected = {i: s for i, s in subspaces.items() if s.mode == "linear"}
    n = task.train_x.shape[0]
    for epoch in range(cfg.epochs):
        order = make_rng(cfg.seed, SEED_SHUFFLE, task_idx, epoch).permutation(n)
        for start in range(0, n, cfg.batch):
            sl = order[start : start + cfg.batch]
            x = _net_input(cfg, task.train_x[sl], hw)
            y1h = _onehot(task.train_y[sl], n_classes)
            packet, feeds, _ = trainer(net, x, y1h, epcfg, row_projected, head)
            for i, layer in enumerate(layers):
                sgd_update(
                    layer, packet.layers[i], cfg.lr, packet.batch, update_projected.get(i)
                )
            for i, sub in subspaces.items():
                sub.hebbian_update(feeds[i])


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

    The interference audit (stored task-1 samples, weight snapshot, and the
    consolidated subspace at task-1 end) is collected for uninterrupted runs
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
    net = build_net(cfg, seq)
    epcfg = ErrorPropConfig(
        mode=cfg.errorprop,
        feedback=(
            init_feedback(net, make_rng(cfg.seed, SEED_FEEDBACK))
            if cfg.errorprop == "fa"
            else {}
        ),
        ss_scale=None if cfg.ss_scale == 0.0 else cfg.ss_scale,
    )
    subspaces = make_subspaces(cfg, net)
    layers_all = [*net.blocks, *net.heads]

    matrix: list[list[float]] = []
    start_task = 0
    if resume_path is not None:
        ckpt = load_checkpoint(resume_path)
        _check_resume_fits(ckpt, cfg, net, subspaces)
        by_name = {name: (w, b) for name, w, b in ckpt.layers}
        for layer in layers_all:
            w, b = by_name[layer.meta["name"]]
            layer.weight[...] = w
            layer.bias[...] = b
        for i, loaded in ckpt.subspaces.items():
            sub = subspaces[i]
            sub.H = loaded.H
            sub.H_new = loaded.H_new
            sub.velocity = loaded.velocity
        matrix = [list(row) for row in ckpt.acc_matrix]
        start_task = ckpt.task_cursor

    logs: list[str] = []
    audit_store: dict | None = None
    hw = seq.image_hw
    for t in range(start_task, len(seq.tasks)):
        task = seq.tasks[t]
        head = t if seq.head_mode == "multi" else 0
        for i, sub in subspaces.items():
            first, expand = cfg.subspace_schedule[
                projected_layer_indices(cfg, net).index(i)
            ]
            sub.expand(first if t == 0 else expand, make_rng(cfg.seed, SEED_SUBSPACE, t, i))
        t0 = time.perf_counter()
        _train_one_task(cfg, net, epcfg, subspaces, task, t, hw, seq.n_classes, head)
        train_s = time.perf_counter() - t0

        row = []
        for i in range(t + 1):
            eval_head = i if seq.head_mode == "multi" else 0
            row.append(evaluate_task(cfg, net, seq.tasks[i], hw, eval_head))
        matrix.append(row)
        logs.append(
            f"task {t + 1} ({task.name}): train {train_s:.1f}s, "
            + " ".join(f"acc[{i + 1}]={a:.2f}" for i, a in enumerate(row))
        )

        for sub in subspaces.values():
            sub.consolidate()

        if t == 0 and start_task == 0 and cfg.hlop != "off" and cfg.audit_samples > 0:
            n_pick = min(cfg.audit_samples, task.train_x.shape[0])
            pick = make_rng(cfg.seed, SEED_AUDIT, 0).choice(
                task.train_x.shape[0], size=n_pick, replace=False
            )
            feeds = collect_feeds(cfg, net, _net_input(cfg, task.train_x[pick], hw), head=0)
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
                        (l.meta["name"], l.weight.copy(), l.bias.copy())
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
    """Refuse a checkpoint whose seed, task cursor, layer shapes or lateral
    circuit widths differ from the run built from ``cfg``."""
    if ckpt.master_seed != cfg.seed:
        raise CheckpointError(f"checkpoint seed {ckpt.master_seed} != config seed {cfg.seed}")
    if ckpt.task_cursor > cfg.n_tasks or len(ckpt.acc_matrix) != ckpt.task_cursor:
        raise CheckpointError(f"checkpoint task cursor {ckpt.task_cursor} does not fit the run")
    saved = {name: (w.shape, b.shape) for name, w, b in ckpt.layers}
    saved.update((f"subspace {i}", sub.n) for i, sub in ckpt.subspaces.items())
    built = {l.meta["name"]: (l.weight.shape, l.bias.shape) for l in [*net.blocks, *net.heads]}
    built.update((f"subspace {i}", sub.n) for i, sub in subspaces.items())
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
