"""Experiment harness: datasets, task sequences, the training loop, metrics,
checkpoints, and the interference audit."""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    DatasetError,
    IdxCountMismatchError,
    IdxHeaderError,
    IdxLabelError,
    IdxMagicError,
    IdxTrailingBytesError,
    IdxTruncatedError,
    ImageSizeError,
    PoolTooSmallError,
    Task,
    TaskSequence,
    load_mnist_idx,
    make_pmnist_tasks,
    make_split_tasks,
    synth_digit_pools,
    write_idx_dataset,
)
from .loop import RunResult, interference_audit, run_continual
from .metrics import compute_acc_bwt, write_metrics_csv, write_summary_csv

__all__ = [
    "Checkpoint",
    "Dataset",
    "DatasetError",
    "IdxCountMismatchError",
    "IdxHeaderError",
    "IdxLabelError",
    "IdxMagicError",
    "IdxTrailingBytesError",
    "IdxTruncatedError",
    "ImageSizeError",
    "PoolTooSmallError",
    "RunResult",
    "Task",
    "TaskSequence",
    "compute_acc_bwt",
    "interference_audit",
    "load_checkpoint",
    "load_mnist_idx",
    "make_pmnist_tasks",
    "make_split_tasks",
    "run_continual",
    "save_checkpoint",
    "synth_digit_pools",
    "write_idx_dataset",
    "write_metrics_csv",
    "write_summary_csv",
]
