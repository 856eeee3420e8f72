"""Accuracy bookkeeping: the task-by-task matrix, ACC/BWT, CSV emission."""

from __future__ import annotations

import csv
import os
import tempfile

AccuracyMatrix = list  # list of rows; row k holds accuracies on tasks 0..k


def compute_acc_bwt(matrix: AccuracyMatrix, k: int) -> tuple[float, float | None]:
    """Average accuracy and backward transfer after learning k tasks.

    avg_acc is the mean accuracy over tasks 1..k measured after task k;
    avg_bwt is the mean of acc[k][i] - acc[i][i] over the k-1 earlier tasks,
    undefined (None) for k = 1.
    """
    if k < 1 or k > len(matrix):
        raise ValueError(f"k={k} out of range for a {len(matrix)}-row matrix")
    row = matrix[k - 1]
    if len(row) != k:
        raise ValueError(f"row {k} has {len(row)} entries, expected {k}")
    avg_acc = sum(row[:k]) / k
    if k == 1:
        return avg_acc, None
    bwt = [row[i] - matrix[i][i] for i in range(k - 1)]
    return avg_acc, sum(bwt) / (k - 1)


def _atomic_write_rows(path: str, header: list[str], rows: list[list]) -> None:
    # Write-temp-then-rename so consumers never observe a partial CSV.
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def format_pct(v: float) -> str:
    return f"{v:.6f}"


def write_metrics_csv(path: str, matrix: AccuracyMatrix) -> None:
    """Per-(after_task, task) accuracies, 1-indexed tasks."""
    rows = []
    for k, row in enumerate(matrix, start=1):
        for i, acc in enumerate(row, start=1):
            rows.append([k, i, format_pct(acc)])
    _atomic_write_rows(path, ["after_task", "task", "accuracy"], rows)


def write_summary_csv(path: str, matrix: AccuracyMatrix) -> None:
    """Cumulative ACC/BWT per k; the BWT cell is empty at k=1."""
    rows = []
    for k in range(1, len(matrix) + 1):
        acc, bwt = compute_acc_bwt(matrix, k)
        rows.append([k, format_pct(acc), "" if bwt is None else format_pct(bwt)])
    _atomic_write_rows(path, ["k", "avg_acc", "avg_bwt"], rows)


def read_summary_csv(path: str) -> list[tuple[int, float, float | None]]:
    out = []
    with open(path, newline="") as f:
        for row in list(csv.reader(f))[1:]:
            out.append(
                (int(row[0]), float(row[1]), None if row[2] == "" else float(row[2]))
            )
    return out
