"""Spans and work counts around hlop's public functions, installed from outside.

The callers inside hlop bind names at import time, so each wrapper replaces
the name where its caller looks it up: a module global, an entry of the
trainer table or a class attribute. Every wrapped call records one span
(name, start, end, parent) and, after it returns, the work counts implied by
its argument shapes. ``installed`` restores every original attribute on exit.

The untraced child installs ``timing_sites`` only: a span per trainer entry
and per ``evaluate_task`` call. The traced child installs ``trace_sites``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from statistics import median

TRAINER = "training.trainer"
EVAL = "harness.eval"


def now() -> float:
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span list plus named counters for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name, fn, count=None):
        """Wrap ``fn``: one span named ``name`` (None: no span; callable:
        computed from the arguments), then ``count(tracer, result, *args)``."""

        def traced(*args, **kwargs):
            if name is None:
                out = fn(*args, **kwargs)
            else:
                label = name(*args, **kwargs) if callable(name) else name
                idx = len(self.spans)
                self.spans.append([label, now(), None, self._stack[-1] if self._stack else -1])
                self._stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._stack.pop()
                    self.spans[idx][2] = now()
            if count is not None:
                count(self, out, *args, **kwargs)
            return out

        traced.__wrapped__ = fn
        return traced


@contextmanager
def installed(tracer: Tracer, sites):
    """Install wrappers for ``sites`` (owner, attribute, span name, count);
    yield the attributes that were missing; restore every original on exit.

    An owner is a module, a class or a dict (the trainer table).
    """
    saved = []
    missing = []
    try:
        for owner, attr, name, count in sites:
            table = owner if isinstance(owner, dict) else vars(owner)
            if attr not in table:
                missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
                continue
            orig = table[attr]
            wrapped = tracer.wrap(name, orig, count)
            if isinstance(owner, dict):
                owner[attr] = wrapped
            else:
                setattr(owner, attr, wrapped)
            saved.append((owner, attr, orig))
        yield missing
    finally:
        for owner, attr, orig in reversed(saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


# ---------------------------------------------------------------------------
# work counts, computed from argument shapes (matmul flop = 2 m n k)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) > 1 else 1


def _count_trainer(tr, out, net, x, *args, **kwargs):
    packet = out[0]
    tr.add("training.samples", x.shape[0])
    tr.add("training.packet_rows", sum(lg.trace.shape[0] for lg in packet.layers))


def _count_eval(tr, out, cfg, net, task, *args, **kwargs):
    tr.add("harness.eval_samples", task.test_x.shape[0])


def _count_step(tr, out, *args, **kwargs):
    tr.add("training.step_calls", 1)


def _count_merge(tr, out, a, b):
    tr.add("training.merge_rows", sum(x.trace.shape[0] + y.trace.shape[0] for x, y in zip(a.layers, b.layers)))


def _count_lif(tr, out, state, current, cfg):
    tr.add("spiking.lif_calls", 1)
    tr.add("spiking.lif_elems", current.size)


def _count_hebbian(tr, out, sub, x):
    tr.add("lateral.hebbian_calls", 1)
    if sub.k_new == 0:
        return
    r = _rows(x)
    # K repeats of: x H^T, y H (consolidated bank, when k > 0), x H_new^T,
    # y_new H_new, y_new^T x and y_new^T x_tilde.
    tr.add("lateral.hebbian_rows", r)
    tr.add("lateral.hebbian_flop", sub.K * 2 * r * sub.n * (2 * sub.k + 4 * sub.k_new))


def _count_project(tr, out, sub, x):
    if sub.k == 0:
        return
    r = _rows(x)
    tr.add("lateral.project_rows", r)
    tr.add("lateral.project_flop", 4 * r * sub.n * sub.k)  # x H^T, then y H


def _count_checkpoint(tr, out, path, ckpt):
    tr.add("harness.checkpoint_bytes", os.path.getsize(path))


def _train_span(cfg, net, epcfg, subspaces, task, task_idx, *args, **kwargs):
    return f"harness.train.task{task_idx + 1}"


def timing_sites():
    """The two hooks of an untraced run: trainer entries and evaluations."""
    from hlop.harness import loop

    return [(loop._TRAINERS, key, TRAINER, _count_trainer) for key in loop._TRAINERS] + [
        (loop, "evaluate_task", EVAL, _count_eval)
    ]


def trace_sites():
    """Every wrapped call site of the traced run, with its span and counts."""
    from hlop import lateral, training
    from hlop.harness import loop

    return timing_sites() + [
        (loop, "predict", "training.predict", None),
        (loop, "sgd_update", "training.sgd", None),
        (loop, "save_checkpoint", "harness.checkpoint", _count_checkpoint),
        (loop, "load_data_dir", "harness.load", None),
        (loop, "make_task_sequence", "harness.tasks", None),
        (loop, "collect_feeds", "harness.audit", None),
        (loop, "interference_audit", "harness.audit", None),
        (loop, "rowspace_projector", "linalg.projector", None),
        (loop, "_train_one_task", _train_span, None),
        (training, "ottt_step", None, _count_step),
        (training, "lif_step", "spiking.lif", _count_lif),
        (training, "surrogate_derivative", "spiking.surrogate", None),
        (training, "backprop_error", "training.backprop", None),
        (training, "unfold_patches", "spiking.unfold", None),
        (training, "avg_pool", "spiking.pool", None),
        (training, "avg_pool_backward", "spiking.pool_backward", None),
        (training, "spiking_rate_readout", "training.readout", None),
        (training.GradPacket, "merge", "training.merge", _count_merge),
        (lateral.LateralSubspace, "hebbian_update", "lateral.hebbian", _count_hebbian),
        (lateral.LateralSubspace, "project_trace", "lateral.project", _count_project),
        (lateral, "quantize_subspace_output", "lateral.quantize", None),
    ]


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def span_totals(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for name, start, end, _ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
    return totals


def merge_useful_ratio(counts: dict[str, int]) -> float:
    """Rows of the packets the trainer returns over rows ``merge`` copied."""
    copied = counts.get("training.merge_rows", 0)
    return counts.get("training.packet_rows", 0) / copied if copied else 0.0


# per-layer metric name -> unit; every one is derived in layer_metrics
LAYER_METRICS = {
    "lateral.hebbian_s": "s",
    "lateral.hebbian_calls": "count",
    "lateral.hebbian_rows": "count",
    "lateral.hebbian_flop": "flop",
    "lateral.project_s": "s",
    "lateral.project_rows": "count",
    "lateral.project_flop": "flop",
    "lateral.quantize_s": "s",
    "training.trainer_s": "s",
    "training.trainer_self_s": "s",
    "training.step_calls": "count",
    "training.merge_s": "s",
    "training.merge_rows": "count",
    "training.merge_useful_ratio": "ratio",
    "training.sgd_s": "s",
    "training.backprop_s": "s",
    "training.predict_s": "s",
    "training.readout_s": "s",
    "spiking.lif_s": "s",
    "spiking.lif_calls": "count",
    "spiking.lif_elems": "count",
    "spiking.surrogate_s": "s",
    "spiking.unfold_s": "s",
    "spiking.pool_s": "s",
    "spiking.pool_backward_s": "s",
    "harness.load_s": "s",
    "harness.tasks_s": "s",
    "harness.eval_s": "s",
    "harness.train_s.task1": "s",
    "harness.train_s.task5": "s",
    "harness.checkpoint_s": "s",
    "harness.checkpoint_bytes": "bytes",
    "harness.audit_s": "s",
    "linalg.projector_s": "s",
}

# counts that must repeat exactly between runs of one workload and seed
REPEATED_COUNTS = (
    "training.samples",
    "training.packet_rows",
    "training.step_calls",
    "training.merge_rows",
    "harness.eval_samples",
    "harness.checkpoint_bytes",
    "spiking.lif_calls",
    "spiking.lif_elems",
    "lateral.hebbian_calls",
    "lateral.hebbian_rows",
    "lateral.hebbian_flop",
    "lateral.project_rows",
    "lateral.project_flop",
)


def layer_metrics(records) -> dict[str, float]:
    """Per-layer metrics of traced runs: median seconds, counts of the first."""
    per_run = []
    for rec in records:
        spans = rec["spans"]
        totals = span_totals(spans)
        trainer_self = sum(
            t for (name, *_), t in zip(spans, self_times(spans)) if name == TRAINER
        )
        values = {}
        for metric, unit in LAYER_METRICS.items():
            if metric == "training.trainer_self_s":
                values[metric] = trainer_self
            elif metric == "training.merge_useful_ratio":
                values[metric] = merge_useful_ratio(rec["counts"])
            elif metric.startswith("harness.train_s."):
                values[metric] = totals.get("harness.train." + metric.rsplit(".", 1)[1], 0.0)
            elif unit == "s":
                values[metric] = totals.get(metric[: -len("_s")], 0.0)
            else:
                values[metric] = rec["counts"].get(metric, 0)
        per_run.append(values)
    return {
        m: (median(v[m] for v in per_run) if LAYER_METRICS[m] == "s" else per_run[0][m])
        for m in LAYER_METRICS
    }
