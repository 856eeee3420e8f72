"""The benchmark's traced run still finds every site it wraps in hlop.

``perfbench/tracing.py`` wraps hlop functions and methods by name and reads
circuit fields (``sub.K``, ``sub.n``, ``sub.k``) in its work counts. A renamed
function or a removed field would otherwise only show when the traced
benchmark runs; these tests run short continual sequences, dense and conv,
under the same wrappers.
"""

import os
import sys

import numpy as np

from hlop.config import config_from_dict
from hlop.harness import loop
from hlop.harness.loop import run_continual

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import tracing  # noqa: E402


def _traced_run(cfg_kw, data_pools, tmp_path):
    """A continual run under every traced site; returns the sites, the names of
    the count hooks that ran, the tracer, the missing sites and the result."""
    sites = tracing.trace_sites()
    ran = set()

    def recorded(count):
        def hook(*args, **kwargs):
            ran.add(count.__name__)
            return count(*args, **kwargs)

        return hook

    tr = tracing.Tracer()
    watched = [(owner, attr, name, count and recorded(count)) for owner, attr, name, count in sites]
    with tracing.installed(tr, watched) as missing:
        res = run_continual(config_from_dict(cfg_kw), data=data_pools, checkpoint_dir=str(tmp_path))
    return sites, ran, tr, missing, res


def test_two_task_linear_run_hits_every_traced_site(data_pools, tmp_path):
    sites, ran, tr, missing, res = _traced_run(dict(
        seed=99, hlop="linear", n_tasks=2, train_per_task=128, test_per_task=64,
    ), data_pools, tmp_path)
    assert missing == []
    # No trainer merges packets any more, so the merge hook alone stays idle.
    assert ran == {count.__name__ for *_, count in sites if count is not None} - {"_count_merge"}
    assert tr.counts["lateral.hebbian_flop"] > 0
    assert tr.counts["lateral.project_flop"] > 0
    assert len(res.matrix) == 2 and np.all(np.isfinite(res.matrix[-1]))


def test_two_task_split_run_records_the_conv_spans(data_pools, tmp_path):
    # The conv path must call unfolding and pooling through the names the
    # tracer wraps in hlop.training.
    _, _, tr, missing, res = _traced_run(dict(
        seed=99, task="split_mnist", hlop="linear", n_tasks=2, train_per_task=128,
        test_per_task=64,
    ), data_pools, tmp_path)
    assert missing == []
    spans = {name for name, *_ in tr.spans}
    assert {"spiking.unfold", "spiking.pool", "spiking.pool_backward"} <= spans
    assert len(res.matrix) == 2 and np.all(np.isfinite(res.matrix[-1]))


def test_two_task_spiking_run_with_the_worker_on(data_pools, tmp_path, monkeypatch):
    # The repeats run on the worker thread, so the benchmark's traced
    # quantize_subspace_output is entered from there; the count hooks keep
    # their fixed signatures on the training thread.
    monkeypatch.setattr(loop, "_spare_cpu", lambda: True)
    _, ran, tr, missing, res = _traced_run(dict(
        seed=99, hlop="spiking", n_tasks=2, train_per_task=128, test_per_task=64,
    ), data_pools, tmp_path)
    assert missing == []
    assert {"_count_hebbian", "_count_project"} <= ran
    assert "lateral.quantize" in {name for name, *_ in tr.spans}
    assert len(res.matrix) == 2 and np.all(np.isfinite(res.matrix[-1]))


def test_eval_spans_stay_one_per_task_and_never_overlap(data_pools, monkeypatch):
    # The benchmark's eval_s adds up the harness.eval spans, and its
    # train_samples_per_s divides by run_s less eval_s: with the worker
    # scoring half the batches, each task's evaluation must still be one
    # evaluate_task call, so one span, and no two spans may overlap.
    monkeypatch.setattr(loop, "_spare_cpu", lambda: True)
    tr = tracing.Tracer()
    with tracing.installed(tr, tracing.timing_sites()) as missing:
        res = run_continual(config_from_dict(dict(
            seed=99, hlop="linear", n_tasks=2, train_per_task=128, test_per_task=300,
        )), data=data_pools)
    assert missing == []
    evals = sorted((start, end) for name, start, end, _ in tr.spans if name == tracing.EVAL)
    assert len(evals) == 1 + 2
    assert all(end <= start for (_, end), (start, _) in zip(evals, evals[1:]))
    assert tr.counts["harness.eval_samples"] == 3 * 300
    assert len(res.matrix) == 2
