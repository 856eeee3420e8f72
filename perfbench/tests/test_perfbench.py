"""The benchmark's own arithmetic: percentiles, self time, merge ratio, wrappers.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from hlop.harness import loop  # noqa: E402
from hlop.training import GradPacket, LayerGrad  # noqa: E402


def test_percentile_reports_value_count_and_tail():
    xs = [float(v) for v in range(10, 0, -1)]
    p50 = stats.percentile(xs, 50)
    p90 = stats.percentile(xs, 90)
    assert p50 == (5.5, 10, 5)
    assert p90.value == pytest.approx(9.1)
    assert (p90.count, p90.beyond) == (10, 1)
    assert p90.value == pytest.approx(np.percentile(xs, 90))
    assert stats.percentile([7.0], 90) == (7.0, 1, 0)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_quartile_spread_is_iqr_over_median():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_self_time_nested_and_back_to_back():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 3.0, 0],  # back to back with c
        ["c", 3.0, 6.0, 0],
        ["d", 4.0, 5.0, 2],  # nested in c, so not subtracted from a twice
        ["e", 12.0, 13.0, -1],
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])
    assert tracing.span_totals(spans) == pytest.approx({"a": 10, "b": 2, "c": 3, "d": 1, "e": 1})


def test_tracer_records_parents():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(s[0], s[3]) for s in tr.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[1] <= s[2] for s in tr.spans)
    (outer_self,) = [t for s, t in zip(tr.spans, tracing.self_times(tr.spans)) if s[0] == "outer"]
    assert 0.0 <= outer_self <= tr.spans[0][2] - tr.spans[0][1]


def _step_packet(rows: int) -> GradPacket:
    layers = [LayerGrad(delta=np.zeros((rows, 2)), trace=np.zeros((rows, 3))) for _ in range(2)]
    return GradPacket(layers=layers, batch=rows)


def test_merge_useful_ratio_on_a_hand_built_t3_packet(monkeypatch):
    def three_step_trainer(net, x, y1h, epcfg, project, head):
        packet = None
        for _ in range(3):  # the accumulation ottt_backward does
            step = _step_packet(x.shape[0])
            packet = step if packet is None else packet.merge(step)
        return packet, [], None

    monkeypatch.setitem(loop._TRAINERS, "ottt", three_step_trainer)
    tr = tracing.Tracer()
    with tracing.installed(tr, tracing.trace_sites()):
        packet, _, _ = loop._TRAINERS["ottt"](None, np.zeros((4, 3)), None, None, None, 0)
    assert [lg.trace.shape[0] for lg in packet.layers] == [12, 12]
    # merges copy (4 + 4) then (8 + 4) rows per layer, over two layers
    assert tr.counts["training.merge_rows"] == 40
    assert tr.counts["training.packet_rows"] == 24
    assert tracing.merge_useful_ratio(tr.counts) == 0.6
    assert [s[0] for s in tr.spans].count("training.merge") == 2


def _site_values():
    return [
        (owner[attr] if isinstance(owner, dict) else vars(owner)[attr])
        for owner, attr, _, _ in tracing.trace_sites()
    ]


def test_wrappers_restore_the_original_attributes():
    before = _site_values()
    tr = tracing.Tracer()
    with tracing.installed(tr, tracing.trace_sites()) as missing:
        during = _site_values()
        assert missing == []
        assert all(d is not b and d.__wrapped__ is b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(_site_values(), before))


def test_wrappers_restore_after_an_exception():
    before = _site_values()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), tracing.trace_sites()):
            raise RuntimeError("boom")
    assert all(a is b for a, b in zip(_site_values(), before))


def test_missing_site_is_reported_not_fatal():
    owner = types.SimpleNamespace(present=lambda: 1)
    sites = [(owner, "absent", "x", None), (owner, "present", "p", None)]
    with tracing.installed(tracing.Tracer(), sites) as missing:
        assert missing == ["SimpleNamespace.absent"]
        assert owner.present() == 1
    assert not hasattr(owner, "absent")


def test_batch_latency_ends_at_next_trainer_entry_or_evaluation():
    record = {
        "spans": [
            [tracing.TRAINER, 1.0, 1.5, -1],
            [tracing.TRAINER, 2.0, 2.5, -1],
            [tracing.EVAL, 3.0, 4.0, -1],
            [tracing.TRAINER, 5.0, 5.5, -1],
            [tracing.EVAL, 6.5, 7.0, -1],
        ],
        "counts": {"training.samples": 30, "harness.eval_samples": 15},
        "end": 8.0,
        "rss_kb": 2048,
    }
    t = run.run_timings(record, spawned=0.25)
    assert t["gaps_ms"] == pytest.approx([1000.0, 1000.0, 1500.0])
    assert t["setup_s"] == 0.75
    assert t["run_s"] == 7.0
    assert t["train_samples_per_s"] == pytest.approx(30 / (7.0 - 1.5))
    assert t["eval_samples_per_s"] == pytest.approx(10.0)
    assert t["peak_rss_mb"] == 2.0


def test_seed_one_reproduces_the_shipped_config(tmp_path, monkeypatch):
    from hlop.config import load_config

    monkeypatch.setattr(run, "WORK", str(tmp_path))
    inv = run.Invocation(seed=1)
    os.makedirs(inv.dir)
    path, out_dir, n_tasks = inv.write_config("pmnist-linear")
    cfg = load_config(path)
    shipped = load_config(os.path.join(run.ROOT, "configs", "pmnist_hlop.cfg"))
    assert (inv.master_seed, inv.corpus_seed) == (2022, 1)
    assert (cfg.seed, cfg.output_dir, cfg.data_dir, n_tasks) == (2022, out_dir, inv.data, 5)
    assert {**vars(cfg), "output_dir": "", "data_dir": ""} == {
        **vars(shipped),
        "output_dir": "",
        "data_dir": "",
    }


def test_counts_that_do_not_repeat_are_flagged(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    same = {"lateral.hebbian_rows": 10, "harness.checkpoint_bytes": 99}
    inv = run.Invocation(seed=3)
    assert "exactly" in run.check_counts(inv, "pmnist-off", [same, dict(same)])[0]
    assert inv.problems == []
    # a later invocation of the same code and seed compares against the stored record
    later = run.Invocation(seed=3)
    lines = run.check_counts(later, "pmnist-off", [{**same, "lateral.hebbian_rows": 11}])
    assert "lateral.hebbian_rows" in lines[0] and "DID NOT REPEAT" in lines[0]
    assert later.problems and later.failed == 0


def test_benchmark_json_lists_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
