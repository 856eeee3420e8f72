import os
import struct

import numpy as np
import pytest

from hlop.config import ConfigError, config_from_dict
from hlop.harness.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from hlop.harness.data import (
    IdxCountMismatchError,
    IdxHeaderError,
    IdxMagicError,
    IdxTruncatedError,
    load_idx_labels,
    load_mnist_idx,
    make_pmnist_tasks,
    make_split_tasks,
    synth_digit_pools,
    write_idx_images,
    write_idx_labels,
)
from hlop.harness.loop import run_continual
from hlop.harness.metrics import (
    compute_acc_bwt,
    read_summary_csv,
    write_metrics_csv,
    write_summary_csv,
)
from hlop.lateral import LateralSubspace, QuantConfig


def _small_cfg(**kw):
    base = dict(
        seed=99,
        n_tasks=2,
        train_per_task=300,
        test_per_task=200,
        checkpoint_every_task=False,
        audit_samples=0,
    )
    base.update(kw)
    return config_from_dict(base)


class TestIdxFormat:
    def test_roundtrip(self, tmp_path):
        images = (np.arange(2 * 4 * 3) % 256).astype(np.uint8).reshape(2, 4, 3)
        labels = np.array([3, 7], dtype=np.uint8)
        ip, lp = str(tmp_path / "imgs"), str(tmp_path / "lbls")
        write_idx_images(ip, images)
        write_idx_labels(lp, labels)
        ds = load_mnist_idx(ip, lp)
        assert len(ds) == 2 and ds.image_hw == (4, 3)
        assert np.allclose(ds.images * 255.0, images.reshape(2, -1))
        assert np.array_equal(ds.labels, [3, 7])

    def test_all_zero_image(self, tmp_path):
        ip, lp = str(tmp_path / "imgs"), str(tmp_path / "lbls")
        write_idx_images(ip, np.zeros((1, 5, 5), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(1, dtype=np.uint8))
        ds = load_mnist_idx(ip, lp)
        assert not ds.images.any()

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad"
        p.write_bytes(struct.pack(">iiii", 0x00000801, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IdxMagicError):
            load_mnist_idx(str(p), str(p))

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short"
        p.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(IdxTruncatedError):
            load_mnist_idx(str(p), str(p))

    def test_negative_header_dims(self, tmp_path):
        p = tmp_path / "neg"
        p.write_bytes(struct.pack(">iiii", 0x00000803, -1, -28, 28) + b"\x00" * 784)
        with pytest.raises(IdxHeaderError, match="count -1, rows -28"):
            load_mnist_idx(str(p), str(p))
        p.write_bytes(struct.pack(">ii", 0x00000801, -1) + b"\x00" * 4)
        with pytest.raises(IdxHeaderError, match="count -1"):
            load_idx_labels(str(p))

    def test_oversized_count_refused_before_read(self, tmp_path):
        # A count of 2^31 - 1 images would ask for 1.7 TB; the loader must
        # compare it with the bytes left instead of reading.
        p = tmp_path / "huge"
        p.write_bytes(struct.pack(">iiii", 0x00000803, 2**31 - 1, 28, 28) + b"\x00" * 784)
        with pytest.raises(IdxTruncatedError, match="784 left"):
            load_mnist_idx(str(p), str(p))

    def test_count_mismatch(self, tmp_path):
        ip, lp = str(tmp_path / "imgs"), str(tmp_path / "lbls")
        write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxCountMismatchError):
            load_mnist_idx(ip, lp)

    def test_error_codes_distinct(self):
        codes = {IdxMagicError.code, IdxTruncatedError.code, IdxCountMismatchError.code,
                 IdxHeaderError.code}
        assert len(codes) == 4


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = synth_digit_pools(50, 20, seed=5)
        b = synth_digit_pools(50, 20, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_all_classes_present(self):
        _, labels, _, _ = synth_digit_pools(500, 10, seed=2)
        assert set(np.unique(labels)) == set(range(10))


class TestTaskSequences:
    def test_single_task_is_identity_permutation(self, data_pools):
        seq = make_pmnist_tasks(*data_pools, n_tasks=1, seed=3,
                                train_per_task=100, test_per_task=50)
        assert np.array_equal(seq.tasks[0].permutation, np.arange(784))

    def test_permutations_reproducible_and_bijective(self, data_pools):
        a = make_pmnist_tasks(*data_pools, n_tasks=3, seed=4,
                              train_per_task=100, test_per_task=50)
        b = make_pmnist_tasks(*data_pools, n_tasks=3, seed=4,
                              train_per_task=100, test_per_task=50)
        for ta, tb in zip(a.tasks, b.tasks):
            assert np.array_equal(ta.permutation, tb.permutation)
            assert np.array_equal(np.sort(ta.permutation), np.arange(784))
        c = make_pmnist_tasks(*data_pools, n_tasks=3, seed=5,
                              train_per_task=100, test_per_task=50)
        assert not np.array_equal(a.tasks[1].permutation, c.tasks[1].permutation)

    def test_permutation_applied_to_pixels(self, data_pools):
        seq = make_pmnist_tasks(*data_pools, n_tasks=2, seed=6,
                                train_per_task=100, test_per_task=50)
        t1 = seq.tasks[1]
        # Undoing the permutation must recover rows from the train pool.
        undone = np.empty_like(t1.train_x)
        undone[:, t1.permutation] = t1.train_x
        pool = data_pools[0].images
        assert all(np.isin(undone[i], pool).all() for i in range(3))

    def test_disjoint_train_subsets(self, data_pools):
        seq = make_pmnist_tasks(*data_pools, n_tasks=4, seed=7,
                                train_per_task=200, test_per_task=50)
        label_sets = [t.train_y for t in seq.tasks]
        # different tasks draw different pool rows (overwhelmingly likely to
        # differ in labels too if truly disjoint slices of a shuffled pool)
        assert not np.array_equal(label_sets[0], label_sets[1])

    def test_split_tasks_classes_and_remap(self, data_pools):
        seq = make_split_tasks(*data_pools, seed=8, train_per_task=100,
                               test_per_task=60, n_tasks=5)
        assert seq.head_mode == "multi" and seq.n_classes == 2
        assert [t.classes for t in seq.tasks] == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]
        for t in seq.tasks:
            assert set(np.unique(t.train_y)) <= {0, 1}


class TestMetrics:
    def test_hand_matrix(self):
        acc, bwt = compute_acc_bwt([[90.0], [85.0, 92.0]], 2)
        assert acc == 88.5 and bwt == -5.0

    def test_no_forgetting_zero_bwt(self):
        m = [[80.0], [80.0, 70.0], [80.0, 70.0, 60.0]]
        _, bwt = compute_acc_bwt(m, 3)
        assert bwt == 0.0

    def test_k1_bwt_absent(self):
        acc, bwt = compute_acc_bwt([[75.0]], 1)
        assert acc == 75.0 and bwt is None

    def test_csv_roundtrip_and_atomicity(self, tmp_path):
        m = [[90.0], [85.0, 92.0]]
        mp = str(tmp_path / "metrics.csv")
        sp = str(tmp_path / "summary.csv")
        write_metrics_csv(mp, m)
        write_summary_csv(sp, m)
        rows = read_summary_csv(sp)
        assert rows[0] == (1, 90.0, None)
        assert rows[1] == (2, 88.5, -5.0)
        assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
        with open(mp) as f:
            assert f.readline().strip() == "after_task,task,accuracy"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        sub = LateralSubspace(
            n=4,
            H=rng.normal(size=(2, 4)),
            H_new=rng.normal(size=(1, 4)),
            velocity=rng.normal(size=(1, 4)),
            mode="spiking",
            quant=QuantConfig(scale=20.0, T_l=40),
        )
        gen_state = np.random.Generator(np.random.PCG64(7)).bit_generator.state
        ckpt = Checkpoint(
            master_seed=2022,
            task_cursor=3,
            layers=[("block0", rng.normal(size=(3, 5)), rng.normal(size=3))],
            subspaces={0: sub},
            rng_states={"run": gen_state},
            acc_matrix=[[90.0], [85.0, 92.0]],
        )
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.master_seed == 2022 and back.task_cursor == 3
        name, w, b = back.layers[0]
        assert name == "block0"
        assert np.array_equal(w, ckpt.layers[0][1])
        assert np.array_equal(b, ckpt.layers[0][2])
        bs = back.subspaces[0]
        assert np.array_equal(bs.H, sub.H) and np.array_equal(bs.H_new, sub.H_new)
        assert np.array_equal(bs.velocity, sub.velocity)
        assert bs.mode == "spiking" and bs.quant.T_l == 40
        assert back.rng_states["run"]["state"] == gen_state["state"]
        assert back.acc_matrix == [[90.0], [85.0, 92.0]]

    def test_rng_state_restores_stream(self, tmp_path):
        gen = np.random.Generator(np.random.PCG64(123))
        gen.integers(0, 100, size=10)  # advance
        state = gen.bit_generator.state
        ckpt = Checkpoint(master_seed=1, task_cursor=0, layers=[],
                          rng_states={"g": state})
        path = str(tmp_path / "r.ckpt")
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        g2 = np.random.Generator(np.random.PCG64())
        g2.bit_generator.state = back.rng_states["g"]
        assert np.array_equal(gen.integers(0, 2**63, 16), g2.integers(0, 2**63, 16))

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_rejects_truncated(self, tmp_path):
        ckpt = Checkpoint(master_seed=1, task_cursor=0,
                          layers=[("a", np.zeros((2, 2)), np.zeros(2))])
        path = str(tmp_path / "t.ckpt")
        save_checkpoint(path, ckpt)
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    # Byte offsets below follow the v1 layout: magic 8, version 4,
    # seed + cursor 12, then the layer count (4) and the first layer name
    # (u16 length at 28, bytes from 30), or, with no layers, the subspace
    # count (4) and the first subspace's index (u32 at 32) and width (at 36).

    def _corrupt(self, tmp_path, ckpt, offset, patch):
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, ckpt)
        data = bytearray(open(path, "rb").read())
        data[offset : offset + len(patch)] = patch
        open(path, "wb").write(bytes(data))
        return path

    def test_rejects_corrupted_subspace_width(self, tmp_path):
        sub = LateralSubspace(n=4, H=np.eye(4)[:2])
        ckpt = Checkpoint(master_seed=1, task_cursor=0, layers=[], subspaces={0: sub})
        path = self._corrupt(tmp_path, ckpt, 36, struct.pack("<I", 5))
        with pytest.raises(CheckpointError, match="width 4 != presynaptic width 5"):
            load_checkpoint(path)

    def test_rejects_non_utf8_layer_name(self, tmp_path):
        ckpt = Checkpoint(master_seed=1, task_cursor=0,
                          layers=[("ab", np.zeros((2, 2)), np.zeros(2))])
        path = self._corrupt(tmp_path, ckpt, 30, b"\xff\xfe")
        with pytest.raises(CheckpointError, match="UTF-8"):
            load_checkpoint(path)

    def test_rejects_oversized_length_field(self, tmp_path):
        # A weight row count of 2^32 - 1 claims about 64 GiB; the reader
        # must report truncation without trying to read that much.
        ckpt = Checkpoint(master_seed=1, task_cursor=0,
                          layers=[("ab", np.zeros((2, 2)), np.zeros(2))])
        path = self._corrupt(tmp_path, ckpt, 32, struct.pack("<I", 2**32 - 1))
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


class TestRunContinual:
    def test_deterministic_matrix(self, data_pools):
        cfg = _small_cfg(hlop="linear")
        a = run_continual(cfg, data=data_pools)
        b = run_continual(cfg, data=data_pools)
        assert a.matrix == b.matrix

    def test_single_task_plain_training(self, data_pools):
        cfg = _small_cfg(n_tasks=1)
        res = run_continual(cfg, data=data_pools)
        assert len(res.matrix) == 1 and len(res.matrix[0]) == 1
        assert res.matrix[0][0] > 30.0  # learned something in one epoch

    def test_resume_reproduces_run_exactly(self, data_pools, tmp_path):
        cfg = _small_cfg(hlop="linear", n_tasks=3, train_per_task=256)
        full = run_continual(cfg, data=data_pools, checkpoint_dir=str(tmp_path))
        resumed = run_continual(
            cfg, data=data_pools, resume_path=str(tmp_path / "task1.ckpt")
        )
        assert full.matrix == resumed.matrix
        for a, b in zip(full.net.trainable_layers(0), resumed.net.trainable_layers(0)):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)
        for i in full.subspaces:
            assert np.array_equal(full.subspaces[i].H, resumed.subspaces[i].H)

    def test_resume_rejects_seed_mismatch(self, data_pools, tmp_path):
        cfg = _small_cfg(hlop="linear", n_tasks=2)
        run_continual(cfg, data=data_pools, checkpoint_dir=str(tmp_path))
        other = _small_cfg(hlop="linear", n_tasks=2, seed=100)
        with pytest.raises(ValueError, match="seed"):
            run_continual(other, data=data_pools, resume_path=str(tmp_path / "task1.ckpt"))

    def test_projection_contract_during_training(self, data_pools):
        # After task 1 consolidation, later weight updates leave responses to
        # protected directions nearly unchanged (audit ratio bound).
        cfg = _small_cfg(hlop="linear", n_tasks=3, train_per_task=500,
                         audit_samples=100)
        res = run_continual(cfg, data=data_pools)
        assert res.audit is not None
        assert max(res.audit.values()) < 5e-2

    def test_split_conv_path(self, data_pools):
        cfg = config_from_dict(dict(
            seed=99, task="split_mnist", head_mode="multi", hlop="linear",
            n_tasks=2, train_per_task=400, test_per_task=150,
            checkpoint_every_task=False, audit_samples=40,
        ))
        res = run_continual(cfg, data=data_pools)
        assert len(res.matrix) == 2
        assert res.matrix[-1][0] > 60.0  # task 1 held up
        assert max(res.audit.values()) < 5e-2
        # conv layer hosts a patch-space circuit
        assert res.subspaces[0].n == cfg.conv_kernel ** 2

    def test_hlop_off_no_subspaces(self, data_pools):
        res = run_continual(_small_cfg(), data=data_pools)
        assert res.subspaces == {} and res.audit is None


class TestConfigValidation:
    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict({"bogus": 1})

    def test_enum_violation(self):
        with pytest.raises(ConfigError, match="trainer"):
            config_from_dict({"trainer": "sgd"})

    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigError, match="subspace_schedule"):
            config_from_dict({"hlop": "linear", "subspace_schedule": [[10, 2]]})

    def test_schedule_cannot_exceed_width(self):
        with pytest.raises(ConfigError, match="exceed"):
            config_from_dict({
                "hlop": "linear", "n_tasks": 5,
                "subspace_schedule": [[80, 70], [150, 30], [25, 18]],
            })

    def test_head_mode_consistency(self):
        with pytest.raises(ConfigError, match="head_mode"):
            config_from_dict({"task": "pmnist", "head_mode": "multi"})
        with pytest.raises(ConfigError, match="head_mode"):
            config_from_dict({"task": "split_mnist", "head_mode": "single"})

    def test_type_mismatches_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"T": "six", "lr": "fast"})
        msg = str(exc.value)
        assert "T" in msg and "lr" in msg
