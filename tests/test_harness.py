import io
import os
import struct
import tracemalloc
import zipfile
from dataclasses import fields

import numpy as np
import pytest

from hlop.config import ConfigError, ExperimentConfig, config_from_dict
from hlop.harness.checkpoint import Checkpoint, CheckpointError, load_checkpoint, save_checkpoint
from hlop.harness import loop
from hlop.harness.data import (
    DatasetError,
    IdxCountMismatchError,
    IdxHeaderError,
    IdxMagicError,
    IdxTrailingBytesError,
    IdxTruncatedError,
    PoolTooSmallError,
    Task,
    load_idx_images,
    load_idx_labels,
    load_mnist_idx,
    make_pmnist_tasks,
    make_split_tasks,
    synth_digit_pools,
    write_idx_images,
    write_idx_labels,
)
from hlop.harness.loop import ScheduleError, _train_one_task, run_continual
from hlop.harness.metrics import (
    compute_acc_bwt,
    read_summary_csv,
    write_metrics_csv,
    write_summary_csv,
)
from hlop.lateral import LateralSubspace
from hlop.linalg import make_rng
from hlop.spiking import Layer, NeuronConfig
from hlop.training import (
    ErrorPropConfig,
    SpikingNet,
    build_conv_net,
    build_mlp,
    bptt_sg_backward,
    ottt_backward,
)

import reference


def _small_cfg(**kw):
    base = dict(
        seed=99,
        n_tasks=2,
        train_per_task=300,
        test_per_task=200,
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
        assert ds.images.dtype == np.uint8 and np.array_equal(ds.images, images.reshape(2, -1))
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

    @pytest.mark.parametrize("extra", [1, 784])
    def test_bytes_after_the_payload_refused(self, tmp_path, extra):
        # A count lowered from 2 to 1 used to load one image and drop the other.
        p = tmp_path / "long"
        p.write_bytes(struct.pack(">iiii", 0x00000803, 1, 28, 28) + b"\x00" * (784 + extra))
        with pytest.raises(IdxTrailingBytesError,
                           match=f"{extra} bytes after the 784-byte payload its header sizes"):
            load_idx_images(str(p))
        p.write_bytes(struct.pack(">ii", 0x00000801, 3) + b"\x01" * (3 + extra))
        with pytest.raises(IdxTrailingBytesError, match=f"{extra} bytes after the 3-byte"):
            load_idx_labels(str(p))

    def test_count_mismatch(self, tmp_path):
        ip, lp = str(tmp_path / "imgs"), str(tmp_path / "lbls")
        write_idx_images(ip, np.zeros((2, 2, 2), dtype=np.uint8))
        write_idx_labels(lp, np.zeros(3, dtype=np.uint8))
        with pytest.raises(IdxCountMismatchError):
            load_mnist_idx(ip, lp)


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

    @pytest.mark.parametrize(
        "plan, match",
        [((3, 5000, 50), "need 15000 train samples"), ((2, 100, 5000), "test_per_task 5000")],
    )
    def test_pool_too_small_is_a_dataset_error(self, data_pools, plan, match):
        n_tasks, train_per_task, test_per_task = plan
        with pytest.raises(PoolTooSmallError, match=match) as info:
            make_pmnist_tasks(*data_pools, n_tasks=n_tasks, seed=3,
                              train_per_task=train_per_task, test_per_task=test_per_task)
        assert isinstance(info.value, DatasetError)

    @pytest.mark.parametrize(
        "plan, match",
        [((5000, 60), "need 5000 train and 60 test"),
         ((100, 2000), "need 100 train and 2000 test")],
    )
    def test_split_pool_too_small_is_refused(self, data_pools, plan, match):
        # A class pair that cannot supply the plan must not shrink the task.
        train_per_task, test_per_task = plan
        with pytest.raises(PoolTooSmallError, match=match):
            make_split_tasks(*data_pools, seed=8, train_per_task=train_per_task,
                             test_per_task=test_per_task)

    def test_pixels_stay_bytes(self, data_pools):
        # The pools and every task hold uint8 pixels; only a batch is float32.
        assert all(ds.images.dtype == np.uint8 for ds in data_pools)
        pmnist = make_pmnist_tasks(*data_pools, n_tasks=3, seed=4,
                                   train_per_task=100, test_per_task=50)
        split = make_split_tasks(*data_pools, seed=8, train_per_task=100, test_per_task=60)
        for t in [*pmnist.tasks, *split.tasks]:
            assert t.train_x.dtype == np.uint8 and t.test_x.dtype == np.uint8

    @pytest.mark.parametrize("task", ["pmnist", "split_mnist"])
    def test_net_input_matches_a_float_pool_gather(self, data_pools, task):
        # Scaling each uint8 batch gives the bytes that gathering from a
        # pool scaled once at load gave, as flat rows on either task.
        train, _ = data_pools
        rng = make_rng(9, 0)
        idx = rng.choice(len(train), size=64, replace=False)
        perm = rng.permutation(784) if task == "pmnist" else np.arange(784)
        old = (train.images.astype(np.float32) / 255.0)[idx][:, perm]
        x = loop._net_input(train.images[idx][:, perm])
        assert x.dtype == np.float32 and np.array_equal(x, old)

    def test_split_tasks_classes_and_remap(self, data_pools):
        seq = make_split_tasks(*data_pools, seed=8, train_per_task=100,
                               test_per_task=60, n_tasks=5)
        assert seq.n_classes == 2
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
        # Layers and banks load in the dtype they were saved in, float32 as a
        # run writes them or float64 as tests build them, with the same bytes.
        rng = np.random.default_rng(0)
        subs = {
            i: LateralSubspace(
                n=4,
                H=rng.normal(size=(2, 4)).astype(dtype),
                H_new=rng.normal(size=(1, 4)).astype(dtype),
                velocity=rng.normal(size=(1, 4)).astype(dtype),
                mode=mode,
            )
            for i, (dtype, mode) in enumerate([(np.float64, "spiking"), (np.float32, "spiking"),
                                               (np.float32, "linear")])
        }
        layers = [(f"block{i}", rng.normal(size=(3, 5)).astype(dtype),
                   rng.normal(size=3).astype(dtype))
                  for i, dtype in enumerate((np.float64, np.float32))]
        ckpt = Checkpoint(
            master_seed=2022,
            task_cursor=3,
            layers=layers,
            subspaces=subs,
            acc_matrix=[[90.0], [85.0, 92.0]],
        )
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, ckpt)
        back = load_checkpoint(path)
        assert back.master_seed == 2022 and back.task_cursor == 3
        assert [name for name, _, _ in back.layers] == ["block0", "block1"]
        saved = [a for _, w, b in layers for a in (w, b)]
        saved += [a for s in subs.values() for a in (s.H, s.H_new, s.velocity)]
        loaded = [a for _, w, b in back.layers for a in (w, b)]
        loaded += [a for s in back.subspaces.values() for a in (s.H, s.H_new, s.velocity)]
        assert [(a.dtype, a.shape, a.tobytes()) for a in loaded] == [
            (a.dtype, a.shape, a.tobytes()) for a in saved]
        assert [(s.n, s.mode) for s in back.subspaces.values()] == [
            (4, "spiking"), (4, "spiking"), (4, "linear")]
        assert back.acc_matrix == [[90.0], [85.0, 92.0]]

    def test_loaded_circuit_learns_like_the_saved_one(self, tmp_path):
        # A circuit as the run builds it, fed a wide, 30%-active batch far
        # above the damping cap: the loaded circuit must damp its steps
        # exactly as the saved one does.
        net = build_mlp(1352, [20], 10, 1, NeuronConfig(), make_rng(16, 0))
        sub = loop.make_subspaces(_small_cfg(hlop="linear", hidden_sizes=[20]), net)[0]
        x = (make_rng(17, 0).random(size=(384, 1352)) < 0.3).astype(float)
        sub.expand(40, make_rng(18, 0))
        _, learn = sub.hebbian_update(x)
        learn()
        path = str(tmp_path / "c.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=0, layers=[],
                                         subspaces={0: sub}))
        back = load_checkpoint(path).subspaces[0]
        back_hat, back_learn = back.hebbian_update(x)
        sub_hat, sub_learn = sub.hebbian_update(x)
        back_learn()
        sub_learn()
        assert np.array_equal(back_hat, sub_hat)
        assert np.array_equal(back.H_new, sub.H_new)
        assert np.array_equal(back.velocity, sub.velocity)

    def test_rejects_garbage(self, tmp_path):
        p = tmp_path / "junk"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(p))

    def test_rejects_truncated(self, tmp_path):
        ckpt = Checkpoint(master_seed=1, task_cursor=0,
                          layers=[("a", np.zeros((2, 2)), np.zeros(2))])
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), ckpt)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    @staticmethod
    def _npy(a):
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.asarray(a, dtype=np.float64))
        return buf.getvalue()

    @staticmethod
    def _rewrite(path, name, payload):
        """Replace member ``name`` of the checkpoint at ``path`` by ``payload``
        bytes, with a valid CRC-32, so only the reader's own checks see it."""
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        members[name] = payload
        with zipfile.ZipFile(path, "w") as zf:
            for n, data in members.items():
                zf.writestr(zipfile.ZipInfo(n), data)

    def test_rejects_corrupted_subspace_width(self, tmp_path):
        sub = LateralSubspace(n=4, H=np.eye(4)[:2])
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=0, layers=[],
                                         subspaces={0: sub}))
        self._rewrite(path, "subspace/0/circuit", self._npy([5, 0]))
        with pytest.raises(CheckpointError, match="width 4 != presynaptic width 5"):
            load_checkpoint(path)

    def test_rejects_non_utf8_layer_name(self, tmp_path):
        # A non-ASCII name is stored as UTF-8 (zip flag bit 11); break its
        # bytes in both the member header and the central directory.
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), Checkpoint(master_seed=1, task_cursor=0,
                                              layers=[("äb", np.zeros((2, 2)), np.zeros(2))]))
        path.write_bytes(path.read_bytes().replace("ä".encode(), b"\xff\xfe"))
        with pytest.raises(CheckpointError, match="'utf-8' codec can't decode byte 0xff"):
            load_checkpoint(str(path))

    def test_rejects_oversized_length_field(self, tmp_path):
        # A weight header claiming 2^32 - 1 rows claims about 64 GiB; the
        # reader must refuse it without trying to allocate that much.
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=0,
                                         layers=[("ab", np.zeros((2, 2)), np.zeros(2))]))
        buf = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            buf, {"descr": "<f8", "fortran_order": False, "shape": (2**32 - 1, 2)})
        self._rewrite(path, "layer/ab/weight", buf.getvalue() + bytes(32))
        with pytest.raises(CheckpointError, match=r"\(4294967295, 2\) does not fit 32 bytes"):
            load_checkpoint(path)

    def test_rejects_a_member_meta_does_not_count(self, tmp_path):
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=0, layers=[]))
        self._rewrite(path, "acc/0", self._npy([50.0]))
        with pytest.raises(CheckpointError, match=r"meta counts \[0, 0, 0\]"):
            load_checkpoint(path)

    def test_meta_stores_the_blas_thread_count(self, tmp_path, monkeypatch):
        # Format 6's meta: [6, seed, cursor, BLAS threads, layers, circuits,
        # accuracy rows]; a checkpoint takes the count of the process writing it.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=7, task_cursor=1, layers=[],
                                         acc_matrix=[[50.0]]))
        with zipfile.ZipFile(path) as zf:
            assert np.load(io.BytesIO(zf.read("meta"))).tolist() == [6, 7, 1, 3, 0, 0, 1]
        assert load_checkpoint(path).blas_threads == 3

    def test_rejects_version_3(self, tmp_path):
        # Version 3 stored no BLAS thread count.
        path = str(tmp_path / "x.ckpt")
        save_checkpoint(path, Checkpoint(master_seed=1, task_cursor=0, layers=[]))
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.array([3, 1, 0, 0, 0, 0], dtype="<i8"))
        self._rewrite(path, "meta", buf.getvalue())
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 3"):
            load_checkpoint(path)

    def test_rejects_version_2(self, tmp_path):
        path = tmp_path / "v2.ckpt"
        path.write_bytes(b"HLOPCKP1" + struct.pack("<IqI", 2, 1, 0) + bytes(8))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
            load_checkpoint(str(path))

    @staticmethod
    def _state(c):
        arrays = [a for _, w, b in c.layers for a in (w, b)]
        arrays += [a for s in c.subspaces.values() for a in (s.H, s.H_new, s.velocity)]
        return (c.master_seed, c.task_cursor, c.acc_matrix, [n for n, _, _ in c.layers],
                {i: (s.n, s.mode) for i, s in c.subspaces.items()},
                [(a.dtype, a.shape, a.tobytes()) for a in arrays])

    def test_every_cut_and_bit_flip_is_refused_or_harmless(self, tmp_path):
        # Cut the file at every byte offset, and flip one bit in every byte:
        # each damaged file must raise CheckpointError or load the same state,
        # dtypes included (a flip in a timestamp changes nothing the reader
        # returns). The file holds a float32 circuit and a float64 layer.
        rng = np.random.default_rng(0)
        banks = (rng.normal(size=shape).astype(np.float32) for shape in [(2, 4), (1, 4), (1, 4)])
        sub = LateralSubspace(4, *banks, mode="spiking")
        ckpt = Checkpoint(master_seed=2022, task_cursor=2,
                          layers=[("block0", rng.normal(size=(3, 4)), rng.normal(size=3))],
                          subspaces={0: sub}, acc_matrix=[[90.0], [85.0, 92.0]])
        path = tmp_path / "c.ckpt"
        save_checkpoint(str(path), ckpt)
        data = path.read_bytes()
        want = self._state(ckpt)
        assert self._state(load_checkpoint(str(path))) == want
        silent = []
        for i in range(len(data)):
            flipped = data[:i] + bytes([data[i] ^ 1 << i % 8]) + data[i + 1:]
            for kind, damaged in (("cut", data[:i]), ("flip", flipped)):
                path.write_bytes(damaged)
                try:
                    back = load_checkpoint(str(path))
                except CheckpointError:
                    continue
                if self._state(back) != want:
                    silent.append((kind, i))
        assert silent == []


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
        cfg = _small_cfg(hlop="linear", n_tasks=3, train_per_task=500)
        res = run_continual(cfg, data=data_pools)
        assert res.audit is not None
        assert max(res.audit.values()) < 5e-2

    def test_split_conv_path(self, data_pools):
        cfg = config_from_dict(dict(
            seed=99, task="split_mnist", hlop="linear",
            n_tasks=2, train_per_task=400, test_per_task=150,
        ))
        res = run_continual(cfg, data=data_pools)
        assert len(res.matrix) == 2
        assert res.matrix[-1][0] > 60.0  # task 1 held up
        assert max(res.audit.values()) < 5e-2
        # conv layer hosts a patch-space circuit
        assert res.subspaces[0].n == cfg.conv_kernel ** 2

    def test_schedule_cannot_exceed_width(self, data_pools):
        # 150 + 4 * 30 rows do not fit block1's 200 presynaptic neurons; the
        # run refuses before training. Only the config is at fault, so the
        # error is not a dataset error.
        assert not issubclass(ScheduleError, DatasetError)
        cfg = _small_cfg(hlop="linear", n_tasks=5, train_per_task=100,
                         subspace_schedule=[[80, 70], [150, 30], [25, 18]])
        with pytest.raises(ScheduleError, match="subspace 1: schedule needs 270 rows, "
                                                 "but layer block1 has presynaptic width 200"):
            run_continual(cfg, data=data_pools)

    def test_hlop_off_no_subspaces(self, data_pools):
        res = run_continual(_small_cfg(), data=data_pools)
        assert res.subspaces == {} and res.audit is None


class TestTrainOneTask:
    """One batch of the training loop on a 3-4-2 net, with calls recorded."""

    def _batch(self, monkeypatch, subspaces):
        cfg = _small_cfg(batch=4, lr=0.5)
        net = build_mlp(3, [4], 2, 1, NeuronConfig(lam=0.5, v_th=0.4, T=3, a2=0.25),
                        make_rng(60, 0))
        x = np.round(make_rng(61, 0).uniform(0.2, 1.0, size=(4, 3)) * 255).astype(np.uint8)
        task = Task("toy", x, np.array([0, 1, 0, 1]), x, np.array([0, 1, 0, 1]))
        seen = {"packets": [], "hebbian": [], "project": 0}
        hebbian_update, project_trace = LateralSubspace.hebbian_update, LateralSubspace.project_trace

        def trainer(*args):
            packet, rate = ottt_backward(*args)
            seen["packets"].append((packet, [lg.trace.copy() for lg in packet.layers]))
            return packet, rate

        def hebbian(sub, rows):
            seen["hebbian"].append(rows.copy())
            return hebbian_update(sub, rows)

        def project(sub, rows):
            seen["project"] += 1
            return project_trace(sub, rows)

        monkeypatch.setitem(loop._TRAINERS, "ottt", trainer)
        monkeypatch.setattr(LateralSubspace, "hebbian_update", hebbian)
        monkeypatch.setattr(LateralSubspace, "project_trace", project)
        before = [l.weight.copy() for l in net.trainable_layers(0)]
        _train_one_task(cfg, net, ErrorPropConfig(), subspaces, task, 0, 0)
        after = [l.weight for l in net.trainable_layers(0)]
        return seen, before, after

    @pytest.mark.parametrize("mode", ["linear", "spiking"])
    def test_each_circuit_projects_once_per_batch(self, monkeypatch, mode):
        subs = {}
        for i, n in enumerate((3, 4)):
            subs[i] = LateralSubspace(n=n, H=np.eye(n)[:1], mode=mode)
            subs[i].expand(1, make_rng(62, i))
        seen, _, _ = self._batch(monkeypatch, subs)
        assert len(seen["packets"]) == 1
        assert seen["project"] == len(subs)

    def test_spanning_circuit_freezes_weights_and_traces_stay_raw(self, monkeypatch):
        # A circuit spanning the whole input space annihilates the input
        # layer's projected trace, so its weights stay put; the packet's
        # trace factors and the Hebbian feed are the raw rows.
        seen, before, after = self._batch(monkeypatch, {0: LateralSubspace(n=3, H=np.eye(3))})
        (packet, traces), = seen["packets"]
        assert np.max(np.abs(after[0] - before[0])) < 1e-12
        assert not np.array_equal(after[1], before[1])
        for lg, trace in zip(packet.layers, traces):
            assert np.array_equal(lg.trace, trace)
        (feed,) = seen["hebbian"]
        assert np.array_equal(feed, traces[0]) and feed.any()


def _audit_net(task):
    """The shipped split_conv net (28x28 inputs, 8 channels, 3x3 kernel, pool 2,
    100 hidden, five 2-way heads), or a 784-200-200-10 pmnist net."""
    ncfg = NeuronConfig(lam=0.5, v_th=0.4, T=6, a2=0.25)
    if task == "split_mnist":
        return build_conv_net(1, (28, 28), 8, 3, 2, 100, 2, 5, ncfg, make_rng(70, 0))
    return build_mlp(784, [200, 200], 10, 1, ncfg, make_rng(70, 0))


class TestCollectFeeds:
    @pytest.mark.parametrize("trainer", ["ottt", "bptt"])
    @pytest.mark.parametrize("task", ["split_mnist", "pmnist"])
    def test_feeds_are_the_forward_pass_rows(self, task, trainer):
        cfg = config_from_dict(dict(task=task, trainer=trainer))
        net = _audit_net(task)
        x = make_rng(71, 0).uniform(size=(24, 784))
        feeds = loop.collect_feeds(cfg, net, x)  # the trace rows of the trainer's packet
        backward = ottt_backward if trainer == "ottt" else bptt_sg_backward
        y = np.eye(net.heads[0].out_dim)[np.arange(len(x)) % net.heads[0].out_dim]
        expect = [g.trace for g in backward(net, x, y, ErrorPropConfig())[0].layers]
        assert len(feeds) == len(expect) == 3
        for got, want in zip(feeds, expect):
            assert got.shape == want.shape and np.array_equal(got, want) and want.any()

    def test_split_conv_feed_peak_memory(self):
        # 200 samples give 22.6 MiB of feeds (the 135200x9 input patches once,
        # six steps of 1352- and 100-wide rows). Walking the steps for their
        # rows only peaks at 53.5 MiB: the feeds, the conv current and three
        # conv states of 8.25 MiB each. Keeping every step's conv u and s as
        # well peaked at 132.6 MiB.
        cfg = config_from_dict(dict(task="split_mnist", trainer="ottt"))
        net = _audit_net("split_mnist")
        x = make_rng(71, 0).uniform(size=(200, 784))
        tracemalloc.start()
        try:
            feeds = loop.collect_feeds(cfg, net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(f.nbytes for f in feeds) / 2**20 == pytest.approx(22.58, abs=0.01)
        assert peak / 2**20 < 70.0


@pytest.mark.parametrize("task", ["split_mnist", "pmnist"])
def test_interference_audit_matches_its_first_formula(task):
    # dW (P x) computed as (dW P) x, on every row before the silent ones are
    # dropped: the same bound to rounding, without copying the kept rows.
    cfg = config_from_dict(dict(task=task, trainer="ottt"))
    net = _audit_net(task)
    rng = make_rng(72, 0)
    x = rng.uniform(size=(16, 784))
    x[3] = 0.0  # a silent sample gives all-zero input rows, which the audit skips
    layers = net.trainable_layers(0)
    store = {
        i: {"x": feed, "h": rng.normal(size=(3, feed.shape[1])), "w": layer.weight.copy()}
        for i, (feed, layer) in enumerate(zip(loop.collect_feeds(cfg, net, x), layers))
    }
    for layer in layers:
        layer.weight += 1e-2 * rng.normal(size=layer.weight.shape)
    got, want = loop.interference_audit(net, store), reference.interference_audit(net, store)
    assert got.keys() == want.keys() == {0, 1, 2}
    for i in want:
        assert want[i] > 0 and got[i] == pytest.approx(want[i], rel=1e-12, abs=0)


class TestEvalBatchRows:
    @pytest.mark.parametrize("task, n, rows", [
        ("split_mnist", 300, 24),  # 24 samples of 676x8 conv states fill 2**17
        ("split_mnist", 30, 15),
        ("pmnist", 1000, 500),  # under 2**17 // 200 = 655 samples: half the set
        ("pmnist", 4000, 655),
        ("pmnist", 1, 1),
    ])
    def test_shipped_geometries(self, task, n, rows):
        assert loop.eval_batch_rows(_audit_net(task), n) == rows

    @pytest.mark.parametrize("task", ["split_mnist", "pmnist"])
    def test_at_least_one_and_at_most_half_the_set(self, task):
        net = _audit_net(task)
        for n in range(1, 1500):
            assert 1 <= loop.eval_batch_rows(net, n) <= -(-n // 2)

    @pytest.mark.parametrize("width, rows", [(2**16, 2), (2**17, 1), (2**17 + 1, 1)])
    def test_a_first_layer_near_the_budget_still_scores_a_sample(self, width, rows):
        head = Layer(weight=np.zeros((2, width)), bias=np.zeros(2))
        net = SpikingNet(blocks=[Layer(weight=np.zeros((width, 1)), bias=np.zeros(width))],
                         heads=[head], cfg=NeuronConfig())
        assert loop.eval_batch_rows(net, 100) == rows


class TestConfigValidation:
    def test_unknown_key(self):
        # The last five were keys once; each is refused like a key never known.
        for key, value in [("bogus", 1), ("quant_scale", 20.0), ("quant_t_l", 40),
                           ("ss_scale", 0.0), ("audit_samples", 200),
                           ("checkpoint_every_task", True)]:
            with pytest.raises(ConfigError) as exc:
                config_from_dict({key: value})
            assert exc.value.problems == [f"unknown key '{key}'"]

    def test_enum_violation(self):
        with pytest.raises(ConfigError, match="trainer"):
            config_from_dict({"trainer": "sgd"})

    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigError, match="subspace_schedule"):
            config_from_dict({"hlop": "linear", "subspace_schedule": [[10, 2]]})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_are_refused(self, value):
        floats = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
        assert "lr" in floats and "tau" in floats
        for name in floats:
            key = "lambda" if name == "lam" else name
            with pytest.raises(ConfigError) as exc:
                config_from_dict({key: value})
            assert any(p.startswith(f"{key}: must be finite") for p in exc.value.problems)

    @pytest.mark.parametrize("key, value, start", [
        ("lr", "-" * 5000, "lr: expected a number, got '---"),
        ("trainer", "x" * 500, "trainer: 'xxx"),
        ("y" * 500, 1, "unknown key 'yyy"),
        ("hidden_sizes", [0] * 500, "hidden_sizes: need positive integers, got [0, 0"),
    ], ids=["number", "enum", "key", "list"])
    def test_refused_values_are_cut_to_a_fixed_width(self, key, value, start):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({key: value})
        (problem,) = exc.value.problems
        refused = key if start.startswith("unknown") else value
        assert problem.startswith(start)
        assert f"... ({len(repr(refused))} characters)" in problem and len(problem) < 160

    def test_type_mismatches_reported_together(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"T": "six", "lr": "fast"})
        msg = str(exc.value)
        assert "T" in msg and "lr" in msg
