import io
import os
import struct
import subprocess
import sys
import zipfile

import numpy as np
import pytest

import hlop
from hlop.cli import main
from hlop.config import load_config
from hlop.harness.checkpoint import load_checkpoint, save_checkpoint
from hlop.harness.data import (
    TEST_IMAGES,
    TEST_LABELS,
    TRAIN_IMAGES,
    TRAIN_LABELS,
    load_data_dir,
    synth_digit_pools,
    write_idx_images,
    write_idx_labels,
)
from hlop.harness.metrics import read_summary_csv
from hlop.lateral import LateralSubspace


def _write_cfg(path, out_dir, **kw):
    lines = {
        "seed": 99,
        "trainer": "ottt",
        "hlop": "linear",
        "n_tasks": 2,
        "train_per_task": 300,
        "test_per_task": 150,
        "audit_samples": 0,
        "checkpoint_every_task": "true",
        "output_dir": f'"{out_dir}"',
    }
    lines.update(kw)
    with open(path, "w") as f:
        for k, v in lines.items():
            f.write(f"{k} = {v}\n")


# Values the parser accepts but a run cannot use, keyed by the field the
# refusal must name (a second case of a field adds "=<value>" to its key).
_OUT_OF_RANGE = {
    "seed": dict(seed=-1),
    "test_per_task": dict(test_per_task=0),
    "train_per_task": dict(train_per_task=0),
    "conv_pool": dict(task="split_mnist", conv_pool=0),
    "n_tasks": dict(task="split_mnist", n_tasks=6),
    "hidden_sizes": dict(hidden_sizes="[True, 200]"),
    "subspace_schedule[0]": dict(subspace_schedule="[[True, 1], [5, 2], [3, 1]]"),
    "lr": dict(lr="1e999"),
    "lr=nan": dict(lr="nan"),
    "lr=1e400": dict(lr="1" + "0" * 400),
    "ss_scale": dict(errorprop="ss", ss_scale=-1.0),
}

# Conv sizes the config accepts but 28x28 images do not tile, with the
# refusal the run gives against the data.
_UNTILED_ON_28 = {
    "conv_pool=3": (dict(conv_pool=3), "conv_kernel 3 and conv_pool 3 do not tile "
                                        "28x28 images (conv map 26x26)"),
    "conv_kernel": (dict(conv_kernel=29), "conv_kernel 29 and conv_pool 2 do not tile "
                                          "28x28 images (conv map 0x0)"),
}


# Config paths that exist but cannot be read as a config: how to make one,
# and the start of the one line the refusal prints after its header.
_UNREADABLE_CONFIGS = {
    "not-utf8": (lambda p: p.write_bytes(b"trainer = \xff\xfe\n"),
                 "  - {path}: not UTF-8 text"),
    "directory": (lambda p: p.mkdir(), "error: cannot read config file {path}: Is a directory"),
    "deep-unary-minus": (lambda p: p.write_text("lr = " + "-" * 5000 + "1\n"),
                         "  - lr: expected a number, got '-----"),
}


@pytest.fixture()
def run_env(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("HLOP_DATA_DIR", data_dir)
    return tmp_path


class TestRunCommand:
    def test_minimal_run_writes_outputs(self, run_env, capsys):
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out))
        assert main(["run", str(cfg)]) == 0
        for name in ("metrics.csv", "summary.csv", "resolved_config.cfg",
                     "task1.ckpt", "task2.ckpt"):
            assert (out / name).exists()
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        rows = read_summary_csv(str(out / "summary.csv"))
        assert rows[-1][0] == 2  # summary row with k = n_tasks

    def test_config_closure(self, run_env):
        # Re-feeding the resolved echo reproduces the identical matrix.
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out))
        assert main(["run", str(cfg)]) == 0
        first = (out / "metrics.csv").read_bytes()
        echo = out / "resolved_config.cfg"
        assert load_config(str(echo)) == load_config(str(cfg))
        assert main(["run", str(echo)]) == 0
        assert (out / "metrics.csv").read_bytes() == first

    def test_unknown_key_exit_2(self, run_env, capsys):
        cfg = run_env / "bad.cfg"
        cfg.write_text("mystery_knob = 5\n")
        assert main(["run", str(cfg)]) == 2
        assert "mystery_knob" in capsys.readouterr().err

    def test_output_dir_that_cannot_be_created_exit_2(self, run_env, capsys):
        # A directory below a regular file used to end in a NotADirectoryError
        # traceback.
        (run_env / "file").write_text("")
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "file" / "out"))
        assert main(["run", str(cfg)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot create output_dir ") and "file/out" in line

    def test_invalid_value_exit_2(self, run_env, capsys):
        cfg = run_env / "bad.cfg"
        cfg.write_text("trainer = adam\n")
        assert main(["run", str(cfg)]) == 2
        assert "trainer" in capsys.readouterr().err

    @pytest.mark.parametrize("field", list(_OUT_OF_RANGE))
    def test_out_of_range_value_exit_2(self, run_env, capsys, field):
        # Each value used to crash mid-run, or to run on silently.
        cfg = run_env / "bad.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), **_OUT_OF_RANGE[field])
        assert main(["run", str(cfg)]) == 2
        head, *problems = capsys.readouterr().err.splitlines()
        assert head == "invalid configuration:"
        name = field.partition("=")[0]
        assert len(problems) == 1 and problems[0].startswith(f"  - {name}: ")
        assert not (run_env / "out").exists()

    @pytest.mark.parametrize("field", list(_UNTILED_ON_28))
    def test_conv_geometry_refused_on_the_data_exit_3(self, run_env, capsys, field):
        # The config alone cannot tell; the run checks the conv map of the
        # real images before training.
        kw, message = _UNTILED_ON_28[field]
        cfg = run_env / "bad.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), task="split_mnist", **kw)
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"dataset error: {message}"
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_missing_dataset_exit_3(self, run_env, monkeypatch, capsys):
        monkeypatch.setenv("HLOP_DATA_DIR", str(run_env / "nowhere"))
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        assert main(["run", str(cfg)]) == 3

    def test_negative_idx_header_exit_3(self, run_env, monkeypatch, capsys):
        data = run_env / "data"
        data.mkdir()
        for name, magic in (("train-images-idx3-ubyte", 0x803), ("t10k-images-idx3-ubyte", 0x803)):
            (data / name).write_bytes(struct.pack(">iiii", magic, -1, -28, 28) + b"\x00" * 784)
        for name in ("train-labels-idx1-ubyte", "t10k-labels-idx1-ubyte"):
            (data / name).write_bytes(struct.pack(">ii", 0x801, 1) + b"\x00")
        monkeypatch.setenv("HLOP_DATA_DIR", str(data))
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("dataset error: ") and "negative count -1" in line

    def test_idx_file_longer_than_its_header_exit_3(self, run_env, monkeypatch, capsys):
        # An image count lowered from 1500 to 1499 used to load 1499 images
        # and drop the last one's bytes.
        self._use_images_of_size(run_env, monkeypatch, (28, 28))
        path = run_env / "data28" / TRAIN_IMAGES
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack(">i", 1499) + blob[8:])
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"dataset error: {path}: 784 bytes after the {1499 * 784}-byte "
                        "payload its header sizes")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_idx_file_that_cannot_be_opened_exit_3(self, run_env, monkeypatch, capsys):
        # A directory in the image file's place used to end in an
        # IsADirectoryError traceback.
        data = run_env / "data"
        (data / "train-images-idx3-ubyte").mkdir(parents=True)
        monkeypatch.setenv("HLOP_DATA_DIR", str(data))
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"dataset error: {data / 'train-images-idx3-ubyte'}: cannot open: Is a directory"

    def test_pool_too_small_exit_3(self, run_env, capsys):
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), train_per_task=7000)
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("dataset error: ") and "need 14000 train samples" in line

    def test_split_pool_too_small_exit_3(self, run_env, capsys):
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), task="split_mnist", train_per_task=5000)
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("dataset error: classes (0, 1): need 5000 train")

    @staticmethod
    def _use_images_of_size(run_env, monkeypatch, hw, bad_label=None):
        """A 1500/400 corpus of ``hw`` images; ``bad_label`` ("train" or
        "test") sets that file's label 3 to 12."""
        data = run_env / f"data{hw[0]}"
        data.mkdir()
        tr_x, tr_y, te_x, te_y = synth_digit_pools(1500, 400, seed=1, hw=hw)
        if bad_label is not None:
            {"train": tr_y, "test": te_y}[bad_label][3] = 12
        write_idx_images(str(data / TRAIN_IMAGES), tr_x)
        write_idx_labels(str(data / TRAIN_LABELS), tr_y)
        write_idx_images(str(data / TEST_IMAGES), te_x)
        write_idx_labels(str(data / TEST_LABELS), te_y)
        monkeypatch.setenv("HLOP_DATA_DIR", str(data))

    @pytest.mark.parametrize("which", ["train", "test"])
    def test_label_outside_0_to_9_exit_3(self, run_env, monkeypatch, capsys, which):
        # A train label of 12 used to crash the one-hot encoding with a
        # traceback; a test label of 12 was silently scored as a miss.
        self._use_images_of_size(run_env, monkeypatch, (28, 28), bad_label=which)
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        path = run_env / "data28" / (TRAIN_LABELS if which == "train" else TEST_LABELS)
        assert line == f"dataset error: {path}: label 12 at index 3 is outside 0..9"
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_image_size_too_small_for_circuits_exit_3(self, run_env, monkeypatch, capsys):
        # The schedule the default gives 28x28 images (dense width 1352) is
        # too wide for 20x20 ones: width 648, short of 338 + 4*112 rows.
        self._use_images_of_size(run_env, monkeypatch, (20, 20))
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), task="split_mnist",
                   n_tasks=5, train_per_task=200, test_per_task=50, conv_channels=8,
                   conv_kernel=3, conv_pool=2, conv_hidden=100,
                   subspace_schedule="[[2, 1], [338, 112]]")
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("schedule error: subspace 1: schedule needs 786 rows, but layer "
                        "block1 has presynaptic width 648 on 20x20 images")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_default_schedule_is_sized_from_20x20_images(self, run_env, monkeypatch):
        self._use_images_of_size(run_env, monkeypatch, (20, 20))
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), task="split_mnist",
                   n_tasks=5, train_per_task=200, test_per_task=50, conv_channels=8,
                   conv_kernel=3, conv_pool=2, conv_hidden=100)
        assert main(["run", str(cfg)]) == 0
        sub = load_checkpoint(str(out / "task1.ckpt")).subspaces[1]
        assert sub.n == 648 and sub.H.shape[0] == 648 // 4
        assert "subspace_schedule = []\n" in (out / "resolved_config.cfg").read_text()

    def test_default_schedule_is_sized_from_16x16_images(self, run_env, monkeypatch):
        # Sized for 28x28 input, the default would need 356 rows of a
        # 256-wide input layer; sized from the data it starts with
        # round(256 * 0.102) = 26.
        self._use_images_of_size(run_env, monkeypatch, (16, 16))
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), n_tasks=5, train_per_task=100, test_per_task=50)
        assert main(["run", str(cfg)]) == 0
        sub = load_checkpoint(str(out / "task1.ckpt")).subspaces[0]
        assert sub.n == 256 and sub.H.shape[0] == 26
        assert (out / "metrics.csv").exists()

    def test_conv_pool_that_tiles_29x29_images_runs(self, run_env, monkeypatch):
        # conv_pool 3 divides the 27x27 conv map of 29x29 images.
        self._use_images_of_size(run_env, monkeypatch, (29, 29))
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), task="split_mnist", n_tasks=2,
                   train_per_task=100, test_per_task=50, conv_kernel=3, conv_pool=3)
        assert main(["run", str(cfg)]) == 0
        sub = load_checkpoint(str(out / "task2.ckpt")).subspaces[1]
        assert sub.n == 8 * 9 * 9
        assert (out / "metrics.csv").exists()

    def test_image_size_the_conv_pool_does_not_tile_exit_3(self, run_env, monkeypatch, capsys):
        # 29x29 images give a 27x27 conv map, which pool 2 does not divide.
        self._use_images_of_size(run_env, monkeypatch, (29, 29))
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), task="split_mnist", n_tasks=2,
                   train_per_task=100, test_per_task=50, conv_kernel=3, conv_pool=2)
        assert main(["run", str(cfg)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("dataset error: conv_kernel 3 and conv_pool 2 do not tile "
                        "29x29 images (conv map 27x27)")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_non_finite_weights_exit_1_without_traceback(self, run_env):
        # An SGD step that overflows the weights used to end in a traceback from
        # lif_step ("non-finite input current") at the next batch. In float32,
        # lr * delta^T x overflows on the first layer already.
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), lr="1e308")
        proc = _run_cli("run", str(cfg))
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line == "divergence: task 1, batch 1, layer block0: non-finite weights"
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("case", list(_UNREADABLE_CONFIGS))
    def test_unreadable_config_exit_2_without_traceback(self, run_env, case):
        # Each used to end in a traceback and exit 1.
        make, line = _UNREADABLE_CONFIGS[case]
        path = run_env / "exp.cfg"
        make(path)
        proc = _run_cli("run", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        if case != "directory":
            assert lines.pop(0) == "invalid configuration:"
        assert len(lines) == 1 and lines[0].startswith(line.format(path=path))
        if case == "deep-unary-minus":  # the 5003-character value is cut
            assert len(lines[0]) < 200 and lines[0].endswith("... (5003 characters)")

    def test_missing_resume_file_exit_3(self, run_env, capsys):
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(run_env / "out"))
        missing = run_env / "missing.ckpt"
        assert main(["run", str(cfg), "--resume", str(missing)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("checkpoint error: ") and "missing.ckpt" in line

    def test_resume_from_checkpoint(self, run_env):
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out))
        assert main(["run", str(cfg)]) == 0
        full = (out / "metrics.csv").read_bytes()
        assert main(["run", str(cfg), "--resume", str(out / "task1.ckpt")]) == 0
        assert (out / "metrics.csv").read_bytes() == full

    def _refused_resume(self, run_env, capsys, ckpt_kw, resume_kw, corrupt=None):
        first = run_env / "first"
        cfg = run_env / "first.cfg"
        _write_cfg(str(cfg), str(first), n_tasks=1, train_per_task=100, **ckpt_kw)
        assert main(["run", str(cfg)]) == 0
        ckpt = first / "task1.ckpt"
        if corrupt is not None:
            corrupt(ckpt)
        capsys.readouterr()
        cfg = run_env / "resume.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), train_per_task=100, **resume_kw)
        assert main(["run", str(cfg), "--resume", str(ckpt)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("checkpoint error: ")
        return line

    def test_truncated_resume_exit_3(self, run_env, capsys):
        line = self._refused_resume(
            run_env, capsys, {}, {}, corrupt=lambda p: p.write_bytes(p.read_bytes()[:-8])
        )
        assert "truncated" in line

    def test_version_1_resume_exit_3(self, run_env, capsys):
        def version_1(p):
            # magic, version, master seed, task cursor, then no layers
            p.write_bytes(b"HLOPCKP1" + struct.pack("<IqII", 1, 99, 1, 0))

        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=version_1)
        assert "unsupported checkpoint version 1" in line

    def test_resume_with_misshapen_accuracy_rows_exit_3(self, run_env, capsys):
        # Such a matrix used to pass, train every remaining task and only
        # then crash in write_summary_csv.
        def two_entry_row(p):
            ckpt = load_checkpoint(str(p))
            ckpt.acc_matrix = [[50.0, 60.0]]
            save_checkpoint(str(p), ckpt)

        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=two_entry_row)
        assert line == ("checkpoint error: checkpoint accuracy rows hold [2] entries; "
                        "after task 1, row k must hold k")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_resume_from_a_float64_run_exit_3(self, run_env, capsys):
        # Circuits compute in float32 in both modes. A float64 circuit, even one
        # whose values float32 holds exactly, is refused by its dtype: resuming it
        # would silently continue another trajectory.
        def float64_circuit(p):
            ckpt = load_checkpoint(str(p))
            sub = ckpt.subspaces[0]
            banks = (a.astype(np.float64) for a in (sub.H, sub.H_new, sub.velocity))
            ckpt.subspaces[0] = LateralSubspace(sub.n, *banks, mode=sub.mode, quant=sub.quant)
            save_checkpoint(str(p), ckpt)

        spiking = {"hlop": "spiking"}
        line = self._refused_resume(run_env, capsys, spiking, spiking, corrupt=float64_circuit)
        assert line == ("checkpoint error: subspace 0 dtype: checkpoint has float64, "
                        "run has float32")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_version_4_resume_exit_3(self, run_env, capsys):
        # Version 4 stored float64 copies of every layer and bank.
        def version_4(p):
            with zipfile.ZipFile(p) as zf:
                members = {n: np.load(io.BytesIO(zf.read(n))) for n in zf.namelist()}
            members["meta"][0] = 4
            with zipfile.ZipFile(p, "w") as zf:
                for name, a in members.items():
                    with zf.open(zipfile.ZipInfo(name), "w") as f:
                        np.save(f, a if name == "meta" else a.astype("<f8"))

        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=version_4)
        assert line == (f"checkpoint error: {run_env / 'first' / 'task1.ckpt'}: "
                        "unsupported checkpoint version 4")

    def test_split_resume_reproduces_the_float32_conv_run(self, run_env):
        # Checkpoints hold the float32 conv layer in float32, exact both ways.
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), task="split_mnist", train_per_task=100, test_per_task=50)
        assert main(["run", str(cfg)]) == 0
        full = [(out / name).read_bytes() for name in ("metrics.csv", "task2.ckpt")]
        assert main(["run", str(cfg), "--resume", str(out / "task1.ckpt")]) == 0
        assert [(out / name).read_bytes() for name in ("metrics.csv", "task2.ckpt")] == full

    def test_spiking_resume_reproduces_the_run(self, run_env):
        # The burst quantizer works in float32 too: a spiking run resumed from
        # its first checkpoint writes the uninterrupted run's bytes.
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), hlop="spiking", train_per_task=200, test_per_task=50)
        names = ("metrics.csv", "summary.csv", "task2.ckpt")
        assert main(["run", str(cfg)]) == 0
        full = [(out / name).read_bytes() for name in names]
        assert main(["run", str(cfg), "--resume", str(out / "task1.ckpt")]) == 0
        assert [(out / name).read_bytes() for name in names] == full

    def test_split_resume_from_a_float64_conv_layer_exit_3(self, run_env, capsys):
        # A float64 conv layer is refused by its dtype: resuming it in float32
        # would silently continue another trajectory.
        def float64_conv(p):
            ckpt = load_checkpoint(str(p))
            name, w, b = ckpt.layers[0]
            ckpt.layers[0] = (name, w.astype(np.float64), b)
            save_checkpoint(str(p), ckpt)

        split = {"task": "split_mnist"}  # one head per task: resume as a 1-task run
        line = self._refused_resume(run_env, capsys, split, {**split, "n_tasks": 1},
                                    corrupt=float64_conv)
        assert line == ("checkpoint error: block0 dtype: checkpoint has float64 weight, "
                        "float32 bias, run has float32 weight, float32 bias")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_resume_from_a_float64_dense_layer_exit_3(self, run_env, capsys):
        # Dense layers compute in float32 too: a float64 dense bias is refused.
        def float64_dense(p):
            ckpt = load_checkpoint(str(p))
            name, w, b = ckpt.layers[1]
            ckpt.layers[1] = (name, w, b.astype(np.float64))
            save_checkpoint(str(p), ckpt)

        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=float64_dense)
        assert line == ("checkpoint error: block1 dtype: checkpoint has float32 weight, "
                        "float64 bias, run has float32 weight, float32 bias")
        assert not (run_env / "out" / "metrics.csv").exists()

    def test_resume_under_another_blas_thread_count_exit_3(self, run_env):
        # Float32 products round by the BLAS thread count, so a checkpoint
        # resumes only under the count that wrote it.
        out, cfg = run_env / "out", run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), train_per_task=100, test_per_task=50)
        threads = {"OPENBLAS_NUM_THREADS": "1"}
        assert _run_cli("run", str(cfg), env=threads).returncode == 0
        resumed = ("run", str(cfg), "--resume", str(out / "task1.ckpt"))
        proc = _run_cli(*resumed, env={"OPENBLAS_NUM_THREADS": "2"})
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "checkpoint error: checkpoint written under 1 BLAS threads, run has 2: "
            "float32 products round by the count"]
        assert _run_cli(*resumed, env=threads).returncode == 0

    def test_resume_with_other_layer_shapes_exit_3(self, run_env, capsys):
        line = self._refused_resume(
            run_env, capsys, {"hidden_sizes": "[20, 20]"}, {"hidden_sizes": "[10, 20]"}
        )
        assert "block0" in line and "(20, 784)" in line and "(10, 784)" in line

    def test_resume_with_other_lateral_mode_exit_3(self, run_env, capsys):
        line = self._refused_resume(run_env, capsys, {"hlop": "spiking"}, {"hlop": "linear"})
        assert "subspace 0 mode" in line and "spiking" in line and "linear" in line

    def test_resume_with_other_quantizer_exit_3(self, run_env, capsys):
        line = self._refused_resume(
            run_env, capsys, {"hlop": "spiking"}, {"hlop": "spiking", "quant_t_l": 7}
        )
        assert "subspace 0 quant.T_l" in line and "has 40" in line and "has 7" in line

    @pytest.mark.parametrize("cursor", [-1, 0])
    def test_resume_with_a_task_cursor_below_1_exit_3(self, run_env, capsys, cursor):
        # -1 used to end in a traceback from make_rng; 0 silently trained every
        # task again on top of the checkpoint's weights and banks.
        def cursor_below_1(p):
            ckpt = load_checkpoint(str(p))
            ckpt.task_cursor, ckpt.acc_matrix = cursor, []
            save_checkpoint(str(p), ckpt)

        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=cursor_below_1)
        assert line == f"checkpoint error: checkpoint task cursor {cursor} is outside 1..2"
        assert not (run_env / "out" / "metrics.csv").exists()

    @pytest.mark.parametrize("name", ["task1.ckpt", "metrics.csv", "summary.csv",
                                      "resolved_config.cfg"])
    def test_output_blocked_by_a_directory(self, run_env, capsys, name):
        # Each used to end in an IsADirectoryError traceback and exit 1; the
        # checkpoint writer also left its .tmp file behind.
        out, cfg = run_env / "out", run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out), n_tasks=1, train_per_task=100, test_per_task=50)
        (out / name).mkdir(parents=True)
        ckpt = name.endswith(".ckpt")
        assert main(["run", str(cfg)]) == (3 if ckpt else 2)
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"checkpoint error: {out / name}: cannot write checkpoint: Is a directory"
                        if ckpt else f"error: cannot write {out / name}: Is a directory")
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]


def test_verify_is_not_a_command(capsys):
    for command in ("verify", "oracle"):  # oracle was a PCA tool for CSV files
        with pytest.raises(SystemExit) as exc:
            main([command, "algebra"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


def _run_cli(*args, env=None):
    """``hlop`` in a fresh interpreter, as a shell would run it, with ``env``
    on top of this process's environment."""
    src = os.path.dirname(os.path.dirname(hlop.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-m", "hlop.cli", *args],
                          capture_output=True, text=True, env=env)


class TestSynthDataCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth-data", "--out", str(out), "--train", "200",
                     "--test", "80", "--seed", "5"]) == 0
        train, test = load_data_dir(str(out))
        assert len(train) == 200 and len(test) == 80

    @pytest.mark.parametrize("counts", [["--train", "-1"], ["--test", "0"]])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, counts):
        out = tmp_path / "ds"
        assert main(["synth-data", "--out", str(out), *counts]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: --train and --test must be >= 1")
        assert not out.exists()

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # numpy refuses a negative seed with a traceback; the command refuses
        # it first.
        out = tmp_path / "ds"
        assert main(["synth-data", "--out", str(out), "--seed", "-1"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: --seed must be >= 0, got -1"
        assert not out.exists()

    def test_out_below_a_regular_file_exit_2(self, tmp_path):
        # This used to end in a NotADirectoryError traceback.
        (tmp_path / "afile").write_text("")
        proc = _run_cli("synth-data", "--out", str(tmp_path / "afile" / "x"))
        assert proc.returncode == 2 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: cannot create --out ") and "afile/x" in line

    @pytest.mark.parametrize("name", [TRAIN_IMAGES, TRAIN_LABELS, TEST_IMAGES, TEST_LABELS])
    def test_file_blocked_by_a_directory_exit_2(self, tmp_path, capsys, name):
        # This used to end in an IsADirectoryError traceback and exit 1, with
        # the .tmp file left behind.
        out = tmp_path / "ds"
        (out / name).mkdir(parents=True)
        assert main(["synth-data", "--out", str(out), "--train", "20", "--test", "10"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"error: cannot write {out / name}: Is a directory"
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
