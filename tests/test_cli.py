import os
import struct

import numpy as np
import pytest

from hlop.cli import main
from hlop.config import load_config
from hlop.harness.data import load_data_dir
from hlop.harness.metrics import read_summary_csv
from hlop.linalg import make_rng


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

    def test_invalid_value_exit_2(self, run_env, capsys):
        cfg = run_env / "bad.cfg"
        cfg.write_text("trainer = adam\n")
        assert main(["run", str(cfg)]) == 2
        assert "trainer" in capsys.readouterr().err

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
            ckpt.write_bytes(corrupt(ckpt.read_bytes()))
        capsys.readouterr()
        cfg = run_env / "resume.cfg"
        _write_cfg(str(cfg), str(run_env / "out"), train_per_task=100, **resume_kw)
        assert main(["run", str(cfg), "--resume", str(ckpt)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("checkpoint error: ")
        return line

    def test_truncated_resume_exit_3(self, run_env, capsys):
        line = self._refused_resume(run_env, capsys, {}, {}, corrupt=lambda b: b[:-8])
        assert "truncated" in line

    def test_resume_with_other_layer_shapes_exit_3(self, run_env, capsys):
        line = self._refused_resume(
            run_env, capsys, {"hidden_sizes": "[20, 20]"}, {"hidden_sizes": "[10, 20]"}
        )
        assert "block0" in line and "(20, 784)" in line and "(10, 784)" in line


class TestVerifyCommand:
    def test_known_suites_pass(self, capsys):
        for suite in ("algebra", "quantization", "metrics", "gradients",
                      "hebbian-oracle"):
            assert main(["verify", suite]) == 0
            assert "FAIL" not in capsys.readouterr().out

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "nonsense"]) == 2
        assert "nonsense" in capsys.readouterr().err


class TestOracleCommand:
    def test_rank_one_data(self, tmp_path, capsys):
        x = np.zeros((40, 3))
        x[:, 1] = np.linspace(1, 2, 40)
        p = tmp_path / "rank1.csv"
        np.savetxt(p, x, delimiter=",")
        out = tmp_path / "m.csv"
        assert main(["oracle", str(p), "--k", "1", "--out", str(out)]) == 0
        row = np.loadtxt(out, delimiter=",")
        assert abs(abs(row[1]) - 1.0) < 1e-8

    def test_anisotropic_gaussian_direction(self, tmp_path):
        # diag(4, 1) covariance: leading direction within 5 degrees of e1.
        rng = make_rng(42, 0)
        x = rng.normal(size=(4000, 2)) * np.array([2.0, 1.0])
        p = tmp_path / "g.csv"
        np.savetxt(p, x, delimiter=",")
        out = tmp_path / "m.csv"
        assert main(["oracle", str(p), "--k", "1", "--out", str(out)]) == 0
        row = np.loadtxt(out, delimiter=",")
        angle = np.degrees(np.arccos(min(1.0, abs(row[0]) / np.linalg.norm(row))))
        assert angle < 5.0

    def test_k_out_of_range_exit_2(self, tmp_path):
        p = tmp_path / "d.csv"
        np.savetxt(p, np.eye(3), delimiter=",")
        assert main(["oracle", str(p), "--k", "4"]) == 2

    def test_alignment_against_checkpoint(self, run_env, capsys, tmp_path):
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out))
        assert main(["run", str(cfg)]) == 0
        # full-rank k = n against any test matrix gives alignment 0 when the
        # checkpointed bank spans the space; here simply verify wiring.
        rng = make_rng(1, 0)
        samples = tmp_path / "s.csv"
        np.savetxt(samples, rng.normal(size=(300, 200)), delimiter=",")
        code = main([
            "oracle", str(samples), "--k", "2",
            "--checkpoint", str(out / "task2.ckpt"), "--layer", "1",
        ])
        assert code == 0
        assert "alignment error" in capsys.readouterr().out

    def test_checkpoint_layer_missing_exit_2(self, run_env, tmp_path):
        out = run_env / "out"
        cfg = run_env / "exp.cfg"
        _write_cfg(str(cfg), str(out))
        assert main(["run", str(cfg)]) == 0
        samples = tmp_path / "s.csv"
        np.savetxt(samples, make_rng(2, 0).normal(size=(10, 4)), delimiter=",")
        assert main([
            "oracle", str(samples), "--k", "1",
            "--checkpoint", str(out / "task2.ckpt"), "--layer", "9",
        ]) == 2


class TestSynthDataCommand:
    def test_writes_loadable_dataset(self, tmp_path):
        out = tmp_path / "ds"
        assert main(["synth-data", "--out", str(out), "--train", "200",
                     "--test", "80", "--seed", "5"]) == 0
        train, test = load_data_dir(str(out))
        assert len(train) == 200 and len(test) == 80
