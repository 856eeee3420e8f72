"""Single-file binary checkpoints.

Layout (version 1, all multi-byte fields little-endian):

    magic     8 bytes  b"HLOPCKP1"
    version   u32      1
    seed      i64      master seed of the run
    cursor    u32      number of tasks completed
    n_layers  u32
      per layer:  name  (u16 length + utf-8)
                  weight (u32 rows, u32 cols, rows*cols f64)
                  bias   (u32 len, len f64)
    n_subspaces u32
      per subspace: layer index u32, n u32,
                    H (u32 rows + data), H_new (u32 rows + data),
                    velocity (u32 rows + data),
                    eta f64, momentum f64, K u32,
                    mode u8 (0 linear / 1 spiking), scale f64, T_l u32
    n_rng     u32     named generator states (PCG64: state/inc as 4x u64 + u32
                      has_uint32 + u64 uinteger); empty when the run derives
                      all streams per task from the master seed
      per entry: name (u16 + utf-8), 4x u64, u32, u64
    n_acc_rows u32    accuracy-matrix rows recorded so far
      per row: u32 length + f64 accuracies

Files are written to a temp path and renamed, so a checkpoint on disk is
always complete. A file that cannot be opened or does not parse as this
layout raises ``CheckpointError`` and nothing else. Reloading a mid-sequence
checkpoint and continuing the run reproduces the uninterrupted run bit for
bit.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field

import numpy as np

from ..lateral import LateralSubspace, QuantConfig

MAGIC = b"HLOPCKP1"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed, or does not fit the run resuming it."""


@dataclass
class Checkpoint:
    master_seed: int
    task_cursor: int
    layers: list[tuple[str, np.ndarray, np.ndarray]]  # (name, weight, bias)
    subspaces: dict[int, LateralSubspace] = field(default_factory=dict)
    rng_states: dict[str, dict] = field(default_factory=dict)
    acc_matrix: list[list[float]] = field(default_factory=list)


def _w_mat(f, m: np.ndarray) -> None:
    f.write(struct.pack("<II", m.shape[0], m.shape[1]))
    f.write(np.ascontiguousarray(m, dtype="<f8").tobytes())


def _r_mat(f) -> np.ndarray:
    rows, cols = struct.unpack("<II", _read(f, 8))
    data = _read(f, rows * cols * 8)
    return np.frombuffer(data, dtype="<f8").reshape(rows, cols).astype(np.float64)


def _w_vec(f, v: np.ndarray) -> None:
    f.write(struct.pack("<I", v.shape[0]))
    f.write(np.ascontiguousarray(v, dtype="<f8").tobytes())


def _r_vec(f) -> np.ndarray:
    (n,) = struct.unpack("<I", _read(f, 4))
    return np.frombuffer(_read(f, n * 8), dtype="<f8").astype(np.float64)


def _w_str(f, s: str) -> None:
    b = s.encode("utf-8")
    f.write(struct.pack("<H", len(b)))
    f.write(b)


def _r_str(f) -> str:
    (n,) = struct.unpack("<H", _read(f, 2))
    raw = _read(f, n)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise CheckpointError(f"name {raw!r} is not UTF-8") from e


def _read(f, n: int) -> bytes:
    # Read no more than the file holds, so a corrupted length field is
    # reported as truncation instead of allocating the size it claims.
    left = os.fstat(f.fileno()).st_size - f.tell()
    buf = f.read(min(n, left))
    if len(buf) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(buf)}")
    return buf


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<qI", int(ckpt.master_seed), ckpt.task_cursor))
        f.write(struct.pack("<I", len(ckpt.layers)))
        for name, w, b in ckpt.layers:
            _w_str(f, name)
            _w_mat(f, w)
            _w_vec(f, b)
        f.write(struct.pack("<I", len(ckpt.subspaces)))
        for idx in sorted(ckpt.subspaces):
            sub = ckpt.subspaces[idx]
            f.write(struct.pack("<II", idx, sub.n))
            _w_mat(f, sub.H)
            _w_mat(f, sub.H_new)
            _w_mat(f, sub.velocity)
            f.write(struct.pack("<ddI", sub.eta, sub.momentum, sub.K))
            f.write(struct.pack("<B", 1 if sub.mode == "spiking" else 0))
            f.write(struct.pack("<dI", sub.quant.scale, sub.quant.T_l))
        f.write(struct.pack("<I", len(ckpt.rng_states)))
        for name in sorted(ckpt.rng_states):
            st = ckpt.rng_states[name]
            _w_str(f, name)
            s = st["state"]
            f.write(struct.pack("<4Q", *_split128(s["state"]), *_split128(s["inc"])))
            f.write(struct.pack("<IQ", int(st["has_uint32"]), int(st["uinteger"])))
        f.write(struct.pack("<I", len(ckpt.acc_matrix)))
        for row in ckpt.acc_matrix:
            _w_vec(f, np.asarray(row, dtype=np.float64))
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"{path}: cannot open checkpoint: {e.strerror}") from e
    with f:
        if _read(f, 8) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read(f, 4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        seed, cursor = struct.unpack("<qI", _read(f, 12))
        (n_layers,) = struct.unpack("<I", _read(f, 4))
        layers = []
        for _ in range(n_layers):
            name = _r_str(f)
            w = _r_mat(f)
            b = _r_vec(f)
            layers.append((name, w, b))
        (n_subs,) = struct.unpack("<I", _read(f, 4))
        subspaces = {}
        for _ in range(n_subs):
            idx, n = struct.unpack("<II", _read(f, 8))
            h = _r_mat(f)
            h_new = _r_mat(f)
            vel = _r_mat(f)
            eta, momentum, k_updates = struct.unpack("<ddI", _read(f, 20))
            (mode_b,) = struct.unpack("<B", _read(f, 1))
            scale, t_l = struct.unpack("<dI", _read(f, 12))
            try:
                subspaces[idx] = LateralSubspace(
                    n=n,
                    H=h,
                    H_new=h_new,
                    velocity=vel,
                    eta=eta,
                    momentum=momentum,
                    K=k_updates,
                    mode="spiking" if mode_b else "linear",
                    quant=QuantConfig(scale=scale, T_l=t_l),
                )
            except ValueError as e:
                raise CheckpointError(f"{path}: subspace {idx}: {e}") from e
        (n_rng,) = struct.unpack("<I", _read(f, 4))
        rng_states = {}
        for _ in range(n_rng):
            name = _r_str(f)
            vals = struct.unpack("<4Q", _read(f, 32))
            has_u32, uint = struct.unpack("<IQ", _read(f, 12))
            rng_states[name] = {
                "bit_generator": "PCG64",
                "state": {
                    "state": _join128(vals[0], vals[1]),
                    "inc": _join128(vals[2], vals[3]),
                },
                "has_uint32": int(has_u32),
                "uinteger": int(uint),
            }
        (n_rows,) = struct.unpack("<I", _read(f, 4))
        acc = [list(_r_vec(f)) for _ in range(n_rows)]
    return Checkpoint(
        master_seed=seed,
        task_cursor=cursor,
        layers=layers,
        subspaces=subspaces,
        rng_states=rng_states,
        acc_matrix=acc,
    )


def _split128(v: int) -> tuple[int, int]:
    return v & ((1 << 64) - 1), v >> 64


def _join128(lo: int, hi: int) -> int:
    return lo | (hi << 64)
