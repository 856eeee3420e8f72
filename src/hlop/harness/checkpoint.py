"""Single-file checkpoints: a zip of ``.npy`` arrays (format version 5).

Each member is one little-endian array that ``np.load`` reads:

    meta                   int64 [5, master seed, tasks completed, BLAS threads,
                           layers, circuits, accuracy rows]
    layer/<name>/weight    (out, in), in layer order
    layer/<name>/bias      (out,)
    subspace/<i>/H         the consolidated rows (k, n)
    subspace/<i>/H_new     the in-training rows (k', n)
    subspace/<i>/velocity  the momentum buffer (k', n)
    subspace/<i>/circuit   float64 [n, spiking (0 or 1), quantizer scale, T_l]
    acc/<k>                float64 accuracies after task k + 1

Layers and banks are stored, and load, in their own dtype, float32 (``<f4``)
or float64 (``<f8``), so every value round-trips exactly; a resume refuses a
dtype other than the run's (``_check_resume_fits``). A circuit is stored as
its state only: the Hebbian step size, momentum and repeats are constants of
``LateralSubspace``, and every random stream derives per task from the master
seed, so neither is stored. The BLAS thread count is stored because float32
products round by it: a run resumes only under the count that wrote its
checkpoint (``blas_threads``).

Files are written to a temp path and renamed, so a checkpoint on disk is
always complete, and every member carries the zip's fixed 1980 timestamp, so
one run writes byte-identical files. The reader checks each member's CRC-32
and accepts exactly the member set that ``meta`` counts, so a damaged,
truncated or older file (versions 1 and 2 were a hand-laid binary starting
``HLOPCKP1``; version 3 stored no thread count; version 4 stored float64
copies of every layer and bank) raises ``CheckpointError`` and nothing else.
Reloading a mid-sequence checkpoint and continuing the run under the same
BLAS thread count reproduces the uninterrupted run bit for bit.
"""

from __future__ import annotations

import io
import math
import os
import re
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ..lateral import LateralSubspace, QuantConfig
from .data import atomic_path

VERSION = 5
_FORMAT = np.lib.format
_FLOATS = ("<f4", "<f8")  # the dtypes of every member but meta
_SUBSPACE_PARTS = ("H", "H_new", "velocity", "circuit")


class CheckpointError(ValueError):
    """A checkpoint file is malformed, or does not fit the run resuming it."""


def blas_threads() -> int:
    """The BLAS thread count as OpenBLAS reads it: the first positive pin (read as
    C's ``atoi`` reads it) among ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and
    ``OMP_NUM_THREADS``, else the CPUs this process may run on."""
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        pin = re.match(r"\s*\+?(\d+)", os.environ.get(var, ""))
        if pin and int(pin[1]) > 0:
            return int(pin[1])
    return len(os.sched_getaffinity(0))


@dataclass
class Checkpoint:
    master_seed: int
    task_cursor: int
    layers: list[tuple[str, np.ndarray, np.ndarray]]  # (name, weight, bias)
    subspaces: dict[int, LateralSubspace] = field(default_factory=dict)
    acc_matrix: list[list[float]] = field(default_factory=list)
    blas_threads: int = field(default_factory=blas_threads)  # this process's, when written


def save_checkpoint(path: str, ckpt: Checkpoint) -> None:
    members = [("meta", [VERSION, ckpt.master_seed, ckpt.task_cursor, ckpt.blas_threads,
                         len(ckpt.layers), len(ckpt.subspaces), len(ckpt.acc_matrix)])]
    for name, w, b in ckpt.layers:
        members += [(f"layer/{name}/weight", w), (f"layer/{name}/bias", b)]
    for i in sorted(ckpt.subspaces):
        sub = ckpt.subspaces[i]
        circuit = [sub.n, sub.mode == "spiking", sub.quant.scale, sub.quant.T_l]
        for part, a in zip(_SUBSPACE_PARTS, (sub.H, sub.H_new, sub.velocity, circuit)):
            members.append((f"subspace/{i}/{part}", a))
    members += [(f"acc/{k}", row) for k, row in enumerate(ckpt.acc_matrix)]
    try:
        with atomic_path(path) as tmp, zipfile.ZipFile(tmp, "w") as zf:
            for name, a in members:
                a, want = np.asarray(a), ("<i8",) if name == "meta" else _FLOATS
                own = a.dtype.newbyteorder("<")  # kept where the format allows it, else widened
                with zf.open(zipfile.ZipInfo(name), "w") as f:
                    _FORMAT.write_array(f, np.asarray(a, own if own.str in want else want[-1]),
                                        allow_pickle=False)
    except OSError as e:
        raise CheckpointError(f"{path}: cannot write checkpoint: {e.strerror}") from e


def _array(zf: zipfile.ZipFile, name: str, ndim: int) -> np.ndarray:
    buf = io.BytesIO(zf.read(name))  # reading the whole member checks its CRC-32
    _FORMAT.read_magic(buf)
    shape, _, dtype = _FORMAT.read_array_header_1_0(buf)
    # Check the size the header claims before read_array allocates it.
    size = len(buf.getbuffer()) - buf.tell()
    want = ("<i8",) if name == "meta" else _FLOATS
    if dtype.str not in want or len(shape) != ndim or math.prod(shape) * dtype.itemsize != size:
        raise ValueError(f"{name}: a {dtype} array of shape {shape} does not fit {size} bytes")
    buf.seek(0)
    return _FORMAT.read_array(buf, allow_pickle=False)


def _from_zip(zf: zipfile.ZipFile) -> Checkpoint:
    version, *meta = (int(v) for v in _array(zf, "meta", 1))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    seed, cursor, threads, *counts = meta
    names = zf.namelist()
    layers = [n[6:-7] for n in names if n.startswith("layer/") and n.endswith("/weight")]
    subs = sorted({int(n.split("/")[1]) for n in names if n.startswith("subspace/")})
    n_acc = sum(n.startswith("acc/") for n in names)
    expected = ["meta", *(f"layer/{n}/{p}" for n in layers for p in ("weight", "bias"))]
    expected += [f"subspace/{i}/{p}" for i in subs for p in _SUBSPACE_PARTS]
    expected += [f"acc/{k}" for k in range(n_acc)]
    if sorted(names) != sorted(expected):
        raise ValueError(f"members {sorted(set(names) ^ set(expected))} missing or unknown")
    # A damaged zip directory can hide whole trailing members, so meta counts them.
    if [len(layers), len(subs), n_acc] != counts:
        raise ValueError(f"holds {len(layers)} layers, {len(subs)} circuits and {n_acc} "
                         f"accuracy rows; meta counts {counts}")
    subspaces = {}
    for i in subs:
        n, spiking, scale, t_l = _array(zf, f"subspace/{i}/circuit", 1)
        if not (n.is_integer() and t_l.is_integer() and spiking in (0, 1)):
            raise ValueError(f"subspace {i}: bad circuit {[n, spiking, scale, t_l]}")
        mode = "spiking" if spiking else "linear"
        h, h_new, vel = (_array(zf, f"subspace/{i}/{p}", 2) for p in _SUBSPACE_PARTS[:3])
        subspaces[i] = LateralSubspace(
            n=int(n),
            H=h,
            H_new=h_new,
            velocity=vel,
            mode=mode,
            quant=QuantConfig(scale=float(scale), T_l=int(t_l)),
        )
    return Checkpoint(
        master_seed=seed,
        task_cursor=cursor,
        layers=[
            (n, _array(zf, f"layer/{n}/weight", 2), _array(zf, f"layer/{n}/bias", 1))
            for n in layers
        ],
        subspaces=subspaces,
        acc_matrix=[list(_array(zf, f"acc/{k}", 1)) for k in range(n_acc)],
        blas_threads=threads,
    )


def load_checkpoint(path: str) -> Checkpoint:
    try:
        f = open(path, "rb")
    except OSError as e:
        raise CheckpointError(f"{path}: cannot open checkpoint: {e.strerror}") from e
    with f:
        head = f.read(12)
        if head[:8] == b"HLOPCKP1":
            version = int.from_bytes(head[8:], "little")
            raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
        try:
            with zipfile.ZipFile(f) as zf:
                return _from_zip(zf)
        except CheckpointError as e:
            raise CheckpointError(f"{path}: {e}") from e
        except (zipfile.BadZipFile, ValueError, TypeError, KeyError, EOFError, RuntimeError,
                NotImplementedError, OSError) as e:  # TypeError: banks of mixed dtypes
            why = str(e) or type(e).__name__  # zipfile raises some errors without text
            raise CheckpointError(f"{path}: damaged or truncated checkpoint: {why}") from e
