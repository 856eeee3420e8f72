"""Datasets and task sequences.

Image data travels in the MNIST IDX container format (big-endian headers,
raw uint8 payload), so real MNIST files drop in directly. Because the
package must also run in fully offline environments, ``synth_digit_pools``
generates a deterministic MNIST-shaped corpus of noisy multi-modal blob
"digits" and ``write_idx_dataset`` emits it under the conventional file
names.

Task sequences:

* permuted-pixel tasks — task 0 keeps the identity pixel order, later tasks
  apply seeded Fisher-Yates permutations; single-head (domain-incremental);
* split tasks — consecutive class pairs with per-task heads
  (task-incremental), used as the conv-path smoke test.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from ..linalg import make_rng

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"


class DatasetError(Exception):
    """Base class for dataset loading failures."""


class IdxMagicError(DatasetError):
    """An IDX file does not start with its kind's magic number."""


class IdxTruncatedError(DatasetError):
    """An IDX file ends before the bytes its header sizes."""


class IdxCountMismatchError(DatasetError):
    """An image file and its label file hold different sample counts."""


class IdxHeaderError(DatasetError):
    """An IDX header gives a negative dimension."""


class IdxTrailingBytesError(DatasetError):
    """An IDX file holds bytes after the payload its header sizes."""


class IdxLabelError(DatasetError):
    """A label lies outside 0..9."""


class PoolTooSmallError(DatasetError):
    """A pool holds fewer samples than the task plan draws."""


class ImageSizeError(DatasetError):
    """The conv kernel and pool do not tile the images."""


def _read_exact(f, n: int, path: str) -> bytes:
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise IdxTruncatedError(f"{path}: expected {n} more bytes, {left} left")
    buf = f.read(n)
    if len(buf) != n:
        raise IdxTruncatedError(f"{path}: expected {n} more bytes, got {len(buf)}")
    return buf


def _load_idx(path: str, magic: int, kind: str, dims: tuple[str, ...]) -> np.ndarray:
    """Read an IDX file's uint8 payload in the shape its header gives, and no more."""
    try:
        f = open(path, "rb")
    except OSError as e:
        raise DatasetError(f"{path}: cannot open: {e.strerror}") from e
    with f:
        found, = struct.unpack(">i", _read_exact(f, 4, path))
        if found != magic:
            raise IdxMagicError(
                f"{path}: {kind} magic 0x{found & 0xffffffff:08x}, expected 0x{magic:08x}"
            )
        shape = struct.unpack(f">{len(dims)}i", _read_exact(f, 4 * len(dims), path))
        bad = [f"{name} {v}" for name, v in zip(dims, shape) if v < 0]
        if bad:  # before a negative dimension can size a read
            raise IdxHeaderError(f"{path}: negative {', '.join(bad)} in header")
        payload = _read_exact(f, math.prod(shape), path)
        if extra := os.fstat(f.fileno()).st_size - f.tell():
            raise IdxTrailingBytesError(
                f"{path}: {extra} bytes after the {len(payload)}-byte payload its header sizes")
    # Copy, so the read buffer is freed here: glibc then raises its mmap threshold (fewer faults).
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()


def load_idx_images(path: str) -> np.ndarray:
    """Read an IDX image file as a (count, rows, cols) uint8 array."""
    return _load_idx(path, IMAGE_MAGIC, "image", ("count", "rows", "cols"))


def load_idx_labels(path: str) -> np.ndarray:
    """Read an IDX label file as a (count,) uint8 array."""
    return _load_idx(path, LABEL_MAGIC, "label", ("count",))


@dataclass
class Dataset:
    """Flat byte images (pixel value 0-255) with integer labels."""

    images: np.ndarray  # (n, rows*cols) uint8
    labels: np.ndarray  # (n,) int64
    image_hw: tuple[int, int]

    def __len__(self) -> int:
        return self.images.shape[0]


def load_mnist_idx(images_path: str, labels_path: str) -> Dataset:
    """Load a paired IDX image/label file set.

    Pixels stay the file's bytes (scaling to [0, 1] happens per batch in the
    training loop); counts of the two files must agree, and every label must
    be a digit class 0..9.
    """
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise IdxCountMismatchError(
            f"{images_path} has {images.shape[0]} images but "
            f"{labels_path} has {labels.shape[0]} labels"
        )
    if labels.max(initial=0) > 9:
        i = int(np.argmax(labels > 9))
        raise IdxLabelError(f"{labels_path}: label {labels[i]} at index {i} is outside 0..9")
    n, rows, cols = images.shape
    flat = images.reshape(n, rows * cols)
    return Dataset(images=flat, labels=labels.astype(np.int64), image_hw=(rows, cols))


@contextmanager
def atomic_path(path: str) -> Iterator[str]:
    """Yield a temp path to write ``path``'s content to, then rename it onto ``path``,
    so no reader sees a partial file. On a failure the temp file is removed, and an
    ``OSError`` is raised again with ``path`` as its ``filename``."""
    tmp = path + ".tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as e:
        with suppress(OSError):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OSError(e.errno, e.strerror or str(e), path) from e
        raise


def write_idx_images(path: str, images: np.ndarray) -> None:
    """Write a (count, rows, cols) uint8 array in IDX image format."""
    count, rows, cols = images.shape
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(struct.pack(">iiii", IMAGE_MAGIC, count, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_idx_labels(path: str, labels: np.ndarray) -> None:
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(struct.pack(">ii", LABEL_MAGIC, labels.shape[0]))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# deterministic synthetic digit corpus (offline stand-in for MNIST)


def _class_prototypes(rng: np.random.Generator, hw: tuple[int, int]) -> np.ndarray:
    """Two stroke-blob prototypes per class, shape (10, 2, h, w) in [0, 1]."""
    h, w = hw
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    protos = np.zeros((10, 2, h, w))
    for c in range(10):
        for m in range(2):
            img = np.zeros((h, w))
            for _ in range(4):
                cy = rng.uniform(6.0, h - 7.0)
                cx = rng.uniform(6.0, w - 7.0)
                sy = rng.uniform(1.6, 4.2)
                sx = rng.uniform(1.6, 4.2)
                amp = rng.uniform(0.6, 1.0)
                img += amp * np.exp(-(((yy - cy) / sy) ** 2 + ((xx - cx) / sx) ** 2) / 2.0)
            img /= max(img.max(), 1e-12)
            protos[c, m] = img
    return protos


def synth_digit_pools(
    n_train: int, n_test: int, seed: int, hw: tuple[int, int] = (28, 28)
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic MNIST-shaped corpus of noisy blob digits.

    Each class has two style prototypes; samples apply an integer spatial
    jitter, an amplitude factor, and pixel noise, then quantize to uint8.
    Same seed, same corpus, on every platform.

    Returns (train_images, train_labels, test_images, test_labels) with
    uint8 images of shape (n, h, w).
    """
    rng = make_rng(seed, SEED_SYNTH)
    protos = _class_prototypes(rng, hw)

    def draw(n: int) -> tuple[np.ndarray, np.ndarray]:
        h, w = hw
        labels = rng.integers(0, 10, size=n)
        modes = rng.integers(0, 2, size=n)
        shifts = rng.integers(-1, 2, size=(n, 2))
        amps = rng.uniform(0.7, 1.3, size=n)
        noise = rng.normal(0.0, 0.10, size=(n, h, w))
        images = np.empty((n, h, w), dtype=np.uint8)
        for i in range(n):
            img = amps[i] * np.roll(
                protos[labels[i], modes[i]], (shifts[i, 0], shifts[i, 1]), axis=(0, 1)
            )
            img = np.clip(img + noise[i], 0.0, 1.0)
            images[i] = np.round(img * 255.0).astype(np.uint8)
        return images, labels.astype(np.uint8)

    train_x, train_y = draw(n_train)
    test_x, test_y = draw(n_test)
    return train_x, train_y, test_x, test_y


def write_idx_dataset(
    out_dir: str, n_train: int = 12000, n_test: int = 4000, seed: int = 1
) -> None:
    """Generate the synthetic corpus and write the four conventional IDX files."""
    os.makedirs(out_dir, exist_ok=True)
    tr_x, tr_y, te_x, te_y = synth_digit_pools(n_train, n_test, seed)
    write_idx_images(os.path.join(out_dir, TRAIN_IMAGES), tr_x)
    write_idx_labels(os.path.join(out_dir, TRAIN_LABELS), tr_y)
    write_idx_images(os.path.join(out_dir, TEST_IMAGES), te_x)
    write_idx_labels(os.path.join(out_dir, TEST_LABELS), te_y)


def load_data_dir(data_dir: str) -> tuple[Dataset, Dataset]:
    """Load the train/test pair from a directory of conventional IDX names."""
    train = load_mnist_idx(
        os.path.join(data_dir, TRAIN_IMAGES), os.path.join(data_dir, TRAIN_LABELS)
    )
    test = load_mnist_idx(
        os.path.join(data_dir, TEST_IMAGES), os.path.join(data_dir, TEST_LABELS)
    )
    return train, test


# ---------------------------------------------------------------------------
# task sequences

SEED_WEIGHTS = 0
SEED_FEEDBACK = 1
SEED_SUBSPACE = 2
SEED_DATA = 3
SEED_PERM = 4
SEED_AUDIT = 5
SEED_SYNTH = 6


@dataclass
class Task:
    """One task's uint8 pixel rows (permuted on pmnist) and integer labels."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    permutation: np.ndarray | None = None
    classes: tuple[int, ...] = ()


@dataclass
class TaskSequence:
    tasks: list[Task]
    n_classes: int
    image_hw: tuple[int, int]


def make_pmnist_tasks(
    train: Dataset,
    test: Dataset,
    n_tasks: int,
    seed: int,
    train_per_task: int,
    test_per_task: int,
) -> TaskSequence:
    """Permuted-pixel task sequence (single head).

    Task 0 keeps the original pixel order; each later task applies a
    Fisher-Yates permutation drawn from its own sub-stream of the master
    seed. Per-task train subsets are sampled disjointly from the train pool
    so the run is a true online stream; test subsets are sampled per task
    from the test pool. A pool too small for that plan raises
    ``PoolTooSmallError``.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    n_pix = train.images.shape[1]
    if n_tasks * train_per_task > len(train):
        raise PoolTooSmallError(
            f"need {n_tasks * train_per_task} train samples for disjoint tasks, "
            f"pool has {len(train)}"
        )
    if test_per_task > len(test):
        raise PoolTooSmallError(f"test_per_task {test_per_task} exceeds pool {len(test)}")

    pool_order = make_rng(seed, SEED_DATA, 0).permutation(len(train))
    tasks = []
    for t in range(n_tasks):
        perm = np.arange(n_pix) if t == 0 else make_rng(seed, SEED_PERM, t).permutation(n_pix)
        tr_idx = pool_order[t * train_per_task : (t + 1) * train_per_task]
        te_idx = make_rng(seed, SEED_DATA, 1 + t).choice(
            len(test), size=test_per_task, replace=False
        )
        tasks.append(
            Task(
                name=f"perm{t}",
                train_x=train.images[tr_idx][:, perm],
                train_y=train.labels[tr_idx],
                test_x=test.images[te_idx][:, perm],
                test_y=test.labels[te_idx],
                permutation=perm,
            )
        )
    return TaskSequence(tasks=tasks, n_classes=10, image_hw=train.image_hw)


def make_split_tasks(
    train: Dataset,
    test: Dataset,
    seed: int,
    train_per_task: int,
    test_per_task: int,
    n_tasks: int = 5,
) -> TaskSequence:
    """Class-pair split tasks with per-task heads (multi-head).

    Task t covers classes (2t, 2t+1) with labels remapped to {0, 1}; a class
    pair short of the plan raises ``PoolTooSmallError``.
    """
    if n_tasks < 1 or n_tasks > 5:
        raise ValueError(f"split tasks support 1..5 class pairs, got {n_tasks}")
    tasks = []
    for t in range(n_tasks):
        classes = (2 * t, 2 * t + 1)
        tr_idx = np.flatnonzero(np.isin(train.labels, classes))
        te_idx = np.flatnonzero(np.isin(test.labels, classes))
        if train_per_task > tr_idx.size or test_per_task > te_idx.size:
            raise PoolTooSmallError(
                f"classes {classes}: need {train_per_task} train and {test_per_task} test "
                f"samples, pools have {tr_idx.size} and {te_idx.size}"
            )
        rng = make_rng(seed, SEED_DATA, t)
        tr_pick = rng.choice(tr_idx, size=train_per_task, replace=False)
        te_pick = rng.choice(te_idx, size=test_per_task, replace=False)
        tasks.append(
            Task(
                name=f"split{classes[0]}{classes[1]}",
                train_x=train.images[tr_pick],
                train_y=(train.labels[tr_pick] == classes[1]).astype(np.int64),
                test_x=test.images[te_pick],
                test_y=(test.labels[te_pick] == classes[1]).astype(np.int64),
                classes=classes,
            )
        )
    return TaskSequence(tasks=tasks, n_classes=2, image_hw=train.image_hw)
