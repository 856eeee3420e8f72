"""Dense float64 linear algebra helpers and seeded randomness.

Everything downstream (neuron dynamics, trainers, lateral circuits, the
experiment harness) builds on the few primitives in this module so that
numerical behaviour and random streams are controlled in one place.

Randomness is PCG64 (numpy's default generator), which produces identical
streams for identical seeds on every platform. Sub-streams are derived from
one master seed through ``SeedSequence`` spawn keys, so a single integer
reproduces a whole experiment.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


def make_rng(master_seed: int, *path: int) -> np.random.Generator:
    """Derive a named PCG64 sub-stream from the master seed.

    ``path`` is a tuple of small integers identifying the consumer (the
    harness's registry is the ``SEED_*`` constants of ``hlop.harness.data``
    plus ``SEED_SHUFFLE`` in ``hlop.harness.loop``). The same
    (master_seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(ss))


def kaiming_uniform_init(
    rows: int, cols: int, fan_in: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample a (rows, cols) matrix uniformly on [-sqrt(6/fan_in), +sqrt(6/fan_in)].

    Raises:
        ValueError: if fan_in is not positive.
    """
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=(rows, cols))


def topk_principal(data: np.ndarray, k: int) -> np.ndarray:
    """Top-k principal directions of a sample matrix, as orthonormal rows.

    Eigendecomposes the uncentered second-moment matrix ``data.T @ data / m``
    (the quantity the lateral Hebbian circuit converges on) and returns the k
    leading eigenvectors in descending eigenvalue order. Used as the
    independent oracle against streaming subspace learning.

    When eigenvalues are tied the returned rows are still orthonormal but
    their order and sign within the tie are unspecified; callers must compare
    projectors, not individual rows.

    Args:
        data: (samples, n) matrix, at least k samples.
        k: number of directions, k <= n.

    Returns:
        (k, n) matrix with orthonormal rows.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ShapeError(f"topk_principal expects a 2-D sample matrix, got shape {data.shape}")
    m, n = data.shape
    if k > n:
        raise ValueError(f"k={k} exceeds dimensionality n={n}")
    if m < k:
        raise ValueError(f"need at least k={k} samples, got {m}")
    second_moment = data.T @ data / m
    eigvals, eigvecs = np.linalg.eigh(second_moment)
    order = np.argsort(eigvals)[::-1][:k]
    return eigvecs[:, order].T.copy()


def rowspace_projector(h: np.ndarray, rcond: float = 1e-8) -> np.ndarray:
    """Least-squares projector onto the row space of ``h``.

    Equals ``h.T @ h`` for orthonormal rows; uses the pseudo-inverse so that
    rank-deficient or non-orthonormal rows still give a valid projector.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.size == 0:
        n = h.shape[1] if h.ndim == 2 else 0
        return np.zeros((n, n))
    return np.linalg.pinv(h, rcond=rcond) @ h


def subspace_alignment_error(h: np.ndarray, m: np.ndarray) -> float:
    """Normalized projector distance between rowspace(h) and rowspace(m).

    ``||P_h - P_m||_F / sqrt(2k)`` where ``P_m = m.T @ m`` (m must have
    orthonormal rows) and ``P_h`` is the least-squares projector onto
    rowspace(h). 0 means identical subspaces; 1 means rank-k subspaces that
    are mutually orthogonal. Invariant under invertible row re-mixing of h.
    """
    m = np.asarray(m, dtype=np.float64)
    k = m.shape[0]
    if k == 0:
        raise ValueError("reference subspace m must have at least one row")
    if h.shape[1] != m.shape[1]:
        raise ShapeError(f"dimension mismatch: h has n={h.shape[1]}, m has n={m.shape[1]}")
    p_h = rowspace_projector(h)
    p_m = m.T @ m
    return float(np.linalg.norm(p_h - p_m, "fro") / np.sqrt(2.0 * k))
