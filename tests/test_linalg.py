import numpy as np
import pytest

from hlop.linalg import (
    kaiming_uniform_init,
    make_rng,
    rowspace_projector,
    topk_principal,
)
from reference import subspace_alignment_error


class TestKaimingUniform:
    def test_bounds_fan_in_6(self):
        m = kaiming_uniform_init(40, 40, fan_in=6, rng=make_rng(1, 0))
        assert np.all(m >= -1.0) and np.all(m <= 1.0)

    def test_determinism(self):
        a = kaiming_uniform_init(5, 7, fan_in=7, rng=make_rng(3, 1))
        b = kaiming_uniform_init(5, 7, fan_in=7, rng=make_rng(3, 1))
        assert np.array_equal(a, b)

    def test_sample_mean_near_zero(self):
        m = kaiming_uniform_init(100, 100, fan_in=6, rng=make_rng(2, 0))
        assert abs(m.mean()) < 0.05

    def test_zero_fan_in_rejected(self):
        with pytest.raises(ValueError, match="fan_in"):
            kaiming_uniform_init(2, 2, fan_in=0, rng=make_rng(0, 0))


class TestTopkPrincipal:
    def test_rank_one_data(self):
        e1 = np.zeros(5)
        e1[0] = 1.0
        data = np.tile(e1, (50, 1))
        row = topk_principal(data, 1)[0]
        assert np.allclose(np.abs(row), e1, atol=1e-12)

    def test_diagonal_covariance(self):
        # diag(4, 1) second moment: the leading eigenvector is +-e1.
        rng = make_rng(11, 0)
        data = rng.normal(size=(20000, 2)) * np.array([2.0, 1.0])
        row = topk_principal(data, 1)[0]
        assert abs(abs(row[0]) - 1.0) < 1e-2
        assert abs(row[1]) < 0.1

    def test_full_basis_projector(self):
        data = make_rng(4, 0).normal(size=(100, 6))
        h = topk_principal(data, 6)
        assert np.allclose(h.T @ h, np.eye(6), atol=1e-10)

    def test_rows_orthonormal(self):
        data = make_rng(5, 0).normal(size=(200, 10)) * np.linspace(3, 1, 10)
        h = topk_principal(data, 4)
        assert np.linalg.norm(h @ h.T - np.eye(4)) < 1e-8

    def test_descending_order(self):
        rng = make_rng(6, 0)
        data = rng.normal(size=(5000, 4)) * np.array([4.0, 3.0, 2.0, 1.0])
        h = topk_principal(data, 4)
        second = data.T @ data / data.shape[0]
        eigs = [row @ second @ row for row in h]
        assert all(eigs[i] >= eigs[i + 1] for i in range(3))

    def test_rejects_bad_k(self):
        data = np.zeros((10, 3))
        with pytest.raises(ValueError):
            topk_principal(data, 4)
        with pytest.raises(ValueError):
            topk_principal(np.zeros((2, 5)), 3)


class TestRng:
    def test_bit_reproducible_streams(self):
        a = make_rng(123, 4, 5).integers(0, 2**63, size=64)
        b = make_rng(123, 4, 5).integers(0, 2**63, size=64)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = make_rng(123, 0).integers(0, 2**63, size=16)
        b = make_rng(123, 1).integers(0, 2**63, size=16)
        assert not np.array_equal(a, b)


class TestAlignmentError:
    def test_identical_subspaces(self):
        m, _ = np.linalg.qr(make_rng(8, 0).normal(size=(6, 3)))
        m = m.T
        assert subspace_alignment_error(m, m) < 1e-12

    def test_orthogonal_complements(self):
        # For rank-k subspaces of a 2k space that are orthogonal complements,
        # ||P - (I - P)||_F = sqrt(2k), so the normalized error is exactly 1.
        q, _ = np.linalg.qr(make_rng(9, 0).normal(size=(8, 8)))
        h = q[:, :4].T
        m = q[:, 4:].T
        assert abs(subspace_alignment_error(h, m) - 1.0) < 1e-10

    def test_row_mixing_invariance(self):
        rng = make_rng(10, 0)
        q, _ = np.linalg.qr(rng.normal(size=(7, 3)))
        m = q.T
        mix = rng.normal(size=(3, 3)) + 3 * np.eye(3)
        assert subspace_alignment_error(mix @ m, m) < 1e-9

    def test_rank_deficient_h(self):
        m, _ = np.linalg.qr(make_rng(12, 0).normal(size=(5, 2)))
        m = m.T
        h = np.vstack([m[0], m[0], m[1]])  # duplicated row: rank 2
        assert subspace_alignment_error(h, m) < 1e-9

    def test_projector_of_empty(self):
        p = rowspace_projector(np.zeros((0, 4)))
        assert p.shape == (4, 4) and not p.any()
