"""Basis functions and distance matrices."""

import math

import numpy as np
import pytest

from pcedge.errors import DuplicatePoint, InvalidInput
from pcedge.rbf import cubic_basis, distance_matrices, gaussian_basis


def naive_matrices(dvecs, scale):
    """Independent double-loop evaluation."""
    m = len(dvecs)
    units = [d / np.linalg.norm(d) for d in dvecs]
    m_euc = np.empty((m, m))
    m_cos = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            m_euc[a, b] = math.exp(-((np.linalg.norm(dvecs[a] - dvecs[b]) / scale) ** 2))
            m_cos[a, b] = float(units[a] @ units[b]) ** 3
    np.fill_diagonal(m_euc, 1.0)
    np.fill_diagonal(m_cos, 1.0)
    return m_euc, m_cos


class TestGaussianBasis:
    def test_closed_forms(self):
        assert gaussian_basis(0.0) == 1.0
        assert gaussian_basis(1.0) == pytest.approx(math.exp(-1.0))
        assert gaussian_basis(2.0) == pytest.approx(math.exp(-4.0))

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(InvalidInput):
            gaussian_basis(-0.1)
        with pytest.raises(InvalidInput):
            gaussian_basis(float("nan"))


class TestCubicBasis:
    def test_closed_forms(self):
        assert cubic_basis(1.0) == 1.0
        assert cubic_basis(-0.5) == -0.125
        assert cubic_basis(0.0) == 0.0

    def test_clamps_rounding_noise(self):
        assert cubic_basis(1.0 + 1e-9) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInput):
            cubic_basis(1.1)


class TestDistanceMatrices:
    def test_orthogonal_pair(self):
        dm = distance_matrices(np.array([[1.0, 0, 0], [0, 1.0, 0]]), scale=1.0)
        assert np.allclose(dm.m_cos, np.eye(2))
        assert dm.m_euc[0, 1] == pytest.approx(math.exp(-2.0))
        assert dm.m_euc[0, 0] == 1.0

    def test_antipodal_pair(self):
        dm = distance_matrices(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), scale=1.0)
        assert dm.m_cos[0, 1] == pytest.approx(-1.0)
        assert dm.m_euc[0, 1] == pytest.approx(math.exp(-4.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        dvecs = rng.normal(size=(8, 3))
        scale = float(rng.uniform(0.2, 3.0))
        dm = distance_matrices(dvecs, scale)
        m_euc, m_cos = naive_matrices(dvecs, scale)
        assert np.abs(dm.m_euc - m_euc).max() < 1e-12
        assert np.abs(dm.m_cos - m_cos).max() < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        dvecs = rng.normal(size=(6, 3))
        mat = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(mat)
        q *= np.sign(np.diag(r))
        base = distance_matrices(dvecs, 1.3)
        rotated = distance_matrices(dvecs @ q.T, 1.3)
        assert np.abs(base.m_euc - rotated.m_euc).max() < 1e-12
        assert np.abs(base.m_cos - rotated.m_cos).max() < 1e-12

    @pytest.mark.parametrize("factor", [0.1, 3.0, 250.0])
    def test_scale_covariance(self, factor):
        rng = np.random.default_rng(5)
        dvecs = rng.normal(size=(6, 3))
        base = distance_matrices(dvecs, 0.8)
        scaled = distance_matrices(dvecs * factor, 0.8 * factor)
        assert np.abs(base.m_euc - scaled.m_euc).max() < 1e-12
        assert np.abs(base.m_cos - scaled.m_cos).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(200 + seed)
        dm = distance_matrices(rng.normal(size=(10, 3)), float(rng.uniform(0.5, 2.0)))
        assert np.array_equal(dm.m_euc, dm.m_euc.T)
        assert np.array_equal(np.diag(dm.m_euc), np.ones(10))
        assert np.array_equal(np.diag(dm.m_cos), np.ones(10))
        assert (dm.m_euc > 0).all() and (dm.m_euc <= 1).all()
        assert (np.abs(dm.m_cos) <= 1).all()

    def test_near_coincident_neighbors_stay_in_range(self):
        # Squared distances from the Gram form can cancel to tiny negatives.
        rng = np.random.default_rng(9)
        for _ in range(200):
            dvecs = rng.normal(size=(8, 3))
            dvecs[1] = dvecs[0] + rng.normal(size=3) * 1e-9
            dm = distance_matrices(dvecs, float(rng.uniform(0.5, 2.0)))
            assert dm.m_euc.max() <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DuplicatePoint):
            distance_matrices(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1.0)

    def test_bad_scale_rejected(self):
        with pytest.raises(InvalidInput):
            distance_matrices(np.array([[1.0, 0, 0], [0, 1.0, 0]]), 0.0)
