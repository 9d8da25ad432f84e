"""Gaussian and cubic basis matrices of neighbor groups (`_basis_matrices`)."""

import math

import numpy as np
import pytest

from helpers import basis_pair
from pcedge.errors import DuplicatePoint


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


class TestDistanceMatrices:
    def test_orthogonal_pair(self):
        m_euc, m_cos = basis_pair(np.array([[1.0, 0, 0], [0, 1.0, 0]]), 1.0)
        assert np.allclose(m_cos, np.eye(2))
        assert m_euc[0, 1] == pytest.approx(math.exp(-2.0))
        assert m_euc[0, 0] == 1.0

    def test_antipodal_pair(self):
        m_euc, m_cos = basis_pair(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), 1.0)
        assert m_cos[0, 1] == pytest.approx(-1.0)
        assert m_euc[0, 1] == pytest.approx(math.exp(-4.0))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        dvecs = rng.normal(size=(8, 3))
        scale = float(rng.uniform(0.2, 3.0))
        got_euc, got_cos = basis_pair(dvecs, scale)
        m_euc, m_cos = naive_matrices(dvecs, scale)
        assert np.abs(got_euc - m_euc).max() < 1e-12
        assert np.abs(got_cos - m_cos).max() < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(100 + seed)
        dvecs = rng.normal(size=(6, 3))
        mat = rng.normal(size=(3, 3))
        q, r = np.linalg.qr(mat)
        q *= np.sign(np.diag(r))
        base_euc, base_cos = basis_pair(dvecs, 1.3)
        rot_euc, rot_cos = basis_pair(dvecs @ q.T, 1.3)
        assert np.abs(base_euc - rot_euc).max() < 1e-12
        assert np.abs(base_cos - rot_cos).max() < 1e-12

    @pytest.mark.parametrize("factor", [0.1, 3.0, 250.0])
    def test_scale_covariance(self, factor):
        rng = np.random.default_rng(5)
        dvecs = rng.normal(size=(6, 3))
        base_euc, base_cos = basis_pair(dvecs, 0.8)
        scaled_euc, scaled_cos = basis_pair(dvecs * factor, 0.8 * factor)
        assert np.abs(base_euc - scaled_euc).max() < 1e-12
        assert np.abs(base_cos - scaled_cos).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(200 + seed)
        m_euc, m_cos = basis_pair(rng.normal(size=(10, 3)), float(rng.uniform(0.5, 2.0)))
        assert np.array_equal(m_euc, m_euc.T)
        assert np.array_equal(np.diag(m_euc), np.ones(10))
        assert np.array_equal(np.diag(m_cos), np.ones(10))
        assert (m_euc > 0).all() and (m_euc <= 1).all()
        assert (np.abs(m_cos) <= 1).all()

    def test_near_coincident_neighbors_stay_in_range(self):
        # Squared distances from the Gram form can cancel to tiny negatives.
        rng = np.random.default_rng(9)
        for _ in range(200):
            dvecs = rng.normal(size=(8, 3))
            dvecs[1] = dvecs[0] + rng.normal(size=3) * 1e-9
            m_euc, _ = basis_pair(dvecs, float(rng.uniform(0.5, 2.0)))
            assert m_euc.max() <= 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(DuplicatePoint):
            basis_pair(np.array([[0.0, 0, 0], [1.0, 0, 0]]), 1.0)
