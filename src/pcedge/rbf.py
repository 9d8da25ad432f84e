"""Radial-basis descriptor math: Gaussian and cubic bases, distance matrices.

For a group of m centered neighbor vectors d_j with patch scale s, two m x m
matrices are built: Gaussian values of the scale-normalized inter-neighbor
distances, and cubes of the cosines between the normalized directions. Both
are rotation invariant; the Euclidean matrix is also invariant to scaling
the vectors and s together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicatePoint, InvalidInput

_COS_TOL = 1e-6


@dataclass(frozen=True)
class DistanceMatrices:
    """Symmetric basis-value matrices for one neighbor group."""

    m_euc: np.ndarray  # (m, m), values in (0, 1], unit diagonal
    m_cos: np.ndarray  # (m, m), values in [-1, 1], unit diagonal
    m: int

    def __post_init__(self):
        for name, mat in (("m_euc", self.m_euc), ("m_cos", self.m_cos)):
            if mat.shape != (self.m, self.m):
                raise InvalidInput(f"{name} must be ({self.m}, {self.m}), got {mat.shape}")
            if np.abs(mat - mat.T).max() > 1e-12:
                raise InvalidInput(f"{name} is not symmetric")
            if (np.diag(mat) != 1.0).any():
                raise InvalidInput(f"{name} diagonal must be exactly 1")
        if (self.m_euc <= 0.0).any() or (self.m_euc > 1.0).any():
            raise InvalidInput("m_euc entries must lie in (0, 1]")
        if (np.abs(self.m_cos) > 1.0).any():
            raise InvalidInput("m_cos entries must lie in [-1, 1]")


def gaussian_basis(r: float) -> float:
    """Gaussian basis of a scale-normalized distance: exp(-r^2)."""
    if not np.isfinite(r) or r < 0.0:
        raise InvalidInput(f"distance must be finite and >= 0, got {r}")
    return math.exp(-(r * r))


def cubic_basis(x: float) -> float:
    """Cubic basis of a cosine: x^3, with x clamped to [-1, 1]."""
    if not np.isfinite(x) or abs(x) > 1.0 + _COS_TOL:
        raise InvalidInput(f"cosine must lie in [-1, 1], got {x}")
    x = min(1.0, max(-1.0, x))
    return x * x * x


def distance_matrices(dvecs: np.ndarray, scale: float) -> DistanceMatrices:
    """Build the Gaussian and cubic basis matrices for one neighbor group."""
    dvecs = np.asarray(dvecs, dtype=np.float64)
    if dvecs.ndim != 2 or dvecs.shape[1] != 3 or dvecs.shape[0] < 2:
        raise InvalidInput(f"dvecs must be (m >= 2, 3), got shape {dvecs.shape}")
    if not np.isfinite(scale) or scale <= 0.0:
        raise InvalidInput(f"scale must be positive, got {scale}")
    m_euc, m_cos = _basis_matrices(dvecs[None, :, :], np.asarray([scale]))
    return DistanceMatrices(m_euc=m_euc[0], m_cos=m_cos[0], m=dvecs.shape[0])


def _basis_matrices(dvecs: np.ndarray, scales: np.ndarray):
    """Batched core: (B, m, 3) vectors, (B,) scales -> two (B, m, m) matrices.

    Both matrices come from the Gram matrix G of the scale-normalized vectors:
    cosines are G_ij / (|d_i| |d_j|) and squared distances
    |d_i|^2 + |d_j|^2 - 2 G_ij, which is cheaper than materialising the
    (B, m, m, 3) differences.
    """
    scaled = dvecs / scales[:, None, None]
    gram = scaled @ scaled.transpose(0, 2, 1)
    sq = np.einsum("bii->bi", gram)
    norms = np.sqrt(sq)
    if (norms == 0.0).any():
        raise DuplicatePoint("zero-length neighbor vector (duplicate point)")
    inv = 1.0 / norms
    cos = gram * inv[:, :, None]
    cos *= inv[:, None, :]
    np.clip(cos, -1.0, 1.0, out=cos)
    m_cos = cos * cos
    m_cos *= cos
    # |d_i|^2 + |d_j|^2 is summed before 2 G_ij is taken off so that r2 stays
    # exactly symmetric; cancellation can leave tiny negatives, hence the clamp.
    r2 = sq[:, :, None] + sq[:, None, :]
    r2 -= 2.0 * gram
    np.maximum(r2, 0.0, out=r2)
    np.negative(r2, out=r2)
    m_euc = np.exp(r2, out=r2)
    m = dvecs.shape[1]
    diag = np.arange(m)
    m_cos[:, diag, diag] = 1.0
    m_euc[:, diag, diag] = 1.0
    return m_euc, m_cos
