"""Radial-basis descriptor matrices for batches of neighbor groups.

For each group of m centered neighbor vectors d_j with patch scale s,
_basis_matrices builds two m x m matrices, side by side in one array:
Gaussian values exp(-r^2) of the scale-normalized inter-neighbor distances
r, and cubes of the cosines between the normalized directions, both with a
unit diagonal. Both are rotation invariant; the Gaussian matrix is also
invariant to scaling the vectors and s together.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicatePoint


def _basis_matrices(dvecs: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """(B, m, 3) vectors, (B,) scales -> (B, m, 2m) [M_euc | M_cos]: the two
    (m, m) matrices side by side in one buffer, the row layout the RBF block's
    fused product reads.

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
    b, m = dvecs.shape[:2]
    out = np.empty((b, m, 2 * m), dtype=gram.dtype)
    m_euc, m_cos = out[..., :m], out[..., m:]
    inv = 1.0 / norms
    cos = gram * inv[:, :, None]
    cos *= inv[:, None, :]
    np.clip(cos, -1.0, 1.0, out=cos)
    np.multiply(cos, cos, out=m_cos)
    m_cos *= cos
    # |d_i|^2 + |d_j|^2 is summed before 2 G_ij is taken off so that r2 stays
    # exactly symmetric; cancellation can leave tiny negatives, hence the clamp.
    r2 = sq[:, :, None] + sq[:, None, :]
    r2 -= 2.0 * gram
    np.maximum(r2, 0.0, out=r2)
    np.negative(r2, out=r2)
    np.exp(r2, out=m_euc)
    diag = np.arange(m)
    m_cos[:, diag, diag] = 1.0
    m_euc[:, diag, diag] = 1.0
    return out
