"""Point-cloud storage, exact kNN queries, and filtered-kNN surface patches.

The patch pipeline: fetch the 2k Euclidean nearest neighbors of a target
point, estimate the local minimal-variance axis by PCA, and keep the k
neighbors with the smallest absolute offset along that axis. This rejects
points that bleed through from the opposite side of a thin surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import (
    DegenerateNeighborhood,
    DuplicatePoint,
    InsufficientNeighborhood,
    InvalidInput,
)

# Rows per block of a kNN query, of a patch extraction, of
# mean_neighbor_distance's pass and of trainer.build_dataset's fill, and the
# most rows of a work unit of predict's and validation's extraction. At
# k = 33 a query block's temporaries take about 1 MB, and at k = 16 an
# extraction block's about 3.3 MiB. A multiple of trainer.INFER_WINDOW, so
# each unit runs whole model windows.
_QUERY_BLOCK = 1024

# The largest coordinate magnitude a SpatialIndex takes, in its points and in
# its queries. Within it no squared distance overflows, nor a PCA covariance
# sum over 2k <= 128 candidates (512 * 1e304 < DBL_MAX), and every distance
# stays below sqrt(DBL_MAX) ~ 1.34e154, from which cKDTree returns no point.
_MAX_COORD = 1e152


def _check_k(k: int, error=InvalidInput) -> None:
    """The patch sizes extraction and the model accept: even k in [4, 64]."""
    if k % 2 != 0 or not (4 <= k <= 64):
        raise error(f"k must be even and in [4, 64], got {k}")


@dataclass(frozen=True)
class PointCloud:
    """Immutable point set with optional per-point labels and predictions.

    Its arrays are read-only copies of what the constructor is given.

    points: (N, 3) float64 positions in world units.
    labels: optional (N,) array with 1 = edge, 0 = non-edge.
    predictions: optional (N,) array of edge probabilities in [0, 1].
    """

    points: np.ndarray
    labels: np.ndarray | None = None
    predictions: np.ndarray | None = None

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, order="C")
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
            raise InvalidInput(f"points must be a nonempty (N, 3) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise InvalidInput("points contain non-finite coordinates")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

        if self.labels is not None:
            # Checked as given, before the cast, so 0.5 is not truncated to 0.
            lab = np.asarray(self.labels)
            if lab.shape != (pts.shape[0],):
                raise InvalidInput(f"labels must have shape ({pts.shape[0]},), got {lab.shape}")
            if not np.isin(lab, (0, 1)).all():
                raise InvalidInput("labels must be exactly 0 or 1")
            lab = lab.astype(np.int64)
            lab.flags.writeable = False
            object.__setattr__(self, "labels", lab)

        if self.predictions is not None:
            pred = np.array(self.predictions, dtype=np.float64, order="C")
            if pred.shape != (pts.shape[0],):
                raise InvalidInput(f"predictions must have shape ({pts.shape[0]},), got {pred.shape}")
            if not np.isfinite(pred).all() or (pred < 0.0).any() or (pred > 1.0).any():
                raise InvalidInput("predictions must be finite and in [0, 1]")
            pred.flags.writeable = False
            object.__setattr__(self, "predictions", pred)

    @property
    def n(self) -> int:
        return self.points.shape[0]


class SpatialIndex:
    """kd-tree over a cloud answering exact kNN queries.

    Results match a brute-force scan: sorted by nondecreasing Euclidean
    distance as _norms takes it, the one distance all orderings in this
    module use, ties broken by smaller point index. The tree's own distances
    agree with _norms to a few ulp, so a row whose tree distances rise at
    every step by more than a relative 1e-12 keeps the tree's order, and
    only rows with near-ties are sorted by _norms (see query_many). The tree
    is built unbalanced, which is faster to build; the results do not depend
    on its shape. Immutable after build; safe for concurrent queries.

    Points and queries must lie within +-_MAX_COORD (1e152) on every axis;
    beyond it the build or the query raises InvalidInput.
    """

    def __init__(self, cloud: PointCloud):
        _check_range(cloud.points, "points")
        self._points = cloud.points
        self._tree = cKDTree(cloud.points, balanced_tree=False)

    @property
    def n(self) -> int:
        return self._points.shape[0]

    def query_many(self, queries: np.ndarray, k: int) -> np.ndarray:
        """Vectorized query: (B, 3) query points -> (B, min(k, N)) indices.

        The kd-tree fetches min(kk + 1, N) neighbors per row, kk = min(k, N),
        with their distances. A row whose distances rise at every step by
        more than a relative 1e-12 is already in (distance, index) order;
        the others are put in that order by _norms. A row is settled when
        the last distance it fetched exceeds its kk-th by more than a
        relative 1e-9: every point the tree did not return then lies farther
        than the kk-th, and the first kk are exact. The rows whose cut falls
        inside a tie are fetched again at twice the width, capped at N, until
        each one settles or the fetch holds every point.

        Rows are independent, so they run in blocks of _QUERY_BLOCK: beside
        the result, a query holds one block's temporaries however many rows
        it has.
        """
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2 or queries.shape[1] != 3:
            raise InvalidInput(f"queries must be (B, 3), got shape {queries.shape}")
        if not np.isfinite(queries).all():
            raise InvalidInput("queries contain non-finite coordinates")
        _check_range(queries, "queries")
        if k < 1:
            raise InvalidInput(f"k must be >= 1, got {k}")
        kk = min(k, self.n)
        out = np.empty((queries.shape[0], kk), dtype=np.int64)
        for lo in range(0, queries.shape[0], _QUERY_BLOCK):
            self._query_block(queries[lo:lo + _QUERY_BLOCK], kk, out[lo:lo + _QUERY_BLOCK])
        return out

    def _query_block(self, queries: np.ndarray, kk: int, out: np.ndarray) -> None:
        """query_many on one block of rows, written into out."""
        rows = np.arange(queries.shape[0])
        m = min(kk + 1, self.n)
        while rows.size:
            kd, idx = self._tree.query(queries[rows], k=m)
            kd = kd.reshape(rows.size, m)
            idx = idx.reshape(rows.size, m).astype(np.int64, copy=False)
            rising = (np.diff(kd, axis=1) > 1e-12 * kd[:, 1:]).all(axis=1)
            tied = np.nonzero(~rising)[0]
            if tied.size:
                sub = idx[tied]
                dist = _norms(np.take(self._points, sub, axis=0) - queries[rows[tied], None, :])
                stray, order = _stray_order(dist, sub)
                sub[stray] = _take_rows(sub[stray], order)
                idx[tied] = sub
            out[rows] = idx[:, :kk]
            if m == self.n:
                return
            rows = rows[kd[:, -1] <= kd[:, kk - 1] * (1.0 + 1e-9)]
            m = min(2 * m, self.n)


def _check_range(points: np.ndarray, name: str) -> None:
    """InvalidInput if a coordinate of the finite points lies beyond +-_MAX_COORD."""
    if points.max(initial=0.0) > _MAX_COORD or points.min(initial=0.0) < -_MAX_COORD:
        raise InvalidInput(f"{name} have coordinates beyond +-{_MAX_COORD:g}, the range of kNN queries")


def _dot3(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over a last axis of length 3, broadcasting the others.

    Summed as (x0*y0 + x2*y2) + x1*y1 from +0.0, bit for bit what
    np.einsum gives for "bkd,bkd->bk" and "bkd,bd->bk", but as plain
    elementwise passes, which skip einsum's generic strided loop. The order
    is fixed, so the result does not depend on either operand's layout.
    Like einsum, it raises no floating-point warning on overflow or invalid
    products.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dot = x[..., 0] * y[..., 0]
        dot += x[..., 2] * y[..., 2]
        dot += x[..., 1] * y[..., 1]
        dot += 0.0   # a sum of -0.0 products starts from +0.0 in einsum
    return dot


def _norms(diff: np.ndarray) -> np.ndarray:
    """(B, m) Euclidean norms of (B, m, 3) difference vectors.

    Every distance this module orders by comes from here, as the square
    root of _dot3, so equal difference vectors always give bit-equal
    distances.
    """
    return np.sqrt(_dot3(diff, diff))


def _take_rows(a: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """a[r, sel[r]] for each row r of an (n, m, ...) array and (n, j) positions sel.

    Equal to np.take_along_axis along axis 1, as one np.take of the flat
    positions r*m + sel[r] over a's (n*m, ...) rows, which numpy runs several
    times faster.
    """
    n, m = a.shape[:2]
    return np.take(a.reshape((n * m,) + a.shape[2:]), sel + m * np.arange(n)[:, None], axis=0)


def _stray_order(dist: np.ndarray, idx: np.ndarray):
    """Rows not in (distance, index) order, and the per-row sort that fixes them.

    A row already in order is skipped: its stable lexsort is the identity.
    """
    step = np.diff(dist, axis=1)
    stray = np.nonzero(((step < 0) | ((step == 0) & (np.diff(idx, axis=1) < 0))).any(axis=1))[0]
    return stray, np.lexsort((idx[stray], dist[stray]), axis=1)


def build_index(cloud: PointCloud) -> SpatialIndex:
    """Build an exact-kNN spatial index over the cloud."""
    return SpatialIndex(cloud)


def _min_axes(neighborhoods: np.ndarray, targets) -> np.ndarray:
    """Batched minimal-variance axes, of either sign: (B, m, 3) points -> (B, 3); errors name targets[b].

    The mean and the covariance sum over the m points in order, from +0.0,
    as neighborhoods.mean(axis=1) and np.einsum("bmi,bmj->bij") over the
    centred points do, bit for bit. They run on an (m, 3, B) copy, so every
    pass is elementwise over B, and the covariance adds one (3, 3, B)
    product at a time rather than holding all m of them.
    """
    m = neighborhoods.shape[1]
    # Not ascontiguousarray: at B = 1 that returns a view of the caller's points.
    centered = neighborhoods.transpose(1, 2, 0).copy()
    cov = np.zeros((3, 3, centered.shape[2]))
    with np.errstate(over="ignore", invalid="ignore"):
        centered -= np.add.reduce(centered, axis=0) / m
        for c in centered:
            cov += c[:, None, :] * c[None, :, :]
        traces = np.trace(cov)   # finite diagonals can still sum past DBL_MAX
    if (traces == 0.0).any():
        bad = int(targets[np.nonzero(traces == 0.0)[0][0]])
        raise DegenerateNeighborhood(f"neighborhood of target {bad} has coincident points")
    _, vecs = np.linalg.eigh(cov.transpose(2, 0, 1))
    return vecs[:, :, 0].copy()   # not a view, which would keep all of vecs alive


def extract_patches(cloud: PointCloud, index: SpatialIndex, targets: np.ndarray, k: int):
    """Vectorized filtered-kNN patch extraction for many target points.

    Returns (dvecs (B,k,3), offsets (B,k), scales (B,), neighbor indices
    (B,k)); the first three are net.forward_batch's inputs. Rows are ordered
    by nondecreasing dvec norm, ties by neighbor index. An offset is
    |d . a| along the local minimal-variance axis a, so a's sign never
    matters. Safe to call concurrently against one shared index.

    Each patch is filtered from its target's 2k nearest other points, so a
    cloud of fewer than 2k + 1 points raises InsufficientNeighborhood.
    targets must be integer indices.

    Targets run in blocks of _QUERY_BLOCK, so beside the result a call
    holds one block's temporaries however many targets it has.
    """
    _check_k(k)
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise InvalidInput(f"targets must be a 1-d index array, got shape {targets.shape}")
    if targets.size and not np.issubdtype(targets.dtype, np.integer):
        raise InvalidInput(f"targets must be integer indices, got dtype {targets.dtype}")
    targets = targets.astype(np.int64, copy=False)
    n = cloud.n
    if targets.size and (targets.min() < 0 or targets.max() >= n):
        raise InvalidInput("target indices out of range")
    if n < 2 * k + 1:
        raise InsufficientNeighborhood(f"need at least {2 * k + 1} points for k={k}, cloud has {n}")
    b = targets.size
    out = (np.empty((b, k, 3)), np.empty((b, k)), np.empty(b), np.empty((b, k), dtype=np.int64))
    for lo in range(0, b, _QUERY_BLOCK):
        rows = slice(lo, lo + _QUERY_BLOCK)
        for dst, src in zip(out, _extract_block(cloud, index, targets[rows], k)):
            dst[rows] = src
    return out


def _extract_block(cloud: PointCloud, index: SpatialIndex, targets: np.ndarray, k: int):
    """extract_patches on one block of targets, as new arrays."""
    cand = _knn_excluding_self(index, targets, 2 * k)
    cand_pts = np.take(cloud.points, cand, axis=0)
    dvecs_all = cand_pts - np.take(cloud.points, targets, axis=0)[:, None, :]
    cdist = _norms(dvecs_all)
    if (cdist[:, 0] == 0.0).any():
        bad = int(targets[np.nonzero(cdist[:, 0] == 0.0)[0][0]])
        raise DuplicatePoint(f"cloud contains a duplicate of point {bad}")

    axes = _min_axes(cand_pts, targets)
    off_all = np.abs(_dot3(dvecs_all, axes[:, None, :]))

    # Keep the k smallest offsets. With cand in (distance, index) order, a
    # stable sort breaks offset ties by distance, then index, and sorting the
    # kept positions gives the final (distance, index) order. The scale is
    # the mean distance summed in offset order, before that sort: summing in
    # distance order changes it in the last bit.
    sel = np.argsort(off_all, axis=1, kind="stable")[:, :k]
    scales = _take_rows(cdist, sel).mean(axis=1)
    sel.sort(axis=1)
    neighbor_idx = _take_rows(cand, sel)
    dvecs = _take_rows(dvecs_all, sel)
    offsets = _take_rows(off_all, sel)
    return dvecs, offsets, scales, neighbor_idx


def mean_neighbor_distance(cloud: PointCloud, k: int = 16) -> float:
    """Mean Euclidean distance from each point to its k nearest neighbors.

    The (N, k) distances are filled one block of points at a time and
    averaged in one pass, so the mean does not depend on the block size.
    """
    # _knn_excluding_self owns the k and size rules. The k rule is repeated
    # here because np.empty((n, k)) below fails first on a negative k.
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    index = build_index(cloud)
    dist = np.empty((cloud.n, k))
    for lo in range(0, cloud.n, _QUERY_BLOCK):
        targets = np.arange(lo, min(lo + _QUERY_BLOCK, cloud.n))
        neighbors = _knn_excluding_self(index, targets, k)
        dist[targets] = np.linalg.norm(cloud.points[neighbors] - cloud.points[targets, None, :], axis=2)
    return float(dist.mean())


def _knn_excluding_self(index: SpatialIndex, targets: np.ndarray, k: int) -> np.ndarray:
    """(B, k) nearest neighbors of the indexed points targets, leaving each out.

    Rows keep query_many's (distance, index) order. With duplicates the self
    entry can sit anywhere in the zero-distance group, or fall off the list,
    in which case the row drops its first entry, a duplicate that stands in
    for it.

    Each row needs k other points, so an index of fewer than k + 1 points
    raises InsufficientNeighborhood.
    """
    if k < 1:
        raise InvalidInput(f"k must be >= 1, got {k}")
    if index.n < k + 1:
        raise InsufficientNeighborhood(f"need at least {k + 1} points, cloud has {index.n}")
    nn = index.query_many(index._points[targets], k + 1)
    is_self = nn == targets[:, None]
    drop = np.argmax(is_self, axis=1)   # 0 in a row without a self entry
    mask = np.ones_like(nn, dtype=bool)
    mask[np.arange(len(nn)), drop] = False
    return nn[mask].reshape(len(nn), k)


def add_gaussian_noise(cloud: PointCloud, ratio: float, seed: int) -> PointCloud:
    """Perturb coordinates with iid Gaussian noise of std ratio * Sd.

    Sd is the mean distance between points and their 16 nearest neighbors.
    """
    if not np.isfinite(ratio) or ratio < 0:
        raise InvalidInput(f"noise ratio must be a nonnegative scalar, got {ratio}")
    if seed < 0:
        raise InvalidInput(f"seed must be a nonnegative integer, got {seed!r}")
    if ratio == 0.0:
        return cloud
    sd = mean_neighbor_distance(cloud, k=16)
    rng = np.random.default_rng(seed)
    noisy = cloud.points + rng.normal(0.0, ratio * sd, size=cloud.points.shape)
    return PointCloud(noisy, cloud.labels, cloud.predictions)


def downsample(cloud: PointCloud, keep_ratio: float, seed: int) -> PointCloud:
    """Keep round(keep_ratio * N) points, uniformly without replacement."""
    if not (0.0 < keep_ratio <= 1.0):
        raise InvalidInput(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    if seed < 0:
        raise InvalidInput(f"seed must be a nonnegative integer, got {seed!r}")
    m = int(np.floor(keep_ratio * cloud.n + 0.5))
    if m < 1:
        raise InvalidInput("downsampling would leave an empty cloud")
    if m == cloud.n:
        return cloud
    rng = np.random.default_rng(seed)
    return _subset(cloud, np.sort(rng.choice(cloud.n, size=m, replace=False)))


def deduplicate(cloud: PointCloud) -> PointCloud:
    """Drop exact coordinate duplicates, keeping the first occurrence."""
    _, first = np.unique(cloud.points, axis=0, return_index=True)
    if first.size == cloud.n:
        return cloud
    return _subset(cloud, np.sort(first))


def _subset(cloud: PointCloud, idx: np.ndarray) -> PointCloud:
    """The cloud's rows idx: points, labels and predictions alike."""
    return PointCloud(
        cloud.points[idx],
        None if cloud.labels is None else cloud.labels[idx],
        None if cloud.predictions is None else cloud.predictions[idx],
    )
