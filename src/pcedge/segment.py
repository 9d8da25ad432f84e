"""Surface segmentation: connected components of a kNN graph bounded by edge points.

The graph links each point to its k nearest neighbors, and every link is
followed both ways. Edge points are cut out of it: they act as absorbing
boundaries and keep segment id -1. Each connected component of the remaining
non-edge points is one segment, numbered in order of its lowest member index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .cloud import PointCloud, _knn_excluding_self, build_index
from .errors import InvalidInput


@dataclass(frozen=True)
class SegmentationResult:
    segment_ids: np.ndarray  # (N,) int, -1 for edge/unreached points
    count: int
    sizes: list[int]


def knn_graph(cloud: PointCloud, k: int = 5, *, rows=None) -> csr_array:
    """Directed kNN graph: an (N, N) CSR array with a float64 one per link.

    Each row i that the boolean (N,) mask `rows` selects (default: every
    point) holds exactly k entries, i's k nearest other points in (distance,
    index) order; only those rows are queried, and every other row is empty,
    so with every point indptr is arange(0, N*k + 1, k). Read each link both
    ways: connected_components(..., directed=False), or graph + graph.T for
    the symmetrised adjacency. The weights are float64 and indices and
    indptr int32 while the entries and N fit, because connected_components
    would otherwise copy the graph to those dtypes.
    """
    rows = np.ones(cloud.n, dtype=bool) if rows is None else np.asarray(rows)
    if rows.dtype != bool or rows.shape != (cloud.n,):
        raise InvalidInput(f"rows must be a boolean mask of shape ({cloud.n},), "
                           f"got {rows.dtype} of shape {rows.shape}")
    neighbors = _knn_excluding_self(build_index(cloud), np.nonzero(rows)[0], k)
    idx = np.int32 if max(neighbors.size, cloud.n) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(cloud.n + 1, dtype=idx)
    indptr[1:][rows] = k
    np.cumsum(indptr, out=indptr)
    return csr_array((np.ones(neighbors.size), neighbors.ravel().astype(idx), indptr),
                     shape=(cloud.n, cloud.n))


def flood_segment(cloud: PointCloud, k: int = 5) -> SegmentationResult:
    """Partition non-edge points into segments bounded by edge points.

    Segments are numbered in ascending order of their lowest member
    index, which makes the ids deterministic. Edge points keep id -1.
    """
    if cloud.labels is None:
        raise InvalidInput("flood_segment requires edge labels")
    is_edge = cloud.labels == 1
    interior = ~is_edge
    # Edge points' rows are left empty; cut the links that point to an edge
    # point, then drop the cut entries: connected_components counts an
    # explicit zero as a link.
    graph = knn_graph(cloud, k, rows=interior)
    graph.data[is_edge[graph.indices]] = 0
    graph.eliminate_zeros()
    _, comp = connected_components(graph, directed=False)

    _, first, inverse = np.unique(comp[interior], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = np.full(cloud.n, -1, dtype=np.int64)
    ids[interior] = rank[inverse]
    count = int(first.size)
    sizes = np.bincount(ids[interior], minlength=count).tolist()
    return SegmentationResult(segment_ids=ids, count=count, sizes=sizes)
