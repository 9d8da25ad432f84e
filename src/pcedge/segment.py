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


def knn_graph(cloud: PointCloud, k: int = 5) -> csr_array:
    """Directed kNN graph: an (N, N) CSR array with a float64 one per link.

    Row i holds exactly k entries, i's k nearest other points in (distance,
    index) order, so indptr is arange(0, N*k + 1, k). Read each link both
    ways: connected_components(..., directed=False), or graph + graph.T for
    the symmetrised adjacency. The weights are float64 and indices and indptr
    int32 while N*k fits, because connected_components would otherwise copy
    the graph to those dtypes.
    """
    neighbors = _knn_excluding_self(build_index(cloud), np.arange(cloud.n), k)
    idx = np.int32 if neighbors.size <= np.iinfo(np.int32).max else np.int64
    indptr = np.arange(0, neighbors.size + 1, k, dtype=idx)
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
    graph = knn_graph(cloud, k)
    # Cut every link that touches an edge point, then drop the cut entries:
    # connected_components counts an explicit zero as a link.
    graph.data[np.repeat(is_edge, k) | is_edge[graph.indices]] = 0
    graph.eliminate_zeros()
    _, comp = connected_components(graph, directed=False)

    interior = np.nonzero(~is_edge)[0]
    _, first, inverse = np.unique(comp[interior], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(first.size)
    ids = np.full(cloud.n, -1, dtype=np.int64)
    ids[interior] = rank[inverse]
    count = int(first.size)
    sizes = np.bincount(ids[interior], minlength=count).tolist()
    return SegmentationResult(segment_ids=ids, count=count, sizes=sizes)
