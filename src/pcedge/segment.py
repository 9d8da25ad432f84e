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


def knn_graph(cloud: PointCloud, k: int = 5) -> list[np.ndarray]:
    """Symmetrized kNN adjacency lists, each sorted by neighbor index."""
    neighbors = _knn_excluding_self(build_index(cloud), np.arange(cloud.n), k)
    src, dst = np.repeat(np.arange(cloud.n), k), neighbors.ravel()
    keys = np.unique(np.concatenate([src * cloud.n + dst, dst * cloud.n + src]))
    bounds = np.searchsorted(keys, np.arange(1, cloud.n) * cloud.n)
    return np.split(keys % cloud.n, bounds)


def _interior_graph(neighbors: np.ndarray, is_edge: np.ndarray) -> csr_array:
    """CSR graph whose row i holds i's kNN edges between non-edge points.

    Built straight from the (N, k) neighbor matrix: the row pointers count
    each row's kept neighbors. The weights are float64 because
    connected_components would otherwise copy the graph to float64. The
    matrix and mask die on return, before connected_components runs.
    """
    n = len(neighbors)
    keep = ~is_edge[neighbors]
    keep[is_edge] = False
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    return csr_array((np.ones(int(indptr[-1])), neighbors[keep], indptr), shape=(n, n))


def flood_segment(cloud: PointCloud, k: int = 5) -> SegmentationResult:
    """Partition non-edge points into segments bounded by edge points.

    Segments are numbered in ascending order of their lowest member
    index, which makes the ids deterministic. Edge points keep id -1.
    """
    if cloud.labels is None:
        raise InvalidInput("flood_segment requires edge labels")
    is_edge = cloud.labels == 1
    neighbors = _knn_excluding_self(build_index(cloud), np.arange(cloud.n), k)
    graph = _interior_graph(neighbors, is_edge)
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
