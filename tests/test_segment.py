"""kNN-graph construction and flood-fill segmentation."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    adjacency_lists,
    gapped_lattice_cube,
    lattice_cube,
    oracle_flood_segment,
    oracle_knn_graph,
    peak_traced,
    union_boxes,
)
from pcedge.cloud import PointCloud
from pcedge.errors import InsufficientNeighborhood, InvalidInput
from pcedge.segment import flood_segment, knn_graph
from pcedge.synth import ShapeSpec, distance_to_edge_curves, generate


def brute_rows(points, k):
    """(N, k) nearest other points of each point, in (distance, index) order."""
    n = len(points)
    rows = []
    for i in range(n):
        d = np.linalg.norm(points - points[i], axis=1)
        order = np.lexsort((np.arange(n), d))
        rows.append(order[order != i][:k])
    return np.array(rows)


def brute_graph(points, k):
    adj = [set() for _ in range(len(points))]
    for i, row in enumerate(brute_rows(points, k)):
        for j in row:
            adj[i].add(int(j))
            adj[int(j)].add(i)
    return [sorted(s) for s in adj]


@pytest.fixture(scope="module")
def cube():
    return generate(ShapeSpec("box", size=(1.0, 1.0, 1.0), density=3000, seed=5))


class TestKnnGraph:
    def test_line_chain_connected(self):
        pts = np.column_stack([np.arange(6.0), np.zeros(6), np.zeros(6)])
        adj = adjacency_lists(knn_graph(PointCloud(pts), k=1))
        # symmetrization connects the chain
        seen = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for nb in adj[node]:
                if nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == set(range(6))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((150, 3))
        graph = knn_graph(PointCloud(pts), k=5)
        assert graph.shape == (150, 150) and graph.dtype == np.float64
        assert np.array_equal(graph.indptr, np.arange(0, 150 * 5 + 1, 5))
        assert graph.indices.dtype == graph.indptr.dtype == np.int32
        assert (graph.data == 1.0).all()
        assert np.array_equal(graph.indices.reshape(150, 5), brute_rows(pts, 5))
        assert [a.tolist() for a in adjacency_lists(graph)] == brute_graph(pts, 5)

    def test_grid_interior_axis_neighbors(self):
        ax = np.arange(10.0)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(100)])
        adj = adjacency_lists(knn_graph(PointCloud(pts), k=4))
        interior = 5 * 10 + 5
        expected = sorted([interior - 10, interior - 1, interior + 1, interior + 10])
        assert adj[interior].tolist() == expected

    def test_too_few_points(self):
        with pytest.raises(InsufficientNeighborhood):
            knn_graph(PointCloud(np.random.default_rng(0).random((4, 3))), k=5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InvalidInput, match=rf"^k must be >= 1, got {k}$"):
            knn_graph(PointCloud(np.random.default_rng(0).random((10, 3))), k=k)


@pytest.mark.parametrize("fn", [knn_graph, flood_segment])
@pytest.mark.parametrize("k", [1, 5])
def test_k_points_are_too_few(fn, k):
    cloud = PointCloud(np.random.default_rng(0).random((k, 3)), labels=np.zeros(k, dtype=int))
    with pytest.raises(InsufficientNeighborhood, match=rf"^need at least {k + 1} points, cloud has {k}$"):
        fn(cloud, k=k)


class TestFloodSegment:
    def test_cube_six_faces(self):
        cloud, face_ids, _, _ = lattice_cube(seed=0)
        result = flood_segment(cloud, k=5)
        assert result.count == 6
        # segment ids partition the non-edge points and match the face ids
        non_edge = cloud.labels == 0
        assert (result.segment_ids[non_edge] >= 0).all()
        assert (result.segment_ids[~non_edge] == -1).all()
        for seg in range(6):
            faces = face_ids[result.segment_ids == seg]
            assert len(set(faces.tolist())) == 1

    def test_sphere_single_segment(self):
        res = generate(ShapeSpec("sphere", size=(0.5,), density=2000, seed=2))
        result = flood_segment(res.cloud, k=5)
        assert result.count == 1
        assert (result.segment_ids == 0).all()

    def test_all_edges_zero_segments(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.random((40, 3)), labels=np.ones(40, dtype=int))
        result = flood_segment(cloud, k=5)
        assert result.count == 0
        assert (result.segment_ids == -1).all()

    def test_gapped_edge_merges_faces(self):
        """The documented failure mode: a small gap in one edge merges the
        two adjacent faces into a single segment."""
        cloud, face_ids, _, _ = gapped_lattice_cube(seed=0)
        result = flood_segment(cloud, k=5)
        assert result.count == 5
        # the two faces adjacent to the gapped edge share one segment
        merged = {int(s) for s, fid in zip(result.segment_ids, face_ids)
                  if s >= 0 and fid in (2, 4)}
        assert len(merged) == 1

    def test_idempotent(self, cube):
        a = flood_segment(cube.cloud, k=5)
        b = flood_segment(cube.cloud, k=5)
        assert np.array_equal(a.segment_ids, b.segment_ids)

    def test_partition_and_sizes(self, cube):
        result = flood_segment(cube.cloud, k=5)
        assert sum(result.sizes) == int((cube.cloud.labels == 0).sum())
        for seg, size in enumerate(result.sizes):
            assert int((result.segment_ids == seg).sum()) == size

    def test_boundary_growth_never_merges(self, cube):
        """Thickening the edge band may split segments but never merge them."""
        base = flood_segment(cube.cloud, k=5)
        thick = (distance_to_edge_curves(cube.cloud.points, cube.curves)
                 < 2.0 * 1.5 / np.sqrt(3000)).astype(int)
        thick_result = flood_segment(PointCloud(cube.cloud.points, thick), k=5)
        # any pair of points in one thick segment must be in one base segment
        for seg in range(thick_result.count):
            members = np.nonzero(thick_result.segment_ids == seg)[0]
            base_ids = {int(b) for b in base.segment_ids[members] if b >= 0}
            assert len(base_ids) <= 1

    def test_missing_labels(self):
        with pytest.raises(InvalidInput):
            flood_segment(PointCloud(np.random.default_rng(0).random((30, 3))), k=5)


@st.composite
def labelled_clouds(draw):
    """(cloud, k): random, integer-lattice or duplicate-laden points with
    random, no, all, or single-point-isolating edge labels."""
    kind = draw(st.sampled_from(["random", "lattice", "duplicates"]))
    labelling = draw(st.sampled_from(["random", "none", "all", "isolate"]))
    k = draw(st.integers(1, 7))
    n = draw(st.integers(k + 1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "lattice":
        cells = rng.choice(6 ** 3, size=n, replace=False)
        pts = np.column_stack(np.unravel_index(cells, (6, 6, 6))).astype(np.float64)
    else:
        pts = rng.random((n, 3))
        if kind == "duplicates":
            copies = rng.integers(0, n, size=draw(st.integers(1, n)))
            pts[rng.integers(0, n, size=copies.size)] = pts[copies]
    if labelling == "none":
        labels = np.zeros(n, dtype=int)
    elif labelling == "all":
        labels = np.ones(n, dtype=int)
    else:
        labels = (rng.random(n) < draw(st.sampled_from([0.1, 0.3, 0.6]))).astype(int)
    if labelling == "isolate":
        # Mark every graph neighbour of a few points as edge, so each of
        # those points is cut off on its own.
        adjacency = oracle_knn_graph(PointCloud(pts), k)
        lonely = rng.choice(n, size=min(n, 3), replace=False)
        for i in lonely:
            labels[adjacency[i]] = 1
        labels[lonely] = 0
    return PointCloud(pts, labels), k


class TestFrozenBfsParity:
    """Identity with the deque BFS flood fill frozen in helpers."""

    @staticmethod
    def assert_identical(cloud, k):
        got = flood_segment(cloud, k=k)
        want = oracle_flood_segment(cloud, k=k)
        assert np.array_equal(got.segment_ids, want.segment_ids)
        assert got.segment_ids.dtype == want.segment_ids.dtype
        assert got.count == want.count and type(got.count) is int
        assert got.sizes == want.sizes and all(type(s) is int for s in got.sizes)

    @settings(max_examples=200, deadline=None)
    @given(case=labelled_clouds())
    def test_property(self, case):
        cloud, k = case
        self.assert_identical(cloud, k)
        got = adjacency_lists(knn_graph(cloud, k))
        assert [a.tolist() for a in got] == [a.tolist() for a in oracle_knn_graph(cloud, k)]

    @pytest.mark.parametrize("k", [5, 8])
    def test_fixtures(self, cube, k):
        thick = (distance_to_edge_curves(cube.cloud.points, cube.curves)
                 < 2.0 * 1.5 / np.sqrt(3000)).astype(int)
        for cloud in (lattice_cube()[0], gapped_lattice_cube()[0], cube.cloud,
                      PointCloud(cube.cloud.points, thick)):
            self.assert_identical(cloud, k)


class TestKnnGraphRows:
    """knn_graph(rows=mask) queries only the rows the mask selects and leaves the others empty."""

    @settings(max_examples=80, deadline=None)
    @given(case=labelled_clouds(), seed=st.integers(0, 2**32 - 1))
    def test_equals_full_graph_with_other_rows_emptied(self, case, seed):
        cloud, k = case
        rng = np.random.default_rng(seed)
        rows = rng.random(cloud.n) < rng.random()
        full = knn_graph(cloud, k)
        got = knn_graph(cloud, k, rows=rows)
        counts = np.zeros(cloud.n, dtype=np.int32)
        counts[rows] = k
        assert got.shape == full.shape and got.dtype == full.dtype
        assert got.indptr.dtype == got.indices.dtype == np.int32
        assert got.indptr.tobytes() == np.concatenate([[0], np.cumsum(counts)]).astype(np.int32).tobytes()
        assert got.indices.tobytes() == full.indices.reshape(cloud.n, k)[rows].tobytes()
        assert (got.data == 1.0).all() and got.data.size == rows.sum() * k

    def test_default_is_every_row(self):
        cloud = PointCloud(np.random.default_rng(0).random((40, 3)))
        full = knn_graph(cloud, 5)
        got = knn_graph(cloud, 5, rows=np.ones(40, dtype=bool))
        assert got.indptr.tobytes() == full.indptr.tobytes()
        assert got.indices.tobytes() == full.indices.tobytes()

    @pytest.mark.parametrize("rows, message", [
        (np.ones((2, 5), dtype=bool), "got bool of shape (2, 5)"),
        (np.bool_(True), "got bool of shape ()"),
        (np.ones(9, dtype=bool), "got bool of shape (9,)"),
        (np.ones(10, dtype=np.int64), "got int64 of shape (10,)"),
        (np.ones(10), "got float64 of shape (10,)"),
        # Index arrays, the form rows once took, are not read as masks.
        (np.array([0, 2, 2]), "got int64 of shape (3,)"),
        (np.array([3, 1]), "got int64 of shape (2,)"),
        (np.array([-1, 0]), "got int64 of shape (2,)"),
        (np.array([0, 10]), "got int64 of shape (2,)"),
    ], ids=["2d", "scalar", "wrong-length", "integer", "float", "repeated", "decreasing", "negative", "past-end"])
    def test_bad_rows_rejected(self, rows, message):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InvalidInput, match=f"^{re.escape(f'rows must be a boolean mask of shape (10,), {message}')}$"):
            knn_graph(cloud, 3, rows=rows)


@pytest.mark.parametrize("density", [4000.0, 16000.0])
def test_flood_segment_memory_budget(density):
    # Graph pairs as int64 src/dst arrays, converted from COO to CSR, held
    # about 490 B/point; knn_graph's int32 CSR array, with its edge links cut
    # in place, kept the whole pass near 125, and querying only the non-edge
    # rows keeps it at 113-123.
    cloud = union_boxes(density).cloud
    _, peak = peak_traced(lambda: flood_segment(cloud, k=5))
    assert peak <= 300 * cloud.n, f"{peak / cloud.n:.0f} B/point"
