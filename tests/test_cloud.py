"""Point-cloud core: exact kNN, PCA axis, filtered-kNN patches, perturbations."""

import functools
import hashlib
import re
import warnings

import numpy as np
import pytest
from concurrent.futures import ThreadPoolExecutor
from hypothesis import example, given, settings, strategies as st

from helpers import (
    einsum_covariances,
    einsum_dot3,
    einsum_norms,
    einsum_offsets,
    full_scan_query_many,
    gapped_lattice_cube,
    lattice_cube,
    oracle_extract_patches,
    oracle_mean_neighbor_distance,
    oracle_query_many,
    peak_traced,
    rotated_copies,
    union_boxes,
)
import pcedge.cloud
from pcedge import synth, trainer
from pcedge.cloud import (
    PointCloud,
    _dot3,
    _min_axes,
    _norms,
    _take_rows,
    add_gaussian_noise,
    build_index,
    deduplicate,
    downsample,
    extract_patches,
    mean_neighbor_distance,
)
from pcedge.errors import (
    DegenerateNeighborhood,
    DuplicatePoint,
    InsufficientNeighborhood,
    InvalidInput,
)


def brute_force_knn(points, q, k):
    """Reference kNN: sort by (distance, index)."""
    d = np.linalg.norm(points - q, axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    return order[: min(k, len(points))]


def two_sheet_grid(gap, spacing, side=20):
    """Two parallel square grids in z=0 and z=gap; sheet 0 first."""
    ax = np.arange(side) * spacing
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    sheet = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(side * side)])
    upper = sheet + np.array([0.0, 0.0, gap])
    return PointCloud(np.vstack([sheet, upper])), side * side


class TestPointCloud:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud(np.zeros((0, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud(np.array([[0.0, 0.0, np.nan]]))

    def test_bad_labels_rejected(self):
        pts = np.zeros((2, 3))
        with pytest.raises(InvalidInput):
            PointCloud(pts, labels=[0, 2])
        with pytest.raises(InvalidInput):
            PointCloud(pts, labels=[0])

    @pytest.mark.parametrize("bad", [0.5, 1.7, np.nan])
    def test_fractional_and_nan_labels_rejected(self, bad):
        # Checked before the cast to int64, which would truncate 0.5 and 1.7
        # to 0 and 1 and warn on NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"^labels must be exactly 0 or 1$"):
                PointCloud(np.zeros((3, 3)), labels=np.array([bad, 1.0, 0.0]))

    def test_copies_the_callers_arrays(self):
        pts = np.random.default_rng(0).random((3, 3))
        lab = np.array([0, 1, 0])
        pred = np.array([0.2, 0.9, 0.1])
        cloud = PointCloud(pts, lab, pred)
        pts[0, 0], lab[0], pred[0] = 5.0, 1, 0.7
        assert cloud.points[0, 0] != 5.0
        assert cloud.labels.tolist() == [0, 1, 0]
        assert cloud.predictions.tolist() == [0.2, 0.9, 0.1]
        for a in (cloud.points, cloud.labels, cloud.predictions):
            assert not a.flags.writeable

    def test_bad_predictions_rejected(self):
        with pytest.raises(InvalidInput):
            PointCloud(np.zeros((2, 3)), predictions=[0.5, 1.5])

    def test_arrays_immutable(self):
        cloud = PointCloud(np.zeros((2, 3)), labels=[0, 1])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0
        with pytest.raises(ValueError):
            cloud.labels[0] = 1


class TestSpatialIndex:
    def test_single_point(self):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
        index = build_index(cloud)
        assert index.query_many(np.array([[9.0, 9.0, 9.0]]), 1).tolist() == [[0]]

    def test_unit_square_corner(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
        index = build_index(PointCloud(pts))
        got = index.query_many(np.zeros((1, 3)), 2)[0]
        assert got[0] == 0
        # Both adjacent corners sit at distance 1; smaller index wins the tie.
        assert got[1] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((500, 3))
        cloud = PointCloud(pts)
        index = build_index(cloud)
        queries = rng.random((50, 3))
        got = index.query_many(queries, 16)
        for qi, q in enumerate(queries):
            expected = brute_force_knn(pts, q, 16)
            assert got[qi].tolist() == expected.tolist()

    def test_matches_brute_force_with_ties(self):
        # Integer grid: large tie groups at every distance shell.
        ax = np.arange(7, dtype=float)
        xx, yy, zz = np.meshgrid(ax, ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])
        index = build_index(PointCloud(pts))
        queries = np.array([[3.0, 3.0, 3.0], [0.0, 0.0, 0.0], [3.5, 3.0, 2.5]])
        for k in (1, 5, 6, 7, 19, 27, 64):
            got = index.query_many(queries, k)
            for q, row in zip(queries, got):
                expected = brute_force_knn(pts, q, k)
                assert row.tolist() == expected.tolist(), (k, q)

    def test_k_larger_than_cloud(self):
        pts = np.random.default_rng(0).random((5, 3))
        index = build_index(PointCloud(pts))
        assert index.query_many(np.full((1, 3), 0.5), 64).shape == (1, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        index = build_index(PointCloud(np.random.default_rng(0).random((20, 3))))
        queries = np.random.default_rng(1).random((3000, 3))
        queries[2500, 0] = bad
        with pytest.raises(InvalidInput, match=r"^queries contain non-finite coordinates$"):
            index.query_many(queries, 4)

    @staticmethod
    def cube_to_the_range():
        """Random points and the eight corners of the cube of coordinates within +-1e152."""
        corners = np.array(np.meshgrid(*[[-1e152, 1e152]] * 3)).reshape(3, -1).T
        return np.vstack([corners, 1e152 * np.random.default_rng(0).uniform(-1.0, 1.0, (40, 3))])

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_points_past_the_coordinate_range_rejected(self, sign, axis):
        pts = self.cube_to_the_range()
        # At the limit every distance stays below the one from which the
        # kd-tree returns no point, so the queries are exact.
        index = build_index(PointCloud(pts))
        assert np.array_equal(index.query_many(pts, 9), full_scan_query_many(index, pts, 9))
        pts[20, axis] = sign * np.nextafter(1e152, np.inf)
        with pytest.raises(InvalidInput, match=r"^points have coordinates beyond \+-1e\+152, "
                                               r"the range of kNN queries$"):
            build_index(PointCloud(pts))

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_queries_past_the_coordinate_range_rejected(self, sign, axis):
        pts = self.cube_to_the_range()
        index = build_index(PointCloud(pts[8:]))
        assert np.array_equal(index.query_many(pts, 9), full_scan_query_many(index, pts, 9))
        queries = np.zeros((3000, 3))
        queries[2500, axis] = sign * np.nextafter(1e152, np.inf)
        with pytest.raises(InvalidInput, match=r"^queries have coordinates beyond \+-1e\+152, "
                                               r"the range of kNN queries$"):
            index.query_many(queries, 4)


def min_axis(pts):
    """The minimal-variance axis of one point set, as extract_patches computes it."""
    return _min_axes(np.asarray(pts)[None], [0])[0]


class TestPcaMinAxis:
    def test_plane_z0(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [2, 1, 0]], dtype=float)
        axis = min_axis(pts)
        expected = np.array([0.0, 0.0, 1.0])
        assert np.allclose(axis, expected) or np.allclose(axis, -expected)

    def test_plane_x_equals_y(self):
        pts = np.array([[0, 0, 0], [1, 1, 0], [1, 1, 2], [2, 2, 1]], dtype=float)
        axis = min_axis(pts)
        expected = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.allclose(axis, expected, atol=1e-12) or np.allclose(axis, -expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_tilted_plane_normal(self, seed):
        rng = np.random.default_rng(seed)
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        basis = np.linalg.svd(normal[None, :])[2][1:]
        coords = rng.normal(size=(30, 2))
        pts = coords @ basis + rng.normal(size=3)
        axis = min_axis(pts)
        angle = np.arccos(min(1.0, abs(float(axis @ normal))))
        assert angle < 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_closed_form_eigensolver(self, seed):
        """Independent oracle: characteristic-polynomial 3x3 eigensolver."""
        rng = np.random.default_rng(100 + seed)
        pts = rng.normal(size=(25, 3)) * np.array([2.0, 1.0, 0.3])
        axis = min_axis(pts)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered
        lam = _smallest_eigenvalue_cardano(cov)
        # The returned axis must satisfy C v = lambda_min v.
        residual = cov @ axis - lam * axis
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(cov)
        assert abs(np.linalg.norm(axis) - 1.0) < 1e-9

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3)) * np.array([3.0, 1.5, 0.2])
        rot = _random_rotation(rng)
        a1 = min_axis(pts)
        a2 = min_axis(pts @ rot.T)
        assert min(np.linalg.norm(a2 - rot @ a1), np.linalg.norm(a2 + rot @ a1)) < 1e-9

    def test_is_the_extraction_axis(self):
        # Byte for byte the axis a batched _min_axes call, as extraction
        # makes it, gives a point's 2k candidates, here on every 7th point of
        # the reference cloud.
        cloud = synth.generate(synth.ShapeSpec("union_boxes", density=4000, seed=7)).cloud
        index = build_index(cloud)
        targets = np.arange(0, cloud.n, 7)
        nn = index.query_many(cloud.points[targets], 33)
        assert np.array_equal(nn[:, 0], targets)  # no duplicates: self comes first
        axes = _min_axes(cloud.points[nn[:, 1:]], targets)
        got = np.array([min_axis(cloud.points[row]) for row in nn[:, 1:]])
        assert got.shape == (2657, 3)
        assert np.array_equal(got, axes)

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateNeighborhood):
            min_axis(np.ones((5, 3)))


def awkward_points(seed, b, m, exp_lo, exp_width, zero_share):
    """(b, m, 3) coordinates of magnitude 10**[exp_lo, exp_lo + exp_width],
    either sign, with a share of them +0.0 or -0.0."""
    rng = np.random.default_rng(seed)
    exps = rng.uniform(exp_lo, min(exp_lo + exp_width, 300), (b, m, 3))
    pts = rng.choice([-1.0, 1.0], (b, m, 3)) * rng.uniform(1.0, 10.0, (b, m, 3)) * 10.0 ** exps
    zero = rng.random((b, m, 3)) < zero_share
    pts[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return pts


def outcome(fn, *args):
    """fn(*args)'s bytes, or the class of the error it raised."""
    try:
        return fn(*args).tobytes()
    except (DegenerateNeighborhood, np.linalg.LinAlgError) as exc:
        return type(exc)


def einsum_min_axes(neighborhoods, targets):
    """_min_axes with the covariances of the einsum oracle."""
    cov = einsum_covariances(neighborhoods)
    if (np.trace(cov, axis1=1, axis2=2) == 0.0).any():
        raise DegenerateNeighborhood(str(targets))
    return np.linalg.eigh(cov)[1][:, :, 0]


class TestKernelsMatchEinsum:
    """_dot3, _norms and _min_axes give the bytes of the einsum expressions
    they replaced, for any layout and magnitude, and raise no warning."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), b=st.sampled_from([1, 2, 3, 7, 33, 255]),
           m=st.integers(2, 128), exp_lo=st.integers(-300, 300), exp_width=st.integers(0, 600),
           zero_share=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]))
    # Covariance diagonals near 1e307 whose trace overflows.
    @example(seed=0, b=1, m=26, exp_lo=149, exp_width=4, zero_share=0.0)
    def test_same_bytes(self, seed, b, m, exp_lo, exp_width, zero_share):
        x, y = awkward_points(seed, 2 * b, m, exp_lo, exp_width, zero_share).reshape(2, b, m, 3)
        # A strided (b, 3) view, as the columns of eigh's eigenvectors are.
        axes = awkward_points(seed + 1, b, 2, exp_lo, exp_width, zero_share).reshape(b, 6)[:, ::2]
        targets = np.arange(b)
        given_x = x.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = (_dot3(x, y), _dot3(x, axes[:, None, :]), _norms(x))
            got_axes = outcome(_min_axes, x, targets)
        with np.errstate(all="ignore"):
            want = (einsum_dot3(x, y), einsum_offsets(x, np.ascontiguousarray(axes)), einsum_norms(x))
            want_axes = outcome(einsum_min_axes, x, targets)
        for name, a, w in zip(("dot3", "offsets", "norms"), got, want):
            assert a.tobytes() == w.tobytes(), name
        assert got_axes == want_axes
        assert x.tobytes() == given_x.tobytes()

    def test_negative_zero_products_sum_to_positive_zero(self):
        # einsum starts every sum at +0.0, so products that are all -0.0
        # sum to +0.0; a sum started from the first product would keep -0.0.
        x = np.array([[[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]]])
        y = np.array([[[1.0, -2.0, 3.0], [-1.0, 2.0, -3.0]]])
        got = _dot3(x, y)
        assert got.tobytes() == einsum_dot3(x, y).tobytes()
        assert not np.signbit(got).any()

    @pytest.mark.parametrize("scale", [1e300, np.inf])
    def test_overflow_and_invalid_products_raise_no_warning(self, scale):
        # einsum raises no floating-point warning; pyproject turns a pcedge
        # RuntimeWarning into an error.
        x = np.array([[[scale, 0.0, -scale], [1.0, scale, 2.0], [-scale, 3.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _dot3(x, x[:, ::-1]), _norms(x), outcome(_min_axes, x, [0])
        with np.errstate(all="ignore"):
            want = einsum_dot3(x, x[:, ::-1]), einsum_norms(x), outcome(einsum_min_axes, x, [0])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert got[2] == want[2]

    def test_covariance_holds_one_product_at_a_time(self):
        # An (m, 3, 3, B) array of every point's product, reduced in one
        # call, would take three times the points' bytes; the in-order sum
        # holds one (3, 3, B) product beside one copy of the points.
        neighborhoods = np.random.default_rng(0).random((1024, 128, 3))
        _, peak = peak_traced(lambda: _min_axes(neighborhoods, np.arange(1024)))
        assert peak < 1.5 * neighborhoods.nbytes, f"{peak / neighborhoods.nbytes:.2f} x the points"


def _smallest_eigenvalue_cardano(cov):
    """Closed-form smallest eigenvalue of a symmetric 3x3 matrix."""
    q = np.trace(cov) / 3.0
    b = cov - q * np.eye(3)
    p = np.sqrt(max(np.trace(b @ b) / 6.0, 0.0))
    if p == 0.0:
        return q
    det = np.linalg.det(b / p)
    phi = np.arccos(np.clip(det / 2.0, -1.0, 1.0)) / 3.0
    # Eigenvalues are q + 2 p cos(phi + 2 pi j / 3); j = 1 gives the smallest.
    return q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)


def _random_rotation(rng):
    mat = rng.normal(size=(3, 3))
    qmat, rmat = np.linalg.qr(mat)
    qmat *= np.sign(np.diag(rmat))
    if np.linalg.det(qmat) < 0:
        qmat[:, 0] = -qmat[:, 0]
    return qmat


def brute_force_patch(points, i, k):
    """Independent filtered-kNN reference, sorted by (offset, distance, index)."""
    d = np.linalg.norm(points - points[i], axis=1)
    order = np.lexsort((np.arange(len(points)), d))
    order = order[order != i][: min(2 * k, len(points) - 1)]
    neigh = points[order]
    centered = neigh - neigh.mean(axis=0)
    vals, vecs = np.linalg.eigh(centered.T @ centered)
    axis = vecs[:, 0]
    offsets = np.abs((neigh - points[i]) @ axis)
    keep = np.lexsort((order, d[order], offsets))[:k]
    kept = order[keep]
    final = np.lexsort((kept, d[kept]))
    return kept[final], axis


class TestExtractPatch:
    def test_two_parallel_sheets_filtered_pure(self):
        cloud, per_sheet = two_sheet_grid(gap=0.05, spacing=0.02)
        index = build_index(cloud)
        target = per_sheet // 2 + 10  # interior point of sheet 0
        neighbor_idx = extract_patches(cloud, index, np.array([target]), 16)[3][0]
        assert (neighbor_idx < per_sheet).all()
        assert np.all(np.abs(cloud.points[neighbor_idx][:, 2]) < 1e-12)

    def test_close_sheets_purity_where_plain_knn_fails(self):
        # gap < 2 * spacing: the opposite sheet is nearer than the second
        # in-sheet ring, so plain 16NN is contaminated for every interior
        # target while the filter stays 100% pure.
        cloud, per_sheet = two_sheet_grid(gap=0.03, spacing=0.02)
        index = build_index(cloud)
        pts = cloud.points
        border = ((pts[:, 0] < 0.04) | (pts[:, 0] > 0.34) |
                  (pts[:, 1] < 0.04) | (pts[:, 1] > 0.34))
        interior = np.nonzero(~border)[0]
        _, _, _, neighbor_idx = extract_patches(cloud, index, interior, 16)
        same = (neighbor_idx < per_sheet) == (interior[:, None] < per_sheet)
        assert same.all()
        plain = index.query_many(pts[interior], 17)
        plain = np.array([row[row != i][:16] for i, row in zip(interior, plain)])
        contaminated = ((plain < per_sheet) != (interior[:, None] < per_sheet)).any(axis=1)
        assert contaminated.all()

    def test_flat_plane_equals_plain_knn(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.random(300), rng.random(300), np.zeros(300)])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        neighbor_idx = extract_patches(cloud, index, np.array([17]), 16)[3][0]
        plain = index.query_many(pts[17][None], 17)[0]
        plain = plain[plain != 17][:16]
        assert sorted(neighbor_idx.tolist()) == sorted(plain.tolist())

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.random((1000, 3))
        cloud = PointCloud(pts)
        index = build_index(cloud)
        targets = rng.integers(0, 1000, size=20)
        dvecs, offsets, scales, neighbor_idx = extract_patches(cloud, index, targets, 16)
        for row, i in enumerate(targets):
            expected_idx, expected_axis = brute_force_patch(pts, int(i), 16)
            assert neighbor_idx[row].tolist() == expected_idx.tolist()
            expected_dvecs = pts[expected_idx] - pts[i]
            assert np.allclose(offsets[row], np.abs(expected_dvecs @ expected_axis), atol=1e-9)
            assert np.allclose(dvecs[row], expected_dvecs)
            assert scales[row] == pytest.approx(np.linalg.norm(expected_dvecs, axis=1).mean())

    def test_patch_invariants(self):
        rng = np.random.default_rng(9)
        cloud = PointCloud(rng.random((500, 3)))
        index = build_index(cloud)
        targets = np.arange(0, 500, 50)
        dvecs, _, scales, neighbor_idx = extract_patches(cloud, index, targets, 16)
        for row, i in enumerate(targets):
            norms = np.linalg.norm(dvecs[row], axis=1)
            assert (np.diff(norms) >= 0).all()
            assert len(set(neighbor_idx[row].tolist())) == 16
            assert i not in neighbor_idx[row]
            assert scales[row] > 0

    def test_too_few_points(self):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        index = build_index(cloud)
        with pytest.raises(InsufficientNeighborhood):
            extract_patches(cloud, index, np.array([0]), 16)

    @pytest.mark.parametrize("extra", [8, 9])
    def test_boundary_sizes_match_brute_force(self, extra):
        # N = 2k is rejected; N = 2k + 1, the smallest cloud accepted, gives
        # every target exactly 2k candidates.
        k = 8
        pts = np.random.default_rng(extra).random((k + extra, 3))
        cloud = PointCloud(pts)
        if cloud.n < 2 * k + 1:
            with pytest.raises(InsufficientNeighborhood, match=r"^need at least 17 points for k=8, cloud has 16$"):
                extract_patches(cloud, build_index(cloud), np.arange(cloud.n), k)
            return
        neighbor_idx = extract_patches(cloud, build_index(cloud), np.arange(cloud.n), k)[3]
        for i in range(cloud.n):
            assert neighbor_idx[i].tolist() == brute_force_patch(pts, i, k)[0].tolist()

    def test_k_points_insufficient(self):
        cloud = PointCloud(np.random.default_rng(0).random((8, 3)))
        with pytest.raises(InsufficientNeighborhood, match=r"need at least 17 points for k=8"):
            extract_patches(cloud, build_index(cloud), np.arange(8), 8)

    def test_duplicate_point_rejected(self):
        rng = np.random.default_rng(2)
        pts = rng.random((60, 3))
        pts[31] = pts[7]
        cloud = PointCloud(pts)
        index = build_index(cloud)
        with pytest.raises(DuplicatePoint):
            extract_patches(cloud, index, np.array([7]), 16)

    def test_target_pushed_off_its_own_candidate_list(self):
        # 40 copies of the last point, all with smaller indices: the 33-entry
        # query keeps the first 33 of the 41 coincident points, so the target
        # itself is not among its candidates.
        rng = np.random.default_rng(5)
        pts = rng.random((100, 3))
        pts[10:50] = pts[99]
        cloud = PointCloud(pts)
        index = build_index(cloud)
        assert 99 not in index.query_many(pts[99][None], 33)[0]
        with pytest.raises(DuplicatePoint, match=r"duplicate of point 99$"):
            extract_patches(cloud, index, np.array([3, 99]), 16)

    def test_odd_k_rejected(self):
        cloud = PointCloud(np.random.default_rng(0).random((100, 3)))
        with pytest.raises(InvalidInput):
            extract_patches(cloud, build_index(cloud), np.array([0]), 7)

    @pytest.mark.parametrize("targets", [np.int64(5), np.arange(4).reshape(2, 2)], ids=["0d", "2d"])
    def test_targets_not_1d_rejected(self, targets):
        cloud = PointCloud(np.random.default_rng(0).random((100, 3)))
        want = f"targets must be a 1-d index array, got shape {targets.shape}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(want)}$"):
            extract_patches(cloud, build_index(cloud), targets, 8)

    @pytest.mark.parametrize("targets", [np.array([1.7, 2.2]), np.arange(100) < 2], ids=["float", "bool"])
    def test_targets_not_integer_rejected(self, targets):
        # Neither is read as indices: the float targets are not truncated to
        # points 1 and 2, and the mask is not taken for points 0 and 1.
        cloud = PointCloud(np.random.default_rng(0).random((100, 3)))
        want = f"targets must be integer indices, got dtype {targets.dtype}"
        with pytest.raises(InvalidInput, match=f"^{re.escape(want)}$"):
            extract_patches(cloud, build_index(cloud), targets, 8)

    @pytest.mark.parametrize("block", [7, pytest.param(None, id="default")])
    def test_degenerate_neighborhood_names_the_point(self, monkeypatch, block):
        # 40 copies of (10, 10, 10) are the 32 candidates of the one point
        # near them, so its PCA axis is undefined. Alone or 21st in a run of
        # 7-row blocks, the message names the point, not its row.
        if block is not None:
            monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", block)
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.random((400, 3)), np.tile([10.0, 10.0, 10.0], (40, 1)), [[10.5, 10.0, 10.0]]])
        cloud = PointCloud(pts)
        index = build_index(cloud)
        for targets in (np.array([440]), np.r_[np.arange(20), 440]):
            with pytest.raises(DegenerateNeighborhood,
                               match=r"^neighborhood of target 440 has coincident points$"):
                extract_patches(cloud, index, targets, 16)

    def test_concurrent_extraction_matches_sequential(self):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.random((400, 3)))
        index = build_index(cloud)
        targets = list(range(0, 400, 7))

        def one(i):
            return extract_patches(cloud, index, np.array([i]), 16)

        sequential = [one(i) for i in targets]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(one, targets))
        for a, b in zip(sequential, parallel):
            assert a[3].tolist() == b[3].tolist()
            assert np.array_equal(a[0], b[0])

    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("direction", [(1, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 3), (0, 2, -1)])
    def test_collinear_neighborhoods(self, direction, k):
        # Integer steps along an integer direction, scaled by 1/4: every
        # coordinate, candidate mean (over 2k, a power of two) and covariance
        # entry is exact, so each covariance has rank one and the axis comes
        # from its 2-d null space, where the eigensolver alone picks it.
        d = np.asarray(direction, dtype=np.float64)
        steps = np.random.default_rng(k).choice(400, size=60, replace=False)
        cloud = PointCloud(0.25 * steps[:, None] * d)
        index = build_index(cloud)
        targets = np.arange(cloud.n)
        whole = extract_patches(cloud, index, targets, k)
        dvecs, offsets = whole[:2]
        assert (offsets <= 1e-12 * np.linalg.norm(dvecs, axis=2).max(axis=1, keepdims=True)).all()

        def in_batches(order, size):
            parts = [extract_patches(cloud, index, order[lo:lo + size], k)
                     for lo in range(0, len(order), size)]
            return [np.concatenate(p) for p in zip(*parts)]

        again = extract_patches(cloud, index, targets, k)
        sevens = in_batches(targets, 7)
        singles_reversed = [a[::-1] for a in in_batches(targets[::-1], 1)]
        for other in (again, sevens, singles_reversed):
            for a, b in zip(whole, other):
                assert a.tobytes() == b.tobytes()


@st.composite
def tricky_clouds(draw, min_points=2):
    """Random, integer-lattice, coplanar or duplicate-laden small clouds."""
    kind = draw(st.sampled_from(["random", "lattice", "coplanar", "duplicates"]))
    n = draw(st.integers(min_points, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        pts = rng.random((n, 3))
    elif kind == "lattice":
        cells = rng.choice(6 ** 3, size=n, replace=False)
        pts = np.column_stack(np.unravel_index(cells, (6, 6, 6))).astype(np.float64)
    elif kind == "coplanar":
        pts = np.column_stack([rng.random(n), rng.random(n), np.zeros(n)])
        pts = pts[:, rng.permutation(3)]
    else:
        pts = rng.random((n, 3))
        copies = rng.integers(0, n, size=draw(st.integers(1, n)))
        pts[rng.integers(0, n, size=copies.size)] = pts[copies]
    return PointCloud(pts)


class TestBruteForceProperties:
    @settings(max_examples=60, deadline=None)
    @given(cloud=tricky_clouds(), k=st.integers(1, 40))
    def test_query_many_matches_brute_force(self, cloud, k):
        got = build_index(cloud).query_many(cloud.points, k)
        want = np.array([brute_force_knn(cloud.points, q, k) for q in cloud.points])
        assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(k_cloud=st.sampled_from([4, 8, 16]).flatmap(
        lambda k: st.tuples(st.just(k), tricky_clouds(min_points=2 * k + 1))))
    def test_extract_patches_matches_brute_force(self, k_cloud):
        k, cloud = k_cloud
        pts = cloud.points
        try:
            neighbor_idx = extract_patches(cloud, build_index(cloud), np.arange(cloud.n), k)[3]
        except DuplicatePoint as exc:
            i = int(str(exc).rsplit(" ", 1)[1])
            assert np.all(pts == pts[i], axis=1).sum() > 1
            return
        assert len(np.unique(pts, axis=0)) == cloud.n
        for i in range(cloud.n):
            want, axis = brute_force_patch(pts, i, k)
            if neighbor_idx[i].tolist() == want.tolist():
                continue
            # Only an offset tie at the cut, decided by rounding, may change
            # the choice: on an exact plane x = c or y = c the offsets are
            # about 1e-17 instead of 0. The row must still hold k smallest
            # offsets up to that tie, in (distance, index) order.
            cand = brute_force_knn(pts, pts[i], 2 * k + 1)
            cand = cand[cand != i][:2 * k]
            d = np.linalg.norm(pts[cand] - pts[i], axis=1)
            tol = 1e-9 * d.max()
            off = np.sort(np.abs((pts[cand] - pts[i]) @ axis))
            assert off[k] - off[k - 1] < tol
            got = neighbor_idx[i]
            assert np.isin(got, cand).all()
            assert (np.abs((pts[got] - pts[i]) @ axis) <= off[k - 1] + tol).all()
            assert np.array_equal(got, got[np.lexsort((got, np.linalg.norm(pts[got] - pts[i], axis=1)))])


class _TreeSpy:
    """Delegates to a cKDTree, recording each query's (rows, k)."""

    def __init__(self, tree):
        self.tree = tree
        self.queries = []

    def query(self, x, k):
        self.queries.append((len(x), k))
        return self.tree.query(x, k=k)


def spied_index(cloud):
    index = build_index(cloud)
    spy = _TreeSpy(index._tree)
    index._tree = spy
    return index, spy


def integer_lattice(side):
    ax = np.arange(side, dtype=float)
    return np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)


class TestQueryParity:
    """query_many's widening query against the frozen padded-query oracle."""

    @settings(max_examples=80, deadline=None)
    @given(cloud=tricky_clouds(), k=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_oracle(self, cloud, k, seed):
        rng = np.random.default_rng(seed)
        pts = cloud.points
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        span = np.maximum(hi - lo, 1.0)
        pairs = rng.integers(0, cloud.n, size=(20, 2))
        queries = np.vstack([
            pts,
            (pts[pairs[:, 0]] + pts[pairs[:, 1]]) / 2,  # tie-prone on lattices
            lo - span + 3 * span * rng.random((20, 3)),  # inside and outside the cloud
        ])
        index = build_index(cloud)
        assert np.array_equal(index.query_many(queries, k), oracle_query_many(index, queries, k))

    def test_reference_clouds(self):
        ref = synth.generate(synth.ShapeSpec("union_boxes", density=4000, seed=7)).cloud
        for cloud in rotated_copies(ref):
            index = build_index(cloud)
            for k in (1, 6, 33):
                assert np.array_equal(index.query_many(cloud.points, k),
                                      oracle_query_many(index, cloud.points, k)), k
        big = synth.generate(synth.ShapeSpec("union_boxes", density=16000, seed=7)).cloud
        assert big.n == 74443
        index = build_index(big)
        for k in (1, 6):
            assert np.array_equal(index.query_many(big.points, k),
                                  oracle_query_many(index, big.points, k)), k

    @staticmethod
    @functools.cache
    def lattice_fixtures():
        """(index, 65 nearest by full scan) per fixture; a smaller k takes a prefix."""
        clouds = [make()[0] for make in (lattice_cube, gapped_lattice_cube)]
        clouds += [two_sheet_grid(gap, 0.02)[0] for gap in (0.05, 0.03)]
        clouds += [PointCloud(integer_lattice(12) * 0.1), PointCloud(integer_lattice(12))]
        indexes = [build_index(cloud) for cloud in clouds]
        return [(index, full_scan_query_many(index, index._points, 65)) for index in indexes]

    @pytest.mark.parametrize("k", [1, 6, 7, 33, 65])
    def test_lattice_fixtures(self, k):
        for index, scan in self.lattice_fixtures():
            assert np.array_equal(index.query_many(index._points, k), scan[:, :k])

    def test_tie_within_margin_of_cut(self):
        # On the 0.1-spaced 12^3 lattice at k=65, rows 336 and 710 tie their
        # 65th distance with a point (73, 397) whose kd-tree distance is one
        # ulp higher. A 73-wide kd window cuts its own tie group there and
        # leaves that point out; only a cut test with a margin sees it.
        cloud = PointCloud(integer_lattice(12) * 0.1)
        index = build_index(cloud)
        queries = cloud.points[[336, 710]]
        assert np.array_equal(index.query_many(queries, 65),
                              full_scan_query_many(index, queries, 65))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.tuples(*[st.integers(2, 8)] * 3),
           spacing=st.sampled_from([0.1, 0.3, 1 / 3, 0.7]),
           k=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
    def test_non_integer_lattices_match_full_scan(self, shape, spacing, k, seed):
        rng = np.random.default_rng(seed)
        pts = np.stack(np.meshgrid(*[np.arange(s) * spacing for s in shape], indexing="ij"),
                       axis=-1).reshape(-1, 3)
        pairs = rng.integers(0, len(pts), size=(20, 2))
        queries = np.vstack([pts, (pts[pairs[:, 0]] + pts[pairs[:, 1]]) / 2])
        index = build_index(PointCloud(pts))
        assert np.array_equal(index.query_many(queries, k),
                              full_scan_query_many(index, queries, k))

    def test_one_ulp_gap_requeries_wider(self):
        # The 5th neighbor of the origin is one ulp farther than the 4th, so
        # that row is fetched again at twice the width; the other query has a
        # clear gap at the cut and settles in the first fetch.
        k = 4
        pts = [[i, 0.0, 0.0] for i in range(1, k + 1)] + [[0.0, np.nextafter(k, np.inf), 0.0]]
        pts += [[10.0 + i, 10.0, 10.0] for i in range(10)]
        index, spy = spied_index(PointCloud(np.array(pts)))
        queries = np.array([[0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        got = index.query_many(queries, k)
        assert got.tolist() == [[0, 1, 2, 3], [0, 1, 2, 4]]
        assert spy.queries == [(2, k + 1), (1, 2 * (k + 1))]

    def test_large_tie_group_requeries_until_settled(self):
        # 30 integer points at distance exactly 5 from the origin, shuffled,
        # with a farther shell behind them; the cut at k=5 falls inside the
        # group, so the row doubles its fetch until it reaches the shell.
        pts = integer_lattice(13) - 6.0
        r2 = (pts ** 2).sum(axis=1)
        pts = np.vstack([pts[r2 == 25], pts[r2 == 36]])
        pts = pts[np.random.default_rng(0).permutation(len(pts))]
        assert (np.einsum("ij,ij->i", pts, pts) == 25).sum() > 5 + 1
        index, spy = spied_index(PointCloud(pts))
        got = index.query_many(np.zeros((1, 3)), 5)[0]
        assert got.tolist() == brute_force_knn(pts, np.zeros(3), 5).tolist()
        assert spy.queries == [(1, 6), (1, 12), (1, 24), (1, 48)]

    def test_tie_group_of_the_whole_cloud_stops_at_n(self):
        # Only the 30 points at distance 5: no fetch settles the row, and the
        # doubling stops once it holds every point.
        pts = integer_lattice(13) - 6.0
        pts = pts[(pts ** 2).sum(axis=1) == 25]
        pts = pts[np.random.default_rng(0).permutation(len(pts))]
        assert len(pts) == 30
        index, spy = spied_index(PointCloud(pts))
        got = index.query_many(np.zeros((1, 3)), 5)[0]
        assert got.tolist() == brute_force_knn(pts, np.zeros(3), 5).tolist()
        assert spy.queries == [(1, 6), (1, 12), (1, 24), (1, 30)]

    def test_zero_distance_duplicates_at_cut(self):
        # Points 5 and 17 copy point 40: the cut at k=2 splits the
        # zero-distance group, so the first fetch cannot settle the row.
        rng = np.random.default_rng(3)
        pts = rng.random((60, 3))
        pts[[17, 5]] = pts[40]
        index, spy = spied_index(PointCloud(pts))
        assert index.query_many(pts[40][None], 2).tolist() == [[5, 17]]
        assert spy.queries == [(1, 3), (1, 6)]
        assert index.query_many(pts[40][None], 3).tolist() == [[5, 17, 40]]

    @pytest.mark.parametrize("lattice", [False, True])
    @pytest.mark.parametrize("dk", [-1, 0, 1])
    def test_boundary_k(self, lattice, dk):
        # At k >= N the kd-tree returns every point and no row is tied.
        pts = integer_lattice(3) if lattice else np.random.default_rng(7).random((27, 3))
        k = len(pts) + dk
        index = build_index(PointCloud(pts))
        queries = np.vstack([pts, [[0.5, 1.0, 1.5], [9.0, -2.0, 0.0]]])
        got = index.query_many(queries, k)
        want = np.array([brute_force_knn(pts, q, k) for q in queries])
        assert np.array_equal(got, want)


class TestQueryBlocks:
    """Whole-cloud passes in blocks of _QUERY_BLOCK rows give the unblocked results."""

    @pytest.mark.parametrize("k", [1, 6, 33])
    def test_tied_lattices_across_blocks(self, monkeypatch, k):
        monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", 7)
        fixtures = TestQueryParity.lattice_fixtures()
        # lattice_cube and the 0.1-spaced 12^3 lattice, with their full scans.
        for index, scan in (fixtures[0], fixtures[4]):
            got = index.query_many(index._points, k)
            assert np.array_equal(got, oracle_query_many(index, index._points, k))
            assert np.array_equal(got, scan[:, :k])

    @pytest.mark.parametrize("k", [1, 6, 33])
    def test_empty_queries(self, monkeypatch, k):
        monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", 7)
        empty = np.empty((0, 3))
        for cloud in (lattice_cube()[0], PointCloud(integer_lattice(3)[:20])):
            index = build_index(cloud)
            got = index.query_many(empty, k)
            assert got.shape == (0, min(k, cloud.n)) and got.dtype == np.int64
            assert np.array_equal(got, oracle_query_many(index, empty, k))
            assert np.array_equal(got, full_scan_query_many(index, empty, k))

    @pytest.mark.parametrize("block", [7, pytest.param(None, id="default")])
    def test_noise_scale_matches_frozen_oracle(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", block)
        dup = integer_lattice(6) * 0.1
        for cloud in (union_boxes(4000.0).cloud, lattice_cube()[0],
                      PointCloud(np.vstack([dup, dup[:40]]))):
            assert mean_neighbor_distance(cloud, 16) == oracle_mean_neighbor_distance(cloud, 16)

    def test_extraction_memory_budget(self):
        # Extraction temporaries cost about 2.7 kB per target at k=16: about
        # 190 MiB for these 74,443 points at once, about 3 MiB for one block.
        cloud = union_boxes(16000.0).cloud
        index = build_index(cloud)
        result, peak = peak_traced(lambda: extract_patches(cloud, index, np.arange(cloud.n), 16))
        returned = sum(a.nbytes for a in result)
        assert returned == cloud.n * (16 * 24 + 16 * 8 + 8 + 16 * 8)
        assert peak - returned < 8 << 20, f"{(peak - returned) / 2**20:.1f} MiB"

    @pytest.mark.parametrize("density", [4000.0, 16000.0])
    def test_noise_scale_memory_budget(self, density):
        # The whole (N, 16, 3) difference array and its temporaries held
        # about 1,200 B/point; the blocked pass holds the (N, 16) distances,
        # the kd-tree's index array and one block.
        cloud = union_boxes(density).cloud
        _, peak = peak_traced(lambda: mean_neighbor_distance(cloud, 16))
        assert peak <= 300 * cloud.n, f"{peak / cloud.n:.0f} B/point"


@st.composite
def tree_order_clouds(draw):
    """(kind, cloud): random, coplanar, integer-lattice, 0.1-spaced-lattice or duplicate-laden."""
    kind = draw(st.sampled_from(["random", "coplanar", "lattice", "tenth", "duplicates"]))
    n = draw(st.integers(2, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("lattice", "tenth"):
        cells = rng.choice(7 ** 3, size=n, replace=False)
        pts = np.column_stack(np.unravel_index(cells, (7, 7, 7))).astype(np.float64)
        pts *= 0.1 if kind == "tenth" else 1.0
    elif kind == "coplanar":
        pts = np.column_stack([rng.random(n), rng.random(n), np.zeros(n)])[:, rng.permutation(3)]
    else:
        pts = rng.random((n, 3))
        if kind == "duplicates":
            pts[rng.integers(0, n, size=n // 2)] = pts[rng.integers(0, n, size=n // 2)]
    return kind, PointCloud(pts)


TREE_ORDER_K = [1, 2, 6, 17, 33, 65]


class TestTreeOrder:
    """Rows without near-ties keep the kd-tree's order; the results do not move."""

    @settings(max_examples=120, deadline=None)
    @given(case=tree_order_clouds(), k=st.sampled_from(TREE_ORDER_K), seed=st.integers(0, 2**32 - 1))
    def test_matches_frozen_oracle(self, case, k, seed):
        kind, cloud = case
        rng = np.random.default_rng(seed)
        pairs = rng.integers(0, cloud.n, size=(20, 2))
        queries = np.vstack([cloud.points, (cloud.points[pairs[:, 0]] + cloud.points[pairs[:, 1]]) / 2])
        index = build_index(cloud)
        got = index.query_many(queries, k)
        assert got.tobytes() == full_scan_query_many(index, queries, k).tobytes()
        # The frozen oracle orders by einsum's distances and cuts without a
        # margin, so on a 0.1-spaced lattice it can split a tie whose two
        # distances are one ulp apart (see test_tie_within_margin_of_cut).
        if kind != "tenth":
            assert got.tobytes() == oracle_query_many(index, queries, k).tobytes()

    @pytest.mark.parametrize("scale", [1e-100, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e100, 1e150])
    def test_tree_distances_agree_with_norms(self, scale):
        # The assumption the kept order rests on: far inside the 1e-12 margin.
        rng = np.random.default_rng(int(np.log10(scale)) + 200)
        for pts in (rng.random((2000, 3)), integer_lattice(8) * 0.1 + 0.3):
            pts = pts * scale
            index = build_index(PointCloud(pts))
            kd, idx = index._tree.query(pts, k=17)
            dist = _norms(pts[idx] - pts[:, None, :])
            assert (np.abs(kd - dist) <= 1e-13 * dist).all()

    @staticmethod
    def norms_rows(monkeypatch, index, queries, k):
        rows = []

        def counted(diff):
            rows.append(diff.shape[0])
            return _norms(diff)

        monkeypatch.setattr(pcedge.cloud, "_norms", counted)
        index.query_many(queries, k)
        monkeypatch.undo()
        return rows

    @pytest.mark.parametrize("k", [2, 6, 17])
    def test_jittered_rows_skip_norms_and_tied_rows_take_them(self, monkeypatch, k):
        rng = np.random.default_rng(k)
        lattice = integer_lattice(8)
        jittered = lattice + rng.uniform(-0.2, 0.2, size=lattice.shape)
        index = build_index(PointCloud(jittered))
        assert self.norms_rows(monkeypatch, index, jittered, k) == []
        # From k = 2 on, every row of the exact lattice holds a distance tie
        # among the k + 1 it fetches, so every row is sorted by _norms.
        index = build_index(PointCloud(lattice))
        rows = self.norms_rows(monkeypatch, index, lattice, k)
        assert rows and rows[0] == len(lattice)
        assert np.array_equal(index.query_many(lattice, k), full_scan_query_many(index, lattice, k))


class TestExtractionParity:
    """Byte identity with the frozen global-lexsort extraction in helpers."""

    @staticmethod
    def assert_identical(cloud, k, query=oracle_query_many):
        index = build_index(cloud)
        targets = np.arange(cloud.n)
        got = extract_patches(cloud, index, targets, k)
        want = oracle_extract_patches(cloud, index, targets, k, query=query)
        for name, a, b in zip(("dvecs", "offsets", "scales", "indices"), got, want):
            assert np.array_equal(a, b), name

    def test_reference_cloud_and_rotation(self):
        ref = synth.generate(synth.ShapeSpec("union_boxes", density=4000, seed=7)).cloud
        assert ref.n == 18595
        for cloud in rotated_copies(ref)[:2]:
            self.assert_identical(cloud, 16)
        index = build_index(ref)
        for k in (1, 6):
            assert np.array_equal(index.query_many(ref.points, k),
                                  oracle_query_many(index, ref.points, k))

    @pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
    def test_fixtures(self, k):
        clouds = [make()[0] for make in (lattice_cube, gapped_lattice_cube)]
        clouds += [two_sheet_grid(gap, 0.02)[0] for gap in (0.05, 0.03)]
        for cloud in clouds:
            if cloud.n >= 2 * k + 1:
                self.assert_identical(cloud, k)

    def test_blocks_of_seven(self, monkeypatch):
        # Every block boundary, a partial last block, and the lattice's
        # re-queried rows spread over many blocks.
        monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", 7)
        self.assert_identical(lattice_cube()[0], 16)
        g = np.arange(12) * 0.1
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        self.assert_identical(PointCloud(pts), 32, query=full_scan_query_many)

    def test_exact_lattice_tie_path(self):
        # On an unjittered 0.1-spaced lattice, distance ties at the cut send
        # rows to query_many's wider re-query; the frozen oracle's own padded
        # query misses some of them (test_tie_within_margin_of_cut), so its
        # candidates come from the full scan here.
        g = np.arange(12) * 0.1
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        self.assert_identical(PointCloud(pts), 32, query=full_scan_query_many)


    @staticmethod
    def digest(parts):
        """sha256 over the bytes of a sequence of extract_patches results, all four outputs each."""
        h = hashlib.sha256()
        for outputs in parts:
            assert len(outputs) == 4
            for a in outputs:
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    @staticmethod
    @functools.cache
    def reference_oracle():
        """The seed-7 reference cloud, its index and the frozen oracle's k=16 extraction."""
        ref = synth.generate(synth.ShapeSpec("union_boxes", density=4000, seed=7)).cloud
        index = build_index(ref)
        return ref, index, oracle_extract_patches(ref, index, np.arange(ref.n), 16)

    def test_predict_sub_batches(self):
        # predict extracts the cloud in 256-row calls; sha256 rather than
        # array_equal, so a 0.0 that turns into -0.0 counts as a change.
        ref, index, want = self.reference_oracle()
        windows = [np.arange(lo, min(lo + 256, ref.n)) for lo in range(0, ref.n, 256)]
        got = [extract_patches(ref, index, rows, 16) for rows in windows]
        assert self.digest(got) == self.digest([[a[rows] for a in want] for rows in windows])

    def test_one_row_calls(self):
        ref, index, want = self.reference_oracle()
        rows = np.linspace(0, ref.n - 1, 200).astype(np.int64)
        got = [extract_patches(ref, index, rows[j:j + 1], 16) for j in range(len(rows))]
        assert self.digest(got) == self.digest([[a[rows[j:j + 1]] for a in want]
                                                for j in range(len(rows))])
        for j in range(len(rows)):
            queries = ref.points[rows[j:j + 1]]
            assert index.query_many(queries, 33).tobytes() == \
                oracle_query_many(index, queries, 33).tobytes()
        cloud = lattice_cube()[0]
        index = build_index(cloud)
        rows = np.arange(0, cloud.n, 97)
        got = [extract_patches(cloud, index, rows[j:j + 1], 8) for j in range(len(rows))]
        want = [oracle_extract_patches(cloud, index, rows[j:j + 1], 8) for j in range(len(rows))]
        assert self.digest(got) == self.digest(want)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 12), m=st.integers(1, 9), data=st.data(),
           trailing=st.sampled_from([(), (3,)]), seed=st.integers(0, 2**32 - 1))
    def test_flat_take_matches_take_along_axis(self, n, m, data, trailing, seed):
        # The one gather extract_patches and query_many use, on 2-D and 3-D arrays.
        rng = np.random.default_rng(seed)
        j = data.draw(st.integers(0, m), label="j")
        a = rng.normal(size=(n, m) + trailing)
        a[rng.random(a.shape) < 0.2] = -0.0
        sel = rng.integers(0, m, size=(n, j))
        want = np.take_along_axis(a, sel.reshape(sel.shape + (1,) * len(trailing)), axis=1)
        got = _take_rows(a, sel)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        ints = rng.integers(0, 1000, size=(n, m))
        assert _take_rows(ints, sel).tobytes() == np.take_along_axis(ints, sel, axis=1).tobytes()


class TestAugmentRotations:
    """trainer._ROTATIONS_90, the orientations of an augmented training set."""

    def test_returns_seven_clouds(self):
        rots = trainer._ROTATIONS_90
        assert len(rots) == 7
        assert np.array_equal(rots[0], np.eye(3))
        assert len({r.tobytes() for r in rots}) == 7
        for r in rots:
            # A signed permutation: one +/-1 in each row and column.
            assert set(np.unique(r)) <= {-1.0, 0.0, 1.0}
            assert np.array_equal(np.abs(r).sum(axis=0), np.ones(3))
            assert np.array_equal(np.abs(r).sum(axis=1), np.ones(3))
            assert np.linalg.det(r) == pytest.approx(1.0)
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)), labels=[0, 1] * 5)
        out = rotated_copies(cloud)
        assert len(out) == 7
        assert np.array_equal(out[0].points, cloud.points)

    def test_axis_rotations(self):
        rots = trainer._ROTATIONS_90
        # order: original, x+90, x-90, y+90, y-90, z+90, z-90
        assert np.array_equal(rots[5] @ [1.0, 0.0, 0.0], [0, 1, 0])   # z+90 on (1,0,0)
        assert np.array_equal(rots[2] @ [0.0, 0.0, 1.0], [0, 1, 0])   # x-90 on (0,0,1)

    def test_isometry_and_labels(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.random((40, 3)), labels=rng.integers(0, 2, 40))
        base = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
        for rotated in rotated_copies(cloud):
            dist = np.linalg.norm(rotated.points[:, None] - rotated.points[None, :], axis=2)
            assert np.abs(dist - base).max() < 1e-12
            assert np.array_equal(rotated.labels, cloud.labels)

    def test_inverse_pairs_recover_original(self):
        rots = trainer._ROTATIONS_90
        for plus, minus in ((1, 2), (3, 4), (5, 6)):
            assert np.array_equal(rots[minus] @ rots[plus], np.eye(3))
            assert np.array_equal(rots[plus] @ rots[minus], np.eye(3))


class TestNoise:
    def test_zero_ratio_identity(self):
        cloud = PointCloud(np.random.default_rng(0).random((30, 3)))
        assert add_gaussian_noise(cloud, 0.0, 1) is cloud

    @pytest.mark.parametrize("ratio", [0.0, 0.05])
    def test_negative_seed_rejected(self, ratio):
        cloud = PointCloud(np.random.default_rng(0).random((30, 3)))
        with pytest.raises(InvalidInput, match="seed must be a nonnegative integer"):
            add_gaussian_noise(cloud, ratio, -1)

    def test_sd_on_lattice_matches_enumeration(self):
        pts = np.column_stack([np.arange(100.0), np.zeros(100), np.zeros(100)])
        cloud = PointCloud(pts)
        sd = mean_neighbor_distance(cloud, k=16)
        # Brute-force oracle over all points.
        d = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])
        expected = np.mean([np.sort(row[row > 0])[:16].mean() for row in d])
        assert sd == pytest.approx(expected, abs=1e-12)
        # Interior points see distances {1,1,2,2,...,8,8}, mean 4.5.
        interior = np.sort(d[50][d[50] > 0])[:16].mean()
        assert interior == pytest.approx(4.5)

    @pytest.mark.parametrize("k", [0, -1])
    def test_mean_neighbor_distance_rejects_k_below_one(self, k):
        cloud = PointCloud(np.random.default_rng(0).random((30, 3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=rf"^k must be >= 1, got {k}$"):
                mean_neighbor_distance(cloud, k=k)
            with pytest.raises(InvalidInput, match=rf"^k must be >= 1, got {k}$"):
                build_index(cloud).query_many(cloud.points, k)

    def test_noise_std_matches_configuration(self):
        rng = np.random.default_rng(0)
        # 1e5 points on a plane grid-ish layout
        side = 317
        ax = np.arange(side) * 0.1
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(side * side)])
        cloud = PointCloud(pts)
        sd = mean_neighbor_distance(cloud, k=16)
        noisy = add_gaussian_noise(cloud, 0.05, seed=3)
        delta = noisy.points - cloud.points
        for axis in range(3):
            assert np.std(delta[:, axis]) == pytest.approx(0.05 * sd, rel=0.02)

    def test_deterministic(self):
        cloud = PointCloud(np.random.default_rng(0).random((50, 3)))
        a = add_gaussian_noise(cloud, 0.05, seed=9)
        b = add_gaussian_noise(cloud, 0.05, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_too_few_points(self):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InsufficientNeighborhood):
            add_gaussian_noise(cloud, 0.05, seed=0)

    @pytest.mark.parametrize("k", [1, 16])
    def test_mean_neighbor_distance_k_points_are_too_few(self, k):
        cloud = PointCloud(np.random.default_rng(0).random((k, 3)))
        with pytest.raises(InsufficientNeighborhood, match=rf"^need at least {k + 1} points, cloud has {k}$"):
            mean_neighbor_distance(cloud, k=k)

    def test_labels_preserved(self):
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.random((40, 3)), labels=rng.integers(0, 2, 40))
        noisy = add_gaussian_noise(cloud, 0.03, seed=0)
        assert np.array_equal(noisy.labels, cloud.labels)


class TestDownsample:
    def test_keep_all_identity(self):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        assert downsample(cloud, 1.0, 0) is cloud

    @pytest.mark.parametrize("keep", [1.0, 0.5])
    def test_negative_seed_rejected(self, keep):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InvalidInput, match="seed must be a nonnegative integer"):
            downsample(cloud, keep, -1)

    def test_counts_and_membership(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.random((100, 3)), labels=rng.integers(0, 2, 100))
        out = downsample(cloud, 0.75, seed=4)
        assert out.n == 75
        rows = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in rows for p in out.points)
        assert len({tuple(p) for p in out.points}) == 75

    def test_labels_follow_points(self):
        rng = np.random.default_rng(1)
        pts = rng.random((60, 3))
        labels = (pts[:, 0] > 0.5).astype(int)
        out = downsample(PointCloud(pts, labels), 0.6, seed=2)
        assert np.array_equal(out.labels, (out.points[:, 0] > 0.5).astype(int))

    def test_deterministic(self):
        cloud = PointCloud(np.random.default_rng(0).random((80, 3)))
        a = downsample(cloud, 0.5, seed=7)
        b = downsample(cloud, 0.5, seed=7)
        assert np.array_equal(a.points, b.points)

    def test_invalid_ratio(self):
        cloud = PointCloud(np.random.default_rng(0).random((10, 3)))
        with pytest.raises(InvalidInput):
            downsample(cloud, 0.0, 0)
        with pytest.raises(InvalidInput):
            downsample(cloud, 1.5, 0)


class TestDeduplicate:
    def test_removes_exact_duplicates_keeps_first(self):
        pts = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0], [2, 2, 2]], dtype=float)
        out = deduplicate(PointCloud(pts, labels=[1, 0, 0, 1]))
        assert out.n == 3
        assert np.array_equal(out.points, pts[[0, 1, 3]])
        assert out.labels.tolist() == [1, 0, 1]

    def test_noop_without_duplicates(self):
        cloud = PointCloud(np.random.default_rng(0).random((20, 3)))
        assert deduplicate(cloud) is cloud
