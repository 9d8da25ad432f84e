"""Synthetic shape generator: sampling, labels, analytic distances."""

import re
import warnings

import numpy as np
import pytest

from helpers import oracle_write_metadata
from pcedge import io, synth
from pcedge.errors import InvalidInput
from pcedge.synth import (
    EdgeCircle,
    EdgeSegment,
    ShapeSpec,
    distance_to_edge_curves,
    generate,
    write_metadata,
)


def dense_curve_points(curve, samples=10_000):
    t = np.linspace(0.0, 1.0, samples)
    if isinstance(curve, EdgeSegment):
        return curve.p0 + t[:, None] * (curve.p1 - curve.p0)
    basis = np.linalg.svd(curve.normal[None, :])[2][1:]
    angles = 2 * np.pi * t
    return (curve.center + curve.radius *
            (np.cos(angles)[:, None] * basis[0] + np.sin(angles)[:, None] * basis[1]))


class TestDistanceToEdgeCurves:
    def test_perpendicular_foot_on_segment(self):
        seg = EdgeSegment(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]))
        assert distance_to_edge_curves(np.array([0.5, 0.0, 1.0]), [seg]) == pytest.approx(1.0)

    def test_beyond_endpoint(self):
        seg = EdgeSegment(np.array([0.0, 0, 0]), np.array([1.0, 0, 0]))
        assert distance_to_edge_curves(np.array([2.0, 0.0, 0.0]), [seg]) == pytest.approx(1.0)

    def test_coplanar_radial_circle(self):
        circ = EdgeCircle(np.zeros(3), 1.0, np.array([0.0, 0, 1]))
        assert distance_to_edge_curves(np.array([2.0, 0.0, 0.0]), [circ]) == pytest.approx(1.0)

    def test_circle_axis_point(self):
        circ = EdgeCircle(np.zeros(3), 1.0, np.array([0.0, 0, 1]))
        got = distance_to_edge_curves(np.array([0.0, 0.0, 1.0]), [circ])
        assert got == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        curves = [
            EdgeSegment(rng.normal(size=3), rng.normal(size=3)),
            EdgeCircle(rng.normal(size=3), float(rng.uniform(0.3, 2.0)),
                       rng.normal(size=3) / np.linalg.norm(rng.normal(size=3))),
        ]
        # normalize circle normal properly
        n = rng.normal(size=3)
        curves[1] = EdgeCircle(curves[1].center, curves[1].radius, n / np.linalg.norm(n))
        pts = rng.normal(size=(20, 3)) * 2
        got = distance_to_edge_curves(pts, curves)
        dense = np.vstack([dense_curve_points(c) for c in curves])
        ref = np.array([np.linalg.norm(dense - p, axis=1).min() for p in pts])
        assert np.abs(got - ref).max() < 1e-3

    def test_empty_curves_infinite(self):
        got = distance_to_edge_curves(np.zeros((3, 3)), [])
        assert np.isinf(got).all()


class TestGenerate:
    def test_box_counts_and_verified_labels(self):
        spec = ShapeSpec("box", size=(1.0, 1.0, 1.0), density=5000, seed=0)
        res = generate(spec)
        assert res.cloud.n == pytest.approx(30_000, rel=0.02)
        assert len(res.curves) == 12
        # every labeled point is within tau of an edge per an independent
        # point-segment distance evaluation
        dense = np.vstack([dense_curve_points(c, 4000) for c in res.curves])
        edge_pts = res.cloud.points[res.cloud.labels == 1]
        ref = np.array([np.linalg.norm(dense - p, axis=1).min() for p in edge_pts[:400]])
        assert (ref < spec.band_width + 1e-3).all()

    def test_label_consistency_exact(self):
        spec = ShapeSpec("union_boxes", density=2000, seed=1)
        res = generate(spec)
        expected = distance_to_edge_curves(res.cloud.points, res.curves) < spec.band_width
        assert np.array_equal(res.cloud.labels.astype(bool), expected)
        assert np.array_equal(res.edge_distances,
                              distance_to_edge_curves(res.cloud.points, res.curves))

    def test_sphere_no_edges(self):
        res = generate(ShapeSpec("sphere", size=(0.7,), density=3000, seed=2))
        assert res.cloud.labels.sum() == 0
        assert np.isinf(res.edge_distances).all()
        radii = np.linalg.norm(res.cloud.points, axis=1)
        assert np.abs(radii - 0.7).max() < 1e-12

    def test_cylinder_band_fraction(self):
        r, h = 0.5, 1.2
        spec = ShapeSpec("cylinder", size=(r, h), density=6000, seed=3)
        res = generate(spec)
        tau = spec.band_width
        # edge points only near the two rim circles
        rim_dist = res.edge_distances[res.cloud.labels == 1]
        assert (rim_dist < tau).all()
        area = 2 * np.pi * r * h + 2 * np.pi * r * r
        band_area = 2 * (2 * np.pi * r) * (2 * tau)
        predicted = band_area / area
        actual = res.cloud.labels.mean()
        assert actual == pytest.approx(predicted, rel=0.10)

    def test_prism_and_l_bracket_shapes(self):
        prism = generate(ShapeSpec("prism", size=(1.0, 1.0), density=3000, seed=4))
        assert len(prism.curves) == 9
        bracket = generate(ShapeSpec("l_bracket", size=(1.0, 1.0, 0.4, 0.6), density=3000, seed=5))
        assert len(bracket.curves) == 18
        for res in (prism, bracket):
            assert res.cloud.labels.sum() > 0
            assert res.cloud.labels.mean() < 0.5

    def test_union_boxes_no_interior_points(self):
        spec = ShapeSpec("union_boxes", density=3000, seed=6)
        res = generate(spec)
        ax, ay, az, bx, by, bz, ox, oy, oz = spec.size
        alo, ahi = np.zeros(3), np.array([ax, ay, az])
        blo = np.array([ox, oy, oz])
        bhi = blo + np.array([bx, by, bz])
        inside_a = np.all((res.cloud.points > alo) & (res.cloud.points < ahi), axis=1)
        inside_b = np.all((res.cloud.points > blo) & (res.cloud.points < bhi), axis=1)
        on_a = res.face_ids < 6
        assert not np.any(inside_b & on_a)
        assert not np.any(inside_a & ~on_a)

    def test_determinism(self):
        a = generate(ShapeSpec("box", density=1000, seed=9))
        b = generate(ShapeSpec("box", density=1000, seed=9))
        assert np.array_equal(a.cloud.points, b.cloud.points)
        assert np.array_equal(a.cloud.labels, b.cloud.labels)

    def test_face_area_proportional_counts(self):
        spec = ShapeSpec("box", size=(2.0, 1.0, 0.5), density=2000, seed=10)
        res = generate(spec)
        assert res.cloud.n >= 10_000
        counts = np.bincount(res.face_ids, minlength=6)
        # two faces per axis, in builder order; per-face areas for (2, 1, 0.5)
        face_areas = np.array([0.5, 0.5, 1.0, 1.0, 2.0, 2.0])
        expected = face_areas / face_areas.sum()
        actual = counts / res.cloud.n
        assert np.abs(actual / expected - 1.0).max() < 0.03

    def test_point_count_cap(self, monkeypatch):
        # A box at density 100 asks for 600 points: one per unit of area on
        # each of its six unit faces.
        spec = ShapeSpec("box", density=100, seed=0)
        monkeypatch.setattr(synth, "MAX_POINTS", 600)
        assert generate(spec).cloud.n == 600
        monkeypatch.setattr(synth, "MAX_POINTS", 599)
        with pytest.raises(InvalidInput, match=r"^density 100 asks for 600 points, more than MAX_POINTS = 599"):
            generate(spec)

    @pytest.mark.parametrize("kind", ["box", "cylinder", "sphere", "prism"])
    def test_overflowing_areas_ask_for_inf_points(self, kind):
        # Each face's area overflows to inf; the count is refused before the
        # int() that inf cannot take, and without overflow warnings.
        size = (1e160,) * len(synth._SHAPES[kind][1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"^density 4000.0 asks for inf points, "
                                                   r"more than MAX_POINTS = 100000000$"):
                generate(ShapeSpec(kind, size=size))

    def test_density_too_low(self):
        # Each unit face of the box asks for round(0.4) = 0 points.
        with pytest.raises(InvalidInput, match=r"^density 0.4 yields no points$"):
            generate(ShapeSpec("box", density=0.4, seed=0))

    def test_bad_specs(self):
        with pytest.raises(InvalidInput):
            ShapeSpec("torus")
        with pytest.raises(InvalidInput):
            ShapeSpec("box", size=(1.0, 2.0))
        with pytest.raises(InvalidInput):
            ShapeSpec("box", density=-5)
        with pytest.raises(InvalidInput):  # disjoint boxes
            generate(ShapeSpec("union_boxes", size=(1, 1, 1, 1, 1, 1, 5, 5, 5), density=500))

    def test_kind_and_size_diagnostics(self):
        kinds = ("box", "cylinder", "sphere", "prism", "l_bracket", "union_boxes")
        assert synth.SHAPE_KINDS == kinds
        with pytest.raises(InvalidInput, match=re.escape(f"unknown shape kind 'torus', choose from {kinds}") + "$"):
            ShapeSpec("torus")
        for kind, n in zip(kinds, (3, 2, 1, 2, 4, 9)):
            assert len(ShapeSpec(kind).size) == n
            with pytest.raises(InvalidInput, match=rf"^{kind} takes {n} size parameters, got {n + 1}$"):
                ShapeSpec(kind, size=(1.0,) * (n + 1))

    @pytest.mark.parametrize("field, value", [
        ("density", float("nan")), ("density", float("inf")),
        ("size", (1.0, float("inf"), 1.0)), ("size", (1.0, float("nan"), 1.0)),
        ("tau", float("nan")), ("tau", float("inf")),
    ])
    def test_nonfinite_spec_rejected(self, field, value):
        with pytest.raises(InvalidInput, match=rf"^{field}"):
            ShapeSpec("box", **{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(InvalidInput, match=r"^seed"):
            ShapeSpec("box", seed=seed)

    def test_metadata_sidecar(self, tmp_path):
        res = generate(ShapeSpec("box", density=500, seed=11))
        path = tmp_path / "meta.csv"
        write_metadata(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,face_id,edge_distance"
        assert len(lines) == res.cloud.n + 1
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[2]) == pytest.approx(res.edge_distances[0], rel=1e-6)

    @pytest.mark.parametrize("kind", ["box", "cylinder", "union_boxes"])
    def test_metadata_matches_frozen_loop(self, kind, tmp_path):
        res = generate(ShapeSpec(kind, density=800, seed=5))
        write_metadata(res, tmp_path / "meta.csv")
        oracle_write_metadata(res, tmp_path / "oracle.csv")
        assert (tmp_path / "meta.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_metadata_across_row_blocks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(io, "_WRITE_BLOCK", 7)
        res = generate(ShapeSpec("prism", density=20, seed=5))
        assert res.cloud.n % 7 != 0
        write_metadata(res, tmp_path / "meta.csv")
        oracle_write_metadata(res, tmp_path / "oracle.csv")
        assert (tmp_path / "meta.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
