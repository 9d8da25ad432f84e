"""Evaluation metrics: normalization, Chamfer, matching, full reports."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pcedge.cloud import PointCloud
from pcedge.errors import DegenerateInput, EmptyEdgeSet, InvalidInput
from pcedge.metrics import (
    EvalReport,
    _prf,
    chamfer,
    evaluate,
    match_counts,
    normalize_pair,
)


def brute_chamfer(a, b):
    d_ab = np.linalg.norm(a[:, None] - b[None, :], axis=2)
    return d_ab.min(axis=1).mean() + d_ab.min(axis=0).mean()


def brute_match(pred, gt, radius=0.02):
    d = np.linalg.norm(pred[:, None] - gt[None, :], axis=2)
    tp = int((d.min(axis=1) < radius).sum())
    fn = int((d.min(axis=0) >= radius).sum())
    return tp, len(pred) - tp, fn


def reference_evaluate(pred_cloud, gt_cloud):
    """Independent straight-line report implementation."""
    pe = pred_cloud.points[pred_cloud.labels == 1]
    ge = gt_cloud.points[gt_cloud.labels == 1]
    lo = np.minimum(pe.min(axis=0), ge.min(axis=0))
    extent = (np.maximum(pe.max(axis=0), ge.max(axis=0)) - lo).max()
    pe = (pe - lo) / extent
    ge = (ge - lo) / extent
    cd = brute_chamfer(pe, ge)
    tp, fp, fn = brute_match(pe, ge)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    iou = tp / (tp + fp + fn) if tp + fp + fn else 0.0
    return cd, iou, precision, recall, f, tp, fp, fn


class TestNormalizePair:
    def test_identity_on_unit_box(self):
        a = np.array([[0.0, 0, 0], [1, 1, 1]])
        b = np.array([[0.5, 0.5, 0.5]])
        na, nb = normalize_pair(a, b)
        assert np.array_equal(na, a)
        assert np.array_equal(nb, b)

    def test_halves_double_box(self):
        a = np.array([[0.0, 0, 0], [2, 2, 2]])
        b = np.array([[1.0, 1, 1]])
        na, nb = normalize_pair(a, b)
        assert np.allclose(na, a / 2)
        assert np.allclose(nb, b / 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_union_extent_is_one(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 3)) * 5 + 3
        b = rng.normal(size=(25, 3)) * 2 - 1
        na, nb = normalize_pair(a, b)
        union = np.vstack([na, nb])
        extent = union.max(axis=0) - union.min(axis=0)
        assert extent.max() == pytest.approx(1.0, abs=1e-12)
        assert union.min() >= -1e-12

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            normalize_pair(np.zeros((3, 3)), np.zeros((2, 3)))


class TestChamfer:
    def test_identical_sets_zero(self):
        pts = np.random.default_rng(0).random((50, 3))
        assert chamfer(pts, pts.copy()) == 0.0

    def test_two_singletons(self):
        assert chamfer(np.array([[0.0, 0, 0]]), np.array([[1.0, 0, 0]])) == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.random((200, 3))
        b = rng.random((180, 3))
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = rng.random((60, 3)), rng.random((70, 3))
        assert chamfer(a, b) == chamfer(b, a)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            chamfer(np.zeros((0, 3)), np.zeros((3, 3)))


class TestMatchCounts:
    def test_identical_sets(self):
        pts = np.random.default_rng(0).random((30, 3))
        tp, fp, fn = match_counts(pts, pts.copy())
        assert (tp, fp, fn) == (30, 0, 0)

    def test_beyond_radius(self):
        tp, fp, fn = match_counts(np.array([[0.0, 0, 0]]), np.array([[0.05, 0, 0]]))
        assert (tp, fp, fn) == (0, 1, 1)

    def test_strict_inequality_at_radius(self):
        tp, fp, fn = match_counts(np.array([[0.0, 0, 0]]), np.array([[0.02, 0, 0]]))
        assert (tp, fp, fn) == (0, 1, 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_matches_equal_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        gt = rng.random((100, 3))
        near = gt[:40] + rng.normal(scale=0.003, size=(40, 3))
        far = rng.random((30, 3)) + 2.0
        pred = np.vstack([near, far])
        assert match_counts(pred, gt) == brute_match(pred, gt)

    def test_empty_sides(self):
        pts = np.random.default_rng(0).random((5, 3))
        assert match_counts(np.zeros((0, 3)), pts) == (0, 0, 5)
        assert match_counts(pts, np.zeros((0, 3))) == (0, 5, 0)


@pytest.mark.parametrize("func", [match_counts, chamfer, normalize_pair])
@pytest.mark.parametrize("shape", [(6, 2), (2, 3, 1), (7,), (0,)])
@pytest.mark.parametrize("side", [0, 1])
def test_point_sets_must_be_n_by_3(func, shape, side):
    # Neither side is reshaped into points: a (6, 2) array is not four points.
    args = [np.random.default_rng(0).random((4, 3)), np.random.default_rng(1).random((5, 3))]
    args[side] = np.ones(shape)
    name = ("pred_pts", "gt_pts")[side]
    with pytest.raises(InvalidInput, match=rf"^{name} must be an \(N, 3\) array, got shape "
                                           rf"{re.escape(str(shape))}$"):
        func(*args)


@pytest.mark.parametrize("func", [match_counts, chamfer, normalize_pair])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", [0, 1])
def test_point_sets_must_be_finite(func, bad, side):
    args = [np.random.default_rng(0).random((4, 3)), np.random.default_rng(1).random((5, 3))]
    args[side][2, 1] = bad
    name = ("pred_pts", "gt_pts")[side]
    with pytest.raises(InvalidInput, match=rf"^{name} contains non-finite coordinates$"):
        func(*args)


class TestEvaluate:
    def _cloud(self, pts, labels):
        return PointCloud(pts, labels)

    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        pts = rng.random((100, 3))
        labels = (rng.random(100) < 0.3).astype(int)
        labels[0] = 1
        gt = self._cloud(pts, labels)
        rep = evaluate(gt, gt)
        assert rep.cd == 0.0
        assert rep.iou == rep.precision == rep.recall == rep.fscore == 1.0

    def test_one_far_outlier(self):
        rng = np.random.default_rng(1)
        edge = rng.random((9, 3)) * 0.2
        outlier = np.array([[5.0, 5.0, 5.0]])
        gt_pts = np.vstack([edge, rng.random((20, 3)) * 0.2])
        gt = self._cloud(gt_pts, [1] * 9 + [0] * 20)
        pred_pts = np.vstack([edge, outlier, rng.random((20, 3)) * 0.2])
        pred = self._cloud(pred_pts, [1] * 10 + [0] * 20)
        rep = evaluate(pred, gt)
        assert (rep.tp, rep.fp, rep.fn) == (9, 1, 0)
        assert rep.precision == pytest.approx(0.9)
        assert rep.recall == 1.0
        assert rep.fscore == pytest.approx(2 * 0.9 / 1.9)
        assert rep.iou == pytest.approx(0.9)

    @pytest.mark.parametrize("seed", range(20))
    def test_fuzz_against_reference(self, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(20, 120, size=2)
        pred = self._cloud(rng.random((n1, 3)) * rng.uniform(0.5, 4.0),
                           (rng.random(n1) < 0.5).astype(int))
        gt = self._cloud(rng.random((n2, 3)) * rng.uniform(0.5, 4.0),
                         (rng.random(n2) < 0.5).astype(int))
        if pred.labels.sum() == 0 or gt.labels.sum() == 0:
            with pytest.raises(EmptyEdgeSet):
                evaluate(pred, gt)
            return
        rep = evaluate(pred, gt)
        cd, iou, p, r, f, tp, fp, fn = reference_evaluate(pred, gt)
        assert rep.cd == pytest.approx(cd, abs=1e-12)
        assert (rep.tp, rep.fp, rep.fn) == (tp, fp, fn)
        assert rep.iou == pytest.approx(iou, abs=1e-12)
        assert rep.fscore == pytest.approx(f, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_transform_invariance(self, seed):
        """Translation, uniform scale, and axis-aligned rotations cancel.

        General rotations do not: the joint bounding box is axis-aligned,
        so its extent (the normalization scale) changes with orientation.
        """
        rng = np.random.default_rng(seed)
        pts = rng.random((80, 3))
        labels = (rng.random(80) < 0.4).astype(int)
        labels[:2] = 1
        # Matches sit far from the 0.02 radius so that count stability is
        # insensitive to the 1e-9 noise a transform may introduce.
        jitter = rng.normal(scale=0.002, size=(80, 3))
        jitter[rng.random(80) < 0.3] += 0.5
        pred = self._cloud(pts + jitter, labels)
        gt = self._cloud(pts, labels)
        base = evaluate(pred, gt)
        q = np.array([[0.0, -1, 0], [0, 0, -1], [1, 0, 0]])  # signed permutation
        scale_factor = 7.3
        shift = rng.normal(size=3) * 10
        pred_t = self._cloud(scale_factor * pred.points @ q.T + shift, labels)
        gt_t = self._cloud(scale_factor * gt.points @ q.T + shift, labels)
        moved = evaluate(pred_t, gt_t)
        assert moved.cd == pytest.approx(base.cd, abs=1e-9)
        assert (moved.tp, moved.fp, moved.fn) == (base.tp, base.fp, base.fn)
        assert moved.fscore == pytest.approx(base.fscore, abs=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["random", "duplicates", "lattice"]),
           n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1))
    def test_equals_report_from_public_metrics(self, kind, n, seed):
        """evaluate shares one distance array per direction between the
        Chamfer distance and the match counts; its report must equal the one
        built from chamfer and match_counts exactly."""
        rng = np.random.default_rng(seed)
        if kind == "lattice":  # many exact distance ties
            pred_pts = rng.integers(0, 4, size=(n, 3)) * 0.02
            gt_pts = rng.integers(0, 4, size=(n + 3, 3)) * 0.02
        else:
            pred_pts = rng.random((n, 3)) * rng.uniform(0.05, 2.0)
            gt_pts = pred_pts[rng.integers(0, n, size=n + 3)] + rng.normal(scale=0.01, size=(n + 3, 3))
            if kind == "duplicates":
                pred_pts[rng.integers(0, n, size=n // 2)] = pred_pts[rng.integers(0, n, size=n // 2)]
                gt_pts[rng.integers(0, n + 3, size=n)] = gt_pts[0]
        pred_labels = (rng.random(n) < 0.6).astype(int)
        gt_labels = (rng.random(n + 3) < 0.6).astype(int)
        pred_labels[0] = gt_labels[0] = 1
        pred, gt = self._cloud(pred_pts, pred_labels), self._cloud(gt_pts, gt_labels)

        pred_n, gt_n = normalize_pair(pred_pts[pred_labels == 1], gt_pts[gt_labels == 1])
        tp, fp, fn = match_counts(pred_n, gt_n)
        got = evaluate(pred, gt)
        assert got == EvalReport(cd=chamfer(pred_n, gt_n), tp=tp, fp=fp, fn=fn,
                                 n_pred=len(pred_n), n_gt=len(gt_n))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        assert got.precision == precision
        assert got.recall == recall
        assert got.fscore == (2.0 * precision * recall / (precision + recall)
                              if precision + recall else 0.0)
        assert got.iou == (tp / (tp + fp + fn) if tp + fp + fn else 0.0)

    def test_empty_edge_sets_raise(self):
        rng = np.random.default_rng(0)
        pts = rng.random((10, 3))
        some = self._cloud(pts, [1] + [0] * 9)
        none = self._cloud(pts, [0] * 10)
        with pytest.raises(EmptyEdgeSet):
            evaluate(none, some)
        with pytest.raises(EmptyEdgeSet):
            evaluate(some, none)

    def test_missing_labels(self):
        pts = np.random.default_rng(0).random((5, 3))
        with pytest.raises(InvalidInput):
            evaluate(PointCloud(pts), PointCloud(pts, [1] * 5))

    def test_report_internal_consistency_guard(self):
        for tp, fp, fn, n_pred, n_gt, reason in (
            (5, 1, 0, 5, 5, r"tp \+ fp != n_pred"),
            (6, -1, 0, 5, 5, "bad counts"),
            (5, 0, 6, 5, 5, "bad counts"),
        ):
            with pytest.raises(InvalidInput, match=reason):
                EvalReport(cd=0.0, tp=tp, fp=fp, fn=fn, n_pred=n_pred, n_gt=n_gt)

    @pytest.mark.parametrize("counts, want", [
        ((0, 0, 3), (0.0, 0.0, 0.0)),    # tp + fp = 0
        ((0, 3, 0), (0.0, 0.0, 0.0)),    # tp + fn = 0
        ((0, 0, 0), (0.0, 0.0, 0.0)),    # every denominator 0
        ((0, 2, 5), (0.0, 0.0, 0.0)),    # tp = 0: precision + recall = 0
        ((3, 1, 0), (0.75, 1.0, 1.5 / 1.75)),
    ])
    def test_prf_zero_denominators(self, counts, want):
        assert _prf(*counts) == want

    def test_report_serialization(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 3))
        labels = [1] * 10 + [0] * 20
        rep = evaluate(PointCloud(pts, labels), PointCloud(pts, labels))
        js = rep.to_json()
        assert js.startswith("{") and "\n" not in js
        assert list(json.loads(js)) == ["cd", "iou", "precision", "recall", "fscore",
                                        "tp", "fp", "fn", "n_pred", "n_gt"]
        assert "F-score" in rep.to_table()
