"""Edge-set evaluation: Chamfer distance, IoU, precision, recall, F-score.

Both edge sets are first normalized jointly: translated by their shared
bounding-box minimum and divided by the largest extent, so the union fits
the unit cube with aspect preserved. Matching then uses a strict 0.02
radius in that normalized frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, build_index
from .errors import DegenerateInput, EmptyEdgeSet, InvalidInput

MATCH_RADIUS = 0.02


@dataclass(frozen=True)
class EvalReport:
    """Chamfer distance and match counts; the rates are derived from the counts."""

    cd: float
    tp: int
    fp: int
    fn: int
    n_pred: int
    n_gt: int

    def __post_init__(self):
        if self.tp + self.fp != self.n_pred:
            raise InvalidInput("inconsistent report: tp + fp != n_pred")
        if self.fn > self.n_gt or min(self.tp, self.fp, self.fn) < 0:
            raise InvalidInput("inconsistent report: bad counts")

    @property
    def precision(self) -> float:
        return _prf(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return _prf(self.tp, self.fp, self.fn)[1]

    @property
    def fscore(self) -> float:
        return _prf(self.tp, self.fp, self.fn)[2]

    @property
    def iou(self) -> float:
        return _safe_div(self.tp, self.tp + self.fp + self.fn)

    def to_json(self) -> str:
        return json.dumps({
            "cd": self.cd, "iou": self.iou, "precision": self.precision,
            "recall": self.recall, "fscore": self.fscore,
            "tp": self.tp, "fp": self.fp, "fn": self.fn,
            "n_pred": self.n_pred, "n_gt": self.n_gt,
        })

    def to_table(self) -> str:
        lines = [
            f"  CD        {self.cd:.6f}",
            f"  IoU       {self.iou:.4f}",
            f"  Precision {self.precision:.4f}",
            f"  Recall    {self.recall:.4f}",
            f"  F-score   {self.fscore:.4f}",
            f"  TP/FP/FN  {self.tp}/{self.fp}/{self.fn}  (pred {self.n_pred}, gt {self.n_gt})",
        ]
        return "\n".join(lines)


def _safe_div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _prf(tp: int, fp: int, fn: int):
    """(precision, recall, F-score) of match counts; 0.0 where a denominator is 0."""
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    return precision, recall, _safe_div(2.0 * precision * recall, precision + recall)


def _point_set(pts, name: str) -> np.ndarray:
    """pts as a float64 (N, 3) array; InvalidInput naming the argument if it
    has another shape or a non-finite coordinate."""
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidInput(f"{name} must be an (N, 3) array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{name} contains non-finite coordinates")
    return arr


def normalize_pair(pred_pts: np.ndarray, gt_pts: np.ndarray):
    """Scale both sets by their joint bounding box into the unit cube."""
    pred_pts, gt_pts = _point_set(pred_pts, "pred_pts"), _point_set(gt_pts, "gt_pts")
    if pred_pts.size == 0 or gt_pts.size == 0:
        raise InvalidInput("normalize_pair requires two nonempty point sets")
    lo = np.minimum(pred_pts.min(axis=0), gt_pts.min(axis=0))
    hi = np.maximum(pred_pts.max(axis=0), gt_pts.max(axis=0))
    extent = float((hi - lo).max())
    if extent == 0.0:
        raise DegenerateInput("point sets have zero extent in every axis")
    return (pred_pts - lo) / extent, (gt_pts - lo) / extent


def _nearest_distances(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    index = build_index(PointCloud(dst))
    idx = index.query_many(src, 1)[:, 0]
    return np.linalg.norm(src - dst[idx], axis=1)


def chamfer(pred_pts: np.ndarray, gt_pts: np.ndarray) -> float:
    """Symmetric mean nearest-neighbor distance between two point sets."""
    pred_pts, gt_pts = _point_set(pred_pts, "pred_pts"), _point_set(gt_pts, "gt_pts")
    if pred_pts.size == 0 or gt_pts.size == 0:
        raise InvalidInput("chamfer requires two nonempty point sets")
    return _chamfer(_nearest_distances(pred_pts, gt_pts), _nearest_distances(gt_pts, pred_pts))


def _chamfer(d_pred_gt: np.ndarray, d_gt_pred: np.ndarray) -> float:
    return float(d_pred_gt.mean() + d_gt_pred.mean())


def match_counts(pred_pts: np.ndarray, gt_pts: np.ndarray):
    """Coverage matching: (tp, fp, fn) with a strict distance threshold.

    A predicted point is a TP when some ground-truth point lies strictly
    within MATCH_RADIUS; a ground-truth point with no predicted point within
    MATCH_RADIUS is an FN. No one-to-one assignment is attempted.
    """
    pred_pts, gt_pts = _point_set(pred_pts, "pred_pts"), _point_set(gt_pts, "gt_pts")
    if pred_pts.shape[0] == 0:
        return 0, 0, gt_pts.shape[0]
    if gt_pts.shape[0] == 0:
        return 0, pred_pts.shape[0], 0
    return _match_counts(_nearest_distances(pred_pts, gt_pts), _nearest_distances(gt_pts, pred_pts))


def _match_counts(d_pred_gt: np.ndarray, d_gt_pred: np.ndarray):
    tp = int(np.sum(d_pred_gt < MATCH_RADIUS))
    fn = int(np.sum(d_gt_pred >= MATCH_RADIUS))
    return tp, d_pred_gt.shape[0] - tp, fn


def evaluate(pred_cloud: PointCloud, gt_cloud: PointCloud) -> EvalReport:
    """Full report comparing the edge subsets of two labeled clouds."""
    if pred_cloud.labels is None or gt_cloud.labels is None:
        raise InvalidInput("both clouds must carry edge labels")
    pred_edges = pred_cloud.points[pred_cloud.labels == 1]
    gt_edges = gt_cloud.points[gt_cloud.labels == 1]
    if pred_edges.shape[0] == 0:
        raise EmptyEdgeSet("predicted cloud has no edge points")
    if gt_edges.shape[0] == 0:
        raise EmptyEdgeSet("ground-truth cloud has no edge points")
    pred_n, gt_n = normalize_pair(pred_edges, gt_edges)
    # Each nearest-distance direction is computed once and serves both the
    # Chamfer distance and the match counts.
    d_pred_gt = _nearest_distances(pred_n, gt_n)
    d_gt_pred = _nearest_distances(gt_n, pred_n)
    cd = _chamfer(d_pred_gt, d_gt_pred)
    tp, fp, fn = _match_counts(d_pred_gt, d_gt_pred)
    return EvalReport(cd=cd, tp=tp, fp=fp, fn=fn,
                      n_pred=int(pred_edges.shape[0]), n_gt=int(gt_edges.shape[0]))
