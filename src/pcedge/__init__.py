"""One-shot point-cloud edge detection.

Train a point-level edge classifier from a single labeled cloud using
filtered-kNN surface patches and RBF-based surface descriptors, then
predict, evaluate, and segment other clouds from the same distribution.
"""

from .cloud import (
    PointCloud,
    SpatialIndex,
    add_gaussian_noise,
    build_index,
    deduplicate,
    downsample,
    extract_patches,
    mean_neighbor_distance,
)
from .metrics import EvalReport, chamfer, evaluate, match_counts, normalize_pair
from .net import ModelParameters, init_params, load_checkpoint, save_checkpoint
from .segment import SegmentationResult, flood_segment, knn_graph
from .synth import ShapeSpec, SynthResult, distance_to_edge_curves, generate
from .trainer import TrainConfig, bce_loss, build_dataset, predict, train

__version__ = "0.1.0"

__all__ = [
    "PointCloud", "SpatialIndex", "ModelParameters",
    "TrainConfig", "EvalReport", "ShapeSpec", "SynthResult", "SegmentationResult",
    "build_index", "extract_patches", "add_gaussian_noise", "downsample",
    "deduplicate", "mean_neighbor_distance", "init_params",
    "save_checkpoint", "load_checkpoint", "bce_loss", "build_dataset", "train", "predict",
    "normalize_pair", "chamfer", "match_counts", "evaluate",
    "knn_graph", "flood_segment", "distance_to_edge_curves", "generate",
]
