"""The three benchmark workloads: inputs, one operation, and output checks.

Each workload builds its inputs from the workload seed in `setup`, runs one
closed-loop operation in `run`, and checks that operation's output in
`check`, which returns the list of failed checks and the output's quality
(an F-score). Checks never run inside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from pcedge import io, metrics, net, segment, synth, trainer
from pcedge.cloud import PointCloud
from pcedge.errors import PcedgeError

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
CHECKPOINT = DATA_DIR / "ref_k16_e5.ckpt"
CHECKPOINT_RECORD = DATA_DIR / "checkpoint.json"
REFERENCE_PROBS = DATA_DIR / "predict_seed7_probs.npy"

DEFAULT_SEED = 7
# Acceptance recipe of the one-shot experiment; it trains the fixed checkpoint.
CHECKPOINT_CONFIG = dict(k=16, lr=3e-4, batch_size=256, max_epochs=5,
                         patience=5, seed=11, augment=True)
TRAIN_CONFIG = dict(k=16, lr=3e-4, batch_size=256, max_epochs=1, seed=11, augment=True)
PREDICT_BATCH = 256
SEGMENT_K = 5
FLIP_FRACTION = 0.05
MATCH_RADIUS = 0.02       # metrics' documented strict matching radius
PROB_TOLERANCE = 1e-9     # against the stored seed-7 reference probabilities

# Densities of union_boxes clouds: (full size, --tiny self-test size).
# The warm-up operation of every set-up runs at the tiny size.
DENSITY = {"predict": (4000.0, 300.0), "train": (4000.0, 150.0), "postprocess": (16000.0, 500.0)}


def reference_cloud(seed: int, density: float = 4000.0) -> PointCloud:
    """The union_boxes cloud of the one-shot experiment (18,595 points at seed 7)."""
    return synth.generate(synth.ShapeSpec("union_boxes", density=density, seed=seed)).cloud


def load_params(path: Path = CHECKPOINT) -> net.ModelParameters:
    """The fixed checkpoint, CRC-checked by the program and hash-checked here."""
    params = net.load_checkpoint(path)
    want = json.loads(CHECKPOINT_RECORD.read_text(encoding="utf-8"))["checkpoint_sha256"]
    got = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    if got != want:
        raise PcedgeError(f"{path}: sha256 {got} differs from the recorded {want}")
    return params


# ---------------------------------------------------------------------------
# Output checks, also called by the self-test on corrupted outputs
# ---------------------------------------------------------------------------

def check_predictions(probs, labels, reference=None) -> list[str]:
    probs = np.asarray(probs)
    failures = []
    if not np.isfinite(probs).all():
        failures.append("non-finite probability")
    elif probs.min() < 0.0 or probs.max() > 1.0:
        failures.append("probability outside [0, 1]")
    if not np.array_equal(labels, probs > 0.5):
        failures.append("labels differ from p > 0.5")
    if reference is not None:
        if reference.shape != probs.shape:
            failures.append(f"{probs.shape[0]} probabilities, reference has {reference.shape[0]}")
        else:
            if not np.array_equal(labels, reference > 0.5):
                failures.append("labels differ from the stored reference")
            if not np.all(np.abs(probs - reference) <= PROB_TOLERANCE):
                failures.append(f"probabilities differ from the reference by more than {PROB_TOLERANCE}")
    return failures


def check_training(params: net.ModelParameters, log: list[dict]) -> list[str]:
    failures = []
    if len(log) != 1:
        failures.append(f"log has {len(log)} rows, expected 1")
    elif not 0.0 <= log[0]["val_fscore"] <= 1.0:
        failures.append(f"val_fscore {log[0]['val_fscore']} outside [0, 1]")
    try:
        params.validate_finite()
    except PcedgeError as exc:
        failures.append(str(exc))
    return failures


def match_oracle(pred: PointCloud, gt: PointCloud):
    """(tp, fp, fn) of the edge subsets, from scipy's kd-tree directly."""
    pe, ge = pred.points[pred.labels == 1], gt.points[gt.labels == 1]
    lo = np.minimum(pe.min(axis=0), ge.min(axis=0))
    extent = (np.maximum(pe.max(axis=0), ge.max(axis=0)) - lo).max()
    pe, ge = (pe - lo) / extent, (ge - lo) / extent

    def nearest(src, dst):
        _, idx = cKDTree(dst).query(src, k=1)
        return np.linalg.norm(src - dst[idx], axis=1)

    tp = int(np.sum(nearest(pe, ge) < MATCH_RADIUS))
    fn = int(np.sum(nearest(ge, pe) >= MATCH_RADIUS))
    return tp, pe.shape[0] - tp, fn


def segment_oracle(cloud: PointCloud, k: int = SEGMENT_K):
    """Segment ids and sizes from connected components of the symmetrised
    kNN graph over non-edge points, numbered by each segment's lowest index."""
    n = cloud.n
    _, nn = cKDTree(cloud.points).query(cloud.points, k=k + 1)
    keep = nn != np.arange(n)[:, None]
    keep[keep.all(axis=1), -1] = False
    src, dst = np.repeat(np.arange(n), k), nn[keep]
    interior = cloud.labels != 1
    both = interior[src] & interior[dst]
    graph = coo_matrix((np.ones(both.sum()), (src[both], dst[both])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    members = np.nonzero(interior)[0]
    _, first = np.unique(comp[members], return_index=True)
    rank = np.empty(comp.max() + 1, dtype=np.int64)
    rank[comp[members[np.sort(first)]]] = np.arange(first.size)
    ids = np.full(n, -1, dtype=np.int64)
    ids[members] = rank[comp[members]]
    return ids, np.bincount(ids[members], minlength=first.size).tolist()


def check_postprocess(source: PointCloud, gt: PointCloud, loaded: PointCloud,
                      report: metrics.EvalReport, seg: segment.SegmentationResult,
                      written: Path) -> list[str]:
    failures = []
    if not (np.array_equal(loaded.points, source.points)
            and np.array_equal(loaded.labels, source.labels)):
        failures.append("input file read back differs from the cloud written in set-up")
        return failures
    counts, oracle = (report.tp, report.fp, report.fn), match_oracle(source, gt)
    if counts != oracle:
        failures.append(f"tp/fp/fn {counts} differ from the kd-tree oracle {oracle}")
    ids, sizes = segment_oracle(source)
    if not np.array_equal(seg.segment_ids, ids) or seg.sizes != sizes or seg.count != len(sizes):
        failures.append("segment ids or sizes differ from the connected-components oracle")
    data = np.loadtxt(written, ndmin=2)
    if not (data.shape == (source.n, 4) and np.array_equal(data[:, :3], source.points)
            and np.array_equal(data[:, 3], seg.segment_ids)):
        failures.append("written cloud does not read back equal")
    return failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Predict:
    """trainer.predict on the reference cloud with the fixed checkpoint."""

    name = "predict"

    def setup(self, seed: int, tiny: bool, out_dir: Path):
        full, small = DENSITY[self.name]
        params = load_params()
        trainer.predict(reference_cloud(seed, small), params, batch=PREDICT_BATCH, threads=1)
        cloud = reference_cloud(seed, small if tiny else full)
        use_reference = seed == DEFAULT_SEED and not tiny
        return SimpleNamespace(cloud=cloud, params=params, items=cloud.n, points=cloud.n, patches=cloud.n,
                               reference=np.load(REFERENCE_PROBS) if use_reference else None)

    def run(self, s):
        return trainer.predict(s.cloud, s.params, batch=PREDICT_BATCH, threads=1)

    def check(self, s, out):
        predicted, _ = out
        failures = check_predictions(predicted.predictions, predicted.labels, s.reference)
        return failures, metrics.evaluate(predicted, s.cloud).fscore


class Train:
    """One epoch of one-shot training on the reference cloud."""

    name = "train"

    def setup(self, seed: int, tiny: bool, out_dir: Path):
        full, small = DENSITY[self.name]
        cfg = trainer.TrainConfig(**TRAIN_CONFIG)
        trainer.train(reference_cloud(seed, small), cfg, threads=1)
        cloud = reference_cloud(seed, small if tiny else full)
        # Training patches as build_dataset makes them: seven rotated copies
        # of every point outside the validation split.
        n_val = max(1, int(np.floor(cfg.val_fraction * cloud.n + 0.5)))
        patches = 7 * (cloud.n - n_val)
        return SimpleNamespace(cloud=cloud, cfg=cfg, items=patches, points=cloud.n, patches=patches)

    def run(self, s):
        return trainer.train(s.cloud, s.cfg, threads=1)

    def check(self, s, out):
        params, log = out
        return check_training(params, log), log[0]["val_fscore"] if log else float("nan")


class Postprocess:
    """read -> evaluate -> flood segment -> write, on a labelled XYZ file."""

    name = "postprocess"

    def setup(self, seed: int, tiny: bool, out_dir: Path):
        full, small = DENSITY[self.name]
        warm = self.inputs(seed, small, out_dir / f"postprocess_warmup_seed{seed}.xyz")
        self.run(warm)
        return self.inputs(seed, small if tiny else full, out_dir / f"postprocess_in_seed{seed}.xyz")

    @staticmethod
    def inputs(seed, density, path: Path):
        """Ground truth, the flipped-label cloud written to `path`, and the output path."""
        gt = reference_cloud(seed, density)
        rng = np.random.default_rng(seed)
        labels = gt.labels.copy()
        flip = rng.choice(gt.n, size=int(round(FLIP_FRACTION * gt.n)), replace=False)
        labels[flip] = 1 - labels[flip]
        source = PointCloud(gt.points, labels)
        io.save_cloud(source, path)
        return SimpleNamespace(gt=gt, source=source, path=path, items=gt.n, points=gt.n, patches=0,
                               out_path=path.with_name(path.stem + "_segments.xyz"))

    def run(self, s):
        loaded = io.load_cloud(s.path)
        report = metrics.evaluate(loaded, s.gt)
        seg = segment.flood_segment(loaded, k=SEGMENT_K)
        io.save_cloud(loaded, s.out_path, segments=seg.segment_ids)
        return loaded, report, seg

    def check(self, s, out):
        loaded, report, seg = out
        return check_postprocess(s.source, s.gt, loaded, report, seg, s.out_path), report.fscore


WORKLOADS = {"predict": Predict, "train": Train, "postprocess": Postprocess}
