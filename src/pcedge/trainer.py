"""One-shot training: dataset assembly from a single labeled cloud, BCE loss,
Adam updates, class-balanced batching, validation, early stopping, and
streaming prediction.

Training is deterministic for a fixed seed. Each mini-batch runs as one
float32 forward/backward pass on the calling thread, against float64 master
weights and Adam state; validation and `predict` run in float64. Float32
halves the bytes every small product and elementwise pass of a step moves,
which is where a step spends its time. Each split is stored in the dtype of
the pass that reads it: the training set in float32, the validation set in
float64. Validation and `predict` take their patches one work unit of at
most cloud._QUERY_BLOCK rows at a time and run each unit as INFER_WINDOW-row
model windows. The thread count does one thing in `train` and `predict`
alike: it sizes those units and spreads them across workers. Rows are
independent, so both are byte-identical for every thread count (see
_window_probs).
"""

from __future__ import annotations

import ctypes
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from . import net
from .cloud import _QUERY_BLOCK, PointCloud, build_index, extract_patches
from .errors import InvalidInput, ModelShapeError
from .io import write_rows
from .metrics import _prf

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
PROB_CLAMP = 1e-7

# glibc mallopt parameters, and the thresholds its dynamic rule settles on
# for 64-bit once a large block has been freed.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20

# The dtype of a training step's parameters, and so of the training set.
_STEP_DTYPE = np.float32


def _keep_freed_heap() -> None:
    """Let memory freed by one model window serve the next one.

    Each window allocates megabytes of intermediates (about 5 MB for a
    256-patch float64 inference forward, more for a float32 training step
    with its caches) and frees them on return. glibc's default trim
    threshold is far smaller and rises only
    after a large mmapped block has been freed, so until then every window
    handed its heap back to the kernel and faulted it in again: about 105k
    minor faults and 1.5-2.0 s per `predict` on an 18.6k-point cloud, against
    none and 1.0-1.4 s with the thresholds glibc's own rule reaches.

    The setting is process-wide and outlives the call, as glibc's dynamic
    thresholds would. Calling it again changes nothing. Where the C library
    has no `mallopt` (macOS, Windows) it does nothing; musl's ignores it.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread while the block runs, then restore its count.

    The model's products are small, and extra BLAS threads cost more to wake
    than they save: `pcedge predict` on the 18.6k-point reference cloud took
    0.68-1.48 s on two cores with OPENBLAS_NUM_THREADS unset, 0.36-0.41 s at
    one thread. The setting is process-wide while the block runs. Where
    numpy's bundled OpenBLAS symbols are missing (another BLAS or build), it
    does nothing.
    """
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        yield
        return
    get.restype = ctypes.c_int
    put.argtypes = (ctypes.c_int,)
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


@dataclass
class TrainConfig:
    """Hyperparameters of the one-shot training protocol."""

    k: int = 16
    lr: float = 1e-5
    batch_size: int = 256
    max_epochs: int = 200
    seed: int = 0
    val_fraction: float = 0.1
    patience: int = 20
    augment: bool = True

    def __post_init__(self):
        if self.k % 2 != 0 or not (8 <= self.k <= 64):
            raise InvalidInput(f"k must be even and in [8, 64], got {self.k}")
        if not (0.0 < self.val_fraction < 0.5):
            raise InvalidInput(f"val_fraction must be in (0, 0.5), got {self.val_fraction}")
        if not 0.0 < self.lr < np.inf:
            raise InvalidInput(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise InvalidInput(f"batch_size must be even and >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise InvalidInput(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.max_epochs < 1:
            raise InvalidInput(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise InvalidInput(f"patience must be >= 1, got {self.patience}")


# The seven orientations of the cloud in an augmented training set.
_ROTATIONS_90 = [
    np.eye(3),
    np.array([[1.0, 0, 0], [0, 0, -1], [0, 1, 0]]),   # x, +90
    np.array([[1.0, 0, 0], [0, 0, 1], [0, -1, 0]]),   # x, -90
    np.array([[0.0, 0, 1], [0, 1, 0], [-1, 0, 0]]),   # y, +90
    np.array([[0.0, 0, -1], [0, 1, 0], [1, 0, 0]]),   # y, -90
    np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]]),   # z, +90
    np.array([[0.0, 1, 0], [-1, 0, 0], [0, 0, 1]]),   # z, -90
]

# Every matrix in _ROTATIONS_90 is a signed permutation, so column i of a
# patch's dvecs in rotated copy c is column _COPY_COLUMNS[c, i] of its
# unrotated dvecs, negated where _COPY_NEGATED[c, i].
_COPY_COLUMNS = np.abs(np.array(_ROTATIONS_90)).argmax(axis=2)
_COPY_NEGATED = np.array(_ROTATIONS_90).min(axis=2) < 0


@dataclass
class PatchSet:
    """Patches of m points in one or more rotated copies, and a label per row.

    Features are stored once per point, for the unrotated copy; `labels`
    holds one int8 label per row. Row r of the set is point r % m in copy
    r // m, where copy c is the cloud rotated by _ROTATIONS_90[c]. A
    rotated copy has the same neighbours, offsets and scale, and `gather`
    derives its dvecs from the stored ones, in their dtype.
    """

    dvecs: np.ndarray     # (m, k, 3)
    offsets: np.ndarray   # (m, k)
    scales: np.ndarray    # (m,)
    labels: np.ndarray    # (rows,) int8, copy-major

    @property
    def n(self) -> int:
        return self.labels.size

    def gather(self, rows: np.ndarray):
        """(dvecs, offsets, scales) of the given rows, as new arrays.

        A negated column is computed as 0.0 - x. Extraction from the rotated
        cloud takes (-c) - (-t) for candidate c and target t, which equals
        0.0 - (c - t) bit for bit, +0.0 where c == t included; -x would give
        -0.0 there.
        """
        copy, point = np.divmod(rows, self.scales.shape[0])
        dvecs = np.take_along_axis(self.dvecs[point], _COPY_COLUMNS[copy][:, None, :], axis=2)
        np.subtract(0.0, dvecs, out=dvecs, where=_COPY_NEGATED[copy][:, None, :])
        return dvecs, self.offsets[point], self.scales[point]


@dataclass
class TrainState:
    """Adam state: the float64 master parameters, their moments and the step
    count, plus the float32 copy of the parameters each step computes with."""

    params: net.ModelParameters
    work: net.ModelParameters   # float32, refreshed from params before each step
    m: np.ndarray               # first and second moments, laid out like params.flat
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, params: net.ModelParameters) -> "TrainState":
        return cls(params=params, work=params.astype(_STEP_DTYPE),
                   m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def bce_loss(e, e_gt):
    """Binary cross entropy and its gradient with respect to e.

    Probabilities are clamped to [1e-7, 1 - 1e-7]; the gradient is zero
    where the clamp is active. Returns arrays of the broadcast shape of e and
    e_gt, 0-d for scalars.
    """
    e = np.asarray(e, dtype=np.float64)
    y = np.asarray(e_gt, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise InvalidInput("ground-truth labels must be 0 or 1")
    ec = np.clip(e, PROB_CLAMP, 1.0 - PROB_CLAMP)
    loss = -(y * np.log(ec) + (1.0 - y) * np.log(1.0 - ec))
    inside = (e > PROB_CLAMP) & (e < 1.0 - PROB_CLAMP)
    grad = np.where(inside, (ec - y) / (ec * (1.0 - ec)), 0.0)
    return loss, grad


def build_dataset(cloud: PointCloud, cfg: TrainConfig):
    """Patch sets for training and validation from one labeled cloud.

    With augmentation each point gives one row in each of the seven copies
    of _ROTATIONS_90, else one row. The split is drawn at the
    original-point level so all rotated copies of a point land on the same
    side, preventing leakage. Rows are copy-major, then in ascending point
    index.

    The cloud is indexed once. Each split's arrays are allocated up front,
    in the dtype of the pass that reads them: float32 for training steps,
    float64 for validation. They are filled one cloud._QUERY_BLOCK block of
    points at a time, each block one `extract_patches` call, and the rotated
    copies are derived when rows are gathered. So the peak memory is the
    returned sets plus one block's extraction: at k=16, 267 bytes per
    training point and 527 per validation point. A training split of one
    class is rejected before the cloud is indexed; a cloud of fewer than
    2k + 1 points is rejected by `extract_patches`; a patch value beyond its
    split's dtype (float32: about 3.4e38) raises InvalidInput before the cast.
    """
    if cloud.labels is None:
        raise InvalidInput("training cloud must be fully labeled")
    copies = len(_ROTATIONS_90) if cfg.augment else 1
    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(cloud.n)
    n_val = max(1, int(np.floor(cfg.val_fraction * cloud.n + 0.5)))
    val_points = np.zeros(cloud.n, dtype=bool)
    val_points[perm[:n_val]] = True
    if np.unique(cloud.labels[~val_points]).size < 2:
        raise InvalidInput("the training split holds a single class once the validation points "
                           "are held out; cannot balance or learn")
    index = build_index(cloud)

    def patch_set(points, dtype):
        m = points.size
        out = PatchSet(np.empty((m, cfg.k, 3), dtype), np.empty((m, cfg.k), dtype), np.empty(m, dtype),
                       np.tile(cloud.labels[points].astype(np.int8), copies))
        limit = np.finfo(dtype).max
        for lo in range(0, m, _QUERY_BLOCK):
            rows = slice(lo, lo + _QUERY_BLOCK)
            patches = extract_patches(cloud, index, points[rows], cfg.k)[:3]
            if max(np.abs(a).max() for a in patches) > limit:
                raise InvalidInput(f"patch values exceed {limit:.8g}, the largest "
                                   f"{np.dtype(dtype).name} a training set holds")
            out.dvecs[rows], out.offsets[rows], out.scales[rows] = patches
        return out

    return (patch_set(np.nonzero(~val_points)[0], _STEP_DTYPE),
            patch_set(np.nonzero(val_points)[0], np.float64))


def adam_step(state: TrainState, grad: np.ndarray, cfg: TrainConfig) -> TrainState:
    """One in-place Adam update with bias correction; `grad` is laid out like `state.params.flat`."""
    theta = state.params.flat
    if grad.shape != theta.shape:
        raise ModelShapeError(f"gradient vector has shape {grad.shape}, expected {theta.shape}")
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    theta -= cfg.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + ADAM_EPS)
    return state


INFER_WINDOW = 256


def _window_probs(n: int, patches_of, params: net.ModelParameters, threads: int):
    """Edge probabilities of n rows, run as INFER_WINDOW-row model windows.

    Rows run in work units of INFER_WINDOW * ceil(n / (threads *
    INFER_WINDOW)) rows, at most cloud._QUERY_BLOCK: `patches_of(lo, hi)`
    gives the (dvecs, offsets, scales) of a unit's rows lo..hi, and the
    unit's windows run on slices of them. With threads > 1 the units run on
    a pool of that many workers, so a small cloud still gives each worker a
    share; else they run on the calling thread. Extraction and the model
    treat rows independently, so any partition of the rows into units and
    windows gives the same bytes, and the result is byte-identical for
    every thread count. An error is that of the first unit that raises, so
    a cloud with, say, a duplicate point and a degenerate neighbourhood in
    different places may name either one, depending on the thread count.
    Returns (probabilities, the model's seconds summed over windows).
    """
    probs = np.empty(n)
    unit = min(_QUERY_BLOCK, INFER_WINDOW * math.ceil(n / (threads * INFER_WINDOW)))

    def run_unit(lo: int) -> float:
        rows = probs[lo:lo + unit]
        dvecs, offsets, scales = patches_of(lo, lo + rows.size)
        seconds = 0.0
        for w in range(0, rows.size, INFER_WINDOW):
            window = slice(w, w + INFER_WINDOW)
            t0 = time.perf_counter()
            rows[window], _ = net.forward_batch(dvecs[window], offsets[window], scales[window], params)
            seconds += time.perf_counter() - t0
        return seconds

    units = range(0, n, unit)
    if threads == 1:
        return probs, sum(map(run_unit, units))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return probs, sum(pool.map(run_unit, units))


def _batch_plan(train: PatchSet, cfg: TrainConfig, rng: np.random.Generator):
    """Index arrays of the epoch's class-balanced mini-batches: half edge rows, half flat rows."""
    half = cfg.batch_size // 2
    n_batches = max(1, -(-train.n // cfg.batch_size))
    edge_pool = np.nonzero(train.labels == 1)[0]
    flat_pool = np.nonzero(train.labels == 0)[0]
    minority_is_edge = edge_pool.size <= flat_pool.size
    minority, majority = (edge_pool, flat_pool) if minority_is_edge else (flat_pool, edge_pool)
    need = n_batches * half
    laps = -(-need // majority.size)
    major_stream = np.concatenate([majority[rng.permutation(majority.size)] for _ in range(laps)])[:need]
    minor_stream = minority[rng.integers(0, minority.size, size=need)]
    edge, flat = (minor_stream, major_stream) if minority_is_edge else (major_stream, minor_stream)
    return list(np.concatenate([edge.reshape(n_batches, half), flat.reshape(n_batches, half)], axis=1))


def _batch_step(train: PatchSet, idx: np.ndarray, state: TrainState, cfg: TrainConfig):
    """Float32 forward/backward on one mini-batch, then a float64 Adam update;
    returns the mean loss and the L2 norm of the float64 gradient vector."""
    np.copyto(state.work.flat, state.params.flat, casting="same_kind")
    e, cache = net.forward_batch(*train.gather(idx), state.work, need_cache=True)
    losses, de = bce_loss(e, train.labels[idx].astype(np.float64))
    grad = net.backward(state.work, cache, de / idx.size)
    adam_step(state, grad, cfg)
    return float(np.sum(losses)) / idx.size, math.sqrt(grad @ grad)


@_one_blas_thread()
def train(cloud: PointCloud, cfg: TrainConfig, threads: int = 1):
    """Train on one labeled cloud; returns (best parameters, epoch log).

    The log holds one dict per epoch with keys epoch, mean_loss, grad_norm
    (the mean over the epoch's steps of the gradient vector's L2 norm),
    val_precision, val_recall, val_fscore, seconds. Like `predict`, it fixes
    glibc's malloc trim and mmap thresholds for the whole process (see
    `_keep_freed_heap`), and runs numpy's BLAS on one thread until it
    returns, a process-wide setting (see `_one_blas_thread`).
    """
    _keep_freed_heap()
    # Rejected before the dataset build, which extracts every point.
    if threads < 1:
        raise InvalidInput(f"threads must be >= 1, got {threads}")
    train_set, val_set = build_dataset(cloud, cfg)
    state = TrainState.fresh(net.init_params(cfg.k, seed=cfg.seed))
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 1]))
    log: list[dict] = []
    best_fscore, best_params, since_best = -1.0, None, 0

    for epoch in range(1, cfg.max_epochs + 1):
        started = time.perf_counter()
        batches = _batch_plan(train_set, cfg, rng)
        losses, grad_norms = zip(*[_batch_step(train_set, idx, state, cfg) for idx in batches])
        probs, _ = _window_probs(val_set.n, lambda lo, hi: val_set.gather(np.arange(lo, hi)),
                                 state.params, threads)
        edge, true_edge = probs > 0.5, val_set.labels == 1
        p, r, f = _prf(int(np.sum(edge & true_edge)), int(np.sum(edge & ~true_edge)),
                       int(np.sum(~edge & true_edge)))
        log.append({
            "epoch": epoch,
            "mean_loss": float(np.mean(losses)),
            "grad_norm": float(np.mean(grad_norms)),
            "val_precision": p,
            "val_recall": r,
            "val_fscore": f,
            "seconds": time.perf_counter() - started,
        })
        if f > best_fscore:
            best_fscore, best_params, since_best = f, state.params.copy(), 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    return best_params, log


@_one_blas_thread()
def predict(cloud: PointCloud, params: net.ModelParameters, batch: int = 256,
            threads: int = 1):
    """Classify every point of a cloud; returns (cloud with predictions, stats).

    Patches are extracted with one `extract_patches` call per work unit of
    at most cloud._QUERY_BLOCK rows, sized so that every worker gets a
    share, and the model runs each unit as INFER_WINDOW-row windows. So
    memory stays bounded by one unit's patches and one window's model
    intermediates per worker, and the output is byte-identical for every
    thread count (see _window_probs). `batch` must be >= 1 and changes
    nothing else; it is kept for callers that pass it. A cloud of fewer than
    2k + 1 points is rejected by `extract_patches`.

    The stats dict holds `wall_seconds`, the wall time of the whole call
    (index build, extraction and model); `pps`, points per wall second; and
    `model_seconds`, the model's time summed over windows, which exceeds the
    wall time when threads > 1 run windows concurrently.

    Like `train`, it fixes glibc's malloc trim and mmap thresholds for the
    whole process (see `_keep_freed_heap`), and runs numpy's BLAS on one
    thread until it returns, a process-wide setting (see `_one_blas_thread`).
    """
    started = time.perf_counter()
    _keep_freed_heap()
    if batch < 1:
        raise InvalidInput(f"batch must be >= 1, got {batch}")
    if threads < 1:
        raise InvalidInput(f"threads must be >= 1, got {threads}")
    index = build_index(cloud)

    def unit_patches(lo, hi):
        return extract_patches(cloud, index, np.arange(lo, hi), params.k)[:3]

    probs, model_seconds = _window_probs(cloud.n, unit_patches, params, threads)
    predicted = PointCloud(cloud.points, probs > 0.5, probs)
    wall_seconds = time.perf_counter() - started
    stats = {
        "wall_seconds": wall_seconds,
        "pps": cloud.n / wall_seconds,
        "model_seconds": model_seconds,
    }
    return predicted, stats


def write_log(log: list[dict], path) -> None:
    """Training log as CSV: one row per epoch."""
    cols = ("epoch", "mean_loss", "grad_norm", "val_precision", "val_recall", "val_fscore", "seconds")
    write_rows(path, ",".join(cols) + "\n",
               [("%d" if c == "epoch" else "%.6f", [row[c] for row in log]) for c in cols], sep=",")


_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_CASTS = {"int": int, "float": float, "bool": lambda v: _BOOLS[v.lower()]}


def parse_config(path) -> TrainConfig:
    """Read a plain "key = value" config file into a TrainConfig, whose fields name the keys."""
    kwargs: dict = {}
    casts = {f.name: _CASTS[f.type] for f in fields(TrainConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInput(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in casts:
                raise InvalidInput(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                kwargs[key] = casts[key](value)
            except (KeyError, ValueError) as exc:
                raise InvalidInput(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    try:
        return TrainConfig(**kwargs)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc
