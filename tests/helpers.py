"""Shared test utilities: an independent reference forward pass, single-item
compositions of the batched model kernels, and a finite-difference gradient
checker."""

import functools
import math
import tracemalloc

import numpy as np

from pcedge import net
from pcedge.rbf import _basis_matrices
from pcedge.trainer import bce_loss

FD_H = 1e-5
FD_TOL = 1e-4
FD_FLOOR = 1e-9  # absolute slack for gradients at the FD noise level


def peak_traced(fn):
    """(fn(), the peak bytes tracemalloc traced while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def union_boxes(density):
    """The seed-7 union_boxes synth result: 18,595 points at density 4,000, 74,443 at 16,000."""
    from pcedge import synth

    return synth.generate(synth.ShapeSpec("union_boxes", density=density, seed=7))


def reference_forward(dvecs, offsets, scale, params):
    """Straight-line per-patch forward pass, written independently of net.py.

    Plain loops and scalar math throughout; used as a second implementation
    to pin the composition.
    """
    p = params.tensors
    k = params.k
    m = k // 2
    heads = net.HEADS
    dh = 6 // heads

    f_euc = np.zeros(k)
    f_cos = np.zeros(k)
    for group, rows in (("first", range(0, m)), ("second", range(m, k))):
        dv = np.array([dvecs[j] for j in rows])
        m_euc = np.empty((m, m))
        m_cos = np.empty((m, m))
        for a in range(m):
            for b in range(m):
                if a == b:
                    m_euc[a, b] = 1.0
                    m_cos[a, b] = 1.0
                    continue
                r = np.linalg.norm(dv[a] - dv[b]) / scale
                m_euc[a, b] = math.exp(-r * r)
                ua = dv[a] / np.linalg.norm(dv[a])
                ub = dv[b] / np.linalg.norm(dv[b])
                m_cos[a, b] = float(ua @ ub) ** 3
        for a in range(m):
            g_euc = m_euc[a] @ p[f"rbf.{group}.euc_fc.w"] + p[f"rbf.{group}.euc_fc.b"]
            g_cos = m_cos[a] @ p[f"rbf.{group}.cos_fc.w"] + p[f"rbf.{group}.cos_fc.b"]
            h = np.concatenate([g_euc, g_cos])
            for head, out in (("euc_head", f_euc), ("cos_head", f_cos)):
                z = np.maximum(h @ p[f"rbf.{group}.{head}.w0"] + p[f"rbf.{group}.{head}.b0"], 0)
                z = np.maximum(z @ p[f"rbf.{group}.{head}.w1"] + p[f"rbf.{group}.{head}.b1"], 0)
                val = z @ p[f"rbf.{group}.{head}.w2"] + p[f"rbf.{group}.{head}.b2"]
                out[list(rows)[a]] = float(val[0])

    x = np.empty((k, 6))
    for j in range(k):
        x[j, :3] = dvecs[j] / scale
        x[j, 3] = offsets[j] / scale
        x[j, 4] = f_euc[j]
        x[j, 5] = f_cos[j]

    def layer_norm(v, g, b):
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        return g * (v - mu) / math.sqrt(var + net.LN_EPS) + b

    for i in range(4):
        a = np.array([layer_norm(x[j], p[f"enc.{i}.ln1.g"], p[f"enc.{i}.ln1.b"]) for j in range(k)])
        q = a @ p[f"enc.{i}.attn.wq"] + p[f"enc.{i}.attn.bq"]
        kx = a @ p[f"enc.{i}.attn.wk"] + p[f"enc.{i}.attn.bk"]
        v = a @ p[f"enc.{i}.attn.wv"] + p[f"enc.{i}.attn.bv"]
        ctx = np.zeros((k, 6))
        for h_i in range(heads):
            sl = slice(h_i * dh, (h_i + 1) * dh)
            for row in range(k):
                scores = np.array([float(q[row, sl] @ kx[other, sl]) for other in range(k)])
                scores /= math.sqrt(dh)
                w = np.exp(scores - scores.max())
                w /= w.sum()
                ctx[row, sl] = sum(w[other] * v[other, sl] for other in range(k))
        x = x + ctx @ p[f"enc.{i}.attn.wo"] + p[f"enc.{i}.attn.bo"]
        hmid = np.array([layer_norm(x[j], p[f"enc.{i}.ln2.g"], p[f"enc.{i}.ln2.b"]) for j in range(k)])
        ff = np.maximum(hmid @ p[f"enc.{i}.ffn.w1"] + p[f"enc.{i}.ffn.b1"], 0)
        x = x + ff @ p[f"enc.{i}.ffn.w2"] + p[f"enc.{i}.ffn.b2"]

    flat = x.reshape(-1)
    z = np.maximum(flat @ p["dec.w0"] + p["dec.b0"], 0)
    z = np.maximum(z @ p["dec.w1"] + p["dec.b1"], 0)
    z = np.maximum(z @ p["dec.w2"] + p["dec.b2"], 0)
    logit = float((z @ p["dec.w3"])[0] + p["dec.b3"][0])
    return 1.0 / (1.0 + math.exp(-logit))


# One item through the batched kernels that forward_batch runs.

def basis_pair(dvecs, scale):
    """(m_euc, m_cos) of one (m, 3) neighbor group."""
    m_euc, m_cos = np.split(_basis_matrices(np.asarray(dvecs, dtype=np.float64)[None],
                                            np.asarray([scale]))[0], 2, axis=-1)
    return m_euc, m_cos


def group_descriptors(dvecs, scale, params, group):
    """(f_euc, f_cos) of one k/2 neighbor group from the RBF block `group`."""
    mats = _basis_matrices(np.asarray(dvecs, dtype=np.float64)[None], np.asarray([scale]))
    fe, fc, _ = net._rbf_group_fwd(mats[0], params.tensors, group)
    return fe, fc


def patch_features(dvecs, offsets, scale, params):
    """The (k, 6) feature map of one patch: scaled geometry plus descriptors."""
    m = dvecs.shape[0] // 2
    fe1, fc1 = group_descriptors(dvecs[:m], scale, params, "first")
    fe2, fc2 = group_descriptors(dvecs[m:], scale, params, "second")
    return net._feature_map(dvecs[None], offsets[None], np.asarray([scale]),
                            np.concatenate([fe1, fe2])[None], np.concatenate([fc1, fc2])[None])[0]


def forward_one(dvecs, offsets, scale, params):
    """Edge probability of one patch: forward_batch at B = 1."""
    e, _ = net.forward_batch(dvecs[None], offsets[None], np.asarray([scale]), params)
    return float(e[0])


def encode(x, params):
    """The encoder layers on one (rows, 6) map."""
    for i in range(net.N_LAYERS):
        x, _ = net._encoder_layer_fwd(x, 1, x.shape[0], params.tensors, i)
    return x


def decode(x, params):
    """Edge probability of one (k, 6) map."""
    e, _ = net._decoder_fwd(x, 1, params.tensors)
    return float(e[0])


def random_patch_arrays(rng, n, k):
    """Random patch-shaped inputs (not geometrically consistent; fine for math)."""
    dvecs = rng.normal(size=(n, k, 3))
    order = np.argsort(np.linalg.norm(dvecs, axis=2), axis=1)
    dvecs = np.take_along_axis(dvecs, order[:, :, None], axis=1)
    offsets = np.abs(rng.normal(size=(n, k)))
    scales = rng.uniform(0.5, 2.0, size=n)
    return dvecs, offsets, scales


def fd_check_grads(loss_fn, tensors, analytic, entries_per_tensor=None, rng=None,
                   h=FD_H, tol=FD_TOL):
    """Compare analytic gradients with central finite differences.

    tensors: dict name -> parameter array (perturbed in place).
    analytic: dict name -> gradient array.
    entries_per_tensor: cap of checked entries per tensor (None = all).
    Returns (worst relative error, number of entries checked).
    """
    worst = 0.0
    checked = 0
    for name, t in tensors.items():
        flat = t.ravel()
        g = analytic[name].ravel()
        if entries_per_tensor is None or flat.size <= entries_per_tensor:
            idxs = range(flat.size)
        else:
            idxs = rng.choice(flat.size, size=entries_per_tensor, replace=False)
        for j in idxs:
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_fn()
            flat[j] = orig - h
            lm = loss_fn()
            flat[j] = orig
            fd = (lp - lm) / (2.0 * h)
            err = abs(fd - g[j])
            checked += 1
            if err > FD_FLOOR:
                rel = err / max(abs(fd), abs(g[j]))
                worst = max(worst, rel)
                assert rel <= tol, (
                    f"{name}[{j}]: analytic {g[j]:.3e} vs fd {fd:.3e} (rel {rel:.2e})"
                )
    return worst, checked


def end_to_end_loss(dvecs, offsets, scales, y, params):
    def loss_fn():
        e, _ = net.forward_batch(dvecs, offsets, scales, params)
        losses, _ = bce_loss(e, y)
        return float(np.mean(losses))
    return loss_fn


def end_to_end_grads(dvecs, offsets, scales, y, params):
    e, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
    _, de = bce_loss(e, y)
    return params.unpack(net.backward(params, cache, de / y.size))


def lattice_cube(n=40, jitter=0.2, seed=0):
    """Unit-cube surface on a jittered per-face lattice with edge-band labels.

    Random uniform sampling leaves one-ring ambiguity pockets at the band
    boundary (isolated non-edge points whose whole neighborhood is labeled
    edge); a lattice keeps the bands clean, which the segmentation fixtures
    need. Returns (cloud, face_ids, tau, spacing).
    """
    from pcedge.cloud import PointCloud
    from pcedge.synth import _build_box, distance_to_edge_curves

    rng = np.random.default_rng(seed)
    h = 1.0 / n
    # Rows sit at (i + 0.5) h from each crease; tau = 2 h falls between the
    # second and third rows, so jitter below 0.5 h never flips a label.
    tau = 2.0 * h
    centers = (np.arange(n) + 0.5) * h
    uu, vv = np.meshgrid(centers, centers, indexing="ij")
    grid = np.column_stack([uu.ravel(), vv.ravel()])
    points = []
    face_ids = []
    for fid, (axis, value) in enumerate(
        [(0, 0.0), (0, 1.0), (1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0)]
    ):
        jittered = grid + rng.uniform(-jitter * h, jitter * h, size=grid.shape)
        face = np.empty((n * n, 3))
        face[:, axis] = value
        others = [o for o in range(3) if o != axis]
        face[:, others[0]] = jittered[:, 0]
        face[:, others[1]] = jittered[:, 1]
        points.append(face)
        face_ids.append(np.full(n * n, fid))
    points = np.vstack(points)
    face_ids = np.concatenate(face_ids)
    _, edges = _build_box((1.0, 1.0, 1.0))
    labels = (distance_to_edge_curves(points, edges) < tau).astype(int)
    return PointCloud(points, labels), face_ids, tau, h


def gapped_lattice_cube(n=40, jitter=0.2, seed=0):
    """The lattice cube with a small label gap in the middle of one edge."""
    cloud, face_ids, tau, h = lattice_cube(n, jitter, seed)
    pts = cloud.points
    dist_to_edge = np.sqrt(pts[:, 1] ** 2 + pts[:, 2] ** 2)  # edge y=0, z=0
    gap = (cloud.labels == 1) & (dist_to_edge < tau * 1.05) & (np.abs(pts[:, 0] - 0.5) < 2.5 * h)
    labels = cloud.labels.copy()
    labels[gap] = 0
    from pcedge.cloud import PointCloud
    return PointCloud(pts, labels), face_ids, tau, h


# Frozen oracle for patch extraction: the global-lexsort kNN query and the
# three-sort extract_patches that the row-wise kernels in pcedge.cloud
# replaced, unchanged apart from dropped input checks and comments, so those
# kernels can be checked for byte identity against them. The PCA axis is
# computed here too, not imported, so a change to cloud._min_axes that moves
# an offset fails the parity tests.

def _argsort_rows(*keys: np.ndarray) -> np.ndarray:
    """Per-row sort order for 2-d arrays, by the given keys in priority order."""
    b, m = keys[0].shape
    rows = np.repeat(np.arange(b), m)
    stacked = [key.ravel() for key in reversed(keys)] + [rows]
    order = np.lexsort(stacked).reshape(b, m)
    return order - np.arange(b)[:, None] * m


_TIE_PAD = 8


def oracle_query_many(index, queries, k):
    """SpatialIndex.query_many with one global lexsort over all rows."""
    queries = np.asarray(queries, dtype=np.float64)
    n = index.n
    kk = min(k, n)
    pad = min(kk + _TIE_PAD, n)
    _, idx = index._tree.query(queries, k=pad)
    idx = idx.reshape(queries.shape[0], pad).astype(np.int64)
    diff = index._points[idx] - queries[:, None, :]
    dist = np.sqrt(np.einsum("bkd,bkd->bk", diff, diff))
    order = _argsort_rows(dist, idx)
    idx = np.take_along_axis(idx, order, axis=1)
    dist = np.take_along_axis(dist, order, axis=1)

    if pad < n:
        risky = np.nonzero(dist[:, kk - 1] >= dist[:, pad - 1])[0]
        for b in risky:
            r = dist[b, kk - 1] * (1.0 + 1e-9) + 1e-300
            cand = np.asarray(index._tree.query_ball_point(queries[b], r), dtype=np.int64)
            d = np.linalg.norm(index._points[cand] - queries[b], axis=1)
            keep = cand[np.lexsort((cand, d))][:kk]
            idx[b, :kk] = keep
    return idx[:, :kk]


def oracle_extract_patches(cloud, index, targets, k, query=oracle_query_many):
    """extract_patches with three global lexsorts and a per-row self-drop loop.

    query(index, queries, k) supplies the candidate lists.
    """
    from pcedge.errors import DuplicatePoint

    targets = np.asarray(targets, dtype=np.int64)
    n_cand = min(2 * k, cloud.n - 1)
    centers = cloud.points[targets]
    nn = query(index, centers, n_cand + 1)
    is_self = nn == targets[:, None]
    if is_self.any(axis=1).all():
        keep_order = np.argsort(is_self, axis=1, kind="stable")[:, :n_cand]
        keep_order.sort(axis=1)
        cand = np.take_along_axis(nn, keep_order, axis=1)
    else:
        cand = np.empty((nn.shape[0], n_cand), dtype=np.int64)
        for b in range(nn.shape[0]):
            row = nn[b]
            row = row[row != targets[b]]
            cand[b] = row[:n_cand]

    dvecs_all = cloud.points[cand] - centers[:, None, :]
    cdist = np.sqrt(np.einsum("bkd,bkd->bk", dvecs_all, dvecs_all))
    if (cdist[:, 0] == 0.0).any():
        bad = int(targets[np.nonzero(cdist[:, 0] == 0.0)[0][0]])
        raise DuplicatePoint(f"cloud contains a duplicate of point {bad}")

    cand_pts = cloud.points[cand]
    centered = cand_pts - cand_pts.mean(axis=1, keepdims=True)
    _, vecs = np.linalg.eigh(np.einsum("bmi,bmj->bij", centered, centered))
    axes = np.ascontiguousarray(vecs[:, :, 0])
    off_all = np.abs(np.einsum("bkd,bd->bk", dvecs_all, axes))

    sel = _argsort_rows(off_all, cdist, cand)[:, :k]
    kept_idx = np.take_along_axis(cand, sel, axis=1)
    kept_d = np.take_along_axis(cdist, sel, axis=1)
    kept_dvecs = np.take_along_axis(dvecs_all, sel[:, :, None], axis=1)
    kept_off = np.take_along_axis(off_all, sel, axis=1)

    order = _argsort_rows(kept_d, kept_idx)
    neighbor_idx = np.take_along_axis(kept_idx, order, axis=1)
    dvecs = np.take_along_axis(kept_dvecs, order[:, :, None], axis=1)
    offsets = np.take_along_axis(kept_off, order, axis=1)
    scales = kept_d.mean(axis=1)
    return dvecs, offsets, scales, neighbor_idx


def full_scan_query_many(index, queries, k):
    """Exact kNN by a chunked scan over every indexed point.

    Rows are ordered by (distance, index), every distance taken by
    pcedge.cloud._norms: the definition query_many must meet, bit for bit.
    """
    from pcedge.cloud import _norms

    queries = np.asarray(queries, dtype=np.float64)
    pts = index._points
    kk = min(k, len(pts))
    out = np.empty((len(queries), kk), dtype=np.int64)
    step = max(1, 2 ** 19 // len(pts))
    for lo in range(0, len(queries), step):
        q = queries[lo:lo + step]
        dist = _norms(pts[None, :, :] - q[:, None, :])
        cut = np.partition(dist, kk - 1, axis=1)[:, kk - 1:kk]
        row, col = np.nonzero(dist <= cut)
        order = np.lexsort((col, dist[row, col], row))
        starts = np.searchsorted(row, np.arange(len(q)))
        out[lo:lo + len(q)] = col[order][starts[:, None] + np.arange(kk)]
    return out


# The np.einsum expressions that cloud._dot3, cloud._norms and
# cloud._min_axes replaced, kept as oracles for their bytes. einsum raises
# no floating-point warning, and neither do these.

def einsum_dot3(x, y):
    """Row dot products of two (B, m, 3) arrays."""
    return np.einsum("bkd,bkd->bk", x, y)


def einsum_offsets(dvecs, axes):
    """Signed offsets of (B, m, 3) vectors along (B, 3) axes."""
    return np.einsum("bkd,bd->bk", dvecs, axes)


def einsum_norms(diff):
    return np.sqrt(einsum_dot3(diff, diff))


def einsum_covariances(neighborhoods):
    """(B, 3, 3) covariance sums of (B, m, 3) points about their mean."""
    with np.errstate(all="ignore"):
        centered = neighborhoods - neighborhoods.mean(axis=1, keepdims=True)
    return np.einsum("bmi,bmj->bij", centered, centered)


def oracle_window_probs(cloud, params):
    """predict's probabilities as one extract_patches and one forward_batch
    call per 256-row model window compute them."""
    from pcedge.cloud import build_index, extract_patches

    index = build_index(cloud)
    return np.concatenate([
        net.forward_batch(*extract_patches(cloud, index, np.arange(lo, min(lo + 256, cloud.n)),
                                           params.k)[:3], params)[0]
        for lo in range(0, cloud.n, 256)])


def rotated_copies(cloud):
    """The cloud in each orientation of trainer._ROTATIONS_90, as PointClouds."""
    from pcedge.cloud import PointCloud
    from pcedge.trainer import _ROTATIONS_90

    return [PointCloud(cloud.points @ rot.T, cloud.labels, cloud.predictions) for rot in _ROTATIONS_90]


def validation_points(n, cfg):
    """Boolean mask of the points build_dataset holds out for validation from an n-point cloud."""
    perm = np.random.default_rng(cfg.seed).permutation(n)
    mask = np.zeros(n, dtype=bool)
    mask[perm[:max(1, int(np.floor(cfg.val_fraction * n + 0.5)))]] = True
    return mask


# Frozen oracle for dataset assembly: the build_dataset that extracted each
# rotated copy whole, concatenated the copies and then indexed out the
# train and validation rows, unchanged apart from the dropped input checks,
# so the in-place assembly in pcedge.trainer can be checked for byte
# identity against it. Its sets are written out, one feature row per label.

def oracle_build_dataset(cloud, cfg):
    """build_dataset by whole-cloud extraction, concatenation and indexing."""
    from pcedge.cloud import build_index, extract_patches
    from pcedge.trainer import PatchSet

    def take(full, idx):
        return PatchSet(full.dvecs[idx], full.offsets[idx], full.scales[idx], full.labels[idx])

    copies = rotated_copies(cloud) if cfg.augment else [cloud]
    targets = np.arange(cloud.n)
    parts = []
    for copy in copies:
        index = build_index(copy)
        dv, off, sc, _ = extract_patches(copy, index, targets, cfg.k)
        parts.append((dv, off, sc))
    full = PatchSet(
        dvecs=np.concatenate([p[0] for p in parts]),
        offsets=np.concatenate([p[1] for p in parts]),
        scales=np.concatenate([p[2] for p in parts]),
        labels=np.tile(cloud.labels.astype(np.int8), len(copies)),
    )
    val_mask = np.tile(validation_points(cloud.n, cfg), len(copies))
    return take(full, np.nonzero(~val_mask)[0]), take(full, np.nonzero(val_mask)[0])


# Frozen oracle for the rotated copies build_dataset derives: the base
# extraction's rows written out once per rotation, each dvec column taken
# from the rotation matrix entry by entry and negated as 0.0 - x, so the
# rows PatchSet.gather derives can be checked byte for byte, sign bits
# included, against the set they stand for.

def oracle_derived_dataset(cloud, cfg):
    """(train, val) one-copy PatchSets holding every row of build_dataset's sets, written out."""
    from dataclasses import replace

    from pcedge.trainer import _ROTATIONS_90, PatchSet

    def materialise(base):
        copies = len(_ROTATIONS_90) if cfg.augment else 1
        parts = []
        for rot in _ROTATIONS_90[:copies]:
            part = np.empty_like(base.dvecs)
            for i in range(3):
                j = int(np.flatnonzero(rot[i])[0])
                column = base.dvecs[:, :, j]
                part[:, :, i] = column if rot[i, j] > 0 else 0.0 - column
            parts.append(part)
        return PatchSet(np.concatenate(parts), np.tile(base.offsets, (copies, 1)),
                        np.tile(base.scales, copies), np.tile(base.labels, copies))

    return tuple(materialise(base) for base in oracle_build_dataset(cloud, replace(cfg, augment=False)))


# Frozen oracle for the balanced mini-batch plan: trainer._batch_plan
# as it was written with a growing list of
# majority permutations and a per-batch loop, so the vectorised plan can be
# checked batch for batch, and for the generator state it leaves, against it.

def oracle_batch_plan(train, cfg, rng):
    """Balanced batches: each half of one class, majority without and minority with replacement."""
    n = train.n
    bz = cfg.batch_size
    half = bz // 2
    n_batches = max(1, -(-n // bz))
    edge_pool = np.nonzero(train.labels == 1)[0]
    flat_pool = np.nonzero(train.labels == 0)[0]
    minority_is_edge = edge_pool.size <= flat_pool.size
    minority, majority = (edge_pool, flat_pool) if minority_is_edge else (flat_pool, edge_pool)
    need = n_batches * half
    stream = []
    while sum(len(s) for s in stream) < need:
        stream.append(majority[rng.permutation(majority.size)])
    major_stream = np.concatenate(stream)[:need]
    minor_stream = minority[rng.integers(0, minority.size, size=need)]
    batches = []
    for b in range(n_batches):
        sl = slice(b * half, (b + 1) * half)
        edge_half = minor_stream[sl] if minority_is_edge else major_stream[sl]
        flat_half = major_stream[sl] if minority_is_edge else minor_stream[sl]
        batches.append(np.concatenate([edge_half, flat_half]))
    return batches


# Frozen oracle for the RBF descriptor block: the per-layer _rbf_group_fwd and
# _rbf_group_bwd that the fused (2m, 32) product in pcedge.net replaced,
# unchanged apart from the net. prefixes, so the fused block can be checked
# against the layer-by-layer composition it computes.

def oracle_rbf_group_fwd(m_euc, m_cos, p, group):
    """Both fc layers, the 64-wide h and each head's three layers, one at a time."""
    g_euc, ce = net._linear_fwd(m_euc, p[f"rbf.{group}.euc_fc.w"], p[f"rbf.{group}.euc_fc.b"])
    g_cos, cc = net._linear_fwd(m_cos, p[f"rbf.{group}.cos_fc.w"], p[f"rbf.{group}.cos_fc.b"])
    h = np.concatenate([g_euc, g_cos], axis=-1)
    f_euc, che = net._mlp_fwd(h, p, net._layers(f"rbf.{group}.euc_head", range(3)))
    f_cos, chc = net._mlp_fwd(h, p, net._layers(f"rbf.{group}.cos_head", range(3)))
    return f_euc[..., 0], f_cos[..., 0], (ce, cc, che, chc)


def oracle_rbf_group_bwd(df_euc, df_cos, cache, grads, group):
    ce, cc, che, chc = cache
    dh = net._mlp_bwd(df_euc[..., None], che, grads, net._layers(f"rbf.{group}.euc_head", range(3)))
    dh += net._mlp_bwd(df_cos[..., None], chc, grads, net._layers(f"rbf.{group}.cos_head", range(3)))
    dg_euc, dg_cos = dh[..., :32], dh[..., 32:]
    _, grads[f"rbf.{group}.euc_fc.w"], grads[f"rbf.{group}.euc_fc.b"] = net._linear_bwd(dg_euc, ce)
    _, grads[f"rbf.{group}.cos_fc.w"], grads[f"rbf.{group}.cos_fc.b"] = net._linear_bwd(dg_cos, cc)


# Frozen oracle for the encoder layer: the _layernorm_fwd/_layernorm_bwd,
# _attention_fwd/_attention_bwd and _encoder_layer_fwd/_encoder_layer_bwd
# that applied each layer norm's gain and bias as their own passes, before
# pcedge.net folded them into the projection after the norm, unchanged apart
# from the net. prefixes, the oracle_ names and the fixed net.HEADS, so the
# folded layer can be checked against the composition it computes.

def oracle_layernorm_fwd(x, g, b):
    xhat = x @ net._CENTER
    inv = (1.0 / np.sqrt((xhat * xhat) @ net._MEAN_VEC + net.LN_EPS))[:, None]
    xhat *= inv
    out = xhat * g
    out += b
    return out, (xhat, inv, g)


def oracle_layernorm_bwd(dout, cache):
    xhat, inv, g = cache
    dg = net._col_sum(dout * xhat)
    db = net._col_sum(dout)
    dxhat = dout * g
    dx = dxhat @ net._CENTER
    dx -= xhat * ((dxhat * xhat) @ net._MEAN_VEC)[:, None]
    dx *= inv
    return dx, dg, db


def oracle_attention_fwd(x2, b, k, p, prefix):
    WIDTH = net.WIDTH
    alpha = 1.0 / np.sqrt(WIDTH // net.HEADS)
    w = np.concatenate([p[f"{prefix}.wq"] * alpha, p[f"{prefix}.wk"], p[f"{prefix}.wv"]], axis=1)
    bias = np.concatenate([p[f"{prefix}.bq"] * alpha, p[f"{prefix}.bk"], p[f"{prefix}.bv"]])
    qkv, cqkv = net._linear_fwd(x2, w, bias)
    q, kx, v = net._heads(qkv, b, k, 3)
    attn_cols = np.empty((k, b * net.HEADS * k))
    attn = net._scores_view(attn_cols, b, k)
    np.matmul(q, kx.transpose(0, 1, 3, 2), out=attn)
    net._softmax_cols(attn_cols)
    ctx = np.empty((b * k, WIDTH))
    (ctx_h,) = net._heads(ctx, b, k, 1)
    np.matmul(attn, v, out=ctx_h)
    out, co = net._linear_fwd(ctx, p[f"{prefix}.wo"], p[f"{prefix}.bo"])
    return out, (cqkv, co, q, kx, v, attn_cols, alpha)


def oracle_attention_bwd(dout, b, k, cache, grads, prefix):
    WIDTH = net.WIDTH
    cqkv, co, q, kx, v, attn_cols, alpha = cache
    attn = net._scores_view(attn_cols, b, k)
    dctx, grads[f"{prefix}.wo"], grads[f"{prefix}.bo"] = net._linear_bwd(dout, co)
    (dctx,) = net._heads(dctx, b, k, 1)
    dqkv = np.empty((b * k, 3 * WIDTH))
    dq, dk, dv = net._heads(dqkv, b, k, 3)
    np.matmul(attn.transpose(0, 1, 3, 2), dctx, out=dv)
    ds_cols = np.empty_like(attn_cols)
    ds = net._scores_view(ds_cols, b, k)
    np.matmul(dctx, v.transpose(0, 1, 3, 2), out=ds)
    ds_cols -= np.ones(k) @ (ds_cols * attn_cols)
    ds_cols *= attn_cols
    np.matmul(ds, kx, out=dq)
    np.matmul(ds.transpose(0, 1, 3, 2), q, out=dk)
    dx, dw, db = net._linear_bwd(dqkv, cqkv)
    grads[f"{prefix}.wq"], grads[f"{prefix}.bq"] = dw[:, :WIDTH] * alpha, db[:WIDTH] * alpha
    grads[f"{prefix}.wk"], grads[f"{prefix}.bk"] = dw[:, WIDTH:2 * WIDTH], db[WIDTH:2 * WIDTH]
    grads[f"{prefix}.wv"], grads[f"{prefix}.bv"] = dw[:, 2 * WIDTH:], db[2 * WIDTH:]
    return dx


def oracle_encoder_layer_fwd(x2, b, k, p, i):
    a, cl1 = oracle_layernorm_fwd(x2, p[f"enc.{i}.ln1.g"], p[f"enc.{i}.ln1.b"])
    x1, ca = oracle_attention_fwd(a, b, k, p, f"enc.{i}.attn")
    x1 += x2
    h, cl2 = oracle_layernorm_fwd(x1, p[f"enc.{i}.ln2.g"], p[f"enc.{i}.ln2.b"])
    out, cf = net._mlp_fwd(h, p, net._layers(f"enc.{i}.ffn", (1, 2)))
    out += x1
    return out, (cl1, ca, cl2, cf)


def oracle_encoder_layer_bwd(dout, b, k, cache, grads, i):
    cl1, ca, cl2, cf = cache
    dh = net._mlp_bwd(dout, cf, grads, net._layers(f"enc.{i}.ffn", (1, 2)))
    dx1, grads[f"enc.{i}.ln2.g"], grads[f"enc.{i}.ln2.b"] = oracle_layernorm_bwd(dh, cl2)
    dx1 += dout
    da = oracle_attention_bwd(dx1, b, k, ca, grads, f"enc.{i}.attn")
    dx, grads[f"enc.{i}.ln1.g"], grads[f"enc.{i}.ln1.b"] = oracle_layernorm_bwd(da, cl1)
    dx += dx1
    return dx


# Frozen oracle for the Adam update: the per-tensor adam_step that the
# whole-vector update in pcedge.trainer replaced, unchanged apart from the
# state it reads (any object with `params`, `step` and per-name `m`/`v`
# dicts), so the vector update can be checked for byte identity against it.

def oracle_adam_step(state, grads, cfg):
    """adam_step with one loop over the tensor names."""
    from pcedge.errors import ModelShapeError
    from pcedge.trainer import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    if set(grads) != set(state.params.tensors):
        raise ModelShapeError("gradient names do not match parameter registry")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, theta in state.params.tensors.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ModelShapeError(f"gradient for {name} has shape {g.shape}, expected {theta.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        theta -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return state


# Frozen oracle for the noise scale: the mean_neighbor_distance that built
# the whole (N, k, 3) difference array at once, before pcedge.cloud filled the
# distances a block of points at a time, unchanged apart from the dropped
# input check, so the blocked pass can be checked for byte identity.

def oracle_mean_neighbor_distance(cloud, k=16):
    """mean_neighbor_distance over every point's differences in one array."""
    from pcedge.cloud import _knn_excluding_self, build_index

    neighbors = _knn_excluding_self(build_index(cloud), np.arange(cloud.n), k)
    return float(np.linalg.norm(cloud.points[neighbors] - cloud.points[:, None, :], axis=2).mean())


def oracle_write_metadata(result, path):
    """synth.write_metadata with one f-string write per point."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,face_id,edge_distance\n")
        for i, (fid, dist) in enumerate(zip(result.face_ids, result.edge_distances)):
            fh.write(f"{i},{fid},{dist:.9g}\n")


# Frozen oracles for post-processing: the per-row XYZ/PLY writers and the
# deque BFS flood fill that the array code in pcedge.io and pcedge.segment
# replaced, unchanged apart from dropped docstrings, so that code can be
# checked for byte and id identity against them.

def oracle_write_xyz(cloud, path, segments=None):
    """write_xyz with one f-string per row."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, (x, y, z) in enumerate(cloud.points):
            row = f"{x:.17g} {y:.17g} {z:.17g}"
            if segments is not None:
                row += f" {int(segments[i])}"
            elif cloud.labels is not None:
                row += f" {int(cloud.labels[i])}"
            fh.write(row + "\n")


def oracle_write_ply(cloud, path, segments=None):
    """write_ply with one f-string per row."""
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.n}",
              "property float x", "property float y", "property float z"]
    if cloud.labels is not None:
        header.append("property uchar label")
    if cloud.predictions is not None:
        header.append("property float pred")
    if segments is not None:
        header.append("property int segment")
    header.append("end_header")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for i, (x, y, z) in enumerate(cloud.points):
            row = f"{x:.17g} {y:.17g} {z:.17g}"
            if cloud.labels is not None:
                row += f" {int(cloud.labels[i])}"
            if cloud.predictions is not None:
                row += f" {cloud.predictions[i]:.17g}"
            if segments is not None:
                row += f" {int(segments[i])}"
            fh.write(row + "\n")


def adjacency_lists(graph):
    """Symmetrised adjacency of a knn_graph CSR array: per point, its sorted neighbor indices."""
    both = (graph + graph.T).tocsr()
    both.sort_indices()
    return [both.indices[lo:hi] for lo, hi in zip(both.indptr[:-1], both.indptr[1:])]


def oracle_knn_graph(cloud, k=5):
    """knn_graph with np.unique symmetrisation."""
    from pcedge.cloud import build_index
    from pcedge.errors import InsufficientNeighborhood

    if cloud.n < k + 1:
        raise InsufficientNeighborhood(f"kNN graph needs at least {k + 1} points, cloud has {cloud.n}")
    index = build_index(cloud)
    nn = index.query_many(cloud.points, k + 1)
    is_self = nn == np.arange(cloud.n)[:, None]
    drop = np.where(is_self.any(axis=1), np.argmax(is_self, axis=1), 0)
    mask = np.ones_like(nn, dtype=bool)
    mask[np.arange(cloud.n), drop] = False
    neighbors = nn[mask].reshape(cloud.n, k)

    src = np.repeat(np.arange(cloud.n), k)
    dst = neighbors.ravel()
    a = np.concatenate([src, dst])
    b = np.concatenate([dst, src])
    keys = np.unique(a.astype(np.int64) * cloud.n + b)
    out_src = keys // cloud.n
    out_dst = keys % cloud.n
    bounds = np.searchsorted(out_src, np.arange(cloud.n + 1))
    return [out_dst[bounds[i]:bounds[i + 1]] for i in range(cloud.n)]


def oracle_flood_segment(cloud, k=5):
    """flood_segment as a deque BFS from the lowest-index unvisited non-edge point."""
    from collections import deque

    from pcedge.segment import SegmentationResult

    adjacency = oracle_knn_graph(cloud, k)
    ids = np.full(cloud.n, -1, dtype=np.int64)
    is_edge = cloud.labels == 1
    visited = is_edge.copy()
    count = 0
    sizes = []
    for seed in range(cloud.n):
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        size = 0
        while queue:
            node = queue.popleft()
            ids[node] = count
            size += 1
            for nb in adjacency[node]:
                if not visited[nb]:
                    visited[nb] = True
                    queue.append(nb)
        sizes.append(size)
        count += 1
    return SegmentationResult(segment_ids=ids, count=count, sizes=sizes)
