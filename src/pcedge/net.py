"""The edge classifier: learned RBF descriptors, a small transformer encoder,
and an MLP decoder, with analytic forward and backward passes.

All math is numpy, batched over patches, in the dtype of the parameters'
`flat` vector: float64 for validation, `predict`, the gradient checks and
loaded checkpoints, float32 for a training step's working copy (see
`trainer`). Gradient vectors are float64 either way. Checkpoints store
tensors as little-endian float32 with a CRC32 trailer.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .cloud import _check_k
from .errors import (
    CorruptCheckpoint,
    ModelShapeError,
    NumericalError,
    StateError,
)
from .rbf import _basis_matrices

WIDTH = 6            # feature columns per neighbor row
HEADS = 2            # attention heads, each over WIDTH // HEADS columns
FFN_HIDDEN = 24
N_LAYERS = 4
DEC_DIMS = (256, 64, 32, 1)
LN_EPS = 1e-5
CHECKPOINT_MAGIC = b"OSFE"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParameters:
    """All learnable tensors, copied into one new float64 vector `flat` in sorted-name
    (checkpoint) order with `tensors[name]` a view into it, plus the k hyperparameter.

    The model computes in the dtype of `flat`; `astype` makes the float32 copy
    a training step runs on. `pack` always returns float64."""

    k: int
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        self._shapes = dict(sorted(expected_shapes(self.k).items()))
        self.flat = self.pack(self.tensors)
        self.tensors = self.unpack(self.flat)

    def pack(self, named: dict[str, np.ndarray]) -> np.ndarray:
        """`flat`-layout copy of the named tensors; ModelShapeError if one is missing, extra or misshaped."""
        missing, extra = self._shapes.keys() - named.keys(), named.keys() - self._shapes.keys()
        if missing or extra:
            raise ModelShapeError(f"tensor registry mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, shape in self._shapes.items():
            if np.shape(named[name]) != shape:
                raise ModelShapeError(f"tensor {name} has shape {np.shape(named[name])}, expected {shape}")
        return np.concatenate([np.ravel(named[name]) for name in self._shapes], dtype=np.float64)

    def unpack(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Named views into a vector laid out like `flat`."""
        if np.shape(vector) != self.flat.shape:
            raise ModelShapeError(f"parameter vector has shape {np.shape(vector)}, expected {self.flat.shape}")
        views, pos = {}, 0
        for name, shape in self._shapes.items():
            views[name] = vector[pos:pos + math.prod(shape)].reshape(shape)
            pos += views[name].size
        return views

    def param_count(self) -> int:
        return self.flat.size

    def copy(self) -> "ModelParameters":
        return ModelParameters(self.k, self.tensors)

    def astype(self, dtype) -> "ModelParameters":
        """A copy whose `flat`, and so every tensor view, is in `dtype`."""
        other = self.copy()
        other.flat = self.flat.astype(dtype)
        other.tensors = other.unpack(other.flat)
        return other

    def validate_finite(self) -> None:
        if not np.isfinite(self.flat).all():
            name = next(name for name, t in self.tensors.items() if not np.isfinite(t).all())
            raise NumericalError(f"tensor {name} contains non-finite values")


def expected_shapes(k: int) -> dict[str, tuple[int, ...]]:
    """Canonical tensor names and shapes for the architecture at a given k."""
    _check_k(k, ModelShapeError)
    m = k // 2
    shapes: dict[str, tuple[int, ...]] = {}
    for g in ("first", "second"):
        shapes[f"rbf.{g}.euc_fc.w"] = (m, 32)
        shapes[f"rbf.{g}.euc_fc.b"] = (32,)
        shapes[f"rbf.{g}.cos_fc.w"] = (m, 32)
        shapes[f"rbf.{g}.cos_fc.b"] = (32,)
        for head in ("euc_head", "cos_head"):
            shapes[f"rbf.{g}.{head}.w0"] = (64, 16)
            shapes[f"rbf.{g}.{head}.b0"] = (16,)
            shapes[f"rbf.{g}.{head}.w1"] = (16, 8)
            shapes[f"rbf.{g}.{head}.b1"] = (8,)
            shapes[f"rbf.{g}.{head}.w2"] = (8, 1)
            shapes[f"rbf.{g}.{head}.b2"] = (1,)
    for i in range(N_LAYERS):
        shapes[f"enc.{i}.ln1.g"] = (WIDTH,)
        shapes[f"enc.{i}.ln1.b"] = (WIDTH,)
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"enc.{i}.attn.{proj}"] = (WIDTH, WIDTH)
        for proj in ("bq", "bk", "bv", "bo"):
            shapes[f"enc.{i}.attn.{proj}"] = (WIDTH,)
        shapes[f"enc.{i}.ln2.g"] = (WIDTH,)
        shapes[f"enc.{i}.ln2.b"] = (WIDTH,)
        shapes[f"enc.{i}.ffn.w1"] = (WIDTH, FFN_HIDDEN)
        shapes[f"enc.{i}.ffn.b1"] = (FFN_HIDDEN,)
        shapes[f"enc.{i}.ffn.w2"] = (FFN_HIDDEN, WIDTH)
        shapes[f"enc.{i}.ffn.b2"] = (WIDTH,)
    dims = (WIDTH * k,) + DEC_DIMS
    for j in range(len(DEC_DIMS)):
        shapes[f"dec.w{j}"] = (dims[j], dims[j + 1])
        shapes[f"dec.b{j}"] = (dims[j + 1],)
    return shapes


def init_params(k: int, seed: int = 0) -> ModelParameters:
    """Glorot-uniform weights, zero biases, unit layer-norm gains."""
    rng = np.random.default_rng(seed)
    params = ModelParameters(k, {n: np.zeros(s) for n, s in expected_shapes(k).items()})
    for name, t in params.tensors.items():
        if name.endswith(".g"):
            t[...] = 1.0
        elif t.ndim == 2:
            a = np.sqrt(6.0 / (t.shape[0] + t.shape[1]))
            t[...] = rng.uniform(-a, a, size=t.shape)
    return params


def _ensure_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite values in {what}")


# ---------------------------------------------------------------------------
# Elementary layers (batched, with caches for the backward pass)
# ---------------------------------------------------------------------------

def _col_sum(a2):
    # Column sums as a GEMV: sum(axis=0) over many short rows is slow in numpy.
    return np.ones(a2.shape[0], dtype=a2.dtype) @ a2


def _linear_fwd(x, w, b):
    # One 2-d GEMM regardless of leading dims; stacked matmul would loop.
    # With one output column, matmul runs as a BLAS GEMV whose sum for a row
    # depends on where the row sits in the batch; einsum sums every row alike,
    # so a patch's probability does not depend on its window row. One input
    # row would make matmul a GEMV too, so it runs as a two-row GEMM and
    # keeps row 0, which sums as a row of any larger batch does.
    x2 = x.reshape(-1, w.shape[0])
    if w.shape[1] == 1:
        out = np.einsum("ij,jk->ik", x2, w)
    elif x2.shape[0] == 1:
        out = (np.repeat(x2, 2, axis=0) @ w)[:1]
    else:
        out = x2 @ w
    out += b
    return out.reshape(x.shape[:-1] + (w.shape[1],)), (x, w)


def _linear_bwd(dout, cache):
    x, w = cache
    in_d, out_d = w.shape
    dout2 = dout.reshape(-1, out_d)
    dx = (dout2 @ w.T).reshape(x.shape)
    dw = x.reshape(-1, in_d).T @ dout2
    return dx, dw, _col_sum(dout2)


def _layers(prefix, ids):
    """(weight, bias) tensor names of the Linear layers `prefix`.w{j}/b{j}."""
    return [(f"{prefix}.w{j}", f"{prefix}.b{j}") for j in ids]


def _mlp_fwd(x, p, layers):
    """Linear layers named by (weight, bias) pairs, ReLU between them, linear output.

    ReLU runs in place on each hidden pre-activation; the backward pass gates
    with the stored activation (a > 0), so no mask is kept.
    """
    caches = []
    for j, (wname, bname) in enumerate(layers):
        if j:
            np.maximum(x, 0.0, out=x)
        x, cache = _linear_fwd(x, p[wname], p[bname])
        caches.append(cache)
    return x, caches


def _mlp_bwd(dout, caches, grads, layers):
    for j in range(len(layers) - 1, -1, -1):
        wname, bname = layers[j]
        dout, grads[wname], grads[bname] = _linear_bwd(dout, caches[j])
        if j:
            dout *= caches[j][0] > 0.0
    return dout


_MEAN_VEC = np.full(WIDTH, 1.0 / WIDTH)
_CENTER = np.eye(WIDTH) - 1.0 / WIDTH


def _norm_fwd(x):
    """Layer norm without gain or bias over the WIDTH columns of (rows, WIDTH)
    activations: the normalised rows xhat and the (rows, 1) inverse deviations.

    Each layer norm's gain g and bias b are linear and feed straight into a
    projection, so _folded_fwd applies them inside that projection's weights
    and costs no pass over the rows. Centring and row means run as matrix
    products: per-row reductions and broadcasts over a length-6 axis are slow
    in numpy.
    """
    xhat = x @ _CENTER.astype(x.dtype, copy=False)
    inv = (1.0 / np.sqrt((xhat * xhat) @ _MEAN_VEC.astype(x.dtype, copy=False) + LN_EPS))[:, None]
    xhat *= inv
    return xhat, inv


def _norm_bwd(dxhat, xhat, inv):
    """dx of _norm_fwd given dxhat, the gradient at its output."""
    dx = dxhat @ _CENTER.astype(dxhat.dtype, copy=False)
    dx -= xhat * ((dxhat * xhat) @ _MEAN_VEC.astype(dxhat.dtype, copy=False))[:, None]
    dx *= inv
    return dx


def _folded_fwd(xhat, g, b, w, c):
    """(xhat * g + b) @ w + c for a layer norm's gain and bias (g, b) and the
    projection (w, c) after it, as one product: xhat @ W' + c' with
    W' = diag(g) w and c' = b w + c."""
    wf = g[:, None] * w
    out = xhat @ wf
    out += b @ w + c
    return out, (xhat, g, b, w, wf)


def _folded_bwd(dout, cache):
    """(dxhat, dw, dc, dg, db) of _folded_fwd in closed form. With s = 1^T dout
    and P = xhat^T dout: dw = diag(g) P + b s^T, dc = s, dg = rowsum(w * P),
    db = w s and dxhat = dout W'^T."""
    xhat, g, b, w, wf = cache
    s = _col_sum(dout)
    pm = xhat.T @ dout
    dw = g[:, None] * pm
    dw += np.outer(b, s)
    return dout @ wf.T, dw, s, (w * pm).sum(axis=1), w @ s


def _softmax_cols(s):
    """Softmax over axis 0 of a (k, n) array, in place.

    Attention scores are laid out with the softmax axis first, so the max,
    the sum and both broadcasts run along contiguous rows of length n; over
    a short last axis numpy would run one inner loop per row.
    """
    s -= s.max(axis=0)
    np.exp(s, out=s)
    s *= 1.0 / (np.ones(s.shape[0], dtype=s.dtype) @ s)
    return s


def _heads(x2, b, k, parts):
    """(b*k, parts*WIDTH) rows -> `parts` views of shape (b, HEADS, k, WIDTH/HEADS).

    The views share memory with x2; matmul reads and writes them in place.
    """
    v = x2.reshape(b, k, parts, HEADS, WIDTH // HEADS)
    return [v[:, :, j].transpose(0, 2, 1, 3) for j in range(parts)]


def _scores_view(s, b, k):
    """(b, HEADS, k_i, k_j) view of a (k_j, b*HEADS*k_i) score array.

    Row j of the array holds the scores of key j for every (patch, head,
    query i), which is the layout _softmax_cols wants.
    """
    return s.reshape(k, b, HEADS, k).transpose(1, 2, 3, 0)


def _attention_fwd(xhat, b, k, p, i):
    """Multi-head self-attention of encoder layer i over the k neighbor rows
    (no masking), reading the rows xhat that _norm_fwd normalised.

    Operates on flat (b*k, WIDTH) rows; positions couple only inside the
    per-head score/softmax/context stage. q, k and v come from one
    (WIDTH, 3*WIDTH) projection W = [alpha wq | wk | wv], c = [alpha bq | bk | bv],
    with the score scale alpha folded into q and ln1's gain and bias folded
    in by _folded_fwd.
    """
    pre = f"enc.{i}.attn"
    alpha = 1.0 / math.sqrt(WIDTH // HEADS)  # a Python float: a numpy float64 would promote float32
    w = np.concatenate([p[f"{pre}.wq"] * alpha, p[f"{pre}.wk"], p[f"{pre}.wv"]], axis=1)
    bias = np.concatenate([p[f"{pre}.bq"] * alpha, p[f"{pre}.bk"], p[f"{pre}.bv"]])
    qkv, cqkv = _folded_fwd(xhat, p[f"enc.{i}.ln1.g"], p[f"enc.{i}.ln1.b"], w, bias)
    q, kx, v = _heads(qkv, b, k, 3)
    attn_cols = np.empty((k, b * HEADS * k), dtype=qkv.dtype)
    attn = _scores_view(attn_cols, b, k)
    np.matmul(q, kx.transpose(0, 1, 3, 2), out=attn)
    _softmax_cols(attn_cols)
    ctx = np.empty((b * k, WIDTH), dtype=qkv.dtype)
    (ctx_h,) = _heads(ctx, b, k, 1)
    np.matmul(attn, v, out=ctx_h)
    out, co = _linear_fwd(ctx, p[f"{pre}.wo"], p[f"{pre}.bo"])
    return out, (cqkv, co, q, kx, v, attn_cols, alpha)


def _attention_bwd(dout, b, k, cache, grads, i):
    """dxhat of _attention_fwd; fills the gradients of enc.{i}.attn.* and enc.{i}.ln1.*."""
    cqkv, co, q, kx, v, attn_cols, alpha = cache
    pre = f"enc.{i}.attn"
    attn = _scores_view(attn_cols, b, k)
    dctx, grads[f"{pre}.wo"], grads[f"{pre}.bo"] = _linear_bwd(dout, co)
    (dctx,) = _heads(dctx, b, k, 1)
    dqkv = np.empty((b * k, 3 * WIDTH), dtype=dctx.dtype)
    dq, dk, dv = _heads(dqkv, b, k, 3)
    np.matmul(attn.transpose(0, 1, 3, 2), dctx, out=dv)
    ds_cols = np.empty_like(attn_cols)
    ds = _scores_view(ds_cols, b, k)
    np.matmul(dctx, v.transpose(0, 1, 3, 2), out=ds)
    # Softmax backward: ds = p * (dp - sum_j dp * p), summed along axis 0.
    ds_cols -= np.ones(k, dtype=ds_cols.dtype) @ (ds_cols * attn_cols)
    ds_cols *= attn_cols
    np.matmul(ds, kx, out=dq)
    np.matmul(ds.transpose(0, 1, 3, 2), q, out=dk)
    dxhat, dw, db, grads[f"enc.{i}.ln1.g"], grads[f"enc.{i}.ln1.b"] = _folded_bwd(dqkv, cqkv)
    grads[f"{pre}.wq"], grads[f"{pre}.bq"] = dw[:, :WIDTH] * alpha, db[:WIDTH] * alpha
    grads[f"{pre}.wk"], grads[f"{pre}.bk"] = dw[:, WIDTH:2 * WIDTH], db[WIDTH:2 * WIDTH]
    grads[f"{pre}.wv"], grads[f"{pre}.bv"] = dw[:, 2 * WIDTH:], db[2 * WIDTH:]
    return dxhat


# ---------------------------------------------------------------------------
# Model blocks
# ---------------------------------------------------------------------------

def _rbf_group_fwd(mats, p, group):
    """Per-neighbor descriptor pair for one k/2 group from its (..., m, 2m) basis
    matrices [M_euc | M_cos]: (..., m) f_euc and f_cos.

    The fc layers and both heads' first layers compose linearly, so with W0 = [w0_euc | w0_cos]:
    z = relu([M_euc | M_cos] A + c), A = [W_euc_fc W0[:32] ; W_cos_fc W0[32:]] of shape (2m, 32),
    c = b_euc_fc W0[:32] + b_cos_fc W0[32:] + [b0_euc | b0_cos]; each head runs layers 1-2 on its half of z.
    """
    pre = f"rbf.{group}"
    w_e, b_e = p[f"{pre}.euc_fc.w"], p[f"{pre}.euc_fc.b"]
    w_c, b_c = p[f"{pre}.cos_fc.w"], p[f"{pre}.cos_fc.b"]
    m, fc = w_e.shape
    w0 = np.concatenate([p[f"{pre}.euc_head.w0"], p[f"{pre}.cos_head.w0"]], axis=1)
    x = mats.reshape(-1, 2 * m)
    z = x @ np.concatenate([w_e @ w0[:fc], w_c @ w0[fc:]])
    z += b_e @ w0[:fc] + b_c @ w0[fc:] + np.concatenate([p[f"{pre}.euc_head.b0"], p[f"{pre}.cos_head.b0"]])
    np.maximum(z, 0.0, out=z)
    half = z.shape[1] // 2
    f_euc, che = _mlp_fwd(z[:, :half], p, _layers(f"{pre}.euc_head", (1, 2)))
    f_cos, chc = _mlp_fwd(z[:, half:], p, _layers(f"{pre}.cos_head", (1, 2)))
    rows = mats.shape[:-1]
    return f_euc.reshape(rows), f_cos.reshape(rows), (x, z, w0, w_e, b_e, w_c, b_c, che, chc)


def _rbf_group_bwd(df_euc, df_cos, cache, grads, group):
    """Closed-form gradients of the fused product. With G = dz gated by the ReLU,
    P = [M_euc | M_cos]^T G and s = 1^T G: dW0 = [W_euc_fc^T P_euc + b_euc_fc s ;
    W_cos_fc^T P_cos + b_cos_fc s], db0 = s, dW_euc_fc = P_euc W0[:32]^T, db_euc_fc = W0[:32] s."""
    x, z, w0, w_e, b_e, w_c, b_c, che, chc = cache
    pre = f"rbf.{group}"
    m, fc = w_e.shape
    half = z.shape[1] // 2
    dz = np.empty_like(z)
    dz[:, :half] = _mlp_bwd(df_euc.reshape(-1, 1), che, grads, _layers(f"{pre}.euc_head", (1, 2)))
    dz[:, half:] = _mlp_bwd(df_cos.reshape(-1, 1), chc, grads, _layers(f"{pre}.cos_head", (1, 2)))
    dz *= z > 0.0
    pg = x.T @ dz
    s = _col_sum(dz)
    dw0 = np.concatenate([w_e.T @ pg[:m] + np.outer(b_e, s), w_c.T @ pg[m:] + np.outer(b_c, s)])
    grads[f"{pre}.euc_head.w0"], grads[f"{pre}.cos_head.w0"] = dw0[:, :half], dw0[:, half:]
    grads[f"{pre}.euc_head.b0"], grads[f"{pre}.cos_head.b0"] = s[:half], s[half:]
    grads[f"{pre}.euc_fc.w"], grads[f"{pre}.euc_fc.b"] = pg[:m] @ w0[:fc].T, w0[:fc] @ s
    grads[f"{pre}.cos_fc.w"], grads[f"{pre}.cos_fc.b"] = pg[m:] @ w0[fc:].T, w0[fc:] @ s


def _encoder_layer_fwd(x2, b, k, p, i):
    """One pre-layer-norm encoder layer on flat (b*k, WIDTH) rows. ln1's gain
    and bias are folded into the q/k/v projection and ln2's into ffn.w1."""
    a, inv1 = _norm_fwd(x2)
    x1, ca = _attention_fwd(a, b, k, p, i)
    x1 += x2
    h, inv2 = _norm_fwd(x1)
    z, cf1 = _folded_fwd(h, p[f"enc.{i}.ln2.g"], p[f"enc.{i}.ln2.b"],
                         p[f"enc.{i}.ffn.w1"], p[f"enc.{i}.ffn.b1"])
    np.maximum(z, 0.0, out=z)
    out, cf2 = _linear_fwd(z, p[f"enc.{i}.ffn.w2"], p[f"enc.{i}.ffn.b2"])
    out += x1
    return out, (a, inv1, ca, h, inv2, cf1, cf2)


def _encoder_layer_bwd(dout, b, k, cache, grads, i):
    a, inv1, ca, h, inv2, cf1, cf2 = cache
    dz, grads[f"enc.{i}.ffn.w2"], grads[f"enc.{i}.ffn.b2"] = _linear_bwd(dout, cf2)
    dz *= cf2[0] > 0.0
    dh, grads[f"enc.{i}.ffn.w1"], grads[f"enc.{i}.ffn.b1"], \
        grads[f"enc.{i}.ln2.g"], grads[f"enc.{i}.ln2.b"] = _folded_bwd(dz, cf1)
    dx1 = _norm_bwd(dh, h, inv2)
    dx1 += dout
    dx = _norm_bwd(_attention_bwd(dx1, b, k, ca, grads, i), a, inv1)
    dx += dx1
    return dx


def _decoder_fwd(x2, b, p):
    """Flatten each patch's (k, WIDTH) rows and decode to a probability."""
    z, caches = _mlp_fwd(x2.reshape(b, -1), p, _layers("dec", range(len(DEC_DIMS))))
    e = expit(z[:, 0])
    return e, (caches, e, x2.shape)


def _decoder_bwd(de, cache, grads):
    caches, e, xshape = cache
    dz = (de * e * (1.0 - e))[:, None]
    return _mlp_bwd(dz, caches, grads, _layers("dec", range(len(DEC_DIMS)))).reshape(xshape)


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

@np.errstate(all="ignore")
def forward_batch(dvecs: np.ndarray, offsets: np.ndarray, scales: np.ndarray,
                  params: ModelParameters, need_cache: bool = False):
    """Edge probabilities for a batch of patches.

    dvecs (B, k, 3), offsets (B, k), scales (B,) must follow the patch
    ordering contract (rows sorted by nondecreasing dvec norm). Returns the
    (B,) probabilities, plus a cache for backward() when requested.

    Non-finite values raise NumericalError from the checks inside the pass,
    so numpy's floating-point warnings are silenced there.
    """
    dtype = params.flat.dtype
    dvecs = np.asarray(dvecs, dtype=dtype)
    offsets = np.asarray(offsets, dtype=dtype)
    scales = np.asarray(scales, dtype=dtype)
    if dvecs.ndim != 3 or dvecs.shape[1] != params.k or dvecs.shape[2] != 3:
        raise ModelShapeError(f"dvecs must be (B, {params.k}, 3), got {dvecs.shape}")
    b, k = dvecs.shape[0], params.k
    if offsets.shape != (b, k):
        raise ModelShapeError(f"offsets must be ({b}, {k}), got {offsets.shape}")
    if scales.shape != (b,):
        raise ModelShapeError(f"scales must be ({b},), got {scales.shape}")
    m = k // 2
    p = params.tensors

    # Every block returns its cache; without need_cache each one is dropped
    # as soon as its block returns, so the pass holds one block's
    # intermediates at a time (about 5 MB at B=256, k=16, against about
    # 19 MB with every cache kept).

    # Basis matrices of both k/2 groups in one (2B, m, 3) batch, first group first.
    groups = dvecs.reshape(b, 2, m, 3).transpose(1, 0, 2, 3).reshape(2 * b, m, 3)
    mats = _basis_matrices(groups, np.tile(scales, 2))
    fe1, fc1, cg1 = _rbf_group_fwd(mats[:b], p, "first")
    fe2, fc2, cg2 = _rbf_group_fwd(mats[b:], p, "second")
    del mats
    if not need_cache:
        cg1 = cg2 = None
    feats = _feature_map(dvecs, offsets, scales, np.concatenate([fe1, fe2], axis=1),
                         np.concatenate([fc1, fc2], axis=1))
    _ensure_finite(feats, "feature map")

    x = feats.reshape(b * k, WIDTH)
    enc_caches = []
    for i in range(N_LAYERS):
        x, c = _encoder_layer_fwd(x, b, k, p, i)
        if need_cache:
            enc_caches.append(c)
        del c
    _ensure_finite(x, "encoder output")
    e, dec_cache = _decoder_fwd(x, b, p)
    _ensure_finite(e, "decoder output")
    if not need_cache:
        return e, None
    return e, (cg1, cg2, enc_caches, dec_cache, m, b, k)


def _feature_map(dvecs, offsets, scales, f_euc, f_cos):
    s = scales[:, None]
    return np.concatenate(
        [dvecs / s[..., None], (offsets / s)[..., None], f_euc[..., None], f_cos[..., None]],
        axis=-1,
    )


def backward(params: ModelParameters, cache, d_e: np.ndarray) -> np.ndarray:
    """Gradient vector, laid out like `params.flat`, given upstream dL/de from a cached forward pass."""
    if cache is None:
        raise StateError("backward() requires the cache from forward_batch(need_cache=True)")
    cg1, cg2, enc_caches, dec_cache, m, b, k = cache
    d_e = np.asarray(d_e, dtype=params.flat.dtype)
    grads: dict[str, np.ndarray] = {}
    dx = _decoder_bwd(d_e, dec_cache, grads)
    for i in range(N_LAYERS - 1, -1, -1):
        dx = _encoder_layer_bwd(dx, b, k, enc_caches[i], grads, i)
    # Geometry columns are constants; only the descriptor columns carry
    # gradient back into the RBF blocks.
    dfeat = dx.reshape(b, k, WIDTH)
    df_euc, df_cos = dfeat[..., 4], dfeat[..., 5]
    _rbf_group_bwd(df_euc[:, :m], df_cos[:, :m], cg1, grads, "first")
    _rbf_group_bwd(df_euc[:, m:], df_cos[:, m:], cg2, grads, "second")
    return params.pack(grads)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: ModelParameters, path) -> None:
    """Binary checkpoint: OSFE magic, header, named float32 tensors, CRC32."""
    body = bytearray(CHECKPOINT_MAGIC)
    body += struct.pack("<IHHI", CHECKPOINT_VERSION, params.k, HEADS, len(params.tensors))
    for name, t in params.tensors.items():
        encoded = name.encode("utf-8")
        body += struct.pack("<H", len(encoded)) + encoded
        body += struct.pack("<B", t.ndim)
        body += struct.pack(f"<{t.ndim}I", *t.shape)
        body += np.ascontiguousarray(t, dtype="<f4").tobytes()
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    with open(path, "wb") as fh:
        fh.write(bytes(body))


def load_checkpoint(path) -> ModelParameters:
    """Load and validate a checkpoint; tensors come back as float64."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 + 4:
        raise CorruptCheckpoint(f"{path}: file too short")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CorruptCheckpoint(f"{path}: bad magic {raw[:4]!r}")
    (stored_crc,) = struct.unpack("<I", raw[-4:])
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptCheckpoint(f"{path}: CRC mismatch (truncated or altered file)")
    raw = raw[:-4]  # the tensor table must end where the CRC begins
    version, k, heads, count = struct.unpack("<IHHI", raw[4:16])
    if version != CHECKPOINT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {version}")
    if heads != HEADS:
        raise CorruptCheckpoint(f"{path}: unsupported heads {heads}, expected {HEADS}")
    pos = 16
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", raw, pos)
            pos += 2
            name = raw[pos:pos + name_len].decode("utf-8")
            pos += name_len
            (rank,) = struct.unpack_from("<B", raw, pos)
            pos += 1
            dims = struct.unpack_from(f"<{rank}I", raw, pos)
            pos += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(raw, dtype="<f4", count=size, offset=pos)
            pos += 4 * size
            tensors[name] = data.astype(np.float64).reshape(dims)
    except (struct.error, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: malformed tensor table: {exc}") from exc
    if pos != len(raw):
        raise CorruptCheckpoint(f"{path}: trailing bytes after tensor table")
    try:
        return ModelParameters(k, tensors)
    except ModelShapeError as exc:
        raise CorruptCheckpoint(f"{path}: {exc}") from exc
