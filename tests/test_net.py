"""Network forward/backward, invariances, checkpoints."""

import functools
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    decode,
    encode,
    end_to_end_grads,
    end_to_end_loss,
    fd_check_grads,
    forward_one,
    group_descriptors,
    oracle_encoder_layer_bwd,
    oracle_encoder_layer_fwd,
    oracle_rbf_group_bwd,
    oracle_rbf_group_fwd,
    patch_features,
    peak_traced,
    random_patch_arrays,
    reference_forward,
)
from pcedge import net
from pcedge.cloud import build_index, extract_patches
from pcedge.errors import CorruptCheckpoint, ModelShapeError, NumericalError, StateError
from pcedge.rbf import _basis_matrices
from pcedge.synth import ShapeSpec, generate
from pcedge.trainer import bce_loss


def zero_params(k):
    """All tensors zero except unit layer-norm gains."""
    shapes = net.expected_shapes(k)
    tensors = {n: (np.ones(s) if n.endswith(".g") else np.zeros(s)) for n, s in shapes.items()}
    return net.ModelParameters(k, tensors)


def make_patch(rng, k=16):
    """(dvecs (k, 3), offsets (k,), scale) of one random patch."""
    dvecs, offsets, scales = random_patch_arrays(rng, 1, k)
    return dvecs[0], offsets[0], float(scales[0])


def random_rbf_params(rng, k, seed=0):
    """init_params with every rbf.* tensor, biases included, redrawn from N(0, 0.5^2)."""
    params = net.init_params(k, seed=seed)
    for name, t in params.tensors.items():
        if name.startswith("rbf."):
            t[...] = rng.normal(scale=0.5, size=t.shape)
    return params


def rotation(rng):
    mat = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(mat)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class TestParameters:
    def test_param_count_k16_in_range(self):
        params = net.init_params(16, seed=0)
        assert 30_000 <= params.param_count() <= 70_000

    def test_init_deterministic(self):
        a = net.init_params(16, seed=4)
        b = net.init_params(16, seed=4)
        assert all(np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors)

    def test_shape_validation(self):
        params = net.init_params(8, seed=0)
        bad = {n: t.copy() for n, t in params.tensors.items()}
        bad["dec.w0"] = np.zeros((3, 3))
        with pytest.raises(ModelShapeError):
            net.ModelParameters(8, bad)
        del bad["dec.w0"]
        with pytest.raises(ModelShapeError):
            net.ModelParameters(8, bad)

    @pytest.mark.parametrize("k", [8, 16])
    def test_tensors_are_views_of_flat_in_sorted_order(self, k):
        params = net.init_params(k, seed=0)
        assert list(params.tensors) == sorted(net.expected_shapes(k))
        assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous
        base = params.flat.__array_interface__["data"][0]
        pos = 0
        for name, t in params.tensors.items():
            assert np.shares_memory(t, params.flat), name
            assert t.__array_interface__["data"][0] == base + 8 * pos, name
            pos += t.size
        assert pos == params.flat.size == params.param_count()

    def test_write_through_view_shows_in_flat(self):
        params = net.init_params(8, seed=0)
        params.tensors["dec.b3"][0] = 42.0
        params.tensors["enc.2.attn.wq"][1, 2] = -7.0
        views = params.unpack(params.flat)
        assert views["dec.b3"][0] == 42.0
        assert views["enc.2.attn.wq"][1, 2] == -7.0
        assert np.count_nonzero(params.flat == 42.0) == 1

    def test_constructor_and_copy_share_no_memory(self):
        given = {n: t.copy() for n, t in net.init_params(8, seed=3).tensors.items()}
        params = net.ModelParameters(8, given)
        assert not any(np.shares_memory(params.flat, t) for t in given.values())
        twin = params.copy()
        assert np.array_equal(twin.flat, params.flat)
        assert not np.shares_memory(twin.flat, params.flat)
        assert not any(np.shares_memory(twin.flat, t) for t in params.tensors.values())
        twin.tensors["dec.w0"][0, 0] += 1.0
        assert twin.tensors["dec.w0"][0, 0] != params.tensors["dec.w0"][0, 0]

    def test_pack_rejects_registry_mismatch(self):
        params = net.init_params(8, seed=0)
        named = dict(params.tensors)
        assert np.array_equal(params.pack(named), params.flat)
        missing = {n: t for n, t in named.items() if n != "enc.1.ln2.g"}
        with pytest.raises(ModelShapeError, match=r"missing \['enc\.1\.ln2\.g'\]"):
            params.pack(missing)
        with pytest.raises(ModelShapeError, match=r"extra \['dec\.w9'\]"):
            params.pack({**named, "dec.w9": np.zeros(3)})
        with pytest.raises(ModelShapeError, match=r"tensor rbf\.second\.cos_fc\.b has shape \(31,\)"):
            params.pack({**named, "rbf.second.cos_fc.b": np.zeros(31)})
        with pytest.raises(ModelShapeError, match="parameter vector"):
            params.unpack(params.flat[:-1])

    @pytest.mark.parametrize("name, bad", [("dec.b0", np.nan), ("enc.2.attn.wq", np.inf),
                                           ("rbf.second.euc_head.w2", -np.inf)])
    def test_validate_finite_names_the_tensor(self, name, bad):
        params = net.init_params(8, seed=0)
        params.tensors[name][...] = 0.5
        params.tensors[name].flat[-1] = bad
        with pytest.raises(NumericalError, match=f"^tensor {name} contains non-finite values$"):
            params.validate_finite()

    def test_validate_finite_names_the_first_tensor_in_order(self):
        params = net.init_params(8, seed=0)
        params.tensors["rbf.second.cos_fc.b"][0] = np.nan
        params.tensors["enc.0.ln1.g"][3] = np.inf
        with pytest.raises(NumericalError, match="^tensor enc.0.ln1.g contains"):
            params.validate_finite()


class TestRbfDos:
    def test_zero_params_zero_descriptors(self):
        params = zero_params(16)
        rng = np.random.default_rng(0)
        fe, fc = group_descriptors(rng.normal(size=(8, 3)), 1.0, params, "first")
        assert np.array_equal(fe, np.zeros(8))
        assert np.array_equal(fc, np.zeros(8))

    def test_pinned_weights_hand_computed(self):
        # Two orthogonal unit vectors; euc FC picks the matrix row, everything
        # downstream sums with unit weights.
        k = 4
        params = zero_params(k)
        p = params.tensors
        p["rbf.first.euc_fc.w"][:, :2] = np.eye(2)     # g_euc[:2] = M_euc row
        p["rbf.first.euc_head.w0"][:, 0] = 1.0          # sum the 64 inputs
        p["rbf.first.euc_head.w1"][0, 0] = 1.0
        p["rbf.first.euc_head.w2"][0, 0] = 1.0
        dvecs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        fe, fc = group_descriptors(dvecs, 1.0, params, "first")
        # h = [M_euc row, zeros]; sum of row a = 1 + exp(-2)
        expected = 1.0 + np.exp(-2.0)
        assert fe == pytest.approx([expected, expected], abs=1e-12)
        assert np.array_equal(fc, np.zeros(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_rotation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        params = net.init_params(16, seed=seed)
        dvecs = rng.normal(size=(8, 3))
        rot = rotation(rng)
        fe1, fc1 = group_descriptors(dvecs, 1.2, params, "second")
        fe2, fc2 = group_descriptors(dvecs @ rot.T, 1.2, params, "second")
        assert np.abs(fe1 - fe2).max() < 1e-12
        assert np.abs(fc1 - fc2).max() < 1e-12


# The fused block sums in a different order from the per-layer oracle. Each
# gradient may differ from the oracle's by this much, relative to the largest
# entry of that oracle gradient (seen: below 1e-14).
RBF_GRAD_RTOL = 1e-12


def assert_grads_close(grads, oracle, names):
    for name in names:
        scale = max(1.0, np.abs(oracle[name]).max())
        err = np.abs(grads[name] - oracle[name]).max()
        assert err <= RBF_GRAD_RTOL * scale, f"{name}: {err:.3e} against largest entry {scale:.3e}"


class TestRbfFusedBlock:
    """The fused (2m, 32) block against the frozen per-layer composition."""

    # k=32 makes 2m equal the fc width 32 and k=64 makes it equal h's width 64,
    # so a mix-up between the 2m rows and the 32/64 columns can hide only in one of them.
    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([4, 16, 32, 64]), b=st.integers(1, 64),
           group=st.sampled_from(["first", "second"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_frozen_per_layer_block(self, k, b, group, seed):
        rng = np.random.default_rng(seed)
        p = random_rbf_params(rng, k).tensors
        dvecs, _, scales = random_patch_arrays(rng, b, k // 2)
        mats = _basis_matrices(dvecs, scales)
        fe, fc, cache = net._rbf_group_fwd(mats, p, group)
        oe, oc, ocache = oracle_rbf_group_fwd(*np.split(mats, 2, axis=-1), p, group)
        assert fe.shape == fc.shape == (b, k // 2)
        np.testing.assert_allclose(fe, oe, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(fc, oc, rtol=1e-12, atol=1e-12)

        df_euc, df_cos = rng.normal(size=(b, k // 2)), rng.normal(size=(b, k // 2))
        grads, oracle = {}, {}
        net._rbf_group_bwd(df_euc, df_cos, cache, grads, group)
        oracle_rbf_group_bwd(df_euc, df_cos, ocache, oracle, group)
        names = [n for n in p if n.startswith(f"rbf.{group}.")]
        assert len(names) == 16 and sorted(grads) == sorted(oracle) == sorted(names)
        for name in names:
            assert grads[name].shape == p[name].shape
        assert_grads_close(grads, oracle, names)

    def test_end_to_end_matches_frozen_block(self, monkeypatch):
        rng = np.random.default_rng(21)
        params = random_rbf_params(rng, 16, seed=4)
        dvecs, offsets, scales = random_patch_arrays(rng, 256, 16)
        d_e = rng.normal(size=256)

        def run():
            e, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
            return e, params.unpack(net.backward(params, cache, d_e))

        e, grads = run()

        def oracle_fwd(mats, p, group):
            return oracle_rbf_group_fwd(*np.split(mats, 2, axis=-1), p, group)

        monkeypatch.setattr(net, "_rbf_group_fwd", oracle_fwd)
        monkeypatch.setattr(net, "_rbf_group_bwd", oracle_rbf_group_bwd)
        oe, oracle = run()
        np.testing.assert_allclose(e, oe, rtol=1e-12, atol=1e-12)
        assert_grads_close(grads, oracle, list(params.tensors))


def random_encoder_params(rng, k, seed=0):
    """init_params with every enc.* tensor redrawn: layer-norm gains from N(1, 0.5^2),
    all other weights and biases, layer-norm biases included, from N(0, 0.5^2).

    init_params' zero layer-norm biases would hide a dropped bias term of the
    folded gradients, and its unit gains a gain applied in the wrong place.
    """
    params = net.init_params(k, seed=seed)
    for name, t in params.tensors.items():
        if name.startswith("enc."):
            t[...] = rng.normal(loc=1.0 if name.endswith(".g") else 0.0, scale=0.5, size=t.shape)
    return params


# The folded layer sums in another order than the frozen one, so each output
# and gradient may differ from the oracle's by this much, relative to the
# largest entry of the oracle's array (seen: below 1e-14).
ENC_RTOL = 1e-12


def assert_encoder_grads_close(grads, oracle, names):
    """Each gradient within ENC_RTOL of the largest entry of the oracle's.

    attn.bk is the exception: a key bias adds one constant to all of a query's
    scores, which the softmax ignores, so its gradient is 0 in exact arithmetic
    and only rounding noise in both codes. It is measured against the largest
    entry of the same layer's attn.wk gradient instead.
    """
    for name in names:
        scale = np.abs(oracle[name.replace(".attn.bk", ".attn.wk")]).max()
        err = np.abs(grads[name] - oracle[name]).max()
        assert err <= ENC_RTOL * scale, f"{name}: {err:.3e} against largest entry {scale:.3e}"


class TestEncoderFoldedLayer:
    """The encoder layer with its layer-norm gains and biases folded into the
    projections after them, against the frozen layer that applied them as passes."""

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([4, 16, 32, 64]), b=st.integers(1, 64),
           i=st.integers(0, net.N_LAYERS - 1), seed=st.integers(0, 2**32 - 1))
    def test_matches_frozen_layer(self, k, b, i, seed):
        rng = np.random.default_rng(seed)
        p = random_encoder_params(rng, k).tensors
        x = rng.normal(size=(b * k, 6))
        dout = rng.normal(size=(b * k, 6))
        out, cache = net._encoder_layer_fwd(x, b, k, p, i)
        want, ocache = oracle_encoder_layer_fwd(x, b, k, p, i)
        assert np.abs(out - want).max() <= ENC_RTOL * np.abs(want).max()

        grads, oracle = {}, {}
        dx = net._encoder_layer_bwd(dout, b, k, cache, grads, i)
        odx = oracle_encoder_layer_bwd(dout, b, k, ocache, oracle, i)
        assert np.abs(dx - odx).max() <= ENC_RTOL * np.abs(odx).max()
        names = [n for n in p if n.startswith(f"enc.{i}.")]
        assert len(names) == 16 and sorted(grads) == sorted(oracle) == sorted(names)
        for name in names:
            assert grads[name].shape == p[name].shape
        assert_encoder_grads_close(grads, oracle, names)

    def test_end_to_end_matches_frozen_layer(self, monkeypatch):
        rng = np.random.default_rng(33)
        params = random_encoder_params(rng, 16, seed=6)
        dvecs, offsets, scales = random_patch_arrays(rng, 256, 16)
        d_e = rng.normal(size=256)

        def run():
            e, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
            return e, params.unpack(net.backward(params, cache, d_e))

        e, grads = run()
        monkeypatch.setattr(net, "_encoder_layer_fwd", oracle_encoder_layer_fwd)
        monkeypatch.setattr(net, "_encoder_layer_bwd", oracle_encoder_layer_bwd)
        oe, oracle = run()
        assert np.abs(e - oe).max() <= ENC_RTOL * np.abs(oe).max()
        assert_encoder_grads_close(grads, oracle, list(params.tensors))


class TestAssembleFeatures:
    def test_zero_descriptor_columns(self):
        rng = np.random.default_rng(0)
        dvecs, offsets, scale = make_patch(rng, k=4)
        zeros = np.zeros((1, 4))
        feats = net._feature_map(dvecs[None], offsets[None], np.asarray([scale]), zeros, zeros)[0]
        assert feats.shape == (4, 6)
        assert np.array_equal(feats[:, :3], dvecs / scale)
        assert np.array_equal(feats[:, 3], offsets / scale)
        assert np.array_equal(feats[:, 4:], np.zeros((4, 2)))

    def test_scaling_patch_leaves_features(self):
        rng = np.random.default_rng(1)
        dvecs, offsets, scale = make_patch(rng, k=8)
        f_euc, f_cos = np.ones((1, 8)), np.zeros((1, 8))
        a = net._feature_map(dvecs[None], offsets[None], np.asarray([scale]), f_euc, f_cos)[0]
        b = net._feature_map(dvecs[None] * 10.0, offsets[None] * 10.0,
                             np.asarray([scale * 10.0]), f_euc, f_cos)[0]
        assert np.abs(a - b).max() < 1e-12


class TestTransformer:
    def test_zero_sublayers_identity(self):
        params = zero_params(16)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(16, 6))
        out = encode(x, params)
        assert np.abs(out - x).max() < 1e-12

    def test_single_row_hand_computed(self):
        # One token: softmax over one position is 1, so the attention output
        # is (LN(x) Wv + bv) Wo + bo regardless of Wq/Wk.
        params = zero_params(16)
        p = params.tensors
        rng = np.random.default_rng(3)
        for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2"):
            p[f"enc.0.{name}"][:] = rng.normal(size=p[f"enc.0.{name}"].shape) * 0.3
        x = rng.normal(size=(1, 6))
        mu, var = x.mean(), x.var()
        a = (x - mu) / np.sqrt(var + net.LN_EPS)
        x1 = x + (a @ p["enc.0.attn.wv"]) @ p["enc.0.attn.wo"]
        mu1, var1 = x1.mean(), x1.var()
        b = (x1 - mu1) / np.sqrt(var1 + net.LN_EPS)
        expected = x1 + np.maximum(b @ p["enc.0.ffn.w1"], 0) @ p["enc.0.ffn.w2"]
        out = encode(x, params)
        assert np.abs(out - expected).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        params = net.init_params(16, seed=seed + 50)
        x = rng.normal(size=(16, 6))
        perm = rng.permutation(16)
        out = encode(x, params)
        out_perm = encode(x[perm], params)
        assert np.abs(out[perm] - out_perm).max() < 1e-9


class TestDecoder:
    def test_zero_params_half(self):
        params = zero_params(16)
        rng = np.random.default_rng(0)
        assert decode(rng.normal(size=(16, 6)), params) == 0.5

    def test_bias_ten(self):
        params = zero_params(16)
        params.tensors["dec.b3"][:] = 10.0
        e = decode(np.zeros((16, 6)), params)
        assert e == pytest.approx(1.0 / (1.0 + np.exp(-10.0)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_output_in_open_interval(self, seed):
        rng = np.random.default_rng(seed)
        params = net.init_params(16, seed=seed)
        e = decode(rng.normal(size=(16, 6)), params)
        assert 0.0 < e < 1.0

    def test_permutation_sensitivity(self):
        rng = np.random.default_rng(7)
        params = net.init_params(16, seed=7)
        x = rng.normal(size=(16, 6))
        perm = rng.permutation(16)
        assert decode(x, params) != decode(x[perm], params)


class TestFullForward:
    def test_zero_params_half_probability(self):
        rng = np.random.default_rng(0)
        assert forward_one(*make_patch(rng), zero_params(16)) == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_implementation(self, seed):
        rng = np.random.default_rng(seed)
        params = net.init_params(4, seed=seed + 9)
        patch = make_patch(rng, k=4)
        got = forward_one(*patch, params)
        want = reference_forward(*patch, params)
        assert got == pytest.approx(want, abs=1e-12)

    def test_reference_matches_k16_too(self):
        rng = np.random.default_rng(11)
        params = net.init_params(16, seed=2)
        patch = make_patch(rng, k=16)
        got = forward_one(*patch, params)
        want = reference_forward(*patch, params)
        assert got == pytest.approx(want, abs=1e-12)

    def test_batch_matches_reference_at_production_shape(self):
        # k=16 and B=256 patches of the reference cloud, as predict runs them.
        cloud = generate(ShapeSpec("union_boxes", density=4000, seed=7)).cloud
        targets = np.linspace(0, cloud.n - 1, 256).astype(np.int64)
        dvecs, offsets, scales, _ = extract_patches(cloud, build_index(cloud), targets, 16)
        params = net.init_params(16, seed=5)
        got, _ = net.forward_batch(dvecs, offsets, scales, params)
        want = [reference_forward(dvecs[i], offsets[i], scales[i], params) for i in range(256)]
        assert np.abs(got - np.asarray(want)).max() < 1e-12

    def test_inference_keeps_no_caches(self):
        # Kept caches would hold every layer's intermediates: about 19 MB
        # at B=256, k=16, against about 5 MB for one block at a time.
        dvecs, offsets, scales = random_patch_arrays(np.random.default_rng(3), 256, 16)
        params = net.init_params(16, seed=3)
        cached, _ = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
        (got, cache), peak = peak_traced(lambda: net.forward_batch(dvecs, offsets, scales, params))
        assert cache is None
        assert np.array_equal(got, cached)
        assert peak < 8e6, f"inference forward peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_invariance(self, seed):
        rng = np.random.default_rng(seed)
        params = net.init_params(16, seed=seed)
        dvecs, offsets, scale = make_patch(rng)
        for c in (0.01, 3.0, 1000.0):
            assert abs(forward_one(dvecs * c, offsets * c, scale * c, params)
                       - forward_one(dvecs, offsets, scale, params)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_descriptor_columns_rotation_invariant(self, seed):
        """Feature-map columns 4-6 are rotation invariant; 1-3 co-rotate."""
        rng = np.random.default_rng(seed)
        params = net.init_params(16, seed=seed + 30)
        dvecs, offsets, scale = make_patch(rng)
        rot = rotation(rng)
        base = patch_features(dvecs, offsets, scale, params)
        rotf = patch_features(dvecs @ rot.T, offsets, scale, params)
        assert np.abs(base[:, 3:] - rotf[:, 3:]).max() < 1e-12
        assert np.abs(rotf[:, :3] - base[:, :3] @ rot.T).max() < 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        params = net.init_params(16, seed=1)
        patch = make_patch(rng)
        assert forward_one(*patch, params) == forward_one(*patch, params)

    def test_k_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        patch = make_patch(rng, k=8)
        with pytest.raises(ModelShapeError):
            forward_one(*patch, net.init_params(16, seed=0))

    @pytest.mark.parametrize("name", ["offsets", "scales"])
    def test_offsets_and_scales_shape_rejected(self, name):
        dvecs, offsets, scales = random_patch_arrays(np.random.default_rng(2), 3, 8)
        arrays = {"offsets": offsets, "scales": scales}
        arrays[name] = arrays[name][:2]
        with pytest.raises(ModelShapeError, match=rf"^{name} must be \(3,.*got \(2,"):
            net.forward_batch(dvecs, arrays["offsets"], arrays["scales"], net.init_params(8, seed=0))

    def test_geometry_rotation_does_change_probability(self):
        # Raw-direction columns rotate, so the full forward is not rotation
        # invariant; right-angle augmentation is what covers orientation.
        rng = np.random.default_rng(2)
        params = net.init_params(16, seed=3)
        dvecs, offsets, scale = make_patch(rng)
        rot = rotation(rng)
        assert (forward_one(dvecs, offsets, scale, params)
                != forward_one(dvecs @ rot.T, offsets, scale, params))


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(0)
        params = net.init_params(4, seed=0)
        dvecs, offsets, scales = random_patch_arrays(rng, 3, 4)
        _, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
        grad = net.backward(params, cache, np.zeros(3))
        assert np.array_equal(grad, np.zeros_like(params.flat))

    def test_missing_cache_raises(self):
        params = net.init_params(4, seed=0)
        with pytest.raises(StateError):
            net.backward(params, None, np.zeros(1))

    @pytest.mark.parametrize("seed, k", [(0, 4), (1, 4), (0, 16)], ids=["0", "1", "k16"])
    def test_end_to_end_gradient_subsample(self, seed, k):
        rng = np.random.default_rng(seed)
        params = net.init_params(k, seed=seed + 20)
        dvecs, offsets, scales = random_patch_arrays(rng, 2, k)
        y = np.array([1.0, 0.0])
        grads = end_to_end_grads(dvecs, offsets, scales, y, params)
        loss_fn = end_to_end_loss(dvecs, offsets, scales, y, params)
        worst, checked = fd_check_grads(loss_fn, params.tensors, grads,
                                        entries_per_tensor=6, rng=rng)
        assert checked > 400


def _arrays(tree):
    """Every ndarray inside nested tuples, lists and dicts."""
    if isinstance(tree, np.ndarray):
        return [tree]
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in _arrays(item)]
    return []


class TestDtypes:
    """The model computes in the dtype of params.flat; gradients are float64 either way."""

    @pytest.mark.parametrize("k", [8, 16])
    def test_float32_params_compute_in_float32(self, k):
        # A float64 array or numpy float64 scalar anywhere in the pass would
        # promote what follows it to float64 (NEP 50), silently undoing the
        # float32 training step's saving without failing anything else.
        dvecs, offsets, scales = random_patch_arrays(np.random.default_rng(k), 32, k)
        params = net.init_params(k, seed=1).astype(np.float32)
        e, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
        assert e.dtype == np.float32
        arrays = _arrays(cache)
        assert len(arrays) > 100
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}
        grad = net.backward(params, cache, np.ones(32))
        assert grad.dtype == np.float64 and grad.shape == params.flat.shape

    def test_float64_pass_is_unchanged(self):
        # sha256 of the probabilities and the gradient vector of one seed-7
        # batch, recorded before the model became dtype-generic (numpy 2.4,
        # scipy-openblas 0.3.31 on x86-64 Haswell kernels; another BLAS build
        # may sum in another order).
        rng = np.random.default_rng(7)
        dvecs, offsets, scales = random_patch_arrays(rng, 64, 16)
        params = net.init_params(16, seed=7)
        e, cache = net.forward_batch(dvecs, offsets, scales, params, need_cache=True)
        grad = net.backward(params, cache, rng.normal(size=64))
        assert e.dtype == grad.dtype == np.float64
        assert hashlib.sha256(e.tobytes()).hexdigest() == \
            "a61681b90e8b065d108b600991bf14602eaa3aa60f5fcca9fff88569c3ad5f57"
        assert hashlib.sha256(grad.tobytes()).hexdigest() == \
            "2a67fdb939671d8dcca9249fb2b3e364976b0fc98623b536708073571c40202d"

    @pytest.mark.parametrize("k", [8, 16])
    def test_float32_gradient_matches_float64(self, k):
        # The training step's gradient: BCE on a float32 forward, backward
        # through the float32 cache, packed into a float64 vector. A typical
        # batch is within 1e-6 of float64 (relative L2). A ReLU pre-activation
        # within float32 rounding of 0 can flip its gate, which moves one
        # patch's share of the gradient: 2 of 100 random batches at k=16 were
        # past 1e-4, the worst at 4.9e-3. So the median over ten batches
        # carries the 1e-4 bound and each batch a 1e-2 one.
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            dvecs, offsets, scales = random_patch_arrays(rng, 256, k)
            y = rng.integers(0, 2, size=256).astype(np.float64)
            params = net.init_params(k, seed=seed)
            grads = []
            for p in (params.astype(np.float32), params):
                e, cache = net.forward_batch(dvecs, offsets, scales, p, need_cache=True)
                _, de = bce_loss(e, y)
                grads.append(net.backward(p, cache, de / 256))
            got, want = grads
            assert got.dtype == np.float64 and got.shape == params.flat.shape
            errors.append(np.linalg.norm(got - want) / np.linalg.norm(want))
        assert np.median(errors) <= 1e-4
        assert max(errors) <= 1e-2


@functools.lru_cache(maxsize=1)
def _small_checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        net.save_checkpoint(net.init_params(8, seed=0), path)
        return path.read_bytes()


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        params = net.init_params(16, seed=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        net.save_checkpoint(params, p1)
        loaded = net.load_checkpoint(p1)
        net.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.k == 16
        for name in params.tensors:
            assert np.array_equal(loaded.tensors[name],
                                  params.tensors[name].astype(np.float32).astype(np.float64))

    def test_magic_bytes(self, tmp_path):
        params = net.init_params(8, seed=0)
        path = tmp_path / "c.ckpt"
        net.save_checkpoint(params, path)
        assert path.read_bytes()[:4] == b"OSFE"

    def test_truncated_rejected(self, tmp_path):
        params = net.init_params(8, seed=0)
        path = tmp_path / "c.ckpt"
        net.save_checkpoint(params, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpoint):
            net.load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CorruptCheckpoint):
            net.load_checkpoint(path)

    def test_flipped_byte_rejected(self, tmp_path):
        params = net.init_params(8, seed=0)
        path = tmp_path / "c.ckpt"
        net.save_checkpoint(params, path)
        raw = bytearray(path.read_bytes())
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint):
            net.load_checkpoint(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_corruption_rejected(self, data):
        # Magic, header, tensor table or CRC: one altered byte anywhere fails
        # the magic or the CRC check, never a parser deeper in.
        raw = bytearray(_small_checkpoint_bytes())
        pos = data.draw(st.integers(0, len(raw) - 1), label="position")
        raw[pos] ^= data.draw(st.integers(1, 255), label="mask")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ckpt"
            path.write_bytes(bytes(raw))
            with pytest.raises(CorruptCheckpoint):
                net.load_checkpoint(path)


class TestGradientsPerLayer:
    """Finite differences against each layer in isolation."""

    @pytest.mark.parametrize("seed", range(3))
    def test_layernorm(self, seed):
        # The plain normaliser with its gain and bias folded into a projection
        # (w, c); with w = I and c = 0 that is the layer norm itself.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(7, 6))
        g = rng.normal(size=6)
        b = rng.normal(size=6)
        proj = rng.normal(size=(7, 6))
        w, c = np.eye(6), np.zeros(6)

        def loss_fn():
            out, _ = net._folded_fwd(net._norm_fwd(x)[0], g, b, w, c)
            return float((out * proj).sum())

        xhat, inv = net._norm_fwd(x)
        out, cache = net._folded_fwd(xhat, g, b, w, c)
        dxhat, dw, dc, dg, db = net._folded_bwd(proj, cache)
        dx = net._norm_bwd(dxhat, xhat, inv)
        fd_check_grads(loss_fn, {"x": x, "g": g, "b": b, "w": w, "c": c},
                       {"x": dx, "g": dg, "b": db, "w": dw, "c": dc}, rng=rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_attention(self, seed):
        rng = np.random.default_rng(seed + 10)
        params = net.init_params(4, seed=seed)
        p = params.tensors
        b, k = 2, 4
        x = rng.normal(size=(b * k, 6))
        proj = rng.normal(size=(b * k, 6))
        # ln1's gain and bias are folded into the q/k/v projection; random
        # values make every term of their closed-form gradients count.
        p["enc.0.ln1.g"][:] = rng.normal(size=6)
        p["enc.0.ln1.b"][:] = rng.normal(size=6)

        def loss_fn():
            out, _ = net._attention_fwd(x, b, k, p, 0)
            return float((out * proj).sum())

        out, cache = net._attention_fwd(x, b, k, p, 0)
        grads = {}
        dx = net._attention_bwd(proj, b, k, cache, grads, 0)
        names = [f"enc.0.attn.{n}" for n in ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")]
        names += ["enc.0.ln1.g", "enc.0.ln1.b"]
        assert sorted(grads) == sorted(names)
        tensors = {n: p[n] for n in names}
        tensors["x"] = x
        grads["x"] = dx
        fd_check_grads(loss_fn, tensors, grads, rng=rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_encoder_layer(self, seed):
        rng = np.random.default_rng(seed + 30)
        params = net.init_params(4, seed=seed + 1)
        p = params.tensors
        b, k = 2, 4
        x = rng.normal(size=(b * k, 6))
        proj = rng.normal(size=(b * k, 6))

        def loss_fn():
            out, _ = net._encoder_layer_fwd(x, b, k, p, 1)
            return float((out * proj).sum())

        out, cache = net._encoder_layer_fwd(x, b, k, p, 1)
        grads = {}
        dx = net._encoder_layer_bwd(proj, b, k, cache, grads, 1)
        tensors = {n: p[n] for n in p if n.startswith("enc.1.")}
        tensors["x"] = x
        grads["x"] = dx
        fd_check_grads(loss_fn, tensors, grads, rng=rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_rbf_group(self, seed):
        rng = np.random.default_rng(seed + 40)
        params = net.init_params(4, seed=seed + 2)
        p = params.tensors
        dvecs = rng.normal(size=(3, 2, 3))
        scales = rng.uniform(0.5, 2.0, size=3)
        proj_e = rng.normal(size=(3, 2))
        proj_c = rng.normal(size=(3, 2))

        def loss_fn():
            fe, fc, _ = net._rbf_group_fwd(_basis_matrices(dvecs, scales), p, "first")
            return float((fe * proj_e).sum() + (fc * proj_c).sum())

        fe, fc, cache = net._rbf_group_fwd(_basis_matrices(dvecs, scales), p, "first")
        grads = {}
        net._rbf_group_bwd(proj_e, proj_c, cache, grads, "first")
        tensors = {n: p[n] for n in p if n.startswith("rbf.first.")}
        fd_check_grads(loss_fn, tensors, grads, rng=rng)

    @pytest.mark.parametrize("k", [16, 64])
    def test_rbf_group_realistic_m(self, k):
        # m = 8 and 32 neighbours per group, with random biases so that the
        # bias terms of the fused gradients are checked too.
        rng = np.random.default_rng(k + 50)
        p = random_rbf_params(rng, k, seed=k).tensors
        dvecs, _, scales = random_patch_arrays(rng, 3, k // 2)
        proj_e = rng.normal(size=(3, k // 2))
        proj_c = rng.normal(size=(3, k // 2))
        mats = _basis_matrices(dvecs, scales)

        def loss_fn():
            fe, fc, _ = net._rbf_group_fwd(mats, p, "second")
            return float((fe * proj_e).sum() + (fc * proj_c).sum())

        _, _, cache = net._rbf_group_fwd(mats, p, "second")
        grads = {}
        net._rbf_group_bwd(proj_e, proj_c, cache, grads, "second")
        tensors = {n: p[n] for n in p if n.startswith("rbf.second.")}
        fd_check_grads(loss_fn, tensors, grads, rng=rng)

    @pytest.mark.parametrize("seed", range(3))
    def test_decoder(self, seed):
        rng = np.random.default_rng(seed + 60)
        params = net.init_params(4, seed=seed + 3)
        p = params.tensors
        x = rng.normal(size=(2 * 4, 6))
        proj = rng.normal(size=2)

        def loss_fn():
            e, _ = net._decoder_fwd(x, 2, p)
            return float((e * proj).sum())

        e, cache = net._decoder_fwd(x, 2, p)
        grads = {}
        dx = net._decoder_bwd(proj, cache, grads)
        tensors = {n: p[n] for n in p if n.startswith("dec.")}
        tensors["x"] = x
        grads["x"] = dx
        fd_check_grads(loss_fn, tensors, grads, entries_per_tensor=120, rng=rng)
