"""Training protocol: loss, dataset assembly, Adam, batching, prediction."""

import os
import platform
import re
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    oracle_adam_step,
    oracle_batch_plan,
    oracle_build_dataset,
    oracle_derived_dataset,
    oracle_window_probs,
    peak_traced,
    rotated_copies,
    validation_points,
)
import pcedge.cloud
from pcedge import net, trainer
from pcedge.cli import main
from pcedge.cloud import PointCloud, build_index, extract_patches
from pcedge.errors import (
    DegenerateNeighborhood,
    DuplicatePoint,
    InsufficientNeighborhood,
    InvalidInput,
    ModelShapeError,
)
from pcedge.io import save_cloud
from pcedge.synth import ShapeSpec, generate
from pcedge.trainer import (
    ADAM_EPS,
    PatchSet,
    TrainConfig,
    TrainState,
    _batch_plan,
    adam_step,
    bce_loss,
    build_dataset,
    parse_config,
    predict,
    train,
    write_log,
)


@pytest.fixture(scope="module")
def small_cloud():
    """Small labeled fixture: a coarse box sampling."""
    return generate(ShapeSpec("box", size=(1.0, 0.8, 0.6), density=400, seed=3)).cloud


@pytest.fixture(scope="module")
def midsize_cloud():
    """9,283 labeled points: the train split spans nine extraction blocks, the last one partial."""
    return generate(ShapeSpec("union_boxes", density=2000, seed=7)).cloud


def tiny_cloud():
    """50 labeled points: a 5-point validation split."""
    rng = np.random.default_rng(4)
    return PointCloud(rng.random((50, 3)), labels=np.arange(50) % 2)


def jittered_cloud(cloud):
    """The cloud moved off its exact planes by uniform noise of 1e-3."""
    rng = np.random.default_rng(6)
    return PointCloud(cloud.points + rng.uniform(-1e-3, 1e-3, cloud.points.shape), labels=cloud.labels)


PATCH_FIELDS = ("dvecs", "offsets", "scales", "labels")


def assert_identical_sets(got, want):
    """Byte equality, dtype and shape of every field of (train, val) pairs."""
    for g, w in zip(got, want, strict=True):
        for field in PATCH_FIELDS:
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype and a.shape == b.shape, field
            assert a.tobytes() == b.tobytes(), field


def gathered(patch_set):
    """Every row of a PatchSet, written out as a one-copy set."""
    return PatchSet(*patch_set.gather(np.arange(patch_set.n)), patch_set.labels)


def features_as(patch_set, dtype):
    """The set with its dvecs, offsets and scales cast to dtype."""
    return replace(patch_set, dvecs=patch_set.dvecs.astype(dtype), offsets=patch_set.offsets.astype(dtype),
                   scales=patch_set.scales.astype(dtype))


def assert_derived_sets(got, cloud, cfg, jittered):
    """build_dataset's sets against the direct-extraction and the derived-rows oracles.

    The training set stores float32 features, the float64 oracle rows
    rounded once; the validation set stores float64. The stored rows are
    copy 0 of the direct oracle byte for byte in that dtype, the labels are
    the oracle's, one int8 per row, and the gathered rows equal the written-out
    derived oracle byte for byte in that dtype. On a jittered cloud, with no
    exact plane ties, each rotated copy's direct extraction picks the same
    neighbours in the same order: the derived oracle's float64 rows equal it
    byte for byte in their dvecs, and within rounding in their offsets and
    scales.
    """
    direct = oracle_build_dataset(cloud, cfg)
    derived = oracle_derived_dataset(cloud, cfg)
    for g, d, dtype in zip(got, direct, (np.float32, np.float64), strict=True):
        m = g.scales.shape[0]
        assert g.n == d.n == (7 if cfg.augment else 1) * m
        copy0 = PatchSet(d.dvecs[:m], d.offsets[:m], d.scales[:m], d.labels)
        assert_identical_sets([g], [features_as(copy0, dtype)])
    assert_identical_sets([gathered(g) for g in got],
                          [features_as(w, dtype) for w, dtype in zip(derived, (np.float32, np.float64))])
    if jittered:
        for r, d in zip(derived, direct):
            assert r.dvecs.tobytes() == d.dvecs.tobytes()
            assert np.all(np.abs(r.offsets - d.offsets) <= 1e-12 * d.scales[:, None])
            assert np.all(np.abs(r.scales - d.scales) <= 1e-14 * d.scales)


class TestBceLoss:
    def test_half_probability(self):
        loss, _ = bce_loss(0.5, 1)
        assert loss == pytest.approx(np.log(2.0))
        loss, _ = bce_loss(0.5, 0)
        assert loss == pytest.approx(np.log(2.0))

    def test_near_perfect(self):
        loss, _ = bce_loss(1.0 - 1e-7, 1)
        assert loss == pytest.approx(1e-7, rel=1e-3)

    def test_clamping(self):
        loss, grad = bce_loss(1.0, 0)
        assert np.isfinite(loss)
        assert grad == 0.0  # clamp active, gradient flat

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_fd(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            e = float(rng.uniform(0.05, 0.95))
            y = float(rng.integers(0, 2))
            _, grad = bce_loss(e, y)
            h = 1e-7
            fd = (bce_loss(e + h, y)[0] - bce_loss(e - h, y)[0]) / (2 * h)
            assert grad == pytest.approx(fd, rel=1e-6)

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidInput):
            bce_loss(0.5, 0.3)

    def test_vectorized(self):
        loss, grad = bce_loss(np.array([0.5, 0.9]), np.array([1, 1]))
        assert loss.shape == (2,) and grad.shape == (2,)


class TestBuildDataset:
    def test_counts_with_augmentation(self, small_cloud):
        cfg = TrainConfig(seed=0, augment=True)
        train_set, val_set = build_dataset(small_cloud, cfg)
        n = small_cloud.n
        n_val = int(np.floor(0.1 * n + 0.5))
        assert val_set.n == 7 * n_val
        assert train_set.n == 7 * (n - n_val)
        assert train_set.scales.shape == (n - n_val,) and val_set.dvecs.shape == (n_val, 16, 3)

    def test_counts_without_augmentation(self, small_cloud):
        cfg = TrainConfig(seed=0, augment=False)
        train_set, val_set = build_dataset(small_cloud, cfg)
        n = small_cloud.n
        n_val = int(np.floor(0.1 * n + 0.5))
        assert val_set.n == n_val and train_set.n == n - n_val

    def test_split_hygiene(self, small_cloud):
        cfg = TrainConfig(seed=5, augment=True)
        train_set, val_set = build_dataset(small_cloud, cfg)
        val = validation_points(small_cloud.n, cfg)
        # Every point is stored once, in the split the draw puts it in, and
        # stands for 7 rows there.
        index = build_index(small_cloud)
        for stored, points in ((train_set, np.nonzero(~val)[0]), (val_set, np.nonzero(val)[0])):
            dvecs, _, _, _ = extract_patches(small_cloud, index, points, cfg.k)
            assert stored.dvecs.tobytes() == dvecs.astype(stored.dvecs.dtype).tobytes()
            assert stored.n == 7 * points.size

    def test_deterministic(self, small_cloud):
        cfg = TrainConfig(seed=9)
        a = build_dataset(small_cloud, cfg)
        b = build_dataset(small_cloud, cfg)
        assert_identical_sets(a, b)

    def test_missing_labels(self):
        cloud = PointCloud(np.random.default_rng(0).random((200, 3)))
        with pytest.raises(InvalidInput):
            build_dataset(cloud, TrainConfig())

    def test_too_small(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.random((20, 3)), labels=rng.integers(0, 2, 20))
        with pytest.raises(InsufficientNeighborhood):
            build_dataset(cloud, TrainConfig(k=16))

    def test_one_class_split_rejected_before_indexing(self, monkeypatch):
        # Two classes in the cloud, but its only edge point is held out. The
        # split depends only on the seed and n, so it is checked before the
        # cloud is indexed.
        points = np.random.default_rng(0).random((40, 3))
        cfg = TrainConfig(k=8, augment=False)
        labels = np.zeros(40, dtype=int)
        labels[np.nonzero(validation_points(40, cfg))[0][0]] = 1

        def no_index(*args, **kwargs):
            raise AssertionError("cloud indexed for a one-class training split")

        monkeypatch.setattr(trainer, "build_index", no_index)
        want = ("the training split holds a single class once the validation points are held out; "
                "cannot balance or learn")
        with pytest.raises(InvalidInput, match=f"^{re.escape(want)}$"):
            build_dataset(PointCloud(points, labels), cfg)

    def test_patch_values_past_float32_rejected(self, small_cloud):
        # Checked before the cast, which would warn and store inf. At the
        # 1e40 scale every patch value overflows float32. In the two-cluster
        # cloud only the scales of the two far points do: their dvecs reach
        # 0.91 and their scales 1.35 times float32's largest value.
        cfg = TrainConfig(k=8, seed=0, augment=False)
        rng = np.random.default_rng(0)
        clusters = np.vstack([1e36 * rng.random((2, 3)), 3e38 + 1e37 * rng.random((40, 3))])
        assert not validation_points(42, cfg)[:2].any()
        want = r"^patch values exceed 3.4028235e\+38, the largest float32 a training set holds$"
        for cloud in (PointCloud(small_cloud.points * 1e40, small_cloud.labels),
                      PointCloud(clusters, np.arange(42) % 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidInput, match=want):
                    build_dataset(cloud, cfg)

    def test_labels_follow_patches(self, small_cloud):
        cfg = TrainConfig(seed=1, augment=False)
        train_set, val_set = build_dataset(small_cloud, cfg)
        val = validation_points(small_cloud.n, cfg)
        assert train_set.labels.dtype == val_set.labels.dtype == np.int8
        assert np.array_equal(train_set.labels, small_cloud.labels[~val])
        assert np.array_equal(val_set.labels, small_cloud.labels[val])

    @pytest.mark.parametrize("k", [8, 16])
    @pytest.mark.parametrize("augment", [True, False])
    @pytest.mark.parametrize("which", ["small", "tiny", "jittered"])
    def test_matches_frozen_oracle(self, small_cloud, monkeypatch, which, augment, k):
        # Fill and extraction blocks of 7 rows: the small cloud's 1,354 train
        # and 150 validation points both end in a partial block; the tiny
        # cloud's 5 validation points fit in less than one. The tiny cloud's
        # points are uniform random, so it has no plane ties either.
        monkeypatch.setattr(pcedge.cloud, "_QUERY_BLOCK", 7)
        monkeypatch.setattr(trainer, "_QUERY_BLOCK", 7)
        cloud = {"small": small_cloud, "tiny": tiny_cloud(), "jittered": jittered_cloud(small_cloud)}[which]
        cfg = TrainConfig(k=k, seed=5, augment=augment)
        got = build_dataset(cloud, cfg)
        assert got[1].n // (7 if augment else 1) == (5 if which == "tiny" else 150)
        assert_derived_sets(got, cloud, cfg, jittered=which != "small")

    def test_matches_frozen_oracle_default_block(self, midsize_cloud):
        cfg = TrainConfig(k=16, seed=11)
        got = build_dataset(midsize_cloud, cfg)
        assert got[0].scales.shape[0] > 2 * pcedge.cloud._QUERY_BLOCK
        assert_derived_sets(got, midsize_cloud, cfg, jittered=False)

    def test_peak_memory_is_result_plus_one_block(self, midsize_cloud):
        # Extraction temporaries cost about 2.7 kB per row at k=16, about
        # 3 MiB for one 1,024-row block. The returned sets store one copy's
        # features per point and an int8 label per row: 267 B per training
        # point in float32, 527 B per validation point in float64.
        sets, peak = peak_traced(lambda: build_dataset(midsize_cloud, TrainConfig(k=16, seed=11)))
        returned = sum(getattr(s, field).nbytes for s in sets for field in PATCH_FIELDS)
        assert returned == 8_355 * 267 + 928 * 527 == 2_719_841
        assert peak - returned < 8 << 20
        assert peak < 24 << 20


class TestGather:
    def test_rotation_table_matches_rotated_clouds(self):
        # Each copy's gathered dvecs are the dvecs extraction takes from the
        # rotated cloud, candidate minus target. A fifth of the coordinates
        # are exactly 0, and a fifth of the candidate coordinates equal
        # their target's, so exact-zero dvec entries fall in every negated
        # column: they must come out +0.0, as the subtraction gives them.
        # Here each column holds at least 20 of them.
        rng = np.random.default_rng(8)
        targets, cand = rng.normal(size=(50, 3)), rng.normal(size=(50, 16, 3))
        targets[rng.random(targets.shape) < 0.2] = 0.0
        cand[rng.random(cand.shape) < 0.2] = 0.0
        share = rng.random(cand.shape) < 0.2
        cand[share] = np.broadcast_to(targets[:, None, :], cand.shape)[share]
        base = cand - targets[:, None, :]
        assert (base == 0.0).sum(axis=(0, 1)).min() > 20 and not np.signbit(base[base == 0.0]).any()
        rows = PatchSet(base, np.ones((50, 16)), np.ones(50), np.zeros(7 * 50, np.int8))
        dvecs, _, _ = rows.gather(np.arange(rows.n))
        for c, rotated in enumerate(rotated_copies(PointCloud(np.concatenate([targets, cand.reshape(-1, 3)])))):
            want = rotated.points[50:].reshape(50, 16, 3) - rotated.points[:50, None, :]
            assert dvecs[c * 50:(c + 1) * 50].tobytes() == want.tobytes(), c
        # A float32 set, as training stores it, gathers each copy's float64
        # dvecs rounded to float32, +0.0 in the negated columns included.
        rows32 = features_as(rows, np.float32)
        dvecs32, offsets32, scales32 = rows32.gather(np.arange(rows32.n))
        assert dvecs32.dtype == offsets32.dtype == scales32.dtype == np.float32
        assert dvecs32.tobytes() == dvecs.astype(np.float32).tobytes()
        for c in range(1, 7):
            negated = dvecs32[c * 50:(c + 1) * 50][:, :, trainer._COPY_NEGATED[c]]
            assert (negated == 0.0).any() and not np.signbit(negated[negated == 0.0]).any(), c


class TestAdamStep:
    def test_first_step_closed_form(self):
        params = net.init_params(8, seed=0)
        state = TrainState.fresh(params)
        cfg = TrainConfig(k=8, lr=1e-3)
        theta0 = params.tensors["dec.b3"].copy()
        grads = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        g = 0.37
        grads["dec.b3"] = np.array([g])
        adam_step(state, params.pack(grads), cfg)
        # t=1 bias correction collapses to theta -= lr * g / (|g| + eps)
        expected = theta0 - cfg.lr * g / (abs(g) + ADAM_EPS)
        assert state.params.tensors["dec.b3"] == pytest.approx(expected, abs=1e-15)

    def test_zero_gradient_no_change(self):
        params = net.init_params(8, seed=1)
        before = params.copy()
        state = TrainState.fresh(params)
        grads = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        for _ in range(5):
            adam_step(state, params.pack(grads), TrainConfig(k=8))
        for name in before.tensors:
            assert np.array_equal(state.params.tensors[name], before.tensors[name])

    def test_ten_steps_deterministic(self):
        runs = []
        for _ in range(2):
            params = net.init_params(8, seed=2)
            state = TrainState.fresh(params)
            rng = np.random.default_rng(0)
            for _ in range(10):
                grads = {n: rng.normal(size=t.shape) for n, t in params.tensors.items()}
                adam_step(state, params.pack(grads), TrainConfig(k=8))
            runs.append(state.params)
        for name in runs[0].tensors:
            assert np.array_equal(runs[0].tensors[name], runs[1].tensors[name])

    def test_shape_mismatch(self):
        params = net.init_params(8, seed=0)
        state = TrainState.fresh(params)
        grads = {n: np.zeros_like(t) for n, t in params.tensors.items()}
        grads["dec.b3"] = np.zeros(7)
        with pytest.raises(ModelShapeError):
            adam_step(state, params.pack(grads), TrainConfig(k=8))

    @pytest.mark.parametrize("shape", [lambda n: (n + 1,), lambda n: (n - 1,), lambda n: (n, 1)],
                             ids=["long", "short", "column"])
    def test_wrong_vector_length(self, shape):
        params = net.init_params(8, seed=0)
        state = TrainState.fresh(params)
        before = params.flat.copy()
        grad = np.zeros(shape(params.flat.size))
        with pytest.raises(ModelShapeError, match="gradient vector has shape"):
            adam_step(state, grad, TrainConfig(k=8))
        assert state.step == 0
        assert np.array_equal(params.flat, before)

    @pytest.mark.parametrize("k", [8, 16])
    def test_matches_frozen_per_tensor_oracle(self, k):
        cfg = TrainConfig(k=k, lr=3e-3)
        state = TrainState.fresh(net.init_params(k, seed=k))
        oracle = SimpleNamespace(params=net.init_params(k, seed=k), step=0)
        oracle.m = {n: np.zeros_like(t) for n, t in oracle.params.tensors.items()}
        oracle.v = {n: np.zeros_like(t) for n, t in oracle.params.tensors.items()}
        rng = np.random.default_rng(k)
        for _ in range(10):
            grads = {n: rng.normal(scale=rng.uniform(1e-6, 10.0), size=t.shape)
                     for n, t in state.params.tensors.items()}
            adam_step(state, state.params.pack(grads), cfg)
            oracle_adam_step(oracle, grads, cfg)
        assert state.step == oracle.step == 10
        assert state.params.flat.tobytes() == oracle.params.flat.tobytes()
        assert state.m.tobytes() == oracle.params.pack(oracle.m).tobytes()
        assert state.v.tobytes() == oracle.params.pack(oracle.v).tobytes()


class TestBatchPlan:
    def _patchset(self, labels, rng, copies=1):
        """n points, each standing for `copies` rows labelled as the point is."""
        n = len(labels)
        return PatchSet(rng.normal(size=(n, 8, 3)), np.abs(rng.normal(size=(n, 8))),
                        np.ones(n), np.tile(np.asarray(labels, np.int8), copies))

    def test_balanced_batches_exact_halves(self):
        rng = np.random.default_rng(0)
        labels = np.r_[np.ones(40, dtype=int), np.zeros(400, dtype=int)]
        train_set = self._patchset(labels, rng)
        cfg = TrainConfig(k=8, batch_size=64)
        batches = _batch_plan(train_set, cfg, np.random.default_rng(1))
        assert len(batches) == -(-440 // 64)
        for idx in batches:
            assert idx.size == 64
            assert train_set.labels[idx].sum() == 32

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 700), edge_share=st.floats(0.0, 1.0), half=st.integers(1, 160),
           seed=st.integers(0, 2**32 - 1), copies=st.sampled_from([1, 7]))
    @example(n=2, edge_share=0.5, half=1, seed=0, copies=1)      # one edge, one flat point
    @example(n=300, edge_share=0.5, half=150, seed=3, copies=1)  # equal classes: edges are the minority
    @example(n=20, edge_share=0.9, half=160, seed=4, copies=1)   # majority smaller than one half batch
    @example(n=20, edge_share=0.9, half=160, seed=4, copies=7)   # the same, each point standing for 7 rows
    def test_balanced_plan_matches_frozen_oracle(self, n, edge_share, half, seed, copies):
        # Same batches, and the generator left in the same state, as the
        # oracle planning the same set written out row by row.
        n_edge = min(max(1, round(edge_share * n)), n - 1)
        labels = np.random.default_rng(seed).permutation(np.r_[np.ones(n_edge, int), np.zeros(n - n_edge, int)])
        train_set = self._patchset(labels, np.random.default_rng(0), copies)
        cfg = TrainConfig(k=8, batch_size=2 * half)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _batch_plan(train_set, cfg, got_rng)
        want = oracle_batch_plan(gathered(train_set), cfg, want_rng)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestTrain:
    def test_lr_zero_equivalent_no_learning(self, small_cloud, monkeypatch):
        # lr must be positive per config; the no-learning analogue is checked
        # via zero gradients in TestAdamStep. Here: single-class data errors,
        # raised before any patch is extracted.
        labels = np.zeros(small_cloud.n, dtype=int)
        cloud = PointCloud(small_cloud.points, labels)

        def no_extraction(*args, **kwargs):
            raise AssertionError("patches extracted from a single-class cloud")

        monkeypatch.setattr(trainer, "extract_patches", no_extraction)
        with pytest.raises(InvalidInput):
            train(cloud, TrainConfig(k=8, max_epochs=1, augment=False))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, small_cloud, monkeypatch, threads):
        def no_dataset(*args, **kwargs):
            raise AssertionError("dataset built for a rejected thread count")

        monkeypatch.setattr(trainer, "build_dataset", no_dataset)
        with pytest.raises(InvalidInput, match=rf"^threads must be >= 1, got {threads}$"):
            train(small_cloud, TrainConfig(k=8, max_epochs=1), threads=threads)

    def test_steps_feed_float32_rows(self, small_cloud, monkeypatch):
        # The training set is stored in the dtype a step computes in, so the
        # step's forward pass gets float32 arrays and casts nothing.
        cfg = TrainConfig(k=8, seed=2, batch_size=64)
        train_set, _ = build_dataset(small_cloud, cfg)
        forward_batch, dtypes = net.forward_batch, []

        def spy(dvecs, offsets, scales, params, need_cache=False):
            dtypes.append((dvecs.dtype, offsets.dtype, scales.dtype, params.flat.dtype))
            return forward_batch(dvecs, offsets, scales, params, need_cache)

        monkeypatch.setattr(net, "forward_batch", spy)
        idx = _batch_plan(train_set, cfg, np.random.default_rng(0))[0]
        trainer._batch_step(train_set, idx, TrainState.fresh(net.init_params(8, seed=0)), cfg)
        assert dtypes == [(np.float32,) * 4]

    @pytest.mark.parametrize("k", [8, 16])
    def test_derived_rows_train_like_written_out_rows(self, small_cloud, monkeypatch, k):
        cfg = TrainConfig(k=k, max_epochs=2, seed=3, batch_size=128)
        derived = train(small_cloud, cfg)
        monkeypatch.setattr(trainer, "build_dataset", oracle_derived_dataset)
        written = train(small_cloud, cfg)
        assert derived[0].flat.tobytes() == written[0].flat.tobytes()
        for a, b in zip(derived[1], written[1], strict=True):
            assert {**a, "seconds": 0} == {**b, "seconds": 0}

    def test_two_epoch_determinism(self, small_cloud):
        cfg = TrainConfig(k=8, max_epochs=2, seed=3, augment=False, batch_size=64)
        p1, log1 = train(small_cloud, cfg)
        p2, log2 = train(small_cloud, cfg)
        for name in p1.tensors:
            assert np.array_equal(p1.tensors[name], p2.tensors[name])
        assert [r["mean_loss"] for r in log1] == [r["mean_loss"] for r in log2]
        assert [r["val_fscore"] for r in log1] == [r["val_fscore"] for r in log2]

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 50), batch_size=st.sampled_from([64, 256, 300]),
           val_fraction=st.sampled_from([0.1, 0.4]))
    def test_threads_give_identical_bytes(self, seed, batch_size, val_fraction):
        # At val_fraction 0.4 the validation set spans two model windows.
        cloud = generate(ShapeSpec("box", density=200, seed=seed)).cloud
        cfg = TrainConfig(k=8, max_epochs=2, seed=seed, augment=False,
                          batch_size=batch_size, val_fraction=val_fraction)
        runs = [train(cloud, cfg, threads=threads) for threads in (1, 2, 3)]
        want_params, want_log = runs[0]
        for params, log in runs[1:]:
            assert params.flat.tobytes() == want_params.flat.tobytes()
            for row, want_row in zip(log, want_log, strict=True):
                assert {**row, "seconds": 0} == {**want_row, "seconds": 0}

    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 50), patience=st.integers(1, 3))
    @example(seed=1, patience=2)
    @example(seed=12, patience=1)
    def test_early_stopping_keeps_first_best_epoch(self, seed, patience):
        # With lr 1e-2 the validation F-score rises and dips within a few
        # epochs, and on 60 validation points it often repeats a value. Both
        # examples repeat their best F-score and stop before max_epochs.
        cloud = generate(ShapeSpec("box", density=200, seed=seed)).cloud
        cfg = TrainConfig(k=8, lr=1e-2, batch_size=64, max_epochs=8, seed=seed, augment=False,
                          patience=patience, val_fraction=0.05)
        params, log = train(cloud, cfg)
        fscores = [row["val_fscore"] for row in log]
        best = fscores.index(max(fscores)) + 1
        assert len(log) == min(best + patience, cfg.max_epochs)
        cut_params, cut_log = train(cloud, replace(cfg, max_epochs=best))
        assert params.flat.tobytes() == cut_params.flat.tobytes()
        for row, want_row in zip(cut_log, log[:best], strict=True):
            assert {**row, "seconds": 0} == {**want_row, "seconds": 0}

    def test_log_columns(self, small_cloud, tmp_path):
        cfg = TrainConfig(k=8, max_epochs=2, seed=0, augment=False, batch_size=64)
        _, log = train(small_cloud, cfg)
        assert len(log) == 2
        path = tmp_path / "log.csv"
        write_log(log, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,grad_norm,val_precision,val_recall,val_fscore,seconds"
        assert len(lines) == 3
        assert all(0.0 < row["grad_norm"] < np.inf for row in log)


def lattice_or_random_points(lattice, n, seed, side):
    """n distinct points of a side**3 integer lattice, or n uniform in the unit cube."""
    rng = np.random.default_rng(seed)
    if lattice:
        cells = rng.choice(side ** 3, size=n, replace=False)
        return np.column_stack(np.unravel_index(cells, (side,) * 3)).astype(np.float64)
    return rng.random((n, 3))


def drawn_partition(data, n, smallest):
    """Bounds 0 = c0 < c1 < ... = n of parts of at least `smallest` rows."""
    bounds = [0]
    for cut in sorted(data.draw(st.sets(st.integers(smallest, n - smallest), max_size=8))):
        if cut - bounds[-1] >= smallest:
            bounds.append(cut)
    return bounds + [n]


class TestPredict:
    def test_zero_params_half_probability(self, small_cloud):
        shapes = net.expected_shapes(16)
        tensors = {n: (np.ones(s) if n.endswith(".g") else np.zeros(s)) for n, s in shapes.items()}
        params = net.ModelParameters(16, tensors)
        out, _ = predict(small_cloud, params, batch=128)
        assert np.array_equal(out.predictions, np.full(small_cloud.n, 0.5))
        assert out.labels.sum() == 0  # strict > 0.5

    def test_batch_size_invariance(self, small_cloud):
        params = net.init_params(16, seed=8)
        a, _ = predict(small_cloud, params, batch=1000)
        b, _ = predict(small_cloud, params, batch=17)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_throughput_is_end_to_end(self, small_cloud, threads):
        params = net.init_params(16, seed=8)
        started = time.perf_counter()
        _, stats = predict(small_cloud, params, batch=128, threads=threads)
        wall = time.perf_counter() - started
        # The call times itself from inside, so it may read a hair faster.
        assert stats["pps"] <= 1.01 * small_cloud.n / wall
        assert stats["wall_seconds"] <= wall
        assert stats["pps"] == pytest.approx(small_cloud.n / stats["wall_seconds"])
        assert 0.0 < stats["model_seconds"]

    @pytest.mark.parametrize("batch", [0, -2])
    def test_batch_below_one_rejected(self, small_cloud, batch):
        params = net.init_params(16, seed=8)
        with pytest.raises(InvalidInput, match=rf"^batch must be >= 1, got {batch}$"):
            predict(small_cloud, params, batch=batch)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, small_cloud, threads):
        params = net.init_params(16, seed=8)
        with pytest.raises(InvalidInput, match=rf"^threads must be >= 1, got {threads}$"):
            predict(small_cloud, params, threads=threads)

    def test_threads_invariance(self, small_cloud):
        params = net.init_params(16, seed=8)
        a, _ = predict(small_cloud, params, batch=128, threads=1)
        b, _ = predict(small_cloud, params, batch=128, threads=4)
        assert np.array_equal(a.predictions, b.predictions)

    @settings(max_examples=12, deadline=None)
    @given(lattice=st.booleans(), n=st.integers(17, 600), seed=st.integers(0, 2**32 - 1))
    def test_window_invariance(self, lattice, n, seed):
        # Random or integer-lattice clouds: the lattice's distance ties send
        # rows to query_many's wider re-query, which sees only a window's rows.
        cloud = PointCloud(lattice_or_random_points(lattice, n, seed, side=9))
        params = net.init_params(8, seed=8)
        want, _ = predict(cloud, params, batch=256, threads=1)
        for batch in (1, 7, 256, 1000):
            for threads in (1, 2):
                got, _ = predict(cloud, params, batch=batch, threads=threads)
                assert np.array_equal(got.predictions, want.predictions), (batch, threads)

    @settings(max_examples=50, deadline=None)
    @given(lattice=st.booleans(), n=st.integers(17, 400), seed=st.integers(0, 2**32 - 1),
           data=st.data())
    def test_any_partition_gives_the_bytes_of_one_call(self, lattice, n, seed, data):
        # Extraction and the model treat rows independently, so work units
        # and windows may cut a cloud's rows anywhere, one-row windows
        # included.
        cloud = PointCloud(lattice_or_random_points(lattice, n, seed, side=9))
        params = net.init_params(8, seed=8)
        index = build_index(cloud)
        whole = extract_patches(cloud, index, np.arange(n), 8)
        calls = drawn_partition(data, n, smallest=1)
        parts = [extract_patches(cloud, index, np.arange(lo, hi), 8) for lo, hi in zip(calls, calls[1:])]
        for name, want, got in zip(("dvecs", "offsets", "scales", "indices"), whole,
                                   map(np.concatenate, zip(*parts))):
            assert got.tobytes() == want.tobytes(), name
        want, _ = net.forward_batch(*whole[:3], params)
        windows = drawn_partition(data, n, smallest=1)
        got = np.concatenate([net.forward_batch(*(a[lo:hi] for a in whole[:3]), params)[0]
                              for lo, hi in zip(windows, windows[1:])])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1025, 2300])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_blocks_match_per_window_extraction(self, lattice, n):
        # The clouds cross one or two 1,024-row block boundaries, and the last
        # block ends inside a window. On the lattice, distance ties send rows
        # to query_many's wider re-query, which sees only its block's rows.
        cloud = PointCloud(lattice_or_random_points(lattice, n, n, side=14))
        params = net.init_params(8, seed=8)
        want = oracle_window_probs(cloud, params)
        for threads in (1, 2):
            got, _ = predict(cloud, params, threads=threads)
            assert got.predictions.tobytes() == want.tobytes(), threads

    def test_too_small(self):
        params = net.init_params(16, seed=0)
        cloud = PointCloud(np.random.default_rng(0).random((20, 3)))
        with pytest.raises(InsufficientNeighborhood):
            predict(cloud, params)

    def test_degenerate_neighborhood_names_the_point(self):
        # Point 1300 sits in the second 1,024-row block; its 32 candidates
        # are 40 copies of (10, 10, 10), which come in the third block.
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.random((1300, 3)), [[10.5, 10.0, 10.0]], rng.random((747, 3)),
                         np.tile([10.0, 10.0, 10.0], (40, 1))])
        with pytest.raises(DegenerateNeighborhood,
                           match=r"^neighborhood of target 1300 has coincident points$"):
            predict(PointCloud(pts), net.init_params(16))

    def test_duplicate_in_the_degenerate_block_is_named_first(self):
        # Point 300's 32 candidates are 40 copies of (10, 10, 10), rows
        # 600-639. All of them share its block, whose duplicate check runs
        # before the PCA axis that would find 300 degenerate.
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.random((300, 3)), [[10.5, 10.0, 10.0]], rng.random((299, 3)),
                         np.tile([10.0, 10.0, 10.0], (40, 1))])
        with pytest.raises(DuplicatePoint, match=r"^cloud contains a duplicate of point 600$"):
            predict(PointCloud(pts), net.init_params(16))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator thresholds")
    def test_windows_reuse_freed_heap(self):
        # A fresh process: in this one, earlier tests have already set or
        # raised glibc's thresholds. Without fixed thresholds every window
        # returned its heap to the kernel and faulted it back in: about 85k
        # minor faults for this 19-window cloud.
        script = (
            "import resource\n"
            "from pcedge import net, trainer\n"
            "from pcedge.synth import ShapeSpec, generate\n"
            "cloud = generate(ShapeSpec('union_boxes', density=1000, seed=7)).cloud\n"
            "params = net.init_params(16)\n"
            "trainer.predict(cloud, params)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "trainer.predict(cloud, params)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        faults = int(done.stdout.split()[-1])
        assert faults < 2000, f"second predict took {faults} minor faults"


@pytest.mark.parametrize("k", [8, 16])
def test_smallest_cloud_is_decided_by_extraction(k):
    # extract_patches owns the 2k + 1 rule; build_dataset and predict reach
    # it through extraction and report the same message.
    rng = np.random.default_rng(k)
    params = net.init_params(k, seed=0)
    cfg = TrainConfig(k=k, augment=False)
    calls = (
        lambda c: pcedge.cloud.extract_patches(c, pcedge.cloud.build_index(c), np.arange(c.n), k),
        lambda c: build_dataset(c, cfg),
        lambda c: predict(c, params),
    )
    small = PointCloud(rng.random((2 * k, 3)), labels=np.arange(2 * k) % 2)
    want = f"need at least {2 * k + 1} points for k={k}, cloud has {2 * k}"
    for call in calls:
        with pytest.raises(InsufficientNeighborhood, match=f"^{re.escape(want)}$"):
            call(small)
    enough = PointCloud(rng.random((2 * k + 1, 3)), labels=np.arange(2 * k + 1) % 2)
    for call in calls:
        call(enough)


def blas_threads():
    """(get, set) of numpy's OpenBLAS thread count; skips where numpy has another BLAS."""
    import ctypes

    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy's BLAS is not its bundled OpenBLAS")
    get.restype = ctypes.c_int
    put.argtypes = (ctypes.c_int,)
    return get, put


class TestOneBlasThread:
    """predict and train run BLAS on one thread and give the caller's count back."""

    @pytest.mark.parametrize("call", ["predict", "train"])
    def test_pinned_while_running_and_restored(self, call, monkeypatch):
        get, put = blas_threads()
        before = get()
        seen = []
        forward = net.forward_batch

        def spy(*args, **kwargs):
            seen.append(get())
            return forward(*args, **kwargs)

        monkeypatch.setattr(net, "forward_batch", spy)
        cloud = generate(ShapeSpec("box", size=(1.0, 0.8, 0.6), density=300, seed=3)).cloud
        put(2)
        try:
            if call == "predict":
                predict(cloud, net.init_params(8, seed=8))
            else:
                train(cloud, TrainConfig(k=8, batch_size=32, max_epochs=1, augment=False))
            assert seen and set(seen) == {1}
            assert get() == 2
        finally:
            put(before)

    def test_restored_when_the_call_raises(self):
        get, put = blas_threads()
        before = get()
        put(2)
        try:
            with pytest.raises(InsufficientNeighborhood):
                predict(PointCloud(np.random.default_rng(0).random((10, 3))), net.init_params(8))
            assert get() == 2
        finally:
            put(before)

    def test_bytes_do_not_depend_on_threads_or_the_environment(self):
        # A fresh process per environment: OpenBLAS reads the variable once,
        # when numpy loads it.
        script = (
            "import hashlib\n"
            "from pcedge import net, trainer\n"
            "from pcedge.synth import ShapeSpec, generate\n"
            "cloud = generate(ShapeSpec('box', size=(1.0, 0.8, 0.6), density=800, seed=3)).cloud\n"
            "params = net.init_params(8, seed=8)\n"
            "cfg = trainer.TrainConfig(k=8, lr=3e-4, batch_size=64, max_epochs=2, augment=False, seed=3)\n"
            "for threads in (1, 2, 4):\n"
            "    out, _ = trainer.predict(cloud, params, threads=threads)\n"
            "    best, log = trainer.train(cloud, cfg, threads=threads)\n"
            "    rows = [sorted((k, v) for k, v in row.items() if k != 'seconds') for row in log]\n"
            "    print(hashlib.sha256(out.predictions.tobytes()).hexdigest(),\n"
            "          hashlib.sha256(best.flat.tobytes() + repr(rows).encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        base = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        base.pop("OPENBLAS_NUM_THREADS", None)
        lines = []
        for env in (dict(base, OPENBLAS_NUM_THREADS="1"), base):
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300, check=True)
            lines += done.stdout.splitlines()
        assert len(lines) == 6 and len(set(lines)) == 1, lines


class TestConfigFile:
    def test_parse_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# one-shot run\n"
            "k = 8\nlr = 0.0003\nbatch_size = 64\nmax_epochs = 5\n"
            "seed = 42\nval_fraction = 0.2\npatience = 3\naugment = false\n"
        )
        cfg = parse_config(path)
        assert cfg == TrainConfig(k=8, lr=3e-4, batch_size=64, max_epochs=5, seed=42,
                                  val_fraction=0.2, patience=3, augment=False)

    def test_readme_lists_every_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        bullet = re.search(r"mirroring\s+`TrainConfig`:(.*?)\.", readme, re.DOTALL)
        assert bullet, "README no longer lists the config keys after `TrainConfig`:"
        assert re.findall(r"`(\w+)`", bullet.group(1)) == [f.name for f in fields(TrainConfig)]

    def test_balance_key_rejected_by_train(self, small_cloud, tmp_path, capsys):
        # Mini-batches are always class-balanced; the old switch is an unknown key.
        cloud, cfg, ckpt = tmp_path / "c.xyz", tmp_path / "cfg.txt", tmp_path / "m.ckpt"
        save_cloud(small_cloud, cloud)
        cfg.write_text("balance = none\n")
        code = main(["train", "--cloud", str(cloud), "--config", str(cfg), "--out-checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err == f"pcedge train: {cfg}:1: unknown config key 'balance'\n"
        assert not ckpt.exists()

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("momentum = 0.9\n")
        with pytest.raises(InvalidInput, match=rf"^{path}:1: unknown config key 'momentum'$"):
            parse_config(path)

    @pytest.mark.parametrize("text, message", [
        ("k = 8\nlr 0.1\n", ":2: expected 'key = value'"),
        ("k = eight\n", ":1: bad value for k: invalid literal for int() with base 10: 'eight'"),
        ("val_fraction = a tenth\n", ":1: bad value for val_fraction: could not convert string to float: 'a tenth'"),
    ])
    def test_malformed_lines_rejected(self, tmp_path, text, message):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        with pytest.raises(InvalidInput) as exc:
            parse_config(path)
        assert str(exc.value) == f"{path}{message}"

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for text, field in (("k = 7\n", "k"), ("seed = -1\n", "seed")):
            path.write_text(text)
            with pytest.raises(InvalidInput, match=rf"^{path}: {field} must be"):
                parse_config(path)

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("0", False), ("TRUE", True), ("False", False), ("Yes", True), ("no", False),
    ])
    def test_augment_spellings(self, tmp_path, value, expected):
        path = tmp_path / "cfg.txt"
        path.write_text(f"augment = {value}\n")
        assert parse_config(path).augment is expected

    def test_augment_typo_rejected(self, tmp_path):
        # Any value outside the six spellings used to switch augmentation off.
        path = tmp_path / "cfg.txt"
        path.write_text("k = 8\naugment = ture\n")
        with pytest.raises(InvalidInput, match=rf"^{path}:2: bad value for augment"):
            parse_config(path)

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_nonfinite_lr_rejected(self, tmp_path, lr):
        path = tmp_path / "cfg.txt"
        path.write_text(f"lr = {lr}\n")
        with pytest.raises(InvalidInput, match=rf"^{path}: lr must be positive and finite"):
            parse_config(path)
