"""Metamorphic properties of the whole pipeline.

No oracle says what a cloud's probabilities should be, but some changes to
the input must leave them alone: scaling the cloud by a power of two, and
permuting its points. `evaluate` must likewise ignore a scaling and
translation applied to both of its clouds, since it normalises them jointly.
Each property relates two runs of the unchanged pipeline (T. Y. Chen, S. C.
Cheung, S. M. Yiu, "Metamorphic testing: a new approach for generating next
test cases", HKUST-CS98-01, 1998).
"""

import functools

import numpy as np
from hypothesis import given, settings, strategies as st

from pcedge import metrics, net, segment, synth, trainer
from pcedge.cloud import PointCloud, build_index, extract_patches

# Small clouds of every kind with straight creases, sampled uniformly at
# random on their faces, so no two distances tie exactly.
KINDS = ("box", "cylinder", "prism", "l_bracket", "union_boxes")


@functools.cache
def small_cloud(kind, seed):
    return synth.generate(synth.ShapeSpec(kind, density=100, seed=seed)).cloud


@functools.cache
def model(k=8):
    return net.init_params(k)


def probabilities(points, k=8):
    predicted, _ = trainer.predict(PointCloud(points), model(k))
    return predicted.predictions


def assert_same_up_to_relabelling(ids, other):
    """ids and other name the same partition; edge points keep -1 in both."""
    assert np.array_equal(ids == -1, other == -1)
    pairs = np.unique(np.stack([ids, other]), axis=1)
    assert len(np.unique(pairs[0])) == len(np.unique(pairs[1])) == pairs.shape[1]


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 50))
def test_predict_is_bit_equal_under_power_of_two_scaling(kind, seed):
    # Scaling by 2^j is exact in floating point, and so is every distance,
    # scale and normalised feature computed from the scaled points.
    points = small_cloud(kind, seed).points
    base = probabilities(points)
    for j in range(-4, 5):
        assert probabilities(points * 2.0 ** j).tobytes() == base.tobytes(), j


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 50), perm_seed=st.integers(0, 2**32 - 1),
       k=st.sampled_from([8, 10]))
def test_predict_and_segments_follow_a_permutation(kind, seed, perm_seed, k):
    # A permutation moves each patch to another row of another model window.
    # k=10 gives the RBF heads m=5 rows per patch, so their row counts are
    # not multiples of 4.
    cloud = small_cloud(kind, seed)
    perm = np.random.default_rng(perm_seed).permutation(cloud.n)
    moved_cloud = PointCloud(cloud.points[perm])
    want = extract_patches(cloud, build_index(cloud), perm, k)
    got = extract_patches(moved_cloud, build_index(moved_cloud), np.arange(cloud.n), k)
    for a, b in zip(got[:3], want[:3]):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(perm[got[3]], want[3])

    base = probabilities(cloud.points, k)
    moved = probabilities(moved_cloud.points, k)
    assert moved.tobytes() == base[perm].tobytes()
    labels, moved_labels = (base > 0.5).astype(np.int64), (moved > 0.5).astype(np.int64)
    assert np.array_equal(moved_labels, labels[perm])
    ids = segment.flood_segment(PointCloud(cloud.points, labels)).segment_ids
    ids_moved = segment.flood_segment(PointCloud(moved_cloud.points, moved_labels)).segment_ids
    assert_same_up_to_relabelling(ids[perm], ids_moved)


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 50),
       scale=st.floats(0.1, 10.0), shift=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_evaluate_ignores_a_joint_scaling_and_translation(kind, seed, scale, shift):
    gt = small_cloud(kind, seed)
    rng = np.random.default_rng(seed)
    pred_labels = gt.labels.copy()
    flip = rng.random(gt.n) < 0.05
    pred_labels[flip] = 1 - pred_labels[flip]
    base = metrics.evaluate(PointCloud(gt.points, pred_labels), gt)

    points = gt.points * scale + np.asarray(shift)
    moved = metrics.evaluate(PointCloud(points, pred_labels), PointCloud(points, gt.labels))
    assert (moved.tp, moved.fp, moved.fn) == (base.tp, base.fp, base.fn)
    # Normalisation divides out the scale and translation up to rounding.
    assert abs(moved.cd - base.cd) <= 1e-12
