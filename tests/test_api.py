"""The public API: what pcedge exports, and the names it no longer has."""

import pytest

import pcedge
from pcedge import cloud, net

# Patches, queries and forward passes are batched only: extract_patches,
# SpatialIndex.query_many and net.forward_batch take one-element arrays.
# Rotation augmentation lives in pcedge.trainer, beside the table it uses.
RETIRED = ["SurfacePatch", "extract_patch", "pca_min_axis", "forward", "query", "with_labels",
           "augment_rotations"]


def test_all_is_unique_and_resolves():
    assert len(pcedge.__all__) == len(set(pcedge.__all__))
    missing = [name for name in pcedge.__all__ if not hasattr(pcedge, name)]
    assert missing == []


@pytest.mark.parametrize("name", RETIRED)
def test_single_patch_api_is_gone(name):
    assert name not in pcedge.__all__
    for holder in (pcedge, cloud, net, cloud.SpatialIndex, cloud.PointCloud):
        assert not hasattr(holder, name), f"{holder.__name__}.{name}"
