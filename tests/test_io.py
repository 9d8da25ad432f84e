"""XYZ and PLY readers/writers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import oracle_write_ply, oracle_write_xyz, peak_traced, union_boxes
from pcedge import io
from pcedge.cloud import PointCloud
from pcedge.errors import InvalidInput
from pcedge.io import load_cloud, read_ply, read_xyz, save_cloud, write_ply, write_xyz


@pytest.fixture
def cloud():
    rng = np.random.default_rng(0)
    return PointCloud(rng.normal(size=(25, 3)), labels=rng.integers(0, 2, 25),
                      predictions=rng.random(25))


def test_xyz_roundtrip_with_labels(cloud, tmp_path):
    path = tmp_path / "c.xyz"
    write_xyz(cloud, path)
    back = read_xyz(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.labels, cloud.labels)


def test_xyz_without_labels(tmp_path):
    path = tmp_path / "c.xyz"
    bare = PointCloud(np.random.default_rng(1).normal(size=(5, 3)))
    write_xyz(bare, path)
    back = read_xyz(path)
    assert back.labels is None
    assert np.array_equal(back.points, bare.points)


def test_xyz_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n1 2 3 1\n\n4 5 6 0  # trailing comment\n")
    back = read_xyz(path)
    assert back.points.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert back.labels.tolist() == [1, 0]

def test_xyz_segment_column(cloud, tmp_path):
    path = tmp_path / "seg.xyz"
    segs = np.arange(cloud.n) % 3
    write_xyz(cloud, path, segments=segs)
    rows = [line.split() for line in path.read_text().splitlines()]
    assert all(len(r) == 4 for r in rows)
    assert [int(r[3]) for r in rows] == segs.tolist()


def test_xyz_malformed(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2\n")
    with pytest.raises(InvalidInput):
        read_xyz(path)
    path.write_text("1 2 x\n")
    with pytest.raises(InvalidInput):
        read_xyz(path)
    path.write_text("# only comments\n")
    with pytest.raises(InvalidInput):
        read_xyz(path)
    path.write_text("1_000 2 3\n")  # Python's float accepts this spelling; numpy's parser does not
    with pytest.raises(InvalidInput, match="bad.xyz"):
        read_xyz(path)
    path.write_text("# scan\n1 2 3\n\n1 2 3\n1 2 3 4\n")  # blank and comment lines are not rows
    with pytest.raises(InvalidInput, match=r"bad\.xyz: row 3 has 4 values, expected 3$"):
        read_xyz(path)
    for text in ("1 2 3\n1 2 x\n", "# scan\n\n1 2 3\n\n1 2 x\n"):  # rows counted from 1
        path.write_text(text)
        with pytest.raises(InvalidInput) as exc:
            read_xyz(path)
        assert str(exc.value) == f"{path}: row 2, column 3: could not convert string 'x' to float64"


@pytest.mark.parametrize("fmt", ["xyz", "ply"])
def test_labels_must_be_exactly_zero_or_one(fmt, tmp_path):
    path = tmp_path / f"c.{fmt}"
    head = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\nproperty float y\n"
            "property float z\nproperty uchar label\nend_header\n") if fmt == "ply" else ""
    path.write_text(head + "0 0 0 1.0\n1 1 1 0e0\n")
    assert load_cloud(path).labels.tolist() == [1, 0]
    for bad in ("0.7", "2", "-1", "inf", "nan", "1e-300"):
        path.write_text(head + f"0 0 0 {bad}\n1 1 1 0\n")
        with pytest.raises(InvalidInput, match=f"c.{fmt}: labels"):
            load_cloud(path)


def test_ply_roundtrip_full(cloud, tmp_path):
    path = tmp_path / "c.ply"
    write_ply(cloud, path)
    back = read_ply(path)
    assert np.array_equal(back.points, cloud.points)
    assert np.array_equal(back.labels, cloud.labels)
    assert np.array_equal(back.predictions, cloud.predictions)


def test_ply_header_contents(cloud, tmp_path):
    path = tmp_path / "c.ply"
    write_ply(cloud, path, segments=np.zeros(cloud.n, dtype=int))
    head = path.read_text().splitlines()[:10]
    assert head[0] == "ply"
    assert head[1] == "format ascii 1.0"
    assert f"element vertex {cloud.n}" in head
    assert "property uchar label" in head
    assert "property float pred" in head
    assert "property int segment" in head


def test_ply_tolerates_extra_properties(tmp_path):
    path = tmp_path / "extra.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment made elsewhere\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float intensity\nproperty uchar label\n"
        "end_header\n"
        "0 0 0 9.5 1\n"
        "1 0 0 3.5 0\n"
    )
    back = read_ply(path)
    assert back.points.tolist() == [[0, 0, 0], [1, 0, 0]]
    assert back.labels.tolist() == [1, 0]


def test_ply_skips_other_elements(tmp_path):
    path = tmp_path / "faces.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 1 1\n"
        "3 0 1 0\n"
    )
    back = read_ply(path)
    assert back.n == 2


def test_ply_rejects_binary(tmp_path):
    path = tmp_path / "bin.ply"
    path.write_text("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                    "property float x\nproperty float y\nproperty float z\nend_header\n")
    with pytest.raises(InvalidInput):
        read_ply(path)


def test_ply_rejects_missing_axis(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n"
                    "property float x\nproperty float y\nend_header\n0 0\n")
    with pytest.raises(InvalidInput):
        read_ply(path)


def test_ply_rejects_short_vertex_block(tmp_path):
    path = tmp_path / "short.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 3\n"
                    "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n1 1 1\n")
    with pytest.raises(InvalidInput, match="short.ply"):
        read_ply(path)


def test_dispatch_by_suffix(cloud, tmp_path):
    for name in ("c.xyz", "c.ply", "c.txt"):
        save_cloud(cloud, tmp_path / name)
        assert load_cloud(tmp_path / name).n == cloud.n
    with pytest.raises(InvalidInput):
        save_cloud(cloud, tmp_path / "c.obj")


# Values whose shortest exact spelling needs care: signed zero, the
# smallest subnormal and normal, the largest finite magnitudes, integral
# floats and non-terminating fractions.
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, 2.0, -3.0, 1e16, 2.0**53 + 2, 0.1, 1 / 3, -123.456]
SPECIAL_PROBS = [-0.0, 0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.5, 1.0]


def special_cloud(with_labels, with_predictions):
    rng = np.random.default_rng(3)
    values = np.array(SPECIAL_VALUES)
    points = np.concatenate([values[rng.permutation(len(values))] for _ in range(3)]).reshape(-1, 3)
    n = len(points)
    labels = rng.integers(0, 2, n) if with_labels else None
    predictions = np.resize(SPECIAL_PROBS, n) if with_predictions else None
    return PointCloud(points, labels, predictions)


class TestWriterParity:
    """Byte identity with the per-row writers frozen in helpers."""

    @pytest.mark.parametrize("fmt", ["xyz", "ply"])
    @pytest.mark.parametrize("labels", [False, True])
    @pytest.mark.parametrize("predictions", [False, True])
    @pytest.mark.parametrize("segments", [False, True])
    def test_special_values(self, fmt, labels, predictions, segments, tmp_path):
        cloud = special_cloud(labels, predictions)
        segs = np.resize([-1, 0, 7, 2**31 - 1], cloud.n) if segments else None
        write, oracle = {"xyz": (write_xyz, oracle_write_xyz), "ply": (write_ply, oracle_write_ply)}[fmt]
        write(cloud, tmp_path / f"new.{fmt}", segments=segs)
        oracle(cloud, tmp_path / f"old.{fmt}", segments=segs)
        assert (tmp_path / f"new.{fmt}").read_bytes() == (tmp_path / f"old.{fmt}").read_bytes()
        if not (fmt == "xyz" and segments):  # an XYZ segment column does not read back as labels
            back = load_cloud(tmp_path / f"new.{fmt}")
            assert back.points.tobytes() == cloud.points.tobytes()
            assert np.array_equal(back.labels, cloud.labels)

    @settings(max_examples=60, deadline=None)
    @given(points=arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)),
                         elements=st.floats(allow_nan=False, allow_infinity=False)),
           seed=st.integers(0, 2**32 - 1))
    def test_random_values(self, points, seed, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("parity")
        rng = np.random.default_rng(seed)
        n = len(points)
        cloud = PointCloud(points, rng.integers(0, 2, n), rng.random(n))
        segs = rng.integers(-1, 2**40, n)
        for write, oracle in ((write_xyz, oracle_write_xyz), (write_ply, oracle_write_ply)):
            for segments in (None, segs):
                write(cloud, tmp / "new", segments=segments)
                oracle(cloud, tmp / "old", segments=segments)
                assert (tmp / "new").read_bytes() == (tmp / "old").read_bytes()

    def test_segment_length_mismatch_rejected(self, cloud, tmp_path):
        for write in (write_xyz, write_ply):
            with pytest.raises(InvalidInput):
                write(cloud, tmp_path / "c", segments=np.zeros(cloud.n - 1, dtype=int))

    @pytest.mark.parametrize("n", [1, 6, 7, 8, 22])
    def test_across_row_blocks(self, n, monkeypatch, tmp_path):
        monkeypatch.setattr(io, "_WRITE_BLOCK", 7)
        rng = np.random.default_rng(n)
        cloud = PointCloud(rng.normal(size=(n, 3)), rng.integers(0, 2, n), rng.random(n))
        segs = rng.integers(-1, 50, n)
        for write, oracle in ((write_xyz, oracle_write_xyz), (write_ply, oracle_write_ply)):
            for segments in (None, segs):
                write(cloud, tmp_path / "new", segments=segments)
                oracle(cloud, tmp_path / "old", segments=segments)
                assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()

    @pytest.mark.parametrize("density", [4000.0, 16000.0])
    def test_memory_budget(self, density, tmp_path):
        # Formatting the whole file as one string peaked at about 234 B/point
        # (16.6 MiB at 74,443 points); streamed blocks stay near 1 MiB.
        cloud = union_boxes(density).cloud
        segments = np.arange(cloud.n)
        for write in (write_xyz, write_ply):
            _, peak = peak_traced(lambda: write(cloud, tmp_path / "c", segments=segments))
            assert peak < 4 << 20, f"{write.__name__} peaked at {peak / 2**20:.1f} MiB"


@st.composite
def clouds(draw, with_predictions):
    n = draw(st.integers(1, 25))
    points = draw(arrays(np.float64, (n, 3), elements=st.floats(allow_nan=False, allow_infinity=False)))
    labels = draw(st.none() | arrays(np.int64, n, elements=st.integers(0, 1)))
    predictions = None
    if with_predictions:
        predictions = draw(st.none() | arrays(np.float64, n, elements=st.floats(0.0, 1.0)))
    return PointCloud(points, labels, predictions)


JUNK_LINES = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment", "#"])


def sprinkle(draw, rows):
    """Blank and comment lines between rows, and trailing comments on some."""
    out = []
    for row in rows:
        out.extend(draw(st.lists(JUNK_LINES, max_size=2)))
        out.append(row + draw(st.sampled_from(["", " ", "  # trailing", "\t#"])))
    return out + draw(st.lists(JUNK_LINES, max_size=2))


def assert_same_cloud(back, cloud):
    assert back.points.tobytes() == cloud.points.tobytes()
    for name in ("labels", "predictions"):
        want = getattr(cloud, name)
        got = getattr(back, name)
        assert (got is None) if want is None else got.tobytes() == want.tobytes()


class TestRoundTrip:
    """write -> read is the identity, with comments and blank lines added."""

    @settings(max_examples=80, deadline=None)
    @given(cloud=clouds(with_predictions=False), data=st.data())
    def test_xyz(self, cloud, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "c.xyz"
        write_xyz(cloud, path)
        assert_same_cloud(read_xyz(path), cloud)
        rows = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(sprinkle(data.draw, rows)) + "\n", encoding="utf-8")
        assert_same_cloud(read_xyz(path), cloud)

    @settings(max_examples=80, deadline=None)
    @given(cloud=clouds(with_predictions=True), segments=st.booleans(), data=st.data())
    def test_ply(self, cloud, segments, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "c.ply"
        write_ply(cloud, path, segments=np.arange(cloud.n) - 1 if segments else None)
        assert_same_cloud(read_ply(path), cloud)
        lines = path.read_text(encoding="utf-8").splitlines()
        end = lines.index("end_header")
        header = lines[:2] + data.draw(st.lists(st.just("comment written elsewhere"), max_size=2)) + lines[2:end + 1]
        path.write_text("\n".join(header + sprinkle(data.draw, lines[end + 1:])) + "\n", encoding="utf-8")
        assert_same_cloud(read_ply(path), cloud)
