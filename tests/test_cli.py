"""Command-line surface: flags, exit codes, file outputs."""

import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import validation_points
from pcedge import net, trainer
from pcedge.cli import _COMMANDS, _build_parser, main
from pcedge.cloud import PointCloud
from pcedge.errors import CorruptCheckpoint
from pcedge.io import load_cloud, save_cloud
from pcedge.synth import ShapeSpec, generate


@pytest.fixture(scope="module")
def cube_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cube.xyz"
    res = generate(ShapeSpec("box", size=(1.0, 0.8, 0.6), density=800, seed=3))
    save_cloud(res.cloud, path)
    return path


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.ckpt"
    net.save_checkpoint(net.init_params(16, seed=0), path)
    return path


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert_exit(main, [], 1)

    def test_unknown_flag(self):
        assert_exit(main, ["info", "--checkpoint", "x", "--bogus"], 1)

    def test_missing_required(self):
        assert_exit(main, ["synth", "--shape", "box"], 1)

    def test_perturb_mutually_exclusive(self, cube_file, tmp_path):
        out = tmp_path / "o.xyz"
        args = ["perturb", "--cloud", str(cube_file), "--noise", "0.03",
                "--keep", "0.9", "--out", str(out)]
        assert_exit(main, args, 1)

    def test_help_exits_zero(self, capsys):
        for cmd in ("synth", "train", "predict", "eval", "segment", "perturb", "info"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, "--help"])
            assert exc.value.code == 0
            assert "--" in capsys.readouterr().out


def test_readme_command_lines_parse():
    # The README's Command line block may only advertise flags the parser has.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.DOTALL)
    assert block, "README has no Command line block"
    lines = [line.split() for line in block.group(1).splitlines() if line.startswith("pcedge ")]
    assert sorted(line[1] for line in lines) == sorted(_COMMANDS)
    for line in lines:
        _build_parser().parse_args(line[1:])


def with_crc(body) -> bytes:
    """Checkpoint bytes: body followed by its valid CRC32 trailer."""
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


def assert_exit(fn, args, code):
    try:
        got = fn(args)
    except SystemExit as exc:
        got = exc.code
    assert got == code, f"args {args}: expected exit {code}, got {got}"


class TestDataErrors:
    def test_missing_file(self):
        assert main(["info", "--checkpoint", "/nonexistent.ckpt"]) == 2

    def test_corrupt_checkpoint(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        assert main(["info", "--checkpoint", str(bad)]) == 2

    def test_checkpoint_with_other_heads(self, checkpoint_file, tmp_path, capsys):
        # Header bytes 10-11 hold the heads field. The CRC is recomputed, so
        # only the heads check can refuse the file.
        body = bytearray(checkpoint_file.read_bytes()[:-4])
        body[10:12] = struct.pack("<H", 3)
        bad = tmp_path / "heads3.ckpt"
        bad.write_bytes(with_crc(body))
        message = f"{bad}: unsupported heads 3, expected 2"
        with pytest.raises(CorruptCheckpoint, match=f"^{re.escape(message)}$"):
            net.load_checkpoint(bad)
        assert main(["info", "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err == f"pcedge info: {message}\n"

    @pytest.mark.parametrize("case", ["too_short", "version", "tensor_table", "trailing", "misshaped"])
    def test_corrupt_checkpoint_diagnostics(self, case, checkpoint_file, tmp_path, capsys):
        # Every crafted file carries a valid CRC, so only the named check can refuse it.
        body = bytearray(checkpoint_file.read_bytes()[:-4])
        if case == "too_short":
            body, message = body[:12], "file too short"
        elif case == "version":
            body[4:8] = struct.pack("<I", 2)
            message = "unsupported version 2"
        elif case == "tensor_table":
            # A tensor "a" of two floats with one float of data: the table
            # must not read its second float from the CRC trailer.
            body = body[:16] + struct.pack("<H", 1) + b"a" + struct.pack("<BIf", 1, 2, 0.0)
            body[12:16] = struct.pack("<I", 1)
            message = "malformed tensor table: buffer is smaller than requested size"
        elif case == "trailing":
            body += bytes(4)
            message = "trailing bytes after tensor table"
        else:
            # dec.w3 keeps its 32 floats but declares shape (1, 32).
            dims = body.index(b"dec.w3") + len("dec.w3")
            assert body[dims] == 2 and struct.unpack_from("<2I", body, dims + 1) == (32, 1)
            body[dims + 1:dims + 9] = struct.pack("<2I", 1, 32)
            message = "tensor dec.w3 has shape (1, 32), expected (32, 1)"
        bad = tmp_path / f"{case}.ckpt"
        bad.write_bytes(with_crc(body))
        message = f"{bad}: {message}"
        with pytest.raises(CorruptCheckpoint, match=f"^{re.escape(message)}$"):
            net.load_checkpoint(bad)
        assert main(["info", "--checkpoint", str(bad)]) == 2
        assert capsys.readouterr().err == f"pcedge info: {message}\n"

    @pytest.mark.parametrize("k", [2, 66])
    @pytest.mark.parametrize("command", ["info", "predict"])
    def test_checkpoint_k_outside_extraction_range(self, command, k, cube_file, tmp_path, capsys):
        # Every tensor is laid out for k, so only the k rule extraction and
        # the model share can refuse the file, and before any point is read.
        tensors = {}
        for name, shape in net.expected_shapes(4).items():
            if name.endswith("_fc.w"):
                shape = (k // 2, shape[1])
            elif name == "dec.w0":
                shape = (net.WIDTH * k, shape[1])
            tensors[name] = np.zeros(shape)
        ckpt = tmp_path / f"k{k}.ckpt"
        net.save_checkpoint(SimpleNamespace(k=k, tensors=tensors), ckpt)
        args = [command, "--checkpoint", str(ckpt)]
        if command == "predict":
            args += ["--cloud", str(cube_file), "--out", str(tmp_path / "pred.xyz")]
        assert main(args) == 2
        assert capsys.readouterr().err == f"pcedge {command}: {ckpt}: k must be even and in [4, 64], got {k}\n"

    def test_nonfinite_checkpoint_is_a_numerical_error(self, cube_file, tmp_path):
        # An infinite decoder bias reaches the model's finiteness check, not the loader.
        params = net.init_params(16, seed=0)
        params.tensors["dec.b0"][:] = np.inf
        ckpt = tmp_path / "inf.ckpt"
        net.save_checkpoint(params, ckpt)
        out = tmp_path / "pred.xyz"
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-m", "pcedge", "predict", "--cloud", str(cube_file),
                               "--checkpoint", str(ckpt), "--threads", "1", "--out", str(out)],
                              env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stderr == "pcedge predict: numerical error: non-finite values in decoder output\n"
        assert not out.exists()

    def test_eval_empty_edges(self, tmp_path):
        rng = np.random.default_rng(0)
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        save_cloud(PointCloud(rng.random((10, 3)), labels=np.zeros(10, dtype=int)), a)
        save_cloud(PointCloud(rng.random((10, 3)), labels=np.ones(10, dtype=int)), b)
        assert main(["eval", "--pred", str(a), "--gt", str(b)]) == 2


PLY_HEADER = b"ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
PLY_LABEL_HEADER = PLY_HEADER.replace(b"{n}", b"2").replace(b"end_header", b"property uchar label\nend_header")

MALFORMED_CLOUDS = {
    "ply_vertex_count": ("bad.ply", PLY_HEADER.replace(b"{n}", b"abc") + b"0 0 0\n"),
    "ply_vertex_value": ("bad.ply", PLY_HEADER.replace(b"{n}", b"2") + b"0 0 0\n1 x 1\n"),
    "xyz_not_utf8": ("bad.xyz", b"0 0 0\n1 1 \xff\n"),
    "xyz_label_inf": ("bad.xyz", b"0 0 0 inf\n1 1 1 0\n"),
    "xyz_label_fraction": ("bad.xyz", b"0 0 0 0.7\n1 1 1 0\n"),
    "ply_label_fraction": ("bad.ply", PLY_LABEL_HEADER + b"0 0 0 0.7\n1 1 1 0\n"),
    "ply_label_inf": ("bad.ply", PLY_LABEL_HEADER + b"0 0 0 inf\n1 1 1 0\n"),
    "ply_property_short": ("bad.ply", PLY_LABEL_HEADER.replace(b"uchar label", b"float")
                           + b"0 0 0 1\n1 1 1 0\n"),
    "ply_pred_out_of_range": ("bad.ply", PLY_LABEL_HEADER.replace(b"uchar label", b"float pred")
                              + b"0 0 0 1.5\n1 1 1 0\n"),
    "xyz_coordinate_inf": ("bad.xyz", b"0 0 inf 1\n1 1 1 0\n"),
    "xyz_ragged_columns": ("bad.xyz", b"1 2 3\n1 2 3 4\n"),
    "xyz_unparsable_value": ("bad.xyz", b"# scan\n\n1 2 3\n1 2 x\n"),
}


PLY_XYZ = b"property float x\nproperty float y\nproperty float z\n"

# Each PLY header or body refused before any point is built, with its diagnostic.
MALFORMED_PLY = {
    "magic": (b"plx\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ + b"end_header\n0 0 0\n",
              "missing 'ply' magic line"),
    "property_first": (b"ply\nformat ascii 1.0\n" + PLY_XYZ + b"element vertex 1\nend_header\n0 0 0\n",
                       "property before any element"),
    "unterminated": (b"ply\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ, "header never terminated"),
    "no_vertex": (b"ply\nformat ascii 1.0\nelement face 0\nproperty list uchar int vertex_indices\n"
                  b"end_header\n", "no vertex element"),
    "vertex_list": (b"ply\nformat ascii 1.0\nelement vertex 1\n" + PLY_XYZ
                    + b"property list uchar int idx\nend_header\n0 0 0 1 5\n",
                    "list properties on vertex are not supported"),
    "zero_vertices": (b"ply\nformat ascii 1.0\nelement vertex 0\n" + PLY_XYZ + b"end_header\n",
                      "no points"),
    "row_width": (b"ply\nformat ascii 1.0\nelement vertex 2\n" + PLY_XYZ + b"end_header\n0 0 0 1\n1 1 1 0\n",
                  "vertex rows have 4 values, expected 3"),
}


MALFORMED_SYNTH = {
    "density_nan": ["--density", "nan"],
    "density_inf": ["--density", "inf"],
    "size_inf": ["--size", "1,inf,1"],
    "tau_nan": ["--tau", "nan"],
    "seed_negative": ["--seed", "-1"],
    "density_huge": ["--density", "1e15"],
}

# Each would otherwise run a short training (or fail after the dataset build).
MALFORMED_CONFIGS = {
    "augment_typo": "k = 8\nmax_epochs = 1\naugment = ture\n",
    "lr_nan": "k = 8\nmax_epochs = 1\nlr = nan\n",
    "lr_inf": "k = 8\nmax_epochs = 1\nlr = inf\n",
    "k_odd": "k = 7\nmax_epochs = 1\n",
    "seed_negative": "k = 8\nmax_epochs = 1\nseed = -1\n",
}

MALFORMED_PERTURB = {
    "noise_seed_negative": ["--noise", "0.03", "--seed", "-1"],
    "keep_seed_negative": ["--keep", "0.5", "--seed", "-1"],
}


class TestMalformedInput:
    """Each malformed input gets a one-line diagnostic and exit code 2."""

    @pytest.mark.parametrize("case", sorted(MALFORMED_CLOUDS))
    def test_cloud_file(self, case, tmp_path, capsys):
        name, content = MALFORMED_CLOUDS[case]
        src = tmp_path / name
        src.write_bytes(content)
        code = main(["segment", "--cloud", str(src), "--out", str(tmp_path / "o.xyz")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"pcedge segment: {src}: ")
        assert "usecols" not in err  # numpy's advice names an argument users cannot pass

    @pytest.mark.parametrize("case", sorted(MALFORMED_PLY))
    def test_ply_header(self, case, tmp_path, capsys):
        content, message = MALFORMED_PLY[case]
        src = tmp_path / "bad.ply"
        src.write_bytes(content)
        out = tmp_path / "o.xyz"
        assert main(["segment", "--cloud", str(src), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"pcedge segment: {src}: {message}\n"
        assert not out.exists()

    def test_unparsable_value_row_counts_from_one(self, tmp_path, capsys):
        name, content = MALFORMED_CLOUDS["xyz_unparsable_value"]
        src = tmp_path / name
        src.write_bytes(content)
        assert main(["segment", "--cloud", str(src), "--out", str(tmp_path / "o.xyz")]) == 2
        err = capsys.readouterr().err
        assert err == f"pcedge segment: {src}: row 2, column 3: could not convert string 'x' to float64\n"

    def test_synth_size(self, tmp_path, capsys):
        code = main(["synth", "--shape", "box", "--size", "1,x,1",
                     "--out", str(tmp_path / "c.xyz")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "--size" in err


    @pytest.mark.parametrize("case", sorted(MALFORMED_SYNTH))
    def test_synth_value(self, case, tmp_path, capsys):
        out = tmp_path / "c.xyz"
        code = main(["synth", "--shape", "box", *MALFORMED_SYNTH[case], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("pcedge synth: ")
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_PERTURB))
    def test_perturb_value(self, case, cube_file, tmp_path, capsys):
        out = tmp_path / "o.xyz"
        code = main(["perturb", "--cloud", str(cube_file), *MALFORMED_PERTURB[case], "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "pcedge perturb: seed must be a nonnegative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("case", sorted(MALFORMED_CONFIGS))
    def test_train_config(self, case, cube_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(MALFORMED_CONFIGS[case])
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--cloud", str(cube_file), "--config", str(cfg),
                     "--out-checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and err.startswith(f"pcedge train: {cfg}")
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, message", [
        ("val_fraction = 0.5\n", "val_fraction must be in (0, 0.5), got 0.5"),
        ("val_fraction = 0\n", "val_fraction must be in (0, 0.5), got 0.0"),
        ("batch_size = 3\n", "batch_size must be even and >= 2, got 3"),
        ("batch_size = 0\n", "batch_size must be even and >= 2, got 0"),
        ("max_epochs = 0\n", "max_epochs must be >= 1, got 0"),
        ("patience = 0\n", "patience must be >= 1, got 0"),
    ])
    def test_train_config_value(self, text, message, cube_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        ckpt = tmp_path / "model.ckpt"
        code = main(["train", "--cloud", str(cube_file), "--config", str(cfg),
                     "--out-checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err == f"pcedge train: {cfg}: {message}\n"
        assert not ckpt.exists()

    def test_train_split_with_one_class(self, tmp_path, capsys):
        # Two classes in the cloud, but its only edge point is held out for
        # validation, so the training split has one class.
        points = np.random.default_rng(0).random((40, 3))
        labels = np.zeros(40, dtype=int)
        cfg = trainer.TrainConfig(k=8, max_epochs=1, augment=False)
        labels[np.nonzero(validation_points(40, cfg))[0][0]] = 1
        src, cfg_file, ckpt = tmp_path / "c.xyz", tmp_path / "cfg.txt", tmp_path / "m.ckpt"
        save_cloud(PointCloud(points, labels), src)
        cfg_file.write_text("k = 8\nmax_epochs = 1\naugment = false\n")
        code = main(["train", "--cloud", str(src), "--config", str(cfg_file),
                     "--out-checkpoint", str(ckpt)])
        assert code == 2
        assert capsys.readouterr().err == ("pcedge train: the training split holds a single class "
                                           "once the validation points are held out; cannot balance or learn\n")
        assert not ckpt.exists()

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_segment_k(self, k, cube_file, tmp_path, capsys):
        out = tmp_path / "o.xyz"
        code = main(["segment", "--cloud", str(cube_file), "--k", k, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"pcedge segment: k must be >= 1, got {k}\n"
        assert not out.exists()

    def test_segment_too_few_points(self, tmp_path, capsys):
        src, out = tmp_path / "c.xyz", tmp_path / "o.xyz"
        save_cloud(PointCloud(np.random.default_rng(0).random((4, 3)), [0, 1, 0, 1]), src)
        code = main(["segment", "--cloud", str(src), "--k", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "pcedge segment: need at least 6 points, cloud has 4\n"
        assert not out.exists()


class TestSynthCommand:
    def test_writes_cloud_and_metadata(self, tmp_path):
        out = tmp_path / "c.xyz"
        code = main(["synth", "--shape", "cylinder", "--density", "800",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        cloud = load_cloud(out)
        assert cloud.labels is not None
        assert (tmp_path / "c.xyz.meta.csv").exists()

    def test_custom_size_and_tau(self, tmp_path):
        out = tmp_path / "c.ply"
        code = main(["synth", "--shape", "box", "--size", "2,1,1", "--density", "500",
                     "--tau", "0.1", "--seed", "1", "--out", str(out)])
        assert code == 0
        assert load_cloud(out).n > 100


class TestInfoCommand:
    def test_prints_parameter_count(self, checkpoint_file, capsys):
        assert main(["info", "--checkpoint", str(checkpoint_file)]) == 0
        out = capsys.readouterr().out
        assert "k: 16" in out
        assert "heads: 2" in out
        count = int(out.rsplit("total parameters:", 1)[1].strip())
        assert 30_000 <= count <= 70_000

    def test_runs_as_module(self, checkpoint_file):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "pcedge", "info", "--checkpoint", str(checkpoint_file)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "k: 16" in done.stdout


class TestEvalCommand:
    def test_identity_scores(self, cube_file, capsys, tmp_path):
        report = tmp_path / "rep.json"
        code = main(["eval", "--pred", str(cube_file), "--gt", str(cube_file),
                     "--out", str(report)])
        assert code == 0
        out = capsys.readouterr().out
        assert '"cd": 0.0' in out
        assert '"fscore": 1.0' in out
        assert report.exists()


class TestPerturbCommand:
    def test_noise_and_downsample(self, cube_file, tmp_path):
        noisy = tmp_path / "noisy.xyz"
        assert main(["perturb", "--cloud", str(cube_file), "--noise", "0.05",
                     "--seed", "1", "--out", str(noisy)]) == 0
        sparse = tmp_path / "sparse.xyz"
        assert main(["perturb", "--cloud", str(cube_file), "--keep", "0.75",
                     "--seed", "1", "--out", str(sparse)]) == 0
        original = load_cloud(cube_file)
        assert load_cloud(noisy).n == original.n
        assert load_cloud(sparse).n == round(0.75 * original.n)

    def test_deterministic(self, cube_file, tmp_path):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        for out in (a, b):
            main(["perturb", "--cloud", str(cube_file), "--noise", "0.03",
                  "--seed", "7", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestPredictCommand:
    def test_reports_throughput(self, cube_file, checkpoint_file, tmp_path, capsys):
        out = tmp_path / "pred.ply"
        assert main(["predict", "--cloud", str(cube_file), "--checkpoint",
                     str(checkpoint_file), "--threads", "2", "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "points/sec" in err
        cloud = load_cloud(out)
        assert cloud.predictions is not None

    def test_negative_threads_data_error(self, cube_file, checkpoint_file, tmp_path, capsys):
        out = tmp_path / "pred.xyz"
        code = main(["predict", "--cloud", str(cube_file), "--checkpoint", str(checkpoint_file),
                     "--threads", "-1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "pcedge predict: --threads must be >= 0 (0 = available parallelism), got -1\n"
        assert not out.exists()

    def test_threads_zero_uses_available_parallelism(self, cube_file, checkpoint_file,
                                                     tmp_path, monkeypatch):
        seen = []
        original = trainer.predict

        def spy(*args, **kwargs):
            seen.append(kwargs["threads"])
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, "predict", spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        out = tmp_path / "pred.xyz"
        assert main(["predict", "--cloud", str(cube_file), "--checkpoint", str(checkpoint_file),
                     "--threads", "0", "--out", str(out)]) == 0
        assert seen == [3]

    def test_k_mismatch_data_error(self, cube_file, tmp_path):
        ckpt = tmp_path / "k8.ckpt"
        net.save_checkpoint(net.init_params(8, seed=0), ckpt)
        out = tmp_path / "pred.xyz"
        code = main(["predict", "--cloud", str(cube_file), "--checkpoint", str(ckpt),
                     "--out", str(out)])
        assert code == 0  # k travels with the checkpoint; prediction still works

    def test_dedup_pre_pass(self, checkpoint_file, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.random((200, 3))
        pts[100:110] = pts[:10]  # exact duplicates: scanned-data artifact
        src = tmp_path / "dup.xyz"
        save_cloud(PointCloud(pts), src)
        out = tmp_path / "pred.xyz"
        args = ["predict", "--cloud", str(src), "--checkpoint", str(checkpoint_file),
                "--out", str(out)]
        assert main(args) == 2                      # duplicates are a data error
        assert main(args + ["--dedup"]) == 0        # the pre-pass clears them
        assert load_cloud(out).n == 190


class TestSegmentCommand:
    def test_segments_written(self, tmp_path):
        from helpers import lattice_cube
        cloud, _, _, _ = lattice_cube(n=24, seed=0)
        src = tmp_path / "cube.xyz"
        save_cloud(cloud, src)
        out = tmp_path / "seg.xyz"
        assert main(["segment", "--cloud", str(src), "--k", "5", "--out", str(out)]) == 0
        rows = [line.split() for line in out.read_text().splitlines()]
        segs = {int(r[3]) for r in rows}
        assert segs == {-1, 0, 1, 2, 3, 4, 5}


class TestTrainCommand:
    def test_small_train_run(self, tmp_path):
        res = generate(ShapeSpec("box", size=(1.0, 0.8, 0.6), density=700, seed=5))
        cloud_path = tmp_path / "train.xyz"
        save_cloud(res.cloud, cloud_path)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("k = 8\nmax_epochs = 2\nbatch_size = 64\nseed = 1\naugment = false\n")
        ckpt = tmp_path / "model.ckpt"
        log = tmp_path / "log.csv"
        code = main(["train", "--cloud", str(cloud_path), "--config", str(cfg),
                     "--out-checkpoint", str(ckpt), "--log", str(log)])
        assert code == 0
        params = net.load_checkpoint(ckpt)
        assert params.k == 8
        assert log.read_text().count("\n") == 3
