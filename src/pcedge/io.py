"""Readers and writers for XYZ text and ASCII PLY point-cloud files.

XYZ: one point per line, "x y z" or "x y z label", whitespace separated,
'#' starts a comment. PLY: ascii 1.0, element vertex with float x/y/z and
optional uchar label, float pred, int segment properties; the reader
tolerates extra scalar properties.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .errors import InvalidInput

_FLOAT_PLY_TYPES = {"float", "float32", "double", "float64"}
_INT_PLY_TYPES = {"char", "uchar", "int8", "uint8", "short", "ushort", "int16",
                  "uint16", "int", "uint", "int32", "uint32"}


def read_xyz(path) -> PointCloud:
    points, labels = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (3, 4):
                raise InvalidInput(f"{path}:{lineno}: expected 3 or 4 columns, got {len(parts)}")
            try:
                points.append([float(v) for v in parts[:3]])
                if len(parts) == 4:
                    labels.append(int(float(parts[3])))
            except ValueError as exc:
                raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
    if not points:
        raise InvalidInput(f"{path}: no points")
    if labels and len(labels) != len(points):
        raise InvalidInput(f"{path}: label column present on some lines only")
    return PointCloud(np.asarray(points), np.asarray(labels) if labels else None)


def write_xyz(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (x, y, z) in enumerate(cloud.points):
            row = f"{x:.17g} {y:.17g} {z:.17g}"
            if segments is not None:
                row += f" {int(segments[i])}"
            elif cloud.labels is not None:
                row += f" {int(cloud.labels[i])}"
            fh.write(row + "\n")


def read_ply(path) -> PointCloud:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        lines = iter(fh.readline, "")
        if next(lines, "").strip() != "ply":
            raise InvalidInput(f"{path}: missing 'ply' magic line")
        elements = []  # (name, count, [(type, prop_name), ...])
        fmt = None
        for raw in lines:
            tokens = raw.strip().split()
            if not tokens or tokens[0] == "comment":
                continue
            if tokens[0] == "format":
                fmt = tokens[1] if len(tokens) > 1 else None
            elif tokens[0] == "element":
                if len(tokens) != 3:
                    raise InvalidInput(f"{path}: malformed element line")
                elements.append((tokens[1], int(tokens[2]), []))
            elif tokens[0] == "property":
                if not elements:
                    raise InvalidInput(f"{path}: property before any element")
                if tokens[1] == "list":
                    elements[-1][2].append(("list", tokens[-1]))
                else:
                    elements[-1][2].append((tokens[1], tokens[2]))
            elif tokens[0] == "end_header":
                break
        else:
            raise InvalidInput(f"{path}: header never terminated")
        if fmt != "ascii":
            raise InvalidInput(f"{path}: only ascii PLY is supported, got format {fmt!r}")

        cloud = None
        for name, count, props in elements:
            if name != "vertex":
                for _ in range(count):
                    next(lines, "")
                continue
            if any(t == "list" for t, _ in props):
                raise InvalidInput(f"{path}: list properties on vertex are not supported")
            cols = {pname: j for j, (_, pname) in enumerate(props)}
            for axis in ("x", "y", "z"):
                if axis not in cols:
                    raise InvalidInput(f"{path}: vertex element lacks property {axis}")
            data = np.empty((count, len(props)), dtype=np.float64)
            for i in range(count):
                raw = next(lines, "")
                parts = raw.split()
                if len(parts) != len(props):
                    raise InvalidInput(f"{path}: vertex row {i} has {len(parts)} values, expected {len(props)}")
                data[i] = [float(v) for v in parts]
            points = data[:, [cols["x"], cols["y"], cols["z"]]]
            labels = data[:, cols["label"]].astype(np.int64) if "label" in cols else None
            preds = data[:, cols["pred"]] if "pred" in cols else None
            cloud = PointCloud(points, labels, preds)
        if cloud is None:
            raise InvalidInput(f"{path}: no vertex element")
        return cloud


def write_ply(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
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


def load_cloud(path) -> PointCloud:
    """Read a cloud, dispatching on the file suffix (.xyz/.txt or .ply).

    Unparsable content (bad numbers, bad counts, undecodable bytes) raises
    InvalidInput naming the file.
    """
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        reader = read_ply
    elif suffix in (".xyz", ".txt"):
        reader = read_xyz
    else:
        raise InvalidInput(f"unsupported cloud format {suffix!r} (use .xyz, .txt, or .ply)")
    try:
        return reader(path)
    except ValueError as exc:  # includes UnicodeDecodeError
        raise InvalidInput(f"{path}: {exc}") from exc


def save_cloud(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
    """Write a cloud, dispatching on the file suffix (.xyz/.txt or .ply)."""
    suffix = Path(path).suffix.lower()
    if suffix == ".ply":
        write_ply(cloud, path, segments)
    elif suffix in (".xyz", ".txt"):
        write_xyz(cloud, path, segments)
    else:
        raise InvalidInput(f"unsupported cloud format {suffix!r} (use .xyz, .txt, or .ply)")
