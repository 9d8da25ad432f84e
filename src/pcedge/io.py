"""Readers and writers for XYZ text and ASCII PLY point-cloud files.

XYZ: one point per line, "x y z" or "x y z label", whitespace separated,
'#' starts a comment. PLY: ascii 1.0, element vertex with float x/y/z and
optional uchar label, float pred, int segment properties; the reader
tolerates extra scalar properties.

Both readers parse the numeric rows with one `np.loadtxt` call, so they
accept exactly the numbers numpy's C parser accepts. That differs from
Python's `float` in a few spellings: digit-group underscores (`1_000`) and
non-ASCII digits are rejected. A label must equal 0 or 1 exactly (`1.0`
is accepted; `0.7`, `2`, `inf` and `nan` are rejected), coordinates must
be finite and a `pred` must lie in [0, 1]. In a PLY file,
blank lines and '#' comments inside the vertex rows are skipped as in
XYZ, element counts must be plain decimal digits, and the first vertex
element is the one read. Every such rejection is an InvalidInput naming
the file.

The writers format every row with one %-format string (`%.17g` for
floats, `%d` for integers), so floats round-trip exactly. They stream:
after the header, rows are formatted and written a fixed block at a time.
"""

from __future__ import annotations

import re
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud
from .errors import InvalidInput


# numpy's message for a row whose column count differs from the first row's;
# its advice names a loadtxt argument that pcedge users cannot pass.
_RAGGED = re.compile(r"number of columns changed from (\d+) to (\d+) at row (\d+)")
# numpy's message for an unparsable value; it counts that row from 0.
_UNPARSABLE = re.compile(r"(could not convert .*) at row (\d+), column (\d+)\.")


def _parse_rows(source, path, **kwargs) -> np.ndarray:
    """Whitespace-separated float rows as a 2-D array, parsed by numpy's C reader.

    Blank lines and '#' comments are skipped. An unparsable value, a row
    whose column count differs from the first row's, or undecodable bytes
    raise InvalidInput naming the file. A ragged row or an unparsable value
    is reported by its row number, counted from 1 among the rows parsed
    (blank and comment lines are not rows).
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "no data": callers report it
            return np.loadtxt(source, dtype=np.float64, comments="#", ndmin=2,
                              encoding="utf-8", **kwargs)
    except ValueError as exc:  # includes UnicodeDecodeError
        ragged = _RAGGED.search(str(exc))
        if ragged:
            expected, got, row = ragged.groups()
            raise InvalidInput(f"{path}: row {row} has {got} values, expected {expected}") from exc
        unparsable = _UNPARSABLE.fullmatch(str(exc))
        if unparsable:
            what, row, column = unparsable.groups()
            raise InvalidInput(f"{path}: row {int(row) + 1}, column {column}: {what}") from exc
        raise InvalidInput(f"{path}: {exc}") from exc


def _cloud(path, *columns) -> PointCloud:
    """PointCloud(*columns); a rejected value is reported naming the file."""
    try:
        return PointCloud(*columns)
    except InvalidInput as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def _label_column(values: np.ndarray, path) -> np.ndarray:
    if not np.isin(values, (0.0, 1.0)).all():
        raise InvalidInput(f"{path}: labels must be exactly 0 or 1")
    return values.astype(np.int64)


# Rows formatted and written at a time by write_rows.
_WRITE_BLOCK = 4096


def write_rows(path, header: str, columns: list[tuple[str, np.ndarray]], sep: str = " ") -> None:
    """Write header, then one text line per point: each column by its %-spec, sep between.

    Rows are formatted and written _WRITE_BLOCK at a time to the open file,
    so the text of the whole file is never held in memory. Columns of
    unequal length raise InvalidInput before the file is opened.
    """
    n = len(columns[0][1])
    for _, col in columns:
        if len(col) != n:
            raise InvalidInput(f"column of length {len(col)} does not match {n} points")
    row = sep.join(spec for spec, _ in columns) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for lo in range(0, n, _WRITE_BLOCK):
            block = zip(*(np.asarray(col[lo:lo + _WRITE_BLOCK]).tolist() for _, col in columns))
            fh.write("".join(map(row.__mod__, block)))


def _xyz_columns(points: np.ndarray) -> list[tuple[str, np.ndarray]]:
    return [("%.17g", points[:, axis]) for axis in range(3)]


def read_xyz(path) -> PointCloud:
    data = _parse_rows(path, path)
    if data.shape[0] == 0:
        raise InvalidInput(f"{path}: no points")
    if data.shape[1] not in (3, 4):
        raise InvalidInput(f"{path}: expected 3 or 4 columns, got {data.shape[1]}")
    labels = _label_column(data[:, 3], path) if data.shape[1] == 4 else None
    return _cloud(path, data[:, :3], labels)


def write_xyz(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
    columns = _xyz_columns(cloud.points)
    if segments is not None:
        columns.append(("%d", segments))
    elif cloud.labels is not None:
        columns.append(("%d", cloud.labels))
    write_rows(path, "", columns)


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
                if len(tokens) != 3 or not tokens[2].isdecimal():
                    raise InvalidInput(f"{path}: malformed element line")
                elements.append((tokens[1], int(tokens[2]), []))
            elif tokens[0] == "property":
                if not elements:
                    raise InvalidInput(f"{path}: property before any element")
                # "property <type> <name>" or "property list <count> <item> <name>"
                if len(tokens) != (5 if tokens[1:2] == ["list"] else 3):
                    raise InvalidInput(f"{path}: malformed property line")
                elements[-1][2].append((tokens[1], tokens[-1]))
            elif tokens[0] == "end_header":
                break
        else:
            raise InvalidInput(f"{path}: header never terminated")
        if fmt != "ascii":
            raise InvalidInput(f"{path}: only ascii PLY is supported, got format {fmt!r}")

        names = [name for name, _, _ in elements]
        if "vertex" not in names:
            raise InvalidInput(f"{path}: no vertex element")
        position = names.index("vertex")
        _, count, props = elements[position]
        if any(t == "list" for t, _ in props):
            raise InvalidInput(f"{path}: list properties on vertex are not supported")
        cols = {pname: j for j, (_, pname) in enumerate(props)}
        for axis in ("x", "y", "z"):
            if axis not in cols:
                raise InvalidInput(f"{path}: vertex element lacks property {axis}")
        if count == 0:
            raise InvalidInput(f"{path}: no points")
        data = _parse_rows(fh, path, skiprows=sum(c for _, c, _ in elements[:position]),
                           max_rows=count)
    if data.shape[0] != count:
        raise InvalidInput(f"{path}: {data.shape[0]} vertex rows, header declares {count}")
    if data.shape[1] != len(props):
        raise InvalidInput(f"{path}: vertex rows have {data.shape[1]} values, expected {len(props)}")
    points = data[:, [cols["x"], cols["y"], cols["z"]]]
    labels = _label_column(data[:, cols["label"]], path) if "label" in cols else None
    preds = data[:, cols["pred"]] if "pred" in cols else None
    return _cloud(path, points, labels, preds)


def write_ply(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
    header = ["ply", "format ascii 1.0", f"element vertex {cloud.n}",
              "property float x", "property float y", "property float z"]
    columns = _xyz_columns(cloud.points)
    if cloud.labels is not None:
        header.append("property uchar label")
        columns.append(("%d", cloud.labels))
    if cloud.predictions is not None:
        header.append("property float pred")
        columns.append(("%.17g", cloud.predictions))
    if segments is not None:
        header.append("property int segment")
        columns.append(("%d", segments))
    header.append("end_header")
    write_rows(path, "\n".join(header) + "\n", columns)


_FORMATS = {".xyz": (read_xyz, write_xyz), ".txt": (read_xyz, write_xyz),
            ".ply": (read_ply, write_ply)}


def _format(path):
    """(reader, writer) for the file suffix (.xyz/.txt or .ply)."""
    suffix = Path(path).suffix.lower()
    if suffix not in _FORMATS:
        raise InvalidInput(f"unsupported cloud format {suffix!r} (use .xyz, .txt, or .ply)")
    return _FORMATS[suffix]


def load_cloud(path) -> PointCloud:
    """Read a cloud, dispatching on the file suffix (.xyz/.txt or .ply).

    Unparsable content (bad numbers, bad counts, undecodable bytes) raises
    InvalidInput naming the file.
    """
    return _format(path)[0](path)


def save_cloud(cloud: PointCloud, path, segments: np.ndarray | None = None) -> None:
    """Write a cloud, dispatching on the file suffix (.xyz/.txt or .ply)."""
    _format(path)[1](cloud, path, segments)
