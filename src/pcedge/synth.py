"""Synthetic CAD-like clouds with analytic ground-truth edge labels.

Shapes are built from planar, cylindrical, and spherical faces sampled
uniformly by area. A point is labeled edge when its exact distance to the
shape's crease curves (3-d segments and circles) is below the band
half-width tau. Per-face seeds derive from the spec seed, so generation is
deterministic and faces can be sampled independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import InvalidInput
from .io import write_rows

# The most points generate will sample; a denser spec is rejected before sampling.
MAX_POINTS = 100_000_000


@dataclass(frozen=True)
class EdgeSegment:
    p0: np.ndarray
    p1: np.ndarray


@dataclass(frozen=True)
class EdgeCircle:
    center: np.ndarray
    radius: float
    normal: np.ndarray


@dataclass(frozen=True)
class ShapeSpec:
    """What to generate: shape kind, size parameters, sampling density,
    edge-band half-width tau (default 1.5x the mean sampling spacing)."""

    kind: str
    size: tuple = ()
    density: float = 4000.0
    tau: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SHAPE_KINDS:
            raise InvalidInput(f"unknown shape kind {self.kind!r}, choose from {SHAPE_KINDS}")
        if not 0 < self.density < math.inf:
            raise InvalidInput(f"density must be positive and finite, got {self.density}")
        default_size = _SHAPES[self.kind][1]
        size = tuple(float(v) for v in (self.size or default_size))
        if len(size) != len(default_size):
            raise InvalidInput(f"{self.kind} takes {len(default_size)} size parameters, got {len(size)}")
        if not all(0 < v < math.inf for v in size):
            raise InvalidInput(f"size parameters must be positive and finite, got {size}")
        object.__setattr__(self, "size", size)
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise InvalidInput(f"tau must be positive and finite, got {self.tau}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise InvalidInput(f"seed must be a nonnegative integer, got {self.seed!r}")

    @property
    def band_width(self) -> float:
        return self.tau if self.tau is not None else 1.5 / math.sqrt(self.density)


@dataclass(frozen=True)
class SynthResult:
    cloud: PointCloud
    face_ids: np.ndarray        # (N,)
    edge_distances: np.ndarray  # (N,) exact distance to the nearest crease
    curves: list


@dataclass
class _Face:
    area: float
    sample: callable      # rng, count -> (count, 3)
    keep: callable = None  # optional rejection predicate, points -> bool mask


# --------------------------------------------------------------------------
# Distances to crease curves
# --------------------------------------------------------------------------

def _segment_distances(points: np.ndarray, seg: EdgeSegment) -> np.ndarray:
    d = seg.p1 - seg.p0
    denom = float(d @ d)
    t = np.clip(((points - seg.p0) @ d) / denom, 0.0, 1.0)
    closest = seg.p0 + t[:, None] * d
    return np.linalg.norm(points - closest, axis=1)


def _circle_distances(points: np.ndarray, circ: EdgeCircle) -> np.ndarray:
    w = points - circ.center
    h = w @ circ.normal
    radial = w - h[:, None] * circ.normal
    rho = np.linalg.norm(radial, axis=1)
    return np.sqrt(h * h + (rho - circ.radius) ** 2)


def distance_to_edge_curves(points: np.ndarray, curves: list) -> np.ndarray:
    """Exact minimum distance from each point to a set of segments/circles; a (3,) point gives (1,)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    best = np.full(pts.shape[0], np.inf)
    for curve in curves:
        if isinstance(curve, EdgeSegment):
            np.minimum(best, _segment_distances(pts, curve), out=best)
        elif isinstance(curve, EdgeCircle):
            np.minimum(best, _circle_distances(pts, curve), out=best)
        else:
            raise InvalidInput(f"unknown curve type {type(curve).__name__}")
    return best


# --------------------------------------------------------------------------
# Face samplers
# --------------------------------------------------------------------------

def _rect_face(origin, u, v) -> _Face:
    origin, u, v = (np.asarray(a, dtype=np.float64) for a in (origin, u, v))
    area = float(np.linalg.norm(np.cross(u, v)))

    def sample(rng, count):
        ab = rng.random((count, 2))
        return origin + ab[:, :1] * u + ab[:, 1:] * v

    return _Face(area=area, sample=sample)


def _tri_face(a, b, c) -> _Face:
    a, b, c = (np.asarray(p, dtype=np.float64) for p in (a, b, c))
    area = 0.5 * float(np.linalg.norm(np.cross(b - a, c - a)))

    def sample(rng, count):
        r1 = np.sqrt(rng.random(count))[:, None]
        r2 = rng.random(count)[:, None]
        return a * (1 - r1) + b * (r1 * (1 - r2)) + c * (r1 * r2)

    return _Face(area=area, sample=sample)


def _disk_face(z, radius) -> _Face:
    """The disk of the given radius about the z axis in the plane at height z;
    its angle runs from the +y axis towards -x."""

    def sample(rng, count):
        rho = radius * np.sqrt(rng.random(count))
        theta = 2.0 * np.pi * rng.random(count)
        return np.column_stack([-(rho * np.sin(theta)), rho * np.cos(theta), np.full(count, z)])

    return _Face(area=math.pi * radius * radius, sample=sample)


def _cylinder_side_face(radius, z0, z1) -> _Face:
    def sample(rng, count):
        theta = 2.0 * np.pi * rng.random(count)
        z = rng.uniform(z0, z1, count)
        return np.column_stack([radius * np.cos(theta), radius * np.sin(theta), z])

    return _Face(area=2.0 * math.pi * radius * (z1 - z0), sample=sample)


def _sphere_surface_face(radius) -> _Face:
    def sample(rng, count):
        g = rng.normal(size=(count, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return radius * g

    return _Face(area=4.0 * math.pi * radius * radius, sample=sample)


# --------------------------------------------------------------------------
# Shape builders: faces + crease curves
# --------------------------------------------------------------------------

def _seg(p0, p1) -> EdgeSegment:
    return EdgeSegment(np.asarray(p0, dtype=np.float64), np.asarray(p1, dtype=np.float64))


def _box_faces(lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ext = hi - lo
    faces = []
    for axis in range(3):
        u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
        u = np.zeros(3); u[u_axis] = ext[u_axis]
        v = np.zeros(3); v[v_axis] = ext[v_axis]
        for value in (lo[axis], hi[axis]):
            origin = lo.copy()
            origin[axis] = value
            faces.append(_rect_face(origin, u, v))
    return faces


def _box_edges(lo, hi):
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    edges = []
    for axis in range(3):
        o1, o2 = (axis + 1) % 3, (axis + 2) % 3
        for c1 in (lo[o1], hi[o1]):
            for c2 in (lo[o2], hi[o2]):
                p0 = np.empty(3); p1 = np.empty(3)
                p0[axis], p1[axis] = lo[axis], hi[axis]
                p0[o1] = p1[o1] = c1
                p0[o2] = p1[o2] = c2
                edges.append(_seg(p0, p1))
    return edges


def _build_box(size):
    a, b, c = size
    lo, hi = np.zeros(3), np.asarray([a, b, c])
    return _box_faces(lo, hi), _box_edges(lo, hi)


def _build_cylinder(size):
    r, h = size
    z0, z1 = -h / 2.0, h / 2.0
    faces = [
        _cylinder_side_face(r, z0, z1),
        _disk_face(z1, r),
        _disk_face(z0, r),
    ]
    curves = [
        EdgeCircle(np.array([0.0, 0.0, z1]), r, np.array([0.0, 0.0, 1.0])),
        EdgeCircle(np.array([0.0, 0.0, z0]), r, np.array([0.0, 0.0, 1.0])),
    ]
    return faces, curves


def _build_sphere(size):
    (r,) = size
    return [_sphere_surface_face(r)], []


def _extrude_polygon(verts2d: np.ndarray, height: float, top_triangles):
    """Prismatic solid from a simple polygon: top/bottom faces from the given
    triangulation, one rectangle per polygon edge, creases on every edge."""
    nv = verts2d.shape[0]
    bottom = np.column_stack([verts2d, np.zeros(nv)])
    top = np.column_stack([verts2d, np.full(nv, height)])
    faces, curves = [], []
    for tri in top_triangles:
        faces.append(_tri_face(bottom[tri[0]], bottom[tri[1]], bottom[tri[2]]))
        faces.append(_tri_face(top[tri[0]], top[tri[1]], top[tri[2]]))
    for i in range(nv):
        j = (i + 1) % nv
        side = _rect_face(bottom[i], bottom[j] - bottom[i], top[i] - bottom[i])
        faces.append(side)
        curves.append(_seg(bottom[i], bottom[j]))
        curves.append(_seg(top[i], top[j]))
        curves.append(_seg(bottom[i], top[i]))
    return faces, curves


def _build_prism(size):
    side, h = size
    verts = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3) / 2.0]])
    return _extrude_polygon(verts, h, [(0, 1, 2)])


def _build_l_bracket(size):
    a, b, t, h = size
    if t >= a or t >= b:
        raise InvalidInput("l_bracket thickness must be smaller than both leg lengths")
    verts = np.array([
        [0.0, 0.0], [a, 0.0], [a, t], [t, t], [t, b], [0.0, b],
    ])
    # Fan triangulation from the inner corner keeps every triangle inside the L.
    return _extrude_polygon(verts, h, [(3, 0, 1), (3, 1, 2), (3, 5, 0), (3, 4, 5)])


def _inside_strict(points: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return np.all((points > lo) & (points < hi), axis=1)


def _clip_edge_outside(edge: EdgeSegment, lo, hi):
    """Parts of an axis-aligned edge not strictly inside the box [lo, hi]."""
    d = edge.p1 - edge.p0
    axis = int(np.argmax(np.abs(d)))
    others = [o for o in range(3) if o != axis]
    inside_sides = all(lo[o] < edge.p0[o] < hi[o] for o in others)
    if not inside_sides:
        return [edge]
    t0, t1 = sorted((edge.p0[axis], edge.p1[axis]))
    cut0, cut1 = max(t0, lo[axis]), min(t1, hi[axis])
    if cut0 >= cut1:
        return [edge]
    pieces = []
    for lo_t, hi_t in ((t0, cut0), (cut1, t1)):
        if hi_t - lo_t > 1e-12:
            p0 = edge.p0.copy(); p1 = edge.p0.copy()
            p0[axis], p1[axis] = lo_t, hi_t
            pieces.append(EdgeSegment(p0, p1))
    return pieces


def _cross_creases(alo, ahi, blo, bhi):
    """Creases where a face plane of box A meets a perpendicular face of B."""
    segs = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            l = 3 - i - j
            lo_l = max(alo[l], blo[l])
            hi_l = min(ahi[l], bhi[l])
            if hi_l - lo_l <= 1e-12:
                continue
            for ca in (alo[i], ahi[i]):
                if not (blo[i] < ca < bhi[i]):
                    continue
                for cb in (blo[j], bhi[j]):
                    if not (alo[j] < cb < ahi[j]):
                        continue
                    p0 = np.empty(3); p1 = np.empty(3)
                    p0[i] = p1[i] = ca
                    p0[j] = p1[j] = cb
                    p0[l], p1[l] = lo_l, hi_l
                    segs.append(EdgeSegment(p0, p1))
    return segs


def _build_union_boxes(size):
    ax, ay, az, bx, by, bz, ox, oy, oz = size
    alo, ahi = np.zeros(3), np.array([ax, ay, az])
    blo = np.array([ox, oy, oz])
    bhi = blo + np.array([bx, by, bz])
    if np.any(np.maximum(alo, blo) >= np.minimum(ahi, bhi)):
        raise InvalidInput("union_boxes requires overlapping boxes")
    shared = (set(np.concatenate([alo, ahi]).tolist())
              & set(np.concatenate([blo, bhi]).tolist()))
    if shared:
        raise InvalidInput("union_boxes requires boxes with no coplanar face planes")

    faces = []
    for face in _box_faces(alo, ahi):
        face.keep = lambda pts, lo=blo, hi=bhi: ~_inside_strict(pts, lo, hi)
        faces.append(face)
    for face in _box_faces(blo, bhi):
        face.keep = lambda pts, lo=alo, hi=ahi: ~_inside_strict(pts, lo, hi)
        faces.append(face)

    curves = []
    for edge in _box_edges(alo, ahi):
        curves.extend(_clip_edge_outside(edge, blo, bhi))
    for edge in _box_edges(blo, bhi):
        curves.extend(_clip_edge_outside(edge, alo, ahi))
    curves.extend(_cross_creases(alo, ahi, blo, bhi))
    return faces, curves


# Each shape kind's builder, size -> (faces, curves), and its default size.
_SHAPES = {
    "box": (_build_box, (1.0, 1.0, 1.0)),
    "cylinder": (_build_cylinder, (0.5, 1.2)),
    "sphere": (_build_sphere, (0.6,)),
    "prism": (_build_prism, (1.0, 1.0)),
    "l_bracket": (_build_l_bracket, (1.0, 1.0, 0.4, 0.6)),
    "union_boxes": (_build_union_boxes, (1.0, 0.75, 0.55, 0.85, 0.6, 0.5, 0.45, 0.3, 0.18)),
}
SHAPE_KINDS = tuple(_SHAPES)


def generate(spec: ShapeSpec) -> SynthResult:
    """Sample a labeled cloud for the given shape.

    Each face is sampled with a count proportional to its area using a
    per-face child seed. Counts above MAX_POINTS in total raise InvalidInput
    before any face is sampled. Labels are edge iff the exact distance to the
    crease curves is below tau.
    """
    faces, curves = _SHAPES[spec.kind][0](spec.size)
    counts = [int(round(spec.density * face.area)) for face in faces]
    if sum(counts) > MAX_POINTS:
        raise InvalidInput(
            f"density {spec.density} asks for {sum(counts)} points, more than MAX_POINTS = {MAX_POINTS}"
        )
    points_parts, face_id_parts = [], []
    for face_id, (face, count) in enumerate(zip(faces, counts)):
        if count == 0:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, face_id]))
        pts = face.sample(rng, count)
        if face.keep is not None:
            pts = pts[face.keep(pts)]
        points_parts.append(pts)
        face_id_parts.append(np.full(pts.shape[0], face_id, dtype=np.int64))
    total = sum(p.shape[0] for p in points_parts)
    if total == 0:
        raise InvalidInput(f"density {spec.density} yields no points")
    points = np.concatenate(points_parts)
    face_ids = np.concatenate(face_id_parts)
    distances = distance_to_edge_curves(points, curves)
    labels = (distances < spec.band_width).astype(np.int64)
    return SynthResult(
        cloud=PointCloud(points, labels),
        face_ids=face_ids,
        edge_distances=distances,
        curves=curves,
    )


def write_metadata(result: SynthResult, path) -> None:
    """Sidecar CSV: per-point face id and exact distance to the creases."""
    write_rows(path, "index,face_id,edge_distance\n",
               [("%d", np.arange(len(result.face_ids))), ("%d", result.face_ids),
                ("%.9g", result.edge_distances)], sep=",")
