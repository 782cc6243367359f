"""Exact convex hulls and volumes in dimension <= 3.

Hulls are computed with exact orientation predicates (rational inputs stay
rational throughout).  Degenerate inputs are reported through
``LowerDimensional`` rather than an exception so callers can take the
affine-hull reduction branch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from . import scalars
from .linalg import Vector, affine_coordinates, cross3, matrix_rank
from .scalars import Scalar, div


@dataclass(frozen=True)
class LowerDimensional:
    """Flag returned when the input points span a proper affine subspace."""
    affine_dim: int


@dataclass(frozen=True)
class ConvexPolytope:
    """Full-dimensional polytope as hull vertices plus facets a.x <= c."""
    dim: int
    vertices: Tuple[Vector, ...]
    facets: Tuple[Tuple[Vector, Scalar], ...]


def _dedupe(points: Sequence[Vector]) -> List[Vector]:
    out: List[Vector] = []
    for p in points:
        if not any(p == q for q in out):
            out.append(p)
    return out


def hull(points: Sequence[Vector]) -> Union[ConvexPolytope, LowerDimensional]:
    """Convex hull of the points, exact in rational mode.

    Returns LowerDimensional(r) when the affine hull has dimension r < d.
    """
    pts = _dedupe(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    dim = pts[0].dim
    if dim > 3:
        raise ValueError("exact hulls are implemented for dimension <= 3")
    exact = scalars.is_exact(*(c for p in pts for c in p.coords))
    adim = (matrix_rank([(p - pts[0]).coords for p in pts[1:]]) if exact
            else len(affine_coordinates(pts)[1]))
    if adim < dim:
        return LowerDimensional(adim)
    if dim == 1:
        return _hull_1d(pts)
    if dim == 2:
        return _hull_2d(pts)
    return _hull_3d(pts)


def _hull_1d(pts: List[Vector]) -> ConvexPolytope:
    lo = min(pts, key=lambda p: p[0])
    hi = max(pts, key=lambda p: p[0])
    facets = ((Vector([1]), hi[0]), (Vector([-1]), -lo[0]))
    return ConvexPolytope(1, (lo, hi), facets)


def _orient2(o: Vector, a: Vector, b: Vector) -> int:
    return scalars.sign((a[0] - o[0]) * (b[1] - o[1])
                        - (a[1] - o[1]) * (b[0] - o[0]))


def _hull_2d(pts: List[Vector]) -> ConvexPolytope:
    spts = sorted(pts, key=lambda p: (p[0], p[1]))
    lower: List[Vector] = []
    for p in spts:
        while len(lower) >= 2 and _orient2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Vector] = []
    for p in reversed(spts):
        while len(upper) >= 2 and _orient2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    verts = lower[:-1] + upper[:-1]  # counterclockwise
    facets = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        e = w - v
        normal = Vector((e[1], -e[0]))  # outward for a CCW boundary
        facets.append((normal, normal.dot(v)))
    return ConvexPolytope(2, tuple(verts), tuple(facets))


def _canonical_plane(normal: Vector, offset: Scalar):
    for c in normal.coords:
        if not scalars.eq(c, 0):
            s = abs(c)
            key_n = tuple(div(v, s) for v in normal.coords)
            return key_n, div(offset, s)
    raise AssertionError("zero normal")


def _hull_3d(pts: List[Vector]) -> ConvexPolytope:
    n = len(pts)
    planes = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                normal = cross3(pts[j] - pts[i], pts[k] - pts[i])
                if normal.is_zero():
                    continue
                offset = normal.dot(pts[i])
                side_pos = side_neg = False
                for p in pts:
                    s = scalars.sign(normal.dot(p) - offset)
                    if s > 0:
                        side_pos = True
                    elif s < 0:
                        side_neg = True
                    if side_pos and side_neg:
                        break
                if side_pos and side_neg:
                    continue
                if side_pos:
                    normal, offset = -normal, -offset
                key_n, key_c = _canonical_plane(normal, offset)
                planes[(key_n, key_c)] = (Vector(key_n), key_c)
    facets = tuple(planes[k] for k in sorted(planes,
                                             key=lambda kc: (kc[0], kc[1])))
    verts = []
    for p in pts:
        incident = sum(1 for a, c in facets if scalars.eq(a.dot(p), c))
        if incident >= 3:
            verts.append(p)
    return ConvexPolytope(3, tuple(verts), facets)


def volume(poly: ConvexPolytope) -> Scalar:
    """Exact volume by fan triangulation from an interior point."""
    if isinstance(poly, LowerDimensional):
        raise ValueError("volume needs a full-dimensional polytope; the "
                         "input spans only an affine %d-flat" % poly.affine_dim)
    if poly.dim == 1:
        return poly.vertices[1][0] - poly.vertices[0][0]
    if poly.dim == 2:
        return _area_2d(poly.vertices)
    if poly.dim == 3:
        return _volume_3d(poly)
    raise ValueError("volumes are implemented for dimension <= 3")


def _area_2d(verts: Sequence[Vector]) -> Scalar:
    total: Scalar = 0
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        total = total + (v[0] * w[1] - w[0] * v[1])
    return abs(div(total, 2))


def _facet_vertices(poly: ConvexPolytope, normal: Vector, offset: Scalar):
    return [p for p in poly.vertices if scalars.eq(normal.dot(p), offset)]


def _order_facet(verts: List[Vector], normal: Vector) -> List[Vector]:
    """Order the vertices of a convex facet polygon around its centroid.

    A float angular sort does the work; the result is verified with exact
    triple products (consistent turning around the ring) and falls back to a
    fully exact comparator when the float ordering cannot be trusted.
    """
    center = verts[0]
    for v in verts[1:]:
        center = center + v
    center = center / len(verts)

    fc = center.as_floats()
    fn = normal.as_floats()
    ref = verts[0].as_floats()
    e1 = tuple(r - c for r, c in zip(ref, fc))
    e2 = (fn[1] * e1[2] - fn[2] * e1[1],
          fn[2] * e1[0] - fn[0] * e1[2],
          fn[0] * e1[1] - fn[1] * e1[0])

    def angle(p: Vector) -> float:
        d = tuple(a - c for a, c in zip(p.as_floats(), fc))
        return math.atan2(sum(a * b for a, b in zip(d, e2)),
                          sum(a * b for a, b in zip(d, e1)))

    ring = sorted(verts, key=angle)
    k = len(ring)
    turns = set()
    for idx in range(k):
        u = ring[idx] - center
        w = ring[(idx + 1) % k] - center
        turns.add(scalars.sign(cross3(u, w).dot(normal)))
    if 0 not in turns and len(turns) == 1:
        return ring
    return _order_facet_exact(verts, center, normal)


def _order_facet_exact(verts: List[Vector], center: Vector,
                       normal: Vector) -> List[Vector]:
    ref = verts[0] - center

    def half(u: Vector) -> int:
        s = scalars.sign(cross3(ref, u).dot(normal))
        if s != 0:
            return 0 if s > 0 else 1
        return 0 if scalars.sign(ref.dot(u)) > 0 else 1

    def cmp(p: Vector, q: Vector) -> int:
        u, w = p - center, q - center
        hu, hw = half(u), half(w)
        if hu != hw:
            return -1 if hu < hw else 1
        return -scalars.sign(cross3(u, w).dot(normal))
    return sorted(verts, key=functools.cmp_to_key(cmp))


def _volume_3d(poly: ConvexPolytope) -> Scalar:
    center = poly.vertices[0]
    for v in poly.vertices[1:]:
        center = center + v
    center = center / len(poly.vertices)
    total: Scalar = 0
    for normal, offset in poly.facets:
        ring = _order_facet(_facet_vertices(poly, normal, offset), normal)
        for i in range(1, len(ring) - 1):
            det = cross3(ring[i] - ring[0], ring[i + 1] - ring[0]) \
                .dot(center - ring[0])
            total = total + abs(det)
    return div(total, 6)
