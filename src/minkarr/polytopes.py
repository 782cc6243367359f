"""Exact convex hulls and volumes in dimension <= 3.

Hulls are computed with exact orientation predicates (rational inputs stay
rational throughout).  Degenerate inputs are reported through
``LowerDimensional`` rather than an exception so callers can take the
affine-hull reduction branch.

Each incidence is decided once: a 3D facet is the set of points its plane's
sign test puts on the plane, and the volume takes each facet's area from the
planar hull of those points projected onto two coordinate axes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from . import scalars
from .linalg import Vector, affine_coordinates, cross3
from .scalars import Scalar, div


@dataclass(frozen=True)
class LowerDimensional:
    """Flag returned when the input points span a proper affine subspace,
    with the distinct points' coordinates in it (None if they coincide)."""
    affine_dim: int
    coords: Optional[List[Vector]] = field(default=None, compare=False)


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

    Returns LowerDimensional(r, coords) when ``affine_coordinates`` finds
    an affine hull of dimension r < d, in any dimension d.  A 3D facet keeps
    the outward (normal, offset) of the first point triple that finds it;
    the vertices are the points on at least three facets, in input order.
    """
    pts = _dedupe(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    dim = pts[0].dim
    coords, basis, _ = affine_coordinates(pts)
    if len(basis) < dim:
        return LowerDimensional(len(basis), coords)
    if dim > 3:
        raise ValueError("exact hulls are implemented for dimension <= 3")
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


def _monotone_chain(pts: Sequence[Vector]) -> List[Vector]:
    """Vertices of the hull of planar points, counterclockwise."""
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
    return lower[:-1] + upper[:-1]


def _hull_2d(pts: List[Vector]) -> ConvexPolytope:
    verts = _monotone_chain(pts)
    facets = []
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        e = w - v
        normal = Vector((e[1], -e[0]))  # outward for a CCW boundary
        facets.append((normal, normal.dot(v)))
    return ConvexPolytope(2, tuple(verts), tuple(facets))


def _hull_3d(pts: List[Vector]) -> ConvexPolytope:
    planes = {}
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        normal = cross3(pts[j] - pts[i], pts[k] - pts[i])
        if normal.is_zero():
            continue
        offset = normal.dot(pts[i])
        signs = [scalars.sign(normal.dot(p) - offset) for p in pts]
        if 1 in signs and -1 in signs:
            continue
        key = tuple(m for m, s in enumerate(signs) if s == 0)
        if key not in planes:
            planes[key] = (-normal, -offset) if 1 in signs else (normal, offset)
    verts = tuple(p for m, p in enumerate(pts)
                  if sum(m in key for key in planes) >= 3)
    return ConvexPolytope(3, verts, tuple(planes.values()))


def volume(poly: ConvexPolytope) -> Scalar:
    """Exact volume of a full-dimensional hull.

    In dimension 3 it is a third of the sum over facets a.x <= c of
    (c - a.m) * area(F) / |a|, m the vertex centroid.  Projected along the
    axis k of the largest |a_k|, a facet's vertices (a.p == c) have a planar
    hull of area area(F) * |a_k| / |a|, so no square root is taken.
    """
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


def _volume_3d(poly: ConvexPolytope) -> Scalar:
    center = poly.vertices[0]
    for v in poly.vertices[1:]:
        center = center + v
    center = center / len(poly.vertices)
    total: Scalar = 0
    for normal, offset in poly.facets:
        k = max(range(3), key=lambda i: abs(normal[i]))
        face = [Vector(p[i] for i in range(3) if i != k)
                for p in poly.vertices if scalars.eq(normal.dot(p), offset)]
        area = _area_2d(_monotone_chain(face))
        total = total + div((offset - normal.dot(center)) * area,
                            abs(normal[k]))
    return div(total, 3)
