"""Exact convex hulls and volumes in dimension <= 3.

Hulls are computed with exact orientation predicates.  Exact input is scaled
once to integer points P = q*p over one positive common denominator q; a
positive scale changes no sign, so the repeat, rank, orientation and plane
sign tests, the stored facet planes and the volume all run on integers.
Float input takes the same loops with ``scalars.TOLERANCE`` in place of
zero.  The hull is of a full-dimensional set: a set spanning a proper affine
subspace is a ``ValueError``; callers decide the affine dimension first.

Each incidence is decided once: a 3D facet is the set of points its plane's
sign test puts on the plane, and the volume reads the facet's vertices from
that incidence.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

from . import scalars
from .linalg import Vector, affine_rank
from .scalars import Scalar, div


@dataclass(frozen=True)
class ConvexPolytope:
    """Full-dimensional polytope as hull vertices plus facets a.x <= c; in
    dimension 3, incidence[f] lists the indices of the vertices on facet f."""
    dim: int
    vertices: Tuple[Vector, ...]
    facets: Tuple[Tuple[Vector, Scalar], ...]
    incidence: Tuple[Tuple[int, ...], ...] = field(default=(), compare=False,
                                                   repr=False)


def hull(points: Sequence[Vector]) -> ConvexPolytope:
    """Convex hull of full-dimensional points, exact in rational mode.

    Raises ValueError when the points' affine hull has dimension r < d; the
    guard is ``affine_rank`` of the integer rows the sign tests run on (of
    the points themselves for float input).  Points equal on those rows by
    ``scalars.eq``, the test of ``Vector.__eq__``, count once, the first
    kept.  A facet stores the outward integer normal of its sign test:
    (W_1 - V_1, V_0 - W_0) for a 2D edge from v to w, the cross product of
    the first triple that finds a 3D facet; its offset is normal.P/q over a
    point P on it, so the plane is the rational one times q (2D) or q^2
    (3D).  Float planes come from the same operations in the same order.
    A 3D hull's vertices are the points on at least three facets, in input
    order.
    """
    if not points:
        raise ValueError("hull of an empty point set")
    dim = points[0].dim
    if dim > 3:
        raise ValueError("exact hulls are implemented for dimension <= 3")
    rows = [p.coords for p in points]
    scaled = scalars.int_rows(rows)
    rows, q, tol = (rows, None, scalars.TOLERANCE) if scaled is None \
        else (*scaled, 0)
    keep: List[int] = []
    for m, row in enumerate(rows):
        if not any(all(map(scalars.eq, row, rows[t])) for t in keep):
            keep.append(m)
    pts = [points[m] for m in keep]
    rows = [rows[m] for m in keep]
    rank = affine_rank(rows)
    if rank < dim:
        raise ValueError("hull needs points spanning dimension %d, not an "
                         "affine %d-flat" % (dim, rank))
    if dim == 1:
        return _hull_1d(pts)
    if dim == 2:
        return _hull_2d(pts, rows, q, tol)
    return _hull_3d(pts, rows, q, tol)


def _plane(normal, row, q):
    """(normal, offset) of the plane through ``row``: over integer rows the
    offset is normal.row/q, over float rows the float sum ``Vector.dot``
    takes."""
    offset = scalars.dot(normal, row)
    return Vector(normal), offset if q is None else Fraction(offset, q)


def _hull_1d(pts: List[Vector]) -> ConvexPolytope:
    lo = min(pts, key=lambda p: p[0])
    hi = max(pts, key=lambda p: p[0])
    facets = ((Vector([1]), hi[0]), (Vector([-1]), -lo[0]))
    return ConvexPolytope(1, (lo, hi), facets)


def _monotone_chain(rows: Sequence[Sequence[Scalar]], tol) -> List[int]:
    """Indices of the hull vertices of planar points, counterclockwise; a
    turn counts as a left turn when its cross product exceeds tol."""
    def right_or_straight(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) \
            - (a[1] - o[1]) * (b[0] - o[0]) <= tol

    order = sorted(range(len(rows)), key=lambda m: (rows[m][0], rows[m][1]))
    chains = []
    for seq in (order, order[::-1]):
        chain: List[int] = []
        for m in seq:
            while len(chain) >= 2 and right_or_straight(
                    rows[chain[-2]], rows[chain[-1]], rows[m]):
                chain.pop()
            chain.append(m)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _hull_2d(pts: List[Vector], rows, q, tol) -> ConvexPolytope:
    ring = _monotone_chain(rows, tol)
    facets = []
    for s, t in zip(ring, ring[1:] + ring[:1]):
        v, w = rows[s], rows[t]
        # outward for a CCW boundary
        facets.append(_plane((w[1] - v[1], -(w[0] - v[0])), v, q))
    return ConvexPolytope(2, tuple(pts[m] for m in ring), tuple(facets))


def _hull_3d(pts: List[Vector], rows, q, tol) -> ConvexPolytope:
    """A float plane's sign test allows tol times max(1, the largest
    |normal entry| times the largest |coordinate|), the scale of its
    rounding."""
    reach = tol and max(abs(x) for row in rows for x in row)
    planes = {}
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        (x0, y0, z0), (x1, y1, z1), (x2, y2, z2) = rows[i], rows[j], rows[k]
        ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
        vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
        a, b, c = uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx
        size = max(abs(a), abs(b), abs(c))
        if size <= tol:
            continue
        off = a * x0 + b * y0 + c * z0
        vals = [a * x + b * y + c * z - off for x, y, z in rows]
        eps = tol * max(1, size * reach)
        above = max(vals) > eps
        if above and min(vals) < -eps:
            continue
        key = tuple(m for m, s in enumerate(vals) if -eps <= s <= eps)
        if key not in planes:
            normal, offset = _plane((a, b, c), rows[i], q)
            planes[key] = (-normal, -offset) if above else (normal, offset)
    hits = Counter(m for key in planes for m in key)
    index = {m: t for t, m in enumerate(m for m in range(len(pts))
                                        if hits[m] >= 3)}
    incidence = tuple(tuple(index[m] for m in key if m in index)
                      for key in planes)
    return ConvexPolytope(3, tuple(pts[m] for m in index),
                          tuple(planes.values()), incidence)


def volume(poly: ConvexPolytope) -> Scalar:
    """Exact volume of a full-dimensional hull.

    In dimension 3 it is the sum over facets F of the pyramids over F with
    apex m, the vertex centroid.  For exact vertices, scaled to integer points
    P over q with M their sum and nv their count, a pyramid is
    |S.(nv*P_0 - M)| / (6*nv*q^3), where S is the sum of P_t x P_{t+1} around
    the facet (in the order of the planar hull of its vertices projected along
    the integer normal's largest axis; a triangle in its incidence order, as
    either orientation gives the same absolute value) and P_0 any vertex of
    F; the sum is divided once.  Float vertices take the facet areas from
    that planar hull and sum (c - a.m) * area / (3*|a_k|), k that axis, so
    no square root is taken.
    """
    if poly.dim == 1:
        return poly.vertices[1][0] - poly.vertices[0][0]
    if poly.dim > 3:
        raise ValueError("volumes are implemented for dimension <= 3")
    scaled = scalars.int_rows([v.coords for v in poly.vertices])
    if scaled is None:
        return _float_volume(poly)
    rows, q = scaled
    if poly.dim == 2:
        return Fraction(abs(_shoelace(rows)), 2 * q * q)
    nv = len(rows)
    mx, my, mz = (sum(col) for col in zip(*rows))
    total = 0
    for (normal, _), face in zip(poly.facets, poly.incidence, strict=True):
        ring = [rows[m] for m in face]
        if len(ring) > 3:
            k = max(range(3), key=lambda i: abs(normal[i]))
            ring = [ring[t] for t in _monotone_chain(
                [r[:k] + r[k + 1:] for r in ring], 0)]
        sx = sy = sz = 0
        for (x1, y1, z1), (x2, y2, z2) in zip(ring, ring[1:] + ring[:1]):
            sx += y1 * z2 - z1 * y2
            sy += z1 * x2 - x1 * z2
            sz += x1 * y2 - y1 * x2
        x0, y0, z0 = ring[0]
        total += abs(sx * (nv * x0 - mx) + sy * (nv * y0 - my)
                     + sz * (nv * z0 - mz))
    return Fraction(total, 6 * nv * q ** 3)


def _shoelace(rows: Sequence[Sequence[Scalar]]) -> Scalar:
    """Twice the signed area of the polygon with these vertices in order."""
    total: Scalar = 0
    for i, v in enumerate(rows):
        w = rows[(i + 1) % len(rows)]
        total = total + (v[0] * w[1] - w[0] * v[1])
    return total


def _float_volume(poly: ConvexPolytope) -> Scalar:
    if poly.dim == 2:
        return abs(div(_shoelace(poly.vertices), 2))
    center = poly.vertices[0]
    for v in poly.vertices[1:]:
        center = center + v
    center = center / len(poly.vertices)
    tol = scalars.TOLERANCE
    total: Scalar = 0
    for (normal, offset), face in zip(poly.facets, poly.incidence,
                                         strict=True):
        k = max(range(3), key=lambda i: abs(normal[i]))
        flat = [tuple(poly.vertices[m][i] for i in range(3) if i != k)
                for m in face]
        area = abs(div(_shoelace([flat[t] for t in
                                  _monotone_chain(flat, tol)]), 2))
        total = total + div((offset - normal.dot(center)) * area,
                            abs(normal[k]))
    return div(total, 3)
