"""Dual-route checks: every production computation with an independent
derivation gets compared against it on random rational instances."""

import collections
import functools
import itertools
import json
import math
import os
import operator
import random
from fractions import Fraction as F

import pytest

from minkarr import (Arrangement, BallBody, Homothet, SearchConfig,
                     VPolytopeBody, arrangement_from_json, arrangement_to_json,
                     body_from_json, build_frame, cube_arrangement,
                     distance_table, find_chain_violation,
                     find_intersection_violation, find_minkowski_violation,
                     greedy_chain, grid_set, l1_ball, linf_ball, ratio,
                     spectrum, search_arrangement, shadow, shadow_with_x,
                     slab_pair)
from minkarr.arrangement import (MIN_RATIO, WEIGHT_GRID, _SearchState,
                                 _feasible, _grid_fraction, _search)
from minkarr.instances import (corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement,
                               random_symmetric_hexagon)
from minkarr.kdistance import (ChainResult, DistanceSpectrum, PointSet,
                               _chain_bound)
from minkarr.lifting import (CoincidentCentersError, DegenerateWedgeError,
                             LiftedConfig, ProjectionFrame, ShadowData,
                             ShadowIntersectionError, SlabPair, _dot,
                             _facet_column, lift, slab_pairs,
                             verify_ratio_identity, verify_slab)
from minkarr.linalg import (Vector, _rref, affine_coordinates, affine_rank,
                            matrix_rank, zero_vector)
from minkarr import arrangement, lp, packing, scalars
from minkarr.bodies import HPolytopeBody, SymmetricBody, fraction_table
from minkarr.packing import (SlabFamily, certificate_to_json,
                             family_from_arrangement,
                             lifted_packing_pipeline, slab_packing_check)
from minkarr.polytopes import ConvexPolytope, hull, volume

from lp_oracle import gauge_lp, simplex_max


def as_floats(v: Vector) -> tuple:
    """The coordinates of v as floats, for approximate comparisons."""
    return tuple(float(c) for c in v.coords)


def extended(v: Vector, *extra) -> Vector:
    """v with the extra coordinates appended."""
    return Vector(v.coords + extra)


def cross3(a: Vector, b: Vector) -> Vector:
    """The cross product of two vectors of R^3, in their scalars."""
    return Vector((a[1] * b[2] - a[2] * b[1],
                   a[2] * b[0] - a[0] * b[2],
                   a[0] * b[1] - a[1] * b[0]))


def dedupe(points):
    """The points without repeats (``Vector.__eq__``), the first one kept."""
    out = []
    for p in points:
        if not any(p == q for q in out):
            out.append(p)
    return out


# ------------------------------------- formulas the program does not call --
# The argument's cross-ratio and trapezoid rule and the chain bound in
# floats: the tests check the construction against them.

def cross_ratio(x1, x2, x3, x4):
    """Cross-ratio (x1-x3)/(x2-x3) : (x1-x4)/(x2-x4) of collinear coordinates.

    One argument may be the point at infinity (math.inf); the two distances
    involving it are dropped from the formula.
    """
    args = [x1, x2, x3, x4]
    infinite = [k for k, v in enumerate(args)
                if isinstance(v, float) and math.isinf(v)]
    if len(infinite) > 1:
        raise ValueError("at most one point may be at infinity")
    if not infinite:
        num = (x1 - x3) * (x2 - x4)
        den = (x2 - x3) * (x1 - x4)
    else:
        which = infinite[0]
        if which == 0:
            num, den = (x2 - x4), (x2 - x3)
        elif which == 1:
            num, den = (x1 - x3), (x1 - x4)
        elif which == 2:
            num, den = (x2 - x4), (x1 - x4)
        else:
            num, den = (x1 - x3), (x2 - x3)
    if scalars.sign(den) == 0:
        raise ZeroDivisionError("indeterminate cross-ratio (0/0 or x/0)")
    return scalars.div(num, den)


def trapezoid_combine(theta1, theta2, a1, a3, b1, b3):
    """Predicted middle difference for points constrained by
    theta1*(p1 - p2) = theta2*(p2 - p3) on both rails:
    b2 - a2 = theta1/(theta1+theta2)*(b1-a1) + theta2/(theta1+theta2)*(b3-a3).
    """
    total = theta1 + theta2
    if scalars.sign(total) == 0:
        raise ValueError("theta1 + theta2 must be nonzero")
    return (b1 - a1) * scalars.div(theta1, total) \
        + (b3 - a3) * scalars.div(theta2, total)


def chain_cardinality_bound(dim):
    """The chain cardinality bound in floats: math.inf at d = 2, where it
    is genuinely infinite, never a NaN or an exception."""
    return float(_chain_bound(dim, 60))


def cross_ratio_route(lam_i, lam_j, alpha_j, x):
    """Width ratio through the projective route inside the projection plane.

    The raised-center line meets the two wedge lines through the common
    point (slopes -1 and +1 in (t, s) coordinates); dropping those meeting
    points to the axis and combining two cross-ratios with the axis
    intersection point reproduces the width ratio.  Degenerate incidences
    (parallel lines) return None and are skipped by the caller.
    """
    lam_d = lam_j - lam_i
    den_i = alpha_j + lam_j - lam_i
    den_j = alpha_j - lam_j + lam_i
    if den_i == 0 or den_j == 0:
        return None
    w_i = F(x - lam_i, 1) / den_i * alpha_j
    w_j = F(x + lam_i, 1) / den_j * alpha_j
    c_t = math.inf if lam_d == 0 else F(-lam_i, 1) / lam_d * alpha_j
    try:
        cr1 = cross_ratio(w_i, F(0), w_j, c_t)
        cr2 = cross_ratio(w_j, alpha_j, F(0), c_t)
    except (ZeroDivisionError, ValueError):
        return None
    return abs(cr1 * cr2)


def test_width_ratio_against_cross_ratio_route():
    rng = random.Random(99)
    agree = 0
    for t in range(120):
        arr = random_intersecting_arrangement(rng, body=corpus_body(rng, t))
        n = len(arr)
        for i in range(n):
            for j in range(i + 1, n):
                fr = build_frame(arr, i, j)
                sd0 = shadow(arr, fr)
                for _ in range(3):
                    x = sd0.inter_lo + (sd0.inter_hi - sd0.inter_lo) \
                        * F(rng.randint(0, 16), 16)
                    sd = shadow_with_x(sd0, x)
                    li = arr.members[i].ratio
                    lj = arr.members[j].ratio
                    rho = ratio(li, lj, sd.u_i, sd.u_j)
                    if isinstance(rho, float) and math.isinf(rho):
                        continue
                    oracle = cross_ratio_route(li, lj, sd.alphas[j],
                                               sd.x_coord)
                    if oracle is None:
                        continue
                    assert oracle == abs(rho)
                    agree += 1
    assert agree > 1500


def nullspace(rows, ncols):
    """Basis of {x : R x = 0} for the row list R."""
    work = [[F(v) if isinstance(v, int) else v for v in row] for row in rows]
    pivots = _rref(work, ncols)
    basis = []
    for free_col in range(ncols):
        if free_col in pivots:
            continue
        vec = [F(0)] * ncols
        vec[free_col] = F(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -work[prow][free_col]
        basis.append(Vector(vec))
    return basis


def hyperplane_directions(normal):
    """A basis of {w : normal . w = 0}, built from coordinate directions."""
    pivot = next(k for k, a in enumerate(normal.coords) if a != 0)
    dirs = []
    for k in range(normal.dim):
        if k == pivot:
            continue
        coords = [F(0)] * normal.dim
        coords[k] = F(1)
        coords[pivot] = -F(normal[k]) / normal[pivot]
        dirs.append(Vector(coords))
    return dirs


def test_rank_and_nullspace():
    rows = [(1, 0, 1), (0, 1, 1)]
    assert matrix_rank(rows) == 2
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert Vector(row).dot(v) == 0


def test_hyperplane_directions_orthogonal():
    n = Vector((F(1, 2), -2, 3))
    dirs = hyperplane_directions(n)
    assert len(dirs) == 2
    for d in dirs:
        assert n.dot(d) == 0
    assert matrix_rank([d.coords for d in dirs]) == 2


def nullspace_slab(arr, frame, sd):
    """Slab planes by generic elimination in R^{d+2}, independent of the
    closed form.  Each wedge plane's linear span with the origin is spanned by
    the supporting hyperplane's directions (lifted with zero extra
    coordinates), the tilted line direction of its side and the common point
    x embedded at (x, 0, 1); its normal is a nullspace vector, and its cut
    with the flat {x_{d+1} = 1} is a hyperplane of the lifted coordinates.

    Returns the shared normal and the offsets (outer plane of the i side,
    outer plane of the j side, inner plane through y_i, inner plane through
    y_j), all at the normal's elimination scale and orientation.
    """
    d = arr.dim
    vi = arr.members[frame.i].center
    x_emb = extended(vi + frame.r_vec * sd.x_coord, 0, 1)
    rows = [extended(w, 0, 0).coords
            for w in hyperplane_directions(frame.f_normal)]

    def plane(line_dir):
        basis = nullspace(rows + [line_dir.coords, x_emb.coords], d + 2)
        assert len(basis) == 1, "wedge plane is not a hyperplane"
        n_full = basis[0]
        # N = (n, n_{d+1}, n_{d+2}) cuts {x_{d+1} = 1} in the hyperplane
        # (n, n_{d+2}) . y = -n_{d+1}
        return Vector(n_full.coords[:d] + (n_full.coords[d + 1],)), \
            -n_full.coords[d]

    normal, off_i = plane(extended(-frame.r_vec, 1, 0))
    normal_j, off_j = plane(extended(frame.r_vec, 1, 0))
    scale = next(v / u for u, v in zip(normal.coords, normal_j.coords)
                 if u != 0)
    assert normal_j == normal * scale, "wedge planes are not parallel"

    def lifted(k):
        h = arr.members[k]
        return Vector(tuple(F(c) / h.ratio for c in h.center.coords)
                      + (1 / F(h.ratio),))

    return normal, (off_i, off_j / scale, normal.dot(lifted(frame.i)),
                    normal.dot(lifted(frame.j)))


def assert_same_planes(slab, normal, offsets):
    """Production slab equals the oracle's planes up to one common nonzero
    scale (sign included): the normal and all four offsets."""
    scale = next(v / u for u, v in zip(normal.coords, slab.normal.coords)
                 if u != 0)
    assert scale != 0
    assert slab.normal == normal * scale
    assert (slab.c_k_ij, slab.c_k_ji, slab.c_g_ij, slab.c_g_ji) == \
        tuple(o * scale for o in offsets)


def test_slab_planes_against_closed_form():
    rng = random.Random(123)
    for t in range(60):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t))
        n = len(arr)
        for i in range(n):
            for j in range(i + 1, n):
                frame = build_frame(arr, i, j)
                sd = shadow(arr, frame)
                assert_same_planes(slab_pair(arr, frame, sd),
                                   *nullspace_slab(arr, frame, sd))


def test_slab_planes_inverted_wedge():
    # member 1 covers member 0's center; at x = -1 the width ratio's
    # denominator is negative, so the closed form's orientation is flipped
    arr = Arrangement(linf_ball(1), (Homothet(Vector((F(0),)), F(1)),
                                     Homothet(Vector((F(1),)), F(3))))
    frame = build_frame(arr, 0, 1)
    sd = shadow_with_x(shadow(arr, frame), F(-1))
    assert ratio(F(1), F(3), sd.u_i, sd.u_j) < 0
    slab = slab_pair(arr, frame, sd)
    assert slab.c_g_ij < slab.c_g_ji
    assert_same_planes(slab, *nullspace_slab(arr, frame, sd))


def facet_vertices(poly: ConvexPolytope, normal: Vector, offset):
    return [p for p in poly.vertices if scalars.eq(normal.dot(p), offset)]


def order_facet(verts, normal):
    """Order the vertices of a convex facet polygon around its centroid.

    A float angular sort does the work; the result is verified with exact
    triple products (consistent turning around the ring) and falls back to a
    fully exact comparator when the float ordering cannot be trusted.
    """
    center = verts[0]
    for v in verts[1:]:
        center = center + v
    center = center / len(verts)

    fc = as_floats(center)
    fn = as_floats(normal)
    ref = as_floats(verts[0])
    e1 = tuple(r - c for r, c in zip(ref, fc))
    e2 = (fn[1] * e1[2] - fn[2] * e1[1],
          fn[2] * e1[0] - fn[0] * e1[2],
          fn[0] * e1[1] - fn[1] * e1[0])

    def angle(p):
        d = tuple(a - c for a, c in zip(as_floats(p), fc))
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
    return order_facet_exact(verts, center, normal)


def order_facet_exact(verts, center, normal):
    ref = verts[0] - center

    def half(u):
        s = scalars.sign(cross3(ref, u).dot(normal))
        if s != 0:
            return 0 if s > 0 else 1
        return 0 if scalars.sign(ref.dot(u)) > 0 else 1

    def cmp(p, q):
        u, w = p - center, q - center
        hu, hw = half(u), half(w)
        if hu != hw:
            return -1 if hu < hw else 1
        return -scalars.sign(cross3(u, w).dot(normal))
    return sorted(verts, key=functools.cmp_to_key(cmp))


def origin_fan_volume(poly: ConvexPolytope):
    """Signed origin-based tetrahedron sum over facet fans, each facet's
    vertices ordered by angle; independent of the projected facet areas
    used by the production volume."""
    total = F(0)
    for normal, offset in poly.facets:
        ring = order_facet(facet_vertices(poly, normal, offset), normal)
        for idx in range(1, len(ring) - 1):
            q0, q1, q2 = ring[0], ring[idx], ring[idx + 1]
            det = cross3(q1 - q0, q2 - q0).dot(-q0)
            total += F(det)
    return abs(total) / 6


def canonical_plane(normal, offset):
    for c in normal.coords:
        if not scalars.eq(c, 0):
            s = abs(c)
            key_n = tuple(scalars.div(v, s) for v in normal.coords)
            return key_n, scalars.div(offset, s)
    raise AssertionError("zero normal")


def canonical_hull_3d(pts) -> ConvexPolytope:
    """3D hull with facets deduplicated by their planes scaled to a first
    nonzero entry of +-1, and vertices found by a second incidence pass over
    those planes."""
    n = len(pts)
    planes = {}
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                normal = cross3(pts[j] - pts[i], pts[k] - pts[i])
                if normal.is_zero():
                    continue
                offset = normal.dot(pts[i])
                signs = {scalars.sign(normal.dot(p) - offset) for p in pts}
                if {1, -1} <= signs:
                    continue
                if 1 in signs:
                    normal, offset = -normal, -offset
                key_n, key_c = canonical_plane(normal, offset)
                planes[(key_n, key_c)] = (Vector(key_n), key_c)
    facets = tuple(planes[k] for k in sorted(planes))
    verts = [p for p in pts
             if sum(1 for a, c in facets if scalars.eq(a.dot(p), c)) >= 3]
    return ConvexPolytope(3, tuple(verts), facets)


def solve_in_span(basis, target):
    """Coefficients c with sum(c_i * basis_i) == target, or None if outside
    the span.  The basis need not be independent; any valid witness is fine."""
    if not basis:
        return [] if target.is_zero() else None
    m = len(basis)
    rows = [[b[r] for b in basis] + [target[r]]
            for r in range(target.dim)]
    pivots = _rref(rows, m)
    for row in rows:
        if all(scalars.eq(x, 0) for x in row[:m]) and not scalars.eq(row[m], 0):
            return None
    coeffs = [F(0)] * m
    for prow, pcol in enumerate(pivots):
        coeffs[pcol] = rows[prow][m]
    return coeffs


def greedy_affine_coordinates(points):
    """affine_coordinates by greedy span tests: each difference joins the
    basis when it is outside the span of the ones before it, and every
    point's coordinates come from one more span solve."""
    origin = points[0]
    basis = []
    for p in points[1:]:
        d = p - origin
        if not d.is_zero() and solve_in_span(basis, d) is None:
            basis.append(d)
    if not basis:
        return None, [], origin
    return [Vector(solve_in_span(basis, p - origin)) for p in points], \
        basis, origin


def test_solve_in_span():
    basis = [Vector((1, 0, 0)), Vector((1, 1, 0))]
    coeffs = solve_in_span(basis, Vector((3, 2, 0)))
    assert coeffs == [1, 2]
    assert solve_in_span(basis, Vector((0, 0, 1))) is None


def test_volume_against_origin_fan():
    rng = random.Random(321)
    for _ in range(25):
        pts = [Vector((F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2),
                       F(rng.randint(-8, 8), 2))) for _ in range(rng.randint(4, 9))]
        h = hull(pts)
        if not isinstance(h, ConvexPolytope):
            continue
        assert volume(h) == origin_fan_volume(h)


def contains(poly: ConvexPolytope, p: Vector) -> bool:
    return all(scalars.le(a.dot(p), c) for a, c in poly.facets)


def shrink(poly: ConvexPolytope, x: Vector, lam) -> ConvexPolytope:
    """The homothetic copy x + (P - x)/(1 + lam), kept in facet+vertex form.

    Requires lam >= 1 (the packing hypothesis) and x in P; containment of the
    copy in P is re-verified on the way out.
    """
    if scalars.lt(lam, 1):
        raise ValueError("shrink needs lam >= 1")
    if not contains(poly, x):
        raise ValueError("homothety center lies outside the polytope")
    rho = scalars.div(1, 1 + lam)
    verts = tuple(x + (v - x) * rho for v in poly.vertices)
    facets = tuple((a, rho * c + (1 - rho) * a.dot(x)) for a, c in poly.facets)
    copy = poly._replace(vertices=verts, facets=facets)
    for v in copy.vertices:
        if not contains(poly, v):
            raise AssertionError("shrunken copy escaped the hull")
    return copy


def interiors_disjoint(p1: ConvexPolytope, p2: ConvexPolytope) -> bool:
    """Exact separation test: do the two polytopes share no interior point?

    Maximizes the common slack t over points satisfying every facet of both
    with margin t; the interiors intersect exactly when the optimum is
    positive.  Homothetic copies share facet normals, in which case the two
    constraint sets collapse into one with componentwise-minimal offsets.
    """
    same_normals = len(p1.facets) == len(p2.facets) and \
        all(a1 is a2 for (a1, _), (a2, _) in zip(p1.facets, p2.facets))
    if same_normals:
        normals = [a for a, _ in p1.facets]
        offs = [c1 if scalars.le(c1, c2) else c2
                for (_, c1), (_, c2) in zip(p1.facets, p2.facets)]
    else:
        normals = [a for a, _ in p1.facets] + [a for a, _ in p2.facets]
        offs = [c for _, c in p1.facets] + [c for _, c in p2.facets]
    return not open_hpoly_nonempty(normals, offs, p1.vertices)


def open_hpoly_nonempty(normals, offs, hint_points) -> bool:
    """Is {z : a.z < c for all rows} nonempty?  Margin LP, exact."""
    x0 = hint_points[0]
    for v in hint_points[1:]:
        x0 = x0 + v
    x0 = x0 / len(hint_points)
    slacks = [c - a.dot(x0) for a, c in zip(normals, offs)]
    t0 = min(slacks)
    # shift to (x0, t0) so the simplex can start at the origin
    n = x0.dim
    lp_rows = [list(a.coords) + [1] for a in normals]
    lp_rhs = [s - t0 for s in slacks]
    obj = [0] * n + [1]
    value, _ = simplex_max(obj, lp_rows, lp_rhs)
    return scalars.gt(t0 + value, 0)


def V(*coords):
    return Vector([F(c) for c in coords])


def square(a, b):
    """Axis box [a,b]^2 as a hull."""
    return hull([V(a, a), V(a, b), V(b, a), V(b, b)])


def test_shrink_examples():
    h = square(0, 2)
    copy = shrink(h, V(0, 0), F(1))
    assert volume(copy) == 1  # [0,1]^2
    assert all(contains(h, v) for v in copy.vertices)
    assert any(v == V(0, 0) for v in copy.vertices)  # shares the center vertex
    assert volume(copy) == volume(h) / (1 + 1) ** 2


def test_shrink_validates_inputs():
    h = square(0, 1)
    with pytest.raises(ValueError):
        shrink(h, V(5, 5), F(1))
    with pytest.raises(ValueError):
        shrink(h, V(0, 0), F(1, 2))


def test_interiors_disjoint_examples():
    a = square(0, 1)
    b = square(1, 2)
    assert interiors_disjoint(a, b)       # shared edge only
    c = square(0, 2)
    d = hull([V(1, 1), V(1, 3), V(3, 1), V(3, 3)])
    assert not interiors_disjoint(c, d)


def test_interiors_disjoint_3d():
    a = hull([V(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    b = hull([V(x, y, z) for x in (1, 2) for y in (0, 1) for z in (0, 1)])
    assert interiors_disjoint(a, b)
    c = hull([V(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    d = shrink(c, V(1, 1, 1), F(1))
    assert not interiors_disjoint(c, d)


def test_slab_ratio_against_shadow_ratio_route():
    """Every certificate pair ratio, read from the slab planes and the
    lifted points, equals |ratio(lam_i, lam_j, u_i, u_j)| from the pair's
    shadow: the width-ratio formula is the independent route."""
    rng = random.Random(101)
    arrangements = [cube_arrangement(2)]
    for t in range(12):
        arrangements.append(random_minkowski_arrangement(
            rng, body=corpus_body(rng, t), full_lift=True))
    for arr in arrangements:
        cert = lifted_packing_pipeline(arr)
        assert cert.verdict, cert.failed_stage
        n = len(arr.members)
        assert len(cert.pair_ratios) == n * (n - 1) // 2
        for i, j, rho in cert.pair_ratios:
            sd = shadow(arr, build_frame(arr, i, j))
            shadow_rho = ratio(arr.members[i].ratio, arr.members[j].ratio,
                               sd.u_i, sd.u_j)
            assert type(rho) is F
            assert rho == abs(shadow_rho), (i, j)


def test_slab_witness_against_lp_and_copy_volumes():
    """The slab_ratio stage accepts a pair when its slab planes separate the
    pair's copies, and every copy volume is taken as vol(P)/27; the shrunken
    copies, their exact volumes and the LP separation test are the
    independent route."""
    rng = random.Random(101)
    for t in range(12):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t),
                                           full_lift=True)
        family = family_from_arrangement(arr)
        body_hull = hull(family.points)
        hull_volume = volume(body_hull)
        copies = [shrink(body_hull, y, 2) for y in family.points]
        for c in copies:
            assert volume(c) == hull_volume / 27
        accepted = 0
        for i, j, k in family.pairs:
            slab = family.slabs[k]
            normal = Vector(slab.normal)
            gap = normal.dot(family.points[j]) - normal.dot(family.points[i])
            if slab.hi - slab.lo <= 2 * abs(gap):
                accepted += 1
                assert interiors_disjoint(copies[i], copies[j])
        n = len(family.points)
        assert accepted == n * (n - 1) // 2
        cert = lifted_packing_pipeline(arr)
        detail = [s.detail for s in cert.stages if s.name == "slab_ratio"]
        assert detail == ["%d pairs within ratio 2" % accepted]


def loop_gauge(body, x):
    """The facet loop: max(0, max_a a.x), the int 0 when no facet is
    positive."""
    top = max(a.dot(x) for a in body.facets)
    return top if top > 0 else 0


def test_integer_gauge_kernel_against_facet_loop():
    rng = random.Random(404)
    bodies = [linf_ball(2), l1_ball(2), linf_ball(3), l1_ball(3)]
    for _ in range(6):
        hexa = random_symmetric_hexagon(rng)
        bodies.append(hexa)
    assert any(body._den > 1 for body in bodies), "no non-integer facets"
    for body in bodies:
        d = body.dim
        vectors = [zero_vector(d)]
        for _ in range(40):
            vectors.append(Vector(rng.randint(-9, 9) for _ in range(d)))
            vectors.append(Vector(F(rng.randint(-30, 30), rng.randint(1, 12))
                                  for _ in range(d)))
            vectors.append(Vector([rng.randint(-5, 5)] + [
                F(rng.randint(-30, 30), rng.choice((3, 7, 16)))
                for _ in range(d - 1)]))
        for x in vectors + [-v for v in vectors]:
            got, want = body.gauge(x), loop_gauge(body, x)
            assert got == want and type(got) is type(want), (body, x)
    assert type(linf_ball(2).gauge(zero_vector(2))) is int


def facet_rows(body):
    """The integer rows of an exact polytope body's facets over their
    common denominator D: (rows, D)."""
    return scalars.int_rows([a.coords for a in body.facets])


def int_gauge(body, p):
    """The all-rows integer gauge of an exact polytope body: (top, D) with
    top = max(0, max_k rows_k.p) over every facet row, gauge(p) = top/D.
    The package reads the half rows' projections instead."""
    rows, den = facet_rows(body)
    return max(max(sum(map(operator.mul, row, p)) for row in rows), 0), den


def test_int_gauge_is_the_gauge():
    rng = random.Random(2020)
    # on radii 1 every integer vector has an integer l1 gauge
    bodies = [linf_ball(2), l1_ball(2), random_symmetric_hexagon(rng),
              cross_polytope_4(), cross_polytope_4((1, 2, 3, 2))]
    dens = set()
    for body in bodies:
        vectors = [[0] * body.dim] + [
            [rng.randint(-12, 12) for _ in range(body.dim)] for _ in range(30)]
        for p in vectors:
            top, den = int_gauge(body, p)
            assert type(top) is int and type(den) is int and den > 0
            assert F(top, den) == body.gauge(Vector(p)), (body, p)
            dens.add(den)
    assert len(dens) > 2


def _feasible_ratio(body, members, center, rng):
    """A ratio making the new member intersect everyone without breaking the
    arrangement condition, with the gauges gauge(c - v_j) it computed, or
    None when the center admits no such ratio.

    Bounds: lam >= gauge(c - v_j) - lam_j for intersection, lam <= gauge for
    keeping v_j outside the interior, and the center itself must not lie in
    any existing interior.  They are every comparison the predicates make on
    the pairs holding the new member, so the ratio decides the insertion.
    The ratio is low + (high - low)*k/8 for a drawn weight k in 0..8.
    """
    low = MIN_RATIO
    high = None
    gauges = []
    for h in members:
        g = body.gauge(center - h.center)
        gauges.append(g)
        if g < h.ratio:  # center already interior to an existing member
            return None
        low = max(low, g - h.ratio)
        high = g if high is None else min(high, g)
    if high is None or low > high:
        return None
    weight = _grid_fraction(rng, 0, 1, WEIGHT_GRID)
    return low + (high - low) * F(weight, WEIGHT_GRID), gauges


class FullPass:
    """Search state that decides every rescaling by the full predicate pass
    over the candidate member list, takes the insertion ``_feasible_ratio``
    draws on scalar gauges of the Fraction centers and asserts that the
    full pass accepts it, and reads the box from the members' Fractions.
    It keeps no gauges, so a drop only counts."""

    def __init__(self, body, members):
        self.body = body
        self.members = members  # the loop's list
        self.drops = 0

    @property
    def box(self):
        max_ratio = max(float(h.ratio) for h in self.members)
        dim = self.body.dim
        return ([min(float(h.center[i]) for h in self.members) - 2 * max_ratio
                 for i in range(dim)],
                [max(float(h.center[i]) for h in self.members) + 2 * max_ratio
                 for i in range(dim)])

    def insert(self, grid, rng):
        center = Vector([F(k, 4) for k in grid])
        found = _feasible_ratio(self.body, self.members, center, rng)
        if found is None:
            return None
        member = Homothet(center, found[0])
        assert _feasible(self.body, self.members + [member])
        return member

    def rescale(self, idx, step):
        ratio = self.members[idx].ratio * step
        candidate = list(self.members)
        candidate[idx] = Homothet(self.members[idx].center, ratio)
        return ratio if _feasible(self.body, candidate) else None

    def drop(self, k):
        self.drops += 1


def full_pass_search(body, dim, config, warm_start=None):
    """The search loop run with FullPass: the same moves and rng stream.
    Returns the result and the number of drops."""
    states = []

    def make_state(body, members):
        states.append(FullPass(body, members))
        return states[0]
    arr = _search(body, dim, config, warm_start, make_state)
    return arr, states[0].drops


def cross_polytope_4(radii=(1, 1, 1, 1)):
    """The 4-D cross-polytope with vertices +-radii[i]*e_i, given by its
    vertices: its facets are the vertices of the polar."""
    return VPolytopeBody(4, [Vector(s * r if k == i else 0 for k in range(4))
                             for i, r in enumerate(radii) for s in (1, -1)])


def fraction_basis_inverse(table, n, jordan):
    """The polar basis inverse by the Fraction route ``lp.polar_facets``
    took before its integer Gauss-Jordan: ``_rref`` of [R^T | I], then the
    inverse scaled back to integer rows by ``int_rows``; it writes those
    rows into the table's identity columns and returns (basis, scale), as
    ``linalg._int_eliminate`` does."""
    assert jordan
    basis = _rref(table, n)
    inverse, scale = scalars.int_rows([line[n:] for line in table])
    table[:] = [line[:n] + list(row) for line, row in zip(table, inverse)]
    return basis, scale


def symmetric_vertex_sets(rng, dim, count):
    """Seeded spanning vertex sets closed under negation: random rational
    points with their negations, half of them interleaved (so that the
    first columns of R^T are dependent and the basis skips some), and
    repeats and non-extreme points among them."""
    sets = []
    while len(sets) < count:
        pts = [Vector(F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                      for _ in range(dim)) for _ in range(dim + 2)]
        pts += [pts[0] * F(1, 2), pts[1]]
        if affine_rank(pts + [-p for p in pts]) < dim:
            continue
        if len(sets) % 2:
            sets.append([v for p in pts for v in (p, -p)])
        else:
            sets.append(pts + [-p for p in pts])
    return sets


def test_polar_basis_inverse_against_the_fraction_route(monkeypatch):
    """The facets of the integer Gauss-Jordan and of the Fraction route:
    the same normals, in order and by type, and the same (rows, lcd), on
    seeded hexagons, the 4-D cross-polytope and seeded d = 3 and d = 4
    symmetric vertex sets."""
    rng = random.Random(2929)
    cases = [list(random_symmetric_hexagon(rng).vertices) for _ in range(30)]
    cases.append(list(cross_polytope_4().vertices))
    cases.append(list(cross_polytope_4((1, F(2, 3), 3, F(1, 5))).vertices))
    cases += symmetric_vertex_sets(rng, 3, 12)
    cases += symmetric_vertex_sets(rng, 4, 6)
    seen = collections.Counter()
    for vertices in cases:
        form = scalars.int_rows([v.coords for v in vertices])
        got = lp.polar_facets(*form)
        with monkeypatch.context() as m:
            m.setattr(lp, "_int_eliminate", fraction_basis_inverse)
            want = lp.polar_facets(*form)
        assert typed(got[0]) == typed(want[0])
        assert got[1] == want[1]
        seen[len(vertices[0])] += 1
    assert seen == {2: 30, 3: 12, 4: 8}


class SkewGauge(SymmetricBody):
    """Test double: the gauge of the square [-1, 1/2]^2, so gauge(x) and
    gauge(-x) differ and every orientation the search reads is visible."""

    dim = 2

    def gauge(self, x):
        return max(max(2 * c, -c) for c in x.coords)

    def to_json(self):
        return {"dim": 2, "type": "skew"}


def float_facet_body():
    """A skewed parallelogram whose canonical facets are floats."""
    return body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1.0, 0.25], "offset": 1.5},
        {"normal": [-1.0, -0.25], "offset": 1.5},
        {"normal": [0.1, 1.0], "offset": 1.0},
        {"normal": [-0.1, -1.0], "offset": 1.0}]})


def thirds_warm_start():
    """Centers over 3 and non-unit ratios on the square, so the search's
    integer rows are over q = 12."""
    return Arrangement(linf_ball(2), (
        Homothet(Vector((0, 0)), F(3, 2)),
        Homothet(Vector((F(5, 3), F(1, 3))), F(5, 4)),
        Homothet(Vector((F(1, 3), F(5, 3))), F(5, 4))))


def loop_insertion(state, grid, rng):
    """The ratio of the member at the center grid/4 on the exact route,
    or None, by the member-by-member loop the search took before its caps:
    the center's distance (t, e) to each member (a, b) from one projection,
    refused when t*b < a*e, the running max low of ``MIN_RATIO`` and
    (t*b - a*e)/(e*b), high the least t/e, refused when low > high, and
    the weight drawn only after every member passed.  It reads the state
    and changes nothing in it."""
    pc, den = state.body.int_projections([k * state.unit for k in grid])
    e = den * state.q
    ln, ld = MIN_RATIO.numerator, MIN_RATIO.denominator
    hn, hd = None, 1
    for p, (a, b) in zip(state.proj, state.lam):
        t = max(abs(x - y) for x, y in zip(pc, p))
        if t * b < a * e:
            return None
        n, d = t * b - a * e, e * b
        if n * ld > ln * d:
            ln, ld = n, d
        if hn is None or t * hd < hn * e:
            hn, hd = t, e
    if ln * hd > hn * ld:
        return None
    weight = _grid_fraction(rng, 0, 1, WEIGHT_GRID)
    return F(ln * hd * (WEIGHT_GRID - weight) + hn * ld * weight,
             ld * hd * WEIGHT_GRID)


def scalar_loop_insertion(state, grid, rng):
    """The ratio of the member at the center grid/4 on the scalar route,
    or None, by the member-by-member loop the search took before it kept
    caps on that route: the center's gauge distance (t, 1) to each member
    (lam, 1), refused at the first member with t*1 < lam*1, the running
    max low of ``MIN_RATIO`` and (t - lam)/1, high the least t, refused
    when low > high, the weight drawn only after every member passed, and
    the ratio low + (high - low)*k/8 in the scalars, refused when it or a
    distance is beyond the float range.  It reads the state and changes
    nothing in it."""
    center = [k * state.unit for k in grid]
    ln, ld = MIN_RATIO.numerator, MIN_RATIO.denominator
    hn, hd = None, 1
    ts = []
    for p, (a, b) in zip(state.proj, state.lam):
        t, e = state.body.gauge(Vector([c - v for c, v in zip(center, p)])), 1
        if t * b < a * e:
            return None
        ts.append(t)
        n, d = t * b - a * e, e * b
        if n * ld > ln * d:
            ln, ld = n, d
        if hn is None or t * hd < hn * e:
            hn, hd = t, e
    if ln * hd > hn * ld:
        return None
    weight = _grid_fraction(rng, 0, 1, WEIGHT_GRID)
    low = scalars.div(ln, ld)
    ratio = low + (scalars.div(hn, hd) - low) * F(weight, WEIGHT_GRID)
    if not all(map(math.isfinite, [ratio] + ts)):
        return None
    return ratio


def insertions_against(oracle, cases, rng, exact):
    """The search state's insertion on its caps and the oracle from the
    same seeded states on the exact or the scalar route, rescaled and
    dropped between insertions: the same accept or refusal, the same ratio
    by value and type, and the same rng state after; the caps kept are
    those of the ratios.  Returns the count of each move."""
    seen = collections.Counter()
    for body, warm in cases:
        members = list(warm.members) if warm else [
            Homothet(zero_vector(body.dim), F(1))]
        state = _SearchState(body, list(members))
        assert state.exact is exact
        for _ in range(300):
            lo, hi = state.box
            grid = [_grid_fraction(rng, l, h) for l, h in zip(lo, hi)]
            seed = rng.getrandbits(32)
            want_rng, got_rng = random.Random(seed), random.Random(seed)
            want = oracle(state, grid, want_rng)
            got = state.insert(grid, got_rng)
            assert got_rng.getstate() == want_rng.getstate()
            if want is None:
                assert got is None
                seen["refused"] += 1
            else:
                assert got.ratio == want and type(got.ratio) is type(want)
                members.append(got)
                seen["taken"] += 1
            if rng.random() < 0.3:
                idx = rng.randrange(len(members))
                step = rng.choice(arrangement.RATIO_STEPS)
                ratio = state.rescale(idx, step)
                if ratio is not None:
                    members[idx] = Homothet(members[idx].center, ratio)
                    seen["rescaled"] += 1
            if len(members) > 1 and rng.random() < 0.1:
                k = rng.randrange(len(members))
                del members[k]
                state.drop(k)
                seen["dropped"] += 1
            ratios = [h.ratio for h in members]
            if state.exact:
                lam = [F(a, b) for a, b in state.lam]
                assert lam == ratios
                assert state.ceils == [math.ceil(x * state.e) for x in lam]
                assert state.floors == [math.floor(x * state.e) for x in lam]
            else:
                assert state.lam == [(x, 1) for x in ratios]
                assert list(map(type, state.ceils)) == list(map(type, ratios))
                assert state.ceils == state.floors == ratios
        assert _feasible(body, members)
    return seen


def test_cap_insertion_against_the_loop():
    """The exact route against ``loop_insertion``."""
    rng = random.Random(3131)
    cases = [(linf_ball(2), None), (l1_ball(2), None),
             (random_symmetric_hexagon(rng), None),
             (cross_polytope_4((1, 2, 3, 2)), None),
             (linf_ball(2), thirds_warm_start())]
    seen = insertions_against(loop_insertion, cases, rng, True)
    assert min(seen.values()) > 20, seen


def test_scalar_cap_insertion_against_the_loop():
    """The scalar route against ``scalar_loop_insertion``: the disc, float
    facets, the square's facets as floats, a float warm start on the square
    and a mixed one (exact centers, float ratios)."""
    rng = random.Random(3132)
    floats = Arrangement(linf_ball(2), tuple(
        Homothet(Vector(float(c) for c in h.center), float(h.ratio))
        for h in cube_arrangement(2).members))
    # exact centers on an exact body: Fraction distances, float ratios
    mixed = Arrangement(linf_ball(2), tuple(
        Homothet(h.center, float(h.ratio))
        for h in thirds_warm_start().members))
    cases = [(BallBody(2), None), (float_facet_body(), None),
             (linf_ball(2).as_float(), None), (linf_ball(2), floats),
             (linf_ball(2), mixed)]
    seen = insertions_against(scalar_loop_insertion, cases, rng, False)
    assert min(seen.values()) > 20, seen


def test_mixed_state_compares_the_ceiling_directly():
    """A float ratio just above 5/12 on the exact center (1/3, 0): the
    center (3/4, 0), at distance exactly 5/12, is interior to it, so both
    the state and the loop refuse it, with no weight drawn.  The float
    difference 5/12 - ratio rounds to 0.0, so a test of t - ceil < 0 would
    take the center."""
    lam = float(F(5, 12))
    assert lam > F(5, 12) and F(5, 12) - lam == 0.0
    state = _SearchState(linf_ball(2), [Homothet(Vector((F(1, 3), F(0))),
                                                 lam)])
    assert not state.exact and state.ceils == [lam]
    assert linf_ball(2).gauge(Vector((F(3, 4) - F(1, 3), F(0)))) == F(5, 12)
    for insert in (state.insert, functools.partial(scalar_loop_insertion,
                                                   state)):
        rng = random.Random(0)
        before = rng.getstate()
        assert insert((3, 0), rng) is None
        assert rng.getstate() == before
    assert len(state.lam) == 1


def test_search_against_full_pass(monkeypatch):
    rng = random.Random(77)
    float_body = float_facet_body()
    assert all(type(c) is float for a in float_body.facets for c in a.coords)
    cases = [(linf_ball(2), None), (l1_ball(2), None), (linf_ball(3), None),
             (linf_ball(2), cube_arrangement(2)), (BallBody(2), None),
             (float_body, None), (SkewGauge(), None)]
    cases += [(random_symmetric_hexagon(rng), None) for _ in range(3)]
    thirds = thirds_warm_start()
    cases += [(cross_polytope_4((1, 2, 3, 2)), None), (linf_ball(2), thirds),
              (linf_ball(1), None)]
    routes = [_SearchState(body, list(warm.members) if warm else [
        Homothet(zero_vector(body.dim), F(1))]).exact for body, warm in cases]
    assert routes == [True] * 4 + [False] * 3 + [True] * 6
    assert _SearchState(linf_ball(2), list(thirds.members)).q == 12
    monkeypatch.setattr(arrangement, "STAGNATION_LIMIT", 6)
    drops = 0
    for body, warm in cases:
        for seed in range(3):
            cfg = SearchConfig(seed=seed, iterations=60)
            got = search_arrangement(body, body.dim, cfg, warm_start=warm)
            want, dropped = full_pass_search(body, body.dim, cfg,
                                             warm_start=warm)
            assert arrangement_to_json(got) == arrangement_to_json(want), \
                (body, seed)
            drops += dropped
    assert drops > 0


# ------------------------------------------------ the pair-loop predicates --
# The two predicates as they scanned before the distance table: every
# ordered pair through center_in_interior and every unordered pair through
# intersects, each pair taking gauges of its own.  The table scans must
# return the same first pair.

def intersects(body, h1, h2):
    """Closed homothets of a symmetric body meet iff the gauge distance of
    the centers is at most the ratio sum (touching counts)."""
    return scalars.le(body.gauge(h1.center - h2.center), h1.ratio + h2.ratio)


def center_in_interior(body, owner, point):
    """Strict containment: boundary points are not interior."""
    return scalars.lt(body.gauge(point - owner.center), owner.ratio)


def loop_minkowski_violation(arr):
    for i, hi in enumerate(arr.members):
        for j, hj in enumerate(arr.members):
            if i != j and center_in_interior(arr.body, hi, hj.center):
                return (i, j)
    return None


def loop_intersection_violation(arr):
    n = len(arr.members)
    for i in range(n):
        for j in range(i + 1, n):
            if not intersects(arr.body, arr.members[i], arr.members[j]):
                return (i, j)
    return None


@functools.cache
def predicate_families():
    """Seeded pairwise intersecting families, some of them Minkowski
    arrangements, on the square, the diamond, random hexagons, the disc in
    floats and the 4-D cross-polytope given by its vertices (whose
    diameter is taken by the polar LP oracle)."""
    rng = random.Random(1729)
    families = [random_intersecting_arrangement(rng, body=corpus_body(rng, t))
                for t in range(30)]
    families += [random_minkowski_arrangement(rng, body=corpus_body(rng, t))
                 for t in range(12)]
    for k in range(2, 10):  # a disc and k discs of its radius around it
        rho, turn = rng.uniform(0.5, 2), rng.uniform(0, math.pi)
        angles = [turn + 2 * math.pi * m / k for m in range(k)]
        families.append(Arrangement(BallBody(2), (
            Homothet(Vector((0.0, 0.0)), rho),) + tuple(
            Homothet(Vector((rho * math.cos(a), rho * math.sin(a))), rho)
            for a in angles)))
    cross = cross_polytope_4()
    for _ in range(4):
        centers = [Vector(F(rng.randint(-3, 3), 2) for _ in range(4))
                   for _ in range(4)]
        diameter = max(gauge_lp(cross, p - q)
                       for p in centers for q in centers)
        families.append(Arrangement(cross, tuple(
            Homothet(c, diameter * F(rng.randint(4, 8), 8)) for c in centers)))
    return families


def test_distance_table_is_the_gauge_in_both_orientations():
    for arr in predicate_families():
        points = [h.center for h in arr.members]
        table = distance_table(arr.body, points)
        for i, p in enumerate(points):
            assert table[i][i] == 0
            for j, q in enumerate(points):
                if i != j:
                    for want in (arr.body.gauge(q - p), arr.body.gauge(p - q)):
                        assert table[i][j] == want, (arr.body, i, j)
                        assert type(table[i][j]) is type(want)


def test_predicate_scans_against_pair_loops():
    """Each family as drawn, with its ratios shrunk (pairs stop meeting) and
    grown (centers fall inside other members), as in the shadow witness
    test: the first violating pair of each predicate, or None, agrees."""
    rng = random.Random(31)
    outcomes = set()
    for arr in predicate_families():
        for step in (1, F(rng.randint(1, 4), 8), F(rng.randint(9, 24), 8)):
            scaled = Arrangement(arr.body, tuple(
                Homothet(h.center, h.ratio * step) for h in arr.members))
            got = (find_minkowski_violation(scaled),
                   find_intersection_violation(scaled))
            assert got == (loop_minkowski_violation(scaled),
                           loop_intersection_violation(scaled)), (arr, step)
            outcomes.add((type(arr.body).__name__,
                          got[0] is None, got[1] is None))
    for kind in ("HPolytopeBody", "VPolytopeBody", "BallBody"):
        assert {(kind, True, True), (kind, True, False),
                (kind, False, True)} <= outcomes, kind


def loop_chain_violation(body, chain):
    n = len(chain.points)
    for i in range(min(n, len(chain.lambdas))):
        for j in range(i + 1, n):
            got = body.gauge(chain.points[i] - chain.points[j])
            if not scalars.eq(got, chain.lambdas[i]):
                return (i, j)
    return None


def test_chain_routes_against_pair_loops():
    """Spectra and chain checks read the table; the loops take
    gauge(p_i - p_j) for each pair.  Every chain gets one lambda or one
    point broken in turn, and the first violating pair agrees."""
    for d, k in ((2, 2), (2, 3), (3, 2)):
        pts = grid_set(d, k)
        for body in (linf_ball(d), l1_ball(d), BallBody(d)):
            dists = [body.gauge(p - q) for i, p in enumerate(pts.points)
                     for q in pts.points[i + 1:]]
            spec = spectrum(body, pts)
            assert sum(m for _, m in spec.entries) == len(dists)
            if isinstance(body, BallBody):
                assert all(min(abs(g - e) for e in spec.distances) < 1e-9
                           for g in dists)
            else:
                assert spec.entries == tuple(sorted(
                    collections.Counter(map(F, dists)).items()))
            chain = greedy_chain(body, pts, len(spec), 4)
            assert find_chain_violation(body, chain) is None
            far = Vector([F(9)] * d)
            for t in range(len(chain)):
                lambdas = list(chain.lambdas)
                if t < len(lambdas):
                    lambdas[t] += 1
                points = list(chain.points)
                for broken in (ChainResult((), tuple(points), tuple(lambdas),
                                           4, False),
                               ChainResult((), tuple(points[:t]) + (far,)
                                           + tuple(points[t + 1:]),
                                           chain.lambdas, 4, False)):
                    got = find_chain_violation(body, broken)
                    assert got == loop_chain_violation(body, broken)
                    assert got is not None or t == len(chain) - 1


# ------------------------------------------------- the Fraction lift route --
# The per-pair layer in scalar arithmetic: every value a Fraction (or a
# float), every check a comparison of two of them.  The integer forms in
# minkarr.lifting must give the same values of the same types, and float
# input must take this route there.

def homogeneous_lift(center, lam):
    """y = (v/lam, 1/lam): embed as (v, lam, 1), divide by the coordinate
    the central projection normalizes, drop the constant slot."""
    homogeneous = extended(center, lam, 1)
    projected = homogeneous / homogeneous[center.dim]
    return Vector(projected.coords[:center.dim] + (projected.coords[-1],))


def two_call_frame(arr, i, j):
    """The frame in two gauge calls: the boundary point u/gauge(u), checked
    to have gauge 1, then the lexicographically least facet a with a.r == 1
    (r itself, in floats, for the ball)."""
    body = arr.body
    diff = arr.members[j].center - arr.members[i].center
    r_vec = diff / body.gauge(diff)
    assert scalars.eq(body.gauge(r_vec), 1)
    if isinstance(body, BallBody):
        return ProjectionFrame(i, j, r_vec, Vector(map(float, r_vec)))
    f_normal = min((a for a in body.facets if scalars.eq(a.dot(r_vec), 1)),
                   key=lambda a: a.coords)
    return ProjectionFrame(i, j, r_vec, f_normal)


def _key(v):
    return F(v) if scalars.is_exact(v) else v


# the public values of a shadow and of a slab, as the oracles compute them
Shadow = collections.namedtuple(
    "Shadow", "i j alphas intervals inter_lo inter_hi x_coord u_i u_j")
Slab = collections.namedtuple(
    "Slab", "i j normal c_k_ij c_k_ji c_g_ij c_g_ji")


def loop_shadow(arr, frame):
    vi = arr.members[frame.i].center
    denom = frame.f_normal.dot(frame.r_vec)
    alphas, intervals = [], []
    for h in arr.members:
        alpha = scalars.div(frame.f_normal.dot(h.center - vi), denom)
        alphas.append(alpha)
        intervals.append((alpha - h.ratio, alpha + h.ratio))
    lo_idx = max(range(len(intervals)), key=lambda k: _key(intervals[k][0]))
    hi_idx = min(range(len(intervals)), key=lambda k: _key(intervals[k][1]))
    lo, hi = intervals[lo_idx][0], intervals[hi_idx][1]
    if scalars.gt(lo, hi):
        raise ShadowIntersectionError((lo_idx, hi_idx))
    x_coord = scalars.div(lo + hi, 2)
    return Shadow(frame.i, frame.j, tuple(alphas), tuple(intervals), lo, hi,
                  x_coord, x_coord - alphas[frame.i],
                  alphas[frame.j] - x_coord)


def fraction_shadow_with_x(sd, x_coord):
    return Shadow(sd.i, sd.j, sd.alphas, sd.intervals, sd.inter_lo,
                  sd.inter_hi, x_coord, x_coord - sd.alphas[sd.i],
                  sd.alphas[sd.j] - x_coord)


def fraction_ratio(lam_i, lam_j, u_i, u_j):
    num, denom = 2 * lam_i * lam_j, lam_i * u_j + lam_j * u_i
    if scalars.sign(denom) == 0:
        return math.inf
    return F(num) / F(denom) if scalars.is_exact(num, denom) else num / denom


def int_form_ratio(lam_i, lam_j, u_i, u_j):
    """The width ratio on the four scalars over one denominator (their
    ``int_form``, when none is a float), which cancels, then in the
    scalars: an independent route to ``lifting.ratio``, which reads the
    numerators and denominators instead."""
    form = scalars.int_form((lam_i, lam_j, u_i, u_j))
    if form:
        lam_i, lam_j, u_i, u_j = form[0]
    if scalars.le(lam_i, 0) or scalars.le(lam_j, 0):
        raise ValueError("ratios must be positive")
    denom = lam_i * u_j + lam_j * u_i
    if scalars.sign(denom) == 0:
        return math.inf
    return scalars.div(2 * lam_i * lam_j, denom)


def check_ratio(args):
    """``lifting.ratio`` against ``int_form_ratio`` on the same four
    scalars: the same value of the same type, a float to the bit, or the
    same ValueError.  Returns the value, or None on the error."""
    try:
        want = int_form_ratio(*args)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            ratio(*args)
        return None
    got = ratio(*args)
    same(got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex(), args
    return got


def test_ratio_against_the_int_form_route():
    # the inverted wedge: member 1 covers member 0's center, and at x = -1
    # the denominator is negative, so is the ratio
    arr = Arrangement(linf_ball(1), (Homothet(Vector((F(0),)), F(1)),
                                     Homothet(Vector((F(1),)), F(3))))
    sd = shadow_with_x(shadow(arr, build_frame(arr, 0, 1)), F(-1))
    inverted = (F(1), F(3), sd.u_i, sd.u_j)
    assert ratio(*inverted) < 0
    cases = [
        inverted,
        # the doubly-extreme point: the denominator vanishes
        (F(1), F(3), F(-1, 2), F(3, 2)), (F(1), F(1), F(-1), F(1)),
        (1, 1, 0, 0), (1.0, 1, -1, 1), (1, 1, F(1, 3), -1 / 3),
        # lam <= 0, exact and float; a float within the tolerance of 0
        (F(0), F(1), F(1), F(1)), (F(1), F(-1, 3), F(1), F(1)), (-2, 1, 1, 1),
        (0.0, 1, 1, 1), (1, -0.5, 1, 1), (1e-12, 1, 1, 1),
        (F(1, 10 ** 12), 1, 1, 1),
        # int arguments
        (1, 1, 1, 1), (3, 3, 0, 3), (1, 2, 5, -3), (2, 7, -1, 4),
        # a float among the four
        (0.5, F(1, 3), F(2, 7), 1), (F(1, 3), F(2, 3), 0.1, F(1, 7)),
        (F(5, 3), 2, F(-1, 9), 0.7), (0.3, 0.7, 0.11, 0.13),
    ]
    rng = random.Random(3434)

    def scalar(positive):
        kind = rng.randrange(8)
        if kind == 0:
            return rng.uniform(0 if positive else -3, 3)
        if kind == 1:
            return rng.randint(0 if positive else -9, 9)
        num = rng.randint(-99, 99)
        return F(abs(num) if positive else num, rng.randint(1, 60))

    for _ in range(3000):
        positive = rng.random() < 0.9
        cases.append((scalar(positive), scalar(positive), scalar(False),
                      scalar(False)))
    for args in cases:
        check_ratio(args)


def fraction_slab_pair(arr, frame, sd):
    a, c = frame.f_normal, 1
    vi = arr.members[frame.i].center
    normal = extended(a, -a.dot(vi) - sd.x_coord * c)
    c_k_ij, c_k_ji = -c, c
    y_i = homogeneous_lift(vi, arr.members[frame.i].ratio)
    y_j = homogeneous_lift(arr.members[frame.j].center,
                           arr.members[frame.j].ratio)
    c_g_ij, c_g_ji = normal.dot(y_i), normal.dot(y_j)
    if scalars.gt(c_g_ij, c_g_ji):
        normal = -normal
        c_k_ij, c_k_ji = -c_k_ij, -c_k_ji
        c_g_ij, c_g_ji = -c_g_ij, -c_g_ji
    if scalars.eq(c_g_ji - c_g_ij, 0):
        raise DegenerateWedgeError("inner planes coincide")
    return Slab(frame.i, frame.j, normal, c_k_ij, c_k_ji, c_g_ij, c_g_ji)


def slab_offender(points, normal, c_1, c_2):
    """verify_slab's offender for the slab between normal . y = c_1 and
    normal . y = c_2 over the points, through a hand-built SlabPair."""
    slab = SlabPair(0, 1, normal, c_1, c_2, 0, 1)
    return verify_slab(LiftedConfig(tuple(points)), slab)[1]


def fraction_slab_offender(points, normal, c_1, c_2):
    values = [normal.dot(y) for y in points]
    lo, hi = min(c_1, c_2, key=_key), max(c_1, c_2, key=_key)
    if scalars.is_exact(lo, hi, *values):
        margin = 0
    else:
        margin = scalars.TOLERANCE * math.sqrt(float(normal.norm_sq()))
    for k, val in enumerate(values):
        if val < lo - margin or val > hi + margin:
            return k
    return None


def fraction_ratio_identity(slab, y_i, y_j, expected):
    expected = abs(expected)
    gap_k = slab.c_k_ij - slab.c_k_ji
    gap_g = slab.c_g_ij - slab.c_g_ji
    if scalars.sign(gap_g) == 0:
        raise ValueError("inner planes coincide; the ratio is undefined")
    if not scalars.eq_rel(abs(scalars.div(gap_k, gap_g)), expected):
        return False
    direction = slab.c_g_ji - slab.c_g_ij
    step = y_j - y_i
    s_i = y_i + step * scalars.div(slab.c_k_ij - slab.c_g_ij, direction)
    s_j = y_i + step * scalars.div(slab.c_k_ji - slab.c_g_ij, direction)
    y_sq = (y_i - y_j).norm_sq()
    if scalars.sign(y_sq) == 0:
        raise ValueError("lifted points coincide")
    return scalars.eq_rel(scalars.div((s_i - s_j).norm_sq(), y_sq),
                          expected * expected)


# the fields ``typed`` reads of each record: not the integer forms and
# indices kept beside the values (``form``, ``a_form``, ``column``,
# ``forms``, ``incidence``), at whatever scale their route chose
RECORD_FIELDS = {
    Homothet: ("center", "ratio"),
    Arrangement: ("body", "members"),
    arrangement.PartitionLabel: ("l", "k"),
    SearchConfig: ("seed", "iterations"),
    PointSet: ("dim", "points"),
    DistanceSpectrum: ("entries",),
    ChainResult: ("indices", "points", "lambdas", "target", "guaranteed"),
    ProjectionFrame: ("i", "j", "r_vec", "f_normal"),
    LiftedConfig: ("points",),
    SlabFamily: ("points", "slabs", "pairs"),
    packing.Stage: ("name", "passed", "detail"),
    packing.PackingCertificate: (
        "lam", "n", "ambient_dim", "affine_dim", "induction_branch", "bound",
        "bound_effective", "stages", "pair_ratios", "hull_volume",
        "volume_sum", "offending_pair", "verdict"),
    ConvexPolytope: ("dim", "vertices", "facets"),
}


def typed(value):
    """The value with the type of every scalar in it: Fraction(2) and 2
    compare equal but are different certificate bytes.  A record is read
    through its ``RECORD_FIELDS``, before the tuple branch, so that a
    NamedTuple record skips its integer forms too; a shadow or a slab is
    read through its public values, the fields of ``Shadow`` or ``Slab``."""
    if isinstance(value, (ShadowData, SlabPair)):
        names = (Shadow if isinstance(value, ShadowData) else Slab)._fields
        return typed([getattr(value, name) for name in names])
    if isinstance(value, Vector):
        return typed(value.coords)
    names = RECORD_FIELDS.get(type(value))
    if names is not None:
        return typed([getattr(value, name) for name in names])
    if isinstance(value, (tuple, list)):
        return tuple(typed(v) for v in value)
    return type(value).__name__, value


def all_ints(values):
    return all(type(v) is int for v in values)


def on_integers(sd):
    """Whether the shadow's form holds only integers."""
    alphas, lows, highs, den, _, _ = sd.form
    return all_ints((*alphas, *lows, *highs, den))


def same(got, want):
    assert typed(got) == typed(want)


def near(got, want):
    """``same``, but a float value only up to 1e-13 relative, a few dozen
    ulps: the same types everywhere, the same value of every other type."""
    def leaves(value):   # a leaf of ``typed`` is (type name, value)
        if len(value) == 2 and isinstance(value[0], str):
            yield value
        else:
            for v in value:
                yield from leaves(v)
    got, want = list(leaves(typed(got))), list(leaves(typed(want)))
    assert [a[0] for a in got] == [b[0] for b in want]
    for a, b in zip(got, want):
        if a[0] == "float":
            assert math.isclose(a[1], b[1], rel_tol=1e-13), (a, b)
        else:
            assert a == b


def check_both_routes(arr, xs_per_pair=()):
    """Every pair of arr against the Fraction route (lift, frame, shadow,
    shadow_with_x, ratio, slab_pair, containment and the ratio identity), at
    the shadow midpoint and at the given fractions of the shadow
    intersection; the ratio identity also at a wrong ratio.  Returns the
    number of slabs compared."""
    lifted = lift(arr)
    same(lifted.points, [homogeneous_lift(h.center, h.ratio)
                         for h in arr.members])
    # inexact projections round a.(v_k - v_0) - a.(v_i - v_0), not
    # a.(v_k - v_i): their floats match the Fraction route's up to the
    # last bits, on the same facet and with the same types
    inexact = arr.projections is not None and not arr.exact
    match = near if inexact else same
    compared = 0
    n = len(arr)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            frame = build_frame(arr, i, j)
            want = two_call_frame(arr, i, j)
            assert frame.f_normal.coords == want.f_normal.coords
            match(frame, want)
            sd0 = shadow(arr, frame)
            # exact input takes the integer route
            assert on_integers(sd0) == bool(arr.form and frame.a_form)
            match(sd0, loop_shadow(arr, frame))
            for t in (None,) + tuple(xs_per_pair):
                x = sd0.x_coord if t is None else \
                    sd0.inter_lo + (sd0.inter_hi - sd0.inter_lo) * t
                sd = shadow_with_x(sd0, x)
                same(sd, fraction_shadow_with_x(sd0, x))
                lams = arr.members[i].ratio, arr.members[j].ratio
                rho = ratio(*lams, sd.u_i, sd.u_j)
                same(rho, fraction_ratio(*lams, sd.u_i, sd.u_j))
                try:
                    want = fraction_slab_pair(arr, frame, sd)
                except DegenerateWedgeError:
                    with pytest.raises(DegenerateWedgeError):
                        slab_pair(arr, frame, sd)
                    continue
                slab = slab_pair(arr, frame, sd)
                if arr.form and frame.a_form and scalars.is_exact(x):
                    assert type(slab.den) is int and slab.den > 0
                    assert all_ints((*slab.plane[0], *slab.plane[1:]))
                else:
                    assert slab.den is None
                match(slab, want)
                args = (slab.normal, slab.c_k_ij, slab.c_k_ji)
                same(slab_offender(lifted.points, *args),
                     fraction_slab_offender(lifted.points, *args))
                same(verify_slab(lifted, slab),
                     (fraction_slab_offender(lifted.points, *args) is None,
                      fraction_slab_offender(lifted.points, *args)))
                y_i, y_j = lifted.points[i], lifted.points[j]
                for expected in (rho, rho * F(7, 8) if not isinstance(
                        rho, float) else rho * 0.875):
                    same(verify_ratio_identity(slab, y_i, y_j, expected),
                         fraction_ratio_identity(slab, y_i, y_j, expected))
                compared += 1
    if inexact:
        check_pair_loop(arr)
    return compared


def test_integer_lift_layer_on_identity_corpus_slice():
    from test_acceptance import identity_cases
    compared = 0
    for arr, cases in identity_cases(30):
        lifted = lift(arr)
        same(lifted.points, [homogeneous_lift(h.center, h.ratio)
                             for h in arr.members])
        for i, j, frame, sd0, xs in cases:
            same(frame, two_call_frame(arr, i, j))
            same(sd0, loop_shadow(arr, frame))
            for x in xs:
                sd = shadow_with_x(sd0, x)
                slab = slab_pair(arr, frame, sd)
                same(slab, fraction_slab_pair(arr, frame, sd))
                args = (slab.normal, slab.c_k_ij, slab.c_k_ji)
                want = fraction_slab_offender(lifted.points, *args)
                same(slab_offender(lifted.points, *args), want)
                same(verify_slab(lifted, slab), (want is None, want))
                rho = ratio(arr.members[i].ratio, arr.members[j].ratio,
                            sd.u_i, sd.u_j)
                for expected in (rho, -rho, rho + F(1, 10 ** 9)):
                    args = (slab, lifted.points[i], lifted.points[j],
                            expected)
                    same(verify_ratio_identity(*args),
                         fraction_ratio_identity(*args))
                compared += 1
    assert compared > 1500


def test_integer_lift_layer_int_and_mixed_denominators():
    square, hexagon = linf_ball(2), random_symmetric_hexagon(
        random.Random(5))
    ints = (Homothet(Vector((0, 0)), 3), Homothet(Vector((2, 1)), 4),
            Homothet(Vector((1, 2)), 3))
    mixed = (Homothet(Vector((F(1, 3), 0)), F(25, 7)),
             Homothet(Vector((1, F(2, 9))), 4),
             Homothet(Vector((F(-3, 8), F(5, 6))), F(47, 12)))
    compared = 0
    for body in (square, l1_ball(2), hexagon):
        for members in (ints, mixed, ints[:2] + mixed[2:]):
            compared += check_both_routes(Arrangement(body, members),
                                          (F(0), F(1, 3), F(1)))
    assert compared > 100
    assert all(type(c) is int for c in ints[0].center.coords)


# a hexagon given by facets with fractional normals (the facet form of the
# hull of +-(1, 0), +-(1/2, 3/4), +-(-1/3, 2/3))
FRACTION_HEXAGON = {"dim": 2, "type": "hpoly", "facets": [
    {"normal": [-1, "-2/3"], "offset": 1}, {"normal": ["1/7", "-10/7"],
                                            "offset": 1},
    {"normal": [1, -1], "offset": 1}, {"normal": [1, "2/3"], "offset": 1},
    {"normal": ["-1/7", "10/7"], "offset": 1}, {"normal": [-1, 1],
                                                "offset": 1}]}


@functools.cache
def criterion_4_corpus():
    """The 100 seeded planar families of criterion 4, built once."""
    rng = random.Random(77001)
    return tuple(random_minkowski_arrangement(rng, body=corpus_body(rng, t),
                                              full_lift=True)
                 for t in range(100))


def test_integer_routes_on_criterion_4_corpus():
    compared = 0
    for arr in criterion_4_corpus():
        assert arr.form is not None
        compared += check_both_routes(arr)
    assert compared > 2000


def test_integer_routes_on_json_ints_and_strings():
    """JSON input parses to ints and Fractions: ints alone, and ints mixed
    with "p/q" strings, on the square, the diamond and a hexagon whose facet
    normals are fractions."""
    ints = [{"center": [0, 0], "ratio": 3}, {"center": [2, 1], "ratio": 4},
            {"center": [1, 2], "ratio": 3}, {"center": [-1, 1], "ratio": 2}]
    mixed = [{"center": ["1/3", 0], "ratio": "25/7"},
             {"center": [1, "2/9"], "ratio": 4},
             {"center": ["-3/8", "5/6"], "ratio": "47/12"},
             {"center": [2, -1], "ratio": 3}]
    compared = 0
    for body in (linf_ball(2).to_json(), l1_ball(2).to_json(),
                 FRACTION_HEXAGON):
        for homothets in (ints, mixed):
            arr = arrangement_from_json({"body": body,
                                         "homothets": homothets})
            assert arr.form is not None
            compared += check_both_routes(arr, (F(0), F(1, 3), F(1)))
    assert compared > 250
    assert {type(arr.members[k].ratio) for k in range(4)} == {int, F}
    assert any(type(c) is F for a in body_from_json(FRACTION_HEXAGON).facets
               for c in a.coords)


def test_one_float_ratio_takes_the_float_route():
    members = [Homothet(Vector((0, 0)), 1), Homothet(Vector((F(3, 2), 1)), 1),
               Homothet(Vector((1, F(-1, 2))), F(5, 4))]
    assert Arrangement(linf_ball(2), tuple(members)).form is not None
    members[1] = Homothet(members[1].center, 1.25)
    arr = Arrangement(linf_ball(2), tuple(members))
    assert arr.form is None
    assert lift(arr).forms is None
    assert check_both_routes(arr, (F(1, 4), F(3, 4))) > 0


def test_shadow_witness_against_fraction_route():
    """Families with their ratios shrunk until some pairs no longer meet:
    the integer shadow raises exactly when the Fraction route does, with
    the same witness (first largest low end, first smallest high end)."""
    rng = random.Random(4242)
    raised = 0
    for t in range(60):
        body = corpus_body(rng, t)
        arr = random_intersecting_arrangement(rng, body=body)
        arr = Arrangement(body, tuple(
            Homothet(h.center, h.ratio * F(rng.randint(1, 4), 8))
            for h in arr.members))
        for i, j in itertools.permutations(range(len(arr)), 2):
            frame = build_frame(arr, i, j)
            try:
                want = loop_shadow(arr, frame)
            except ShadowIntersectionError as exc:
                with pytest.raises(ShadowIntersectionError) as got:
                    shadow(arr, frame)
                assert got.value.witness == exc.witness
                raised += 1
                continue
            same(shadow(arr, frame), want)
    assert raised > 100
    # ties: members 2 and 3 share the largest low end, 4 and 5 the smallest
    # high end, and the first of each is the witness
    line = Arrangement(linf_ball(1), tuple(
        Homothet(Vector((v,)), 1) for v in (0, 3, 6, 6, -3, -3)))
    frame = build_frame(line, 0, 1)
    for route in (shadow, loop_shadow):
        with pytest.raises(ShadowIntersectionError) as got:
            route(line, frame)
        assert got.value.witness == (2, 4)


def test_frames_and_distances_from_integer_differences():
    """Exact centers on an exact body: the frame of P_j - P_i equals the
    frame of v_j - v_i, r and a in values and types, and the distance table
    equals the Fraction centers' table; on the square, the diamond,
    hexagons and the 4-D cross-polytope as a V-polytope."""
    bodies = set()
    for arr in predicate_families():
        if not arr.body.exact:
            continue
        assert arr.form is not None
        centers = [h.center for h in arr.members]
        same(fraction_table(arr.relations[0]),
             distance_table(arr.body, centers))
        for i, j in itertools.permutations(range(len(arr)), 2):
            if centers[i] != centers[j]:
                same(build_frame(arr, i, j), ProjectionFrame(
                    i, j, *boundary_frame(arr.body, centers[j] - centers[i])))
        bodies.add((type(arr.body).__name__, arr.dim, arr.form[1] > 1))
    assert {("HPolytopeBody", 2, True), ("VPolytopeBody", 2, True),
            ("VPolytopeBody", 4, True)} <= bodies


# ----------------------- the per-pair integer route the projections replaced --
# Before one projection matrix per arrangement fed the pair layer, each frame
# took one integer pass over every facet row (the integer branch of
# HPolytopeBody.boundary_frame), each shadow one dot product per member, and
# each slab the dots of its plane with the two lifted points.

def rows_frame(body, p):
    """(r, a) toward the integer vector p != 0 from every facet row of an
    exact polytope body: r = p*D/top for top the largest dot of a row with
    p, and the lexicographically least facet whose row attains it."""
    rows, den = facet_rows(body)
    dots = [sum(map(operator.mul, row, p)) for row in rows]
    top = max(dots)
    best = min((a for a, t in zip(body.facets, dots) if t == top),
               key=lambda a: a.coords)
    return Vector(F(c * den, top) for c in p), best


def per_pair_frame(arr, i, j):
    """The frame of the integer difference P_j - P_i; its normal's form
    comes from ``int_form`` of the normal."""
    rows, d = arr.form[0], arr.dim
    diff = tuple(map(operator.sub, rows[j][:d], rows[i][:d]))
    if not any(diff):
        raise CoincidentCentersError((i, j))
    return ProjectionFrame(i, j, *rows_frame(arr.body, diff))


def per_pair_shadow(arr, frame):
    """a = A/f: alpha_k = (A.P_k - A.P_i)/(f*q), one dot per member."""
    i, j = frame.i, frame.j
    (z, f), (rows, q) = frame.a_form, arr.form
    t = [sum(map(operator.mul, z, row)) for row in rows]
    alphas = [t_k - t[i] for t_k in t]
    lams, den = [row[-1] * f for row in rows], f * q
    lows = [al - lam for al, lam in zip(alphas, lams)]
    highs = [al + lam for al, lam in zip(alphas, lams)]
    lo_idx, hi_idx = lows.index(max(lows)), highs.index(min(highs))
    if lows[lo_idx] > highs[hi_idx]:
        raise ShadowIntersectionError((lo_idx, hi_idx))
    return ShadowData(i, j, (alphas, lows, highs, den, lo_idx, hi_idx),
                      F(lows[lo_idx] + highs[hi_idx], 2 * den))


def per_pair_slab(arr, frame, sd):
    """(plane, den): over F = lcm(f, e) for a = A/f and x = X/e, the
    normal M = (A*q, -A.P_i - X*q)*F/f... over F*q, its dots with
    Y_i = (P_i, q) and Y_j, and the orientation N.y_i <= N.y_j."""
    (coef, f_a), (rows, q) = frame.a_form, arr.form
    x, e = sd.x_coord.numerator, sd.x_coord.denominator
    f = math.lcm(f_a, e)
    z = [v * (f // f_a) for v in coef]
    m = [v * q for v in z]
    m.append(-sum(map(operator.mul, z, rows[frame.i])) - x * (f // e) * q)
    (y_i, w_i), (y_j, w_j) = ((rows[k][:-1] + (q,), rows[k][-1])
                              for k in (frame.i, frame.j))
    s = w_i * w_j
    gi = sum(map(operator.mul, m, y_i)) * w_j
    gj = sum(map(operator.mul, m, y_j)) * w_i
    if gi == gj:
        raise DegenerateWedgeError("projected pair lies on one hyperplane; "
                                   "the inner planes coincide")
    sg, k = -1 if gi > gj else 1, f * q * s
    return ([sg * v * s for v in m], -sg * k, sg * k, sg * gi, sg * gj), k


Raised = collections.namedtuple("Raised", "type message witness")


def outcome(route, *args):
    """What route(*args) returns, or the ``Raised`` type, message and
    witness of the ValueError it raises."""
    try:
        return route(*args)
    except ValueError as exc:
        return Raised(type(exc), str(exc), getattr(exc, "witness", None))


def per_pair_family(arr):
    """The slabs (i, j, plane, den) of every pair i < j by the per-pair
    route, or what the first pair that raises raised."""
    slabs = []
    for i, j in itertools.combinations(range(len(arr)), 2):
        frame = outcome(per_pair_frame, arr, i, j)
        sd = frame if isinstance(frame, Raised) else \
            outcome(per_pair_shadow, arr, frame)
        slab = sd if isinstance(sd, Raised) else \
            outcome(per_pair_slab, arr, frame, sd)
        if isinstance(slab, Raised):
            return slab
        slabs.append((i, j) + slab)
    return slabs


def check_projection_kernel(arr, anchors=None):
    """Every ordered pair's frame (r_vec, f_normal, a_form), shadow form
    and x_coord and slab plane and den from the arrangement's projections
    against the per-pair route, raised errors included, and the family's
    slabs; returns the number of frames compared.  Given ``anchors``, the
    ordered pairs are those holding an anchor, in both orders."""
    assert arr.projections is not None
    compared = 0
    pairs = itertools.permutations(range(len(arr)), 2)
    if anchors is not None:
        pairs = {(a, k)[::o] for a in anchors for k in range(len(arr))
                 for o in (1, -1) if k != a}
    for i, j in sorted(pairs):
        want = outcome(per_pair_frame, arr, i, j)
        got = outcome(build_frame, arr, i, j)
        if isinstance(want, Raised):
            assert got == want
            continue
        same(got, want)
        assert got.a_form == want.a_form and got.column is not None
        compared += 1
        want_sd = outcome(per_pair_shadow, arr, want)
        got_sd = outcome(shadow, arr, got)
        if isinstance(want_sd, Raised):
            assert got_sd == want_sd
            continue
        assert got_sd.form == want_sd.form
        same(got_sd.x_coord, want_sd.x_coord)
        slab = outcome(slab_pair, arr, got, got_sd)
        if isinstance(slab, SlabPair):
            slab = slab.plane, slab.den
        same(slab, outcome(per_pair_slab, arr, want, want_sd))
    family, want = outcome(slab_pairs, arr, lift(arr)), per_pair_family(arr)
    if isinstance(want, Raised):
        same(family, want)
        return compared
    slabs, pairs = family
    assert len(slabs) <= len(arr.body.half_rows)
    assert [p[:2] for p in pairs] == [p[:2] for p in want]
    for (_, _, k), (_, _, plane, _) in zip(pairs, want):
        check_same_slab(slabs[k], plane)
    return compared


def check_same_slab(slab, plane):
    """The shared slab (M, lo, hi) is the per-pair plane (m, k_ij, k_ji,
    ...) times a nonzero scale c: M = c*m and {lo, hi} = {c*k_ij, c*k_ji}."""
    m, k_ij, k_ji = plane[:3]
    assert slab.exact and math.gcd(*slab.normal, slab.hi) == 1
    c = next(F(a, b) for a, b in zip(slab.normal, m) if b)
    assert c and list(slab.normal) == [c * v for v in m]
    assert [slab.lo, slab.hi] == sorted((c * k_ij, c * k_ji))


def test_projection_kernel_against_the_per_pair_route():
    """The criterion-4 corpus, the cube families of dimension 1 to 4
    (vertex ties; the 81 cubes of dimension 4 take the ordered pairs
    holding a corner or the center, and every pair of the family), the 4-D
    cross-polytope golden (a tie), seeded d = 3 and d = 4 families on the
    cube and the cross-polytope, families whose shrunk ratios leave
    shadows empty, coincident centers and a degenerate wedge."""
    compared = check_projection_kernel(cube_arrangement(4), (0, 40, 80))
    families = list(criterion_4_corpus())
    families += [cube_arrangement(d) for d in range(1, 4)]
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "cross4.json")
    with open(golden, encoding="utf-8") as fh:
        families.append(arrangement_from_json(json.load(fh)))
    rng = random.Random(2727)
    for d in (3, 4):
        for body in (linf_ball(d), l1_ball(d)):
            families += [random_minkowski_arrangement(rng, body=body)
                         for _ in range(4)]
    empty = 0
    for t in range(30):
        body = corpus_body(rng, t)
        arr = random_intersecting_arrangement(rng, body=body)
        arr = Arrangement(body, tuple(
            Homothet(h.center, h.ratio * F(rng.randint(1, 4), 8))
            for h in arr.members))
        families.append(arr)
        empty += isinstance(per_pair_family(arr), Raised)
    twice = Arrangement(linf_ball(2), tuple(
        Homothet(Vector(c), 1) for c in ((0, 0), (1, F(1, 2)), (0, 0))))
    families.append(twice)
    assert per_pair_family(twice) == (
        CoincidentCentersError, "coincident centers: members 0 and 2", (0, 2))
    # the common point -1/2 of [-1, 1], [-2, 4] and [-3/2, 0] is where the
    # width ratio of the pair (0, 1) has a zero denominator
    flat = Arrangement(linf_ball(1), tuple(
        Homothet(Vector((c,)), r) for c, r in ((0, 1), (1, 3),
                                               (F(-3, 4), F(3, 4)))))
    families.append(flat)
    assert per_pair_family(flat)[0] is DegenerateWedgeError
    compared += sum(map(check_projection_kernel, families))
    assert compared > 4000 and empty > 5


# ------------------------------------------------ the per-pair stage loop --
# Before an exact family shared one slab among the pairs of a column, the
# packing check ran width_gaps and verify_slab on every pair's SlabPair.

def per_pair_slab_family(points, slab_pairs, forms=None):
    """The family of one slab per pair, each ``SlabPair`` by its outer
    planes, as the float routes and hand-built families keep it."""
    forms = LiftedConfig(tuple(points), forms).forms
    return SlabFamily(tuple(points),
                      tuple(p.outer(forms is not None) for p in slab_pairs),
                      tuple((p.i, p.j, k) for k, p in enumerate(slab_pairs)),
                      forms)


def on_one_scale(slab, lifted):
    """(plane, forms): the slab's plane and the lifted points' forms (Y, w)
    on one scale, the integer forms when both are exact, else the slab's
    values with each point read as (y, 1)."""
    if slab.den and lifted.forms:
        return slab.plane, lifted.forms
    return slab.values, [(y.coords, 1) for y in lifted.points]


def width_gaps(slab, lifted):
    """(k_ij - k_ji, N.y_i - N.y_j) with N.y read from the lifted points;
    their quotient is the signed width ratio (integers for exact input)."""
    (m, k_ij, k_ji, _, _), forms = on_one_scale(slab, lifted)
    (y_i, w_i), (y_j, w_j) = forms[slab.i], forms[slab.j]
    return (k_ij - k_ji) * w_i * w_j, _dot(m, y_i) * w_j - _dot(m, y_j) * w_i


def per_pair_loop_check(points, slab_pairs, lam, forms=None):
    """``slab_packing_check``'s certificate with its two pair stages run by
    the per-pair loop: ``width_gaps`` and ``verify_slab`` on every
    ``SlabPair`` in order, then a slab for every pair.  The later stages
    read only the points, so they are the program's own."""
    lifted = LiftedConfig(tuple(points), forms)
    n = len(points)
    cert = packing.PackingCertificate(lam=lam, n=n,
                                      ambient_dim=points[0].dim)
    for p in slab_pairs:
        gap_outer, gap_inner = width_gaps(p, lifted)
        for gap, which in ((gap_outer, "outer"), (gap_inner, "inner")):
            if scalars.sign(gap) == 0:
                return cert._fail("slab_ratio", "%s planes of pair (%d, %d) "
                                  "coincide" % (which, p.i, p.j), (p.i, p.j))
        rho = abs(scalars.div(gap_outer, gap_inner))
        cert.pair_ratios.append((p.i, p.j, rho))
        if not scalars.le(rho, lam):
            return cert._fail("slab_ratio",
                              "pair (%d, %d) has width ratio %s > %s"
                              % (p.i, p.j, rho, lam), (p.i, p.j))
    cert._ok("slab_ratio", "%d pairs within ratio %s" % (len(slab_pairs), lam))
    for p in slab_pairs:
        ok, k = verify_slab(lifted, p)
        if not ok:
            return cert._fail("slab_containment",
                              "point %d escapes the slab of pair (%d, %d)"
                              % (k, p.i, p.j), (p.i, p.j))
    slabbed = {(min(p.i, p.j), max(p.i, p.j)) for p in slab_pairs}
    for a, b in itertools.combinations(range(n), 2):
        if (a, b) not in slabbed:
            return cert._fail("slab_containment",
                              "pair (%d, %d) has no slab" % (a, b), (a, b))
    cert._ok("slab_containment")
    tail = slab_packing_check(per_pair_slab_family(points, slab_pairs, forms),
                              lam)
    tail.stages[:2], tail.pair_ratios = cert.stages, cert.pair_ratios
    return tail


def lift_route_slabs(arr):
    """Every pair's ``SlabPair`` by ``build_frame``, ``shadow`` and
    ``slab_pair``, the route of ``lift``."""
    slabs = []
    for i, j in itertools.combinations(range(len(arr)), 2):
        frame = build_frame(arr, i, j)
        slabs.append(slab_pair(arr, frame, shadow(arr, frame)))
    return slabs


def expanded(family):
    """One ``SlabPair`` per pair of the family, on its slab's planes (inner
    offsets 0: the check never reads them)."""
    return [SlabPair(i, j, Vector(family.slabs[k].normal), family.slabs[k].lo,
                     family.slabs[k].hi, 0, 0) for i, j, k in family.pairs]


def tampered(family):
    """The family with, on each slab in turn: one normal entry + 1; an
    outer offset moved inward by one unit, at each end; the outer offsets
    made equal; and with one pair dropped."""
    def with_slab(k, slab):
        slabs = list(family.slabs)
        slabs[k] = slab
        return SlabFamily(family.points, tuple(slabs), family.pairs,
                          family.forms)
    for k, slab in enumerate(family.slabs):
        for e in range(len(slab.normal)):
            normal = list(slab.normal)
            normal[e] += 1
            yield with_slab(k, slab._replace(normal=tuple(normal)))
        yield with_slab(k, slab._replace(lo=slab.lo + 1))
        yield with_slab(k, slab._replace(hi=slab.hi - 1))
        yield with_slab(k, slab._replace(lo=slab.hi))
    for t in (0, len(family.pairs) // 2, len(family.pairs) - 1):
        yield SlabFamily(family.points, family.slabs,
                         family.pairs[:t] + family.pairs[t + 1:],
                         family.forms)


def golden_arrangements():
    """The arrangement of every golden verify input."""
    golden = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden")
    for name in sorted(os.listdir(golden)):
        with open(os.path.join(golden, name), encoding="utf-8") as fh:
            obj = json.load(fh) if name.count(".") == 1 else {}
        if "homothets" in obj:
            yield arrangement_from_json(obj)


def test_shared_slab_check_against_the_per_pair_loop():
    """The check on the shared slabs gives the certificate of the per-pair
    loop on every pair's own slab: on the criterion-4 corpus, the cube
    families of dimension 1 to 3 and the golden inputs, in exact mode and
    under --mode float; and on the exact families tampered, against the
    loop on one copy of the tampered slab per pair.  (The 4-D golden input
    has no exact hull, so the golden inputs are those of dimension <= 2.)"""
    families = list(criterion_4_corpus())
    families += [cube_arrangement(d) for d in (1, 2, 3)]
    golden = list(golden_arrangements())
    families += [a for a in golden if a.dim <= 2]
    families += [float_copy(a) for a in golden if a.dim <= 2]
    rejected, later = collections.Counter(), 0
    for arr in families:
        family = family_from_arrangement(arr)
        want = per_pair_loop_check(family.points, lift_route_slabs(arr), 2,
                                   family.forms)
        got = slab_packing_check(family, 2)
        assert certificate_to_json(got) == certificate_to_json(want)
        if arr.form is None or not arr.body.exact:
            continue
        assert len(family.slabs) < len(family.pairs) or len(arr) <= 3
        for bad in tampered(family):
            got = slab_packing_check(bad, 2)
            want = per_pair_loop_check(bad.points, expanded(bad), 2,
                                       bad.forms)
            assert certificate_to_json(got) == certificate_to_json(want)
            detail = got.stages[-1].detail
            rejected[got.failed_stage, detail.split()[0]] += 1
            later += detail.startswith("point ") and \
                not detail.startswith("point 0 ")
    # every kind of tampering is caught: a ratio above 2 or coinciding
    # outer planes, a point escaping a slab, a later one than point 0
    # too, and a pair without one
    assert {("slab_ratio", "pair"), ("slab_ratio", "outer"),
            ("slab_containment", "point"),
            ("slab_containment", "pair")} <= set(rejected)
    assert later > 0


def test_disc_with_rational_centers_keeps_its_float_frames():
    """The ball's gauge is a float, so its frames and distances stay on the
    Fraction differences: the integer difference would move float bits."""
    rim = ((F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(-3, 5), F(-4, 5)),
           (F(4, 5), F(-3, 5)))
    arr = Arrangement(BallBody(2), (Homothet(Vector((0, 0)), F(9, 10)),)
                      + tuple(Homothet(Vector(c), 1) for c in rim))
    assert arr.form is not None and not arr.body.exact
    centers = [h.center for h in arr.members]
    same([[t for t, _ in row] for row in arr.relations[0]],
         distance_table(arr.body, centers))
    moved = 0
    for i, j in itertools.permutations(range(len(arr)), 2):
        frame = arr.body.boundary_frame(centers[j] - centers[i])
        same(build_frame(arr, i, j), ProjectionFrame(i, j, *frame))
        scaled = arr.body.boundary_frame((centers[j] - centers[i])
                                         * arr.form[1])
        moved += typed(scaled) != typed(frame)
    assert moved > 0


# ------------------------- the per-pair float route the facet matrix replaced --
# Before every polytope arrangement without integer projections read one
# matrix of facet projections, each frame took HPolytopeBody.boundary_frame
# of v_j - v_i (one gauge, then the facets active at r within the
# tolerance), each shadow one dot product per member over a.r, each slab
# the dot a.v_i, and the predicates one gauge per pair.

def boundary_frame(body, u):
    """(r, a) toward u != 0: r = u/gauge(u) and, on a polytope body, the
    lexicographically least facet with a.r == 1 (``scalars.eq``: exactly on
    exact values, within the tolerance on floats); the ball's own frame."""
    if not isinstance(body, HPolytopeBody):
        return body.boundary_frame(u)
    body._check_dim(u)
    g = body.gauge(u)
    if scalars.eq(g, 0):
        raise ValueError("a boundary frame needs a nonzero direction")
    r_vec = u / g
    return r_vec, min((a for a in body.facets
                       if scalars.eq(a.dot(r_vec), 1)),
                      key=lambda a: a.coords)


def per_pair_float_family(arr, lifted):
    """The slab of every pair i < j of arr and its lift by the per-pair
    float route: the frame of ``boundary_frame``, the shadow of
    ``loop_shadow`` and the slab of ``fraction_slab_pair``, raising what
    the first pair raises."""
    centers = [h.center for h in arr.members]
    slabs = []
    for i, j in itertools.combinations(range(len(arr)), 2):
        diff = centers[j] - centers[i]
        if diff.is_zero():
            raise CoincidentCentersError((i, j))
        frame = ProjectionFrame(i, j, *boundary_frame(arr.body, diff))
        slab = fraction_slab_pair(arr, frame, loop_shadow(arr, frame))
        slabs.append(SlabPair(i, j, *slab[2:]))
    family = per_pair_slab_family(lifted.points, slabs)
    return family.slabs, family.pairs


def per_pair_float_certificate(arr, monkeypatch):
    """The pipeline's certificate of arr with one gauge per pair for the
    predicates and the family of the per-pair float route."""
    oracle = Arrangement(arr.body, arr.members)
    table = distance_table(arr.body, [h.center for h in arr.members])
    vars(oracle)["relations"] = ([[(g, 1) for g in row] for row in table],
                                 [h.ratio for h in arr.members], 1,
                                 scalars.lt, scalars.le)
    with monkeypatch.context() as patch:
        patch.setattr(packing, "slab_pairs", per_pair_float_family)
        return lifted_packing_pipeline(oracle)


def check_pair_loop(arr):
    """``slab_pairs`` of an inexact arrangement, a ball's included, builds,
    bit for bit, the slabs that ``build_frame``, ``shadow`` and
    ``slab_pair`` (the route of ``lift``) build, or raises what the first
    pair raises."""
    def frame_shadow_slab(arr):
        family = per_pair_slab_family(lift(arr).points, lift_route_slabs(arr))
        return family.slabs, family.pairs
    same(outcome(slab_pairs, arr, lift(arr)), outcome(frame_shadow_slab, arr))


def check_float_kernel(arr, monkeypatch, strict=True):
    """Every ordered pair's facet against ``boundary_frame``'s, and the
    certificate against the per-pair float route's: the same verdict and,
    when strict, the same failed stage, offending pair and pairs, the
    ratios within 1e-9 relative.  Returns the verdict and the failed
    stage."""
    assert arr.projections is not None and not arr.exact
    centers = [h.center for h in arr.members]
    for i, j in itertools.permutations(range(len(arr)), 2):
        want = outcome(boundary_frame, arr.body, centers[j] - centers[i])
        got = outcome(build_frame, arr, i, j)
        if isinstance(want, Raised):
            assert isinstance(got, Raised)
            continue
        assert got.f_normal.coords == want[1].coords, (i, j)
    check_pair_loop(arr)
    got = lifted_packing_pipeline(arr)
    want = per_pair_float_certificate(arr, monkeypatch)
    assert got.verdict == want.verdict
    if strict:
        assert (got.failed_stage, got.offending_pair) == \
            (want.failed_stage, want.offending_pair)
        assert [p[:2] for p in got.pair_ratios] == \
            [p[:2] for p in want.pair_ratios]
        for (_, _, a), (_, _, b) in zip(got.pair_ratios, want.pair_ratios):
            assert math.isclose(a, b, rel_tol=1e-9), (a, b)
    return got.verdict, got.failed_stage


def float_copy(arr, shift=0):
    """arr as ``--mode float`` reads it after the exact translation of
    every center by (shift, ..., shift): floats throughout."""
    return Arrangement(arr.body.as_float(), tuple(
        Homothet(Vector(float(c + shift) for c in h.center), float(h.ratio))
        for h in arr.members))


@functools.cache
def float_facet_families():
    """Seeded full-lift families on ``float_facet_body``: drawn on its
    exact twin, the Fractions of its float facets."""
    body = float_facet_body()
    twin = HPolytopeBody(2, [(Vector(map(F, a)), 1) for a in body.facets])
    rng = random.Random(3232)
    return tuple(random_minkowski_arrangement(rng, body=twin, full_lift=True)
                 for _ in range(20))


def test_float_kernel_against_the_per_pair_route(monkeypatch):
    """The float criterion-4 corpus and seeded families on the float-facet
    parallelogram, as drawn and translated by 1000 + 1/3 and 10^7 + 1/3:
    each pair's facet and the verdict agree with the per-pair route.
    Near 10^7 a lifted point v_k/lam_k keeps about nine digits after the
    point, so the slab's offsets, which cancel a.v_i against x, carry a
    rounding near 1e-9 on either route: there only the verdicts are
    compared, and the float predicates must agree with the exact ones,
    which the facet matrix keeps only because it is anchored at the first
    center."""
    families = criterion_4_corpus() + float_facet_families()
    outcomes = collections.Counter()
    for shift in (0, 1000 + F(1, 3), 10 ** 7 + F(1, 3)):
        for arr in families:
            copy = float_copy(arr, shift)
            outcomes[shift, check_float_kernel(
                copy, monkeypatch, strict=shift < 10 ** 7)[0]] += 1
            if shift > 1000:
                assert (find_minkowski_violation(copy),
                        find_intersection_violation(copy)) == \
                    (find_minkowski_violation(arr),
                     find_intersection_violation(arr))
    # the corpus and the parallelogram's families pass as drawn and at a
    # translation by 1000 + 1/3
    assert outcomes[0, True] == len(families)
    assert outcomes[1000 + F(1, 3), True] == len(families)


def test_pair_loop_on_mixed_scalars_and_raising_families():
    """The float pair kernel against the route of ``lift``, bit for bit
    (``check_pair_loop``), on the mixed-scalar variants of the criterion-4
    corpus: exact centers on its ``as_float`` bodies, one float center and
    one float ratio on its exact bodies; on exact centers of a float body
    with an exact facet, whose pairs on that facet take the integer slab of
    ``slab_pair``; and on raising families: float copies whose ratios are
    shrunk until a shadow is empty, and two centers 9e-10 apart, which the
    predicates pass within the tolerance.  A raising family raises what its
    first pair raises, with the same witness."""
    families = []
    for arr in criterion_4_corpus()[:40]:
        floats = float_copy(arr).members
        families.append(Arrangement(arr.body.as_float(), arr.members))
        families.append(Arrangement(arr.body, arr.members[:1] + floats[1:2]
                                    + arr.members[2:]))
        third = Homothet(arr.members[2].center, float(arr.members[2].ratio))
        families.append(Arrangement(arr.body, arr.members[:2] + (third,)
                                    + arr.members[3:]))
        for shrink in (0.9, 0.6):
            families.append(Arrangement(arr.body.as_float(), tuple(
                Homothet(h.center, h.ratio * shrink) for h in floats)))
    facets = [[1, 0], [-1, 0], [0.5, 1.0], [-0.5, -1.0]]
    mixed = body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": a} for a in facets]})
    twin = HPolytopeBody(2, [(Vector(map(F, a)), 1) for a in facets])
    rng = random.Random(3636)
    families += [Arrangement(mixed, random_minkowski_arrangement(
        rng, body=twin, full_lift=True).members) for _ in range(10)]
    near = (Homothet(Vector((0.0, 0.0)), 1.5e-9),
            Homothet(Vector((9e-10, 0.0)), 1.5e-9))
    families += [Arrangement(body, near)
                 for body in (linf_ball(2), float_facet_body())]
    # the midpoint -3/4 of the shadow lies beyond both centers of the pair
    # (0, 1): an inverted wedge, whose normal the kernel negates
    families.append(Arrangement(linf_ball(1).as_float(), tuple(
        Homothet(Vector((c,)), r) for c, r in ((0.0, 1.0), (1.0, 10.0),
                                               (-1.5, 1.0)))))
    raised, exact_slabs = collections.Counter(), 0
    for arr in families:
        assert arr.projections is not None and not arr.exact
        check_pair_loop(arr)
        got = outcome(slab_pairs, arr, lift(arr))
        if isinstance(got, Raised):
            raised[got.type] += 1
        else:
            exact_slabs += sum(slab.exact for slab in got[0])
    assert raised[ShadowIntersectionError] > 40
    assert raised[CoincidentCentersError] == 2
    assert exact_slabs > 10


def test_pair_loop_on_discs():
    """The float pair kernel on the ball against the route of ``lift``, bit
    for bit (``check_pair_loop``): seeded float disc hexagons, as drawn and
    scaled by 2^-20, the rational-center disc of the goldens, two centers
    9e-10 apart, which the predicates pass within the tolerance, and three
    discs in a row whose shadow has no common point.  A raising family
    raises what its first pair raises, with the same witness."""
    rng = random.Random(3838)
    families = []
    for _ in range(12):
        rho, turn = rng.uniform(0.5, 2), rng.uniform(0, math.pi)
        rim = [(rho * math.cos(turn + math.pi * m / 3),
                rho * math.sin(turn + math.pi * m / 3)) for m in range(6)]
        for scale in (1, 2.0 ** -20):
            families.append(Arrangement(BallBody(2), (
                Homothet(Vector((0.0, 0.0)), rho * scale * 0.999),) + tuple(
                Homothet(Vector((x * scale, y * scale)), rho * scale)
                for x, y in rim)))
    families += [arr for arr in golden_arrangements()
                 if isinstance(arr.body, BallBody)]
    families.append(Arrangement(BallBody(2), (
        Homothet(Vector((0.0, 0.0)), 1.5e-9),
        Homothet(Vector((9e-10, 0.0)), 1.5e-9))))
    families.append(Arrangement(BallBody(2), tuple(
        Homothet(Vector((c, 0.0)), 0.6) for c in (0.0, 1.0, 2.0))))
    raised, passed = collections.Counter(), 0
    for arr in families:
        check_pair_loop(arr)
        got = outcome(slab_pairs, arr, lift(arr))
        if isinstance(got, Raised):
            raised[got.type] += 1
        else:
            passed += 1
    assert passed == len(families) - 2 and any(
        arr.form is not None for arr in families[:-2])
    assert raised == {CoincidentCentersError: 1, ShadowIntersectionError: 1}


# --------------------------- the all-facets picker the half rows replaced --
# Before every inexact polytope arrangement filled the half-row columns of
# Arrangement.projections, it read a second matrix over all the canonical
# facets, in their lexicographic order, with a picker of its own.

def facet_matrix(arr):
    """(facets, base, U): the canonical facets a in lexicographic order,
    base[a] = a.v_0 and each member's row U_k[a] = a.(v_k - v_0), anchored
    at the first exact center, if any, else the first."""
    facets = sorted(a.coords for a in arr.body.facets)
    v0 = next((h.center.coords for h in arr.members
               if scalars.is_exact(*h.center.coords)),
              arr.members[0].center.coords)
    rows = [tuple(scalars.dot(a, tuple(map(operator.sub, h.center.coords,
                                            v0))) for a in facets)
            for h in arr.members]
    return facets, [scalars.dot(a, v0) for a in facets], rows


def all_facets_pick(matrix, i, j):
    """(a, top) of the pair (i, j) on a ``facet_matrix``: top the largest
    U_j[a] - U_i[a], and a the first facet whose difference is top, or on
    floats within ``scalars.TOLERANCE``, relative, of top."""
    facets, _, rows = matrix
    deltas = list(map(operator.sub, rows[j], rows[i]))
    top = max(deltas)
    if not scalars.gt(top, 0):
        raise CoincidentCentersError((i, j))
    cut = top if scalars.is_exact(top) else top - scalars.TOLERANCE * top
    return next(a for a, delta in zip(facets, deltas) if delta >= cut), top


def bits(values):
    """Each scalar as its type and repr: a float to the bit and to the sign
    of a zero."""
    return [(type(v).__name__, repr(v)) for v in values]


def negation_closed(body):
    rows = {a.coords for a in body.facets}
    return all(tuple(-x for x in r) in rows for r in rows)


# the vertices of the golden octagon, less their negations
FLOAT_OCTAGON = [(-1.06, -1.59), (-0.42, -1.38), (-1.73, -0.39),
                 (1.67, 1.2)]


def float_vertex_body(rng, pairs, dim=2):
    """A V-polytope on ``pairs`` seeded vertices with two decimals, at
    distance 1 to 2 from the origin, and their exact negations."""
    while True:
        vs = []
        for _ in range(pairs):
            u = [rng.gauss(0, 1) for _ in range(dim)]
            scale = rng.uniform(1, 2) / math.hypot(*u)
            vs.append(Vector(round(c * scale, 2) for c in u))
        try:
            return VPolytopeBody(dim, vs + [-v for v in vs])
        except ValueError:   # a vertex at the origin, or no interior
            continue


def polar_closed(body):
    """Whether the polar's float facets, before the body stored them, were
    closed under exact negation."""
    normals, _ = lp.polar_facets([v.coords for v in body.vertices], None)
    rows = {a.coords for a in normals}
    return all(tuple(-x for x in r) in rows for r in rows)


@functools.cache
def float_vertex_families():
    """Seeded families on seeded float-vertex V-polytopes, drawn on the
    exact twin of each body (the Fractions of its float facets) and read
    back on the body with float centers and ratios."""
    rng = random.Random(3535)
    families = []
    for k in range(24):
        body = float_vertex_body(rng, 3 + k % 2)
        twin = HPolytopeBody(2, [(Vector(map(F, a)), 1) for a in body.facets])
        arr = random_minkowski_arrangement(rng, body=twin, full_lift=True)
        families.append(Arrangement(body, float_copy(arr).members))
    return tuple(families)


def near_degenerate_cubes():
    """cube_arrangement(2) in floats with the centre ratio 1 - delta, whose
    frames tie on the square's vertices within the tolerance."""
    cube = float_copy(cube_arrangement(2))
    return tuple(Arrangement(cube.body, cube.members[:4] + (Homothet(
        cube.members[4].center, 1 - 10.0 ** -e),) + cube.members[5:])
                 for e in range(3, 13))


def test_half_row_picker_against_the_all_facets_picker():
    """On the float corpus (criterion 4 and the parallelogram's families as
    drawn and translated, float-vertex V-polytopes, near-degenerate cubes),
    on exact centers of ``as_float`` criterion-4 bodies and with one float
    center on an exact body, ``_facet_column`` over the half rows takes, bit
    for bit, the facet and the top the all-facets picker takes, and
    ``build_frame`` that stored facet: negation and |.| are exact."""
    arrangements = [float_copy(arr, shift)
                    for arr in criterion_4_corpus() + float_facet_families()
                    for shift in (0, 1000 + F(1, 3), 10 ** 7 + F(1, 3))]
    arrangements += float_vertex_families() + near_degenerate_cubes()
    for arr in criterion_4_corpus()[:40]:
        arrangements.append(Arrangement(arr.body.as_float(), arr.members))
        one = float_copy(arr).members[1]
        arrangements.append(Arrangement(arr.body, arr.members[:1] + (one,)
                                        + arr.members[2:]))
    compared = ties = 0
    for arr in arrangements:
        assert arr.projections is not None and not arr.exact
        matrix = facet_matrix(arr)
        for i, j in itertools.permutations(range(len(arr)), 2):
            want = outcome(all_facets_pick, matrix, i, j)
            got = outcome(_facet_column, arr, i, j)
            if isinstance(want, Raised):
                assert got == want
                continue
            h, s, top = got
            facet = arr.body.half_facets[h][s < 0]
            assert bits(facet.coords) == bits(want[0]), (i, j)
            assert bits([top]) == bits([want[1]])
            assert build_frame(arr, i, j).f_normal is facet
            deltas = [b - a for a, b in zip(matrix[2][i], matrix[2][j])]
            ties += sum(d >= top - scalars.TOLERANCE * top
                        for d in deltas) > 1
            compared += 1
    assert compared > 9000 and ties > 100


def test_float_bodies_are_closed_under_exact_negation():
    """Every float polytope body stores facets closed under exact negation:
    a JSON hpoly and a float-vertex V-polytope whose facets are closed only
    within the tolerance store the second of such a pair as the exact
    negation of the first; exactly closed facets, ``as_float`` ones among
    them, are kept as given, the signs of their zeros too."""
    near = body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1.0, 0.5]}, {"normal": [0.0, 1.0]},
        {"normal": [-1.0, -0.5 - 1e-12]}, {"normal": [0.0, -1.0]}]})
    assert [a.coords for a in near.facets] == [
        (1.0, 0.5), (0.0, 1.0), (-1.0, -0.5), (0.0, -1.0)]
    assert bits(near.facets[3].coords) == bits((0.0, -1.0))
    assert negation_closed(near) and len(near.half_rows) == 2
    rng = random.Random(35)
    parallelogram = body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1.0, 0.5]}, {"normal": [-1.0, -0.5]},
        {"normal": [0.25, 1.0]}, {"normal": [-0.25, -1.0]}]})
    bodies_ = [near, float_facet_body(), parallelogram]
    bodies_ += [float_vertex_body(rng, 3 + k % 2) for k in range(60)]
    bodies_ += [float_vertex_body(rng, 4 + k % 2, 3) for k in range(20)]
    bodies_ += [b.as_float() for b in (linf_ball(3), l1_ball(2),
                                       cross_polytope_4((1, 2, 3, 2)),
                                       corpus_body(rng, 2))]
    for body in bodies_ + [arr.body for arr in float_vertex_families()]:
        assert not body.exact and negation_closed(body)
        assert {a.coords for a in body.facets} == {
            r for h in body.half_rows for r in (h, tuple(-x for x in h))}
        for h, (a, b) in zip(body.half_rows, body.half_facets):
            assert a.coords == h and b.coords == tuple(-x for x in h)
        # so the gauge is symmetric bit for bit, as distance_table assumes
        for _ in range(5):
            x = Vector(rng.uniform(-3, 3) for _ in range(body.dim))
            assert body.gauge(x) == body.gauge(-x)
    snapped = [b for b in bodies_[3:83] if not polar_closed(b)]
    assert len(snapped) > 10 and any(b.dim == 3 for b in snapped)
    octagon = VPolytopeBody(2, [Vector(v) for v in FLOAT_OCTAGON] + [
        Vector((-x, -y)) for x, y in FLOAT_OCTAGON])
    assert not polar_closed(octagon) and negation_closed(octagon)
    # as_float keeps every facet's bytes
    for body in (linf_ball(2), cross_polytope_4((1, 2, 3, 2))):
        assert [bits(a.coords) for a in body.as_float().facets] == [
            bits(tuple(map(float, a))) for a in body.facets]


def test_float_kernel_on_float_vertex_polytopes(monkeypatch):
    """Seeded families on float-vertex V-polytopes, snapped bodies among
    them: each pair's facet and the certificate agree with the per-pair
    float route, and every family passes."""
    families = float_vertex_families()
    assert sum(not polar_closed(arr.body) for arr in families) > 3
    for arr in families:
        assert check_float_kernel(arr, monkeypatch) == (True, None)


def test_shadow_with_x_takes_the_intersection_ends():
    step = F(1, 10 ** 12)
    for arr in criterion_4_corpus()[:20]:
        for i, j in itertools.permutations(range(len(arr)), 2):
            sd0 = shadow(arr, build_frame(arr, i, j))
            assert on_integers(sd0)
            ends = [sd0.inter_lo, sd0.inter_hi]
            ends += [int(x) for x in ends if x.denominator == 1]
            for x in ends:
                same(shadow_with_x(sd0, x), fraction_shadow_with_x(sd0, x))
            for x in (sd0.inter_lo - step, sd0.inter_hi + step):
                with pytest.raises(ValueError, match="outside"):
                    shadow_with_x(sd0, x)


def test_integer_lift_layer_on_corpus_bodies():
    rng = random.Random(606)
    for t in range(9):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t))
        check_both_routes(arr, (F(1, 4), F(5, 7)))


def test_integer_slab_pair_inverted_wedge():
    # the common point beyond both centers: the width ratio is negative
    # and the closed form's orientation is flipped
    arr = Arrangement(linf_ball(1), (Homothet(Vector((F(0),)), F(1)),
                                     Homothet(Vector((F(1),)), F(3))))
    frame = build_frame(arr, 0, 1)
    sd = shadow_with_x(shadow(arr, frame), F(-1))
    rho = ratio(F(1), F(3), sd.u_i, sd.u_j)
    assert rho < 0
    slab = slab_pair(arr, frame, sd)
    same(slab, fraction_slab_pair(arr, frame, sd))
    assert slab.normal[0] < 0                      # negated closed form
    y = lift(arr).points
    assert verify_ratio_identity(slab, y[0], y[1], rho) is True
    assert fraction_ratio_identity(slab, y[0], y[1], rho) is True


def test_integer_containment_on_and_beyond_an_outer_plane():
    normal = Vector((F(2, 3), F(-1, 5), F(1, 7)))
    c_1, c_2 = F(1, 2), F(-3, 4)
    on_plane = normal * (c_1 / normal.norm_sq())    # normal . y == c_1
    inside = normal * (F(-1, 9) / normal.norm_sq())
    step = normal * F(1, 10 ** 12)
    assert normal.dot(on_plane) == c_1
    cases = [
        ([inside, on_plane], None),
        ([inside, on_plane + step], 1),             # a rational step outside
        ([on_plane - step, inside], None),          # a step back inside
        ([inside, Vector((0, 0, 0)), normal * (c_2 / normal.norm_sq())],
         None),                                     # int coords, other plane
        ([inside, normal * (c_2 / normal.norm_sq()) - step], 1),
    ]
    for points, want in cases:
        for ends in ((c_1, c_2), (c_2, c_1)):
            same(slab_offender(points, normal, *ends), want)
            same(fraction_slab_offender(points, normal, *ends), want)
            lifted = LiftedConfig(tuple(points))
            slab = SlabPair(0, 1, normal, *ends, F(0), F(1))
            same(verify_slab(lifted, slab), (want is None, want))


def test_integer_checks_on_arbitrary_normals():
    """Criterion-5-style families: each pair's normal is the difference of
    its two points, the outer offsets are the extremes of the family."""
    rng = random.Random(55)
    for _ in range(20):
        pts = [Vector((F(rng.randint(-9, 9), rng.randint(1, 6)),
                       rng.randint(-4, 4))) for _ in range(5)]
        for i in range(5):
            for j in range(5):
                normal = pts[j] - pts[i]
                if i == j or normal.is_zero():
                    continue
                values = [normal.dot(p) for p in pts]
                lo, hi = min(values), max(values)
                for c_1, c_2 in ((lo, hi), (lo, hi - F(1, 3)),
                                 (lo + 1, hi)):
                    same(slab_offender(pts, normal, c_1, c_2),
                         fraction_slab_offender(pts, normal, c_1, c_2))
                slab = SlabPair(i, j, normal, lo, hi, values[i], values[j])
                rho = abs((hi - lo) / (values[j] - values[i]))
                for expected in (rho, -rho, rho + F(1, 7)):
                    args = (slab, extended(pts[i], 1), extended(pts[j], 1),
                            expected)
                    same(verify_ratio_identity(*args),
                         fraction_ratio_identity(*args))
                    wrong = expected == rho + F(1, 7)
                    assert verify_ratio_identity(*args) is not wrong


def test_degenerate_cases_raise_on_both_routes():
    # u_i = -1/2, u_j = 3/2: the width ratio's denominator vanishes
    arr = Arrangement(linf_ball(1), (Homothet(Vector((F(0),)), F(1)),
                                     Homothet(Vector((F(1),)), F(3))))
    frame = build_frame(arr, 0, 1)
    sd = shadow_with_x(shadow(arr, frame), F(-1, 2))
    for route in (slab_pair, fraction_slab_pair):
        with pytest.raises(DegenerateWedgeError):
            route(arr, frame, sd)
    y = Vector((F(1), F(1, 2)))
    flat = SlabPair(0, 1, Vector((1, 0)), -1, 1, F(1, 3), F(1, 3))
    same_point = SlabPair(0, 1, Vector((1, 0)), -1, 1, 0, 1)
    for route in (verify_ratio_identity, fraction_ratio_identity):
        with pytest.raises(ValueError, match="inner planes coincide"):
            route(flat, y, y + Vector((1, 0)), 2)
        with pytest.raises(ValueError, match="lifted points coincide"):
            route(same_point, y, y, 2)


def test_float_input_takes_the_tolerance_route():
    arr = Arrangement(BallBody(2), (Homothet(Vector((0.0, 0.0)), 1.0),
                                    Homothet(Vector((1.5, 0.5)), 1.25),
                                    Homothet(Vector((0.5, 1.0)), 1.0)))
    check_both_routes(arr, (0.25, 0.75))
    # float centers on an exact body, and a float ratio among exact centers
    mixed = Arrangement(linf_ball(2), (Homothet(Vector((0.0, 0.5)), 1),
                                       Homothet(Vector((F(3, 2), 0)), 1.25),
                                       Homothet(Vector((1, 1)), F(1))))
    check_both_routes(mixed, (0.5,))
    # float facets, and float directions at vertices of the square (facet
    # ties, broken toward the lexicographically least normal)
    skew = Arrangement(float_facet_body(),
                       (Homothet(Vector((0.0, 0.0)), 1.0),
                        Homothet(Vector((1.0, 0.5)), 1.0),
                        Homothet(Vector((-1.5, 0.5)), 1.0),
                        Homothet(Vector((0.25, 1.0)), 0.75)))
    assert check_both_routes(skew, (0.25, 0.75)) > 0
    # toward (-1.5, 0.5) no facet dots r to exactly 1.0: the tolerance
    # decides the active facet
    frame = build_frame(skew, 0, 2)
    assert all(a.dot(frame.r_vec) != 1 for a in skew.body.facets)
    corner = Arrangement(linf_ball(2), (Homothet(Vector((0.0, 0.0)), 1.0),
                                        Homothet(Vector((1.5, 1.5)), 1.0),
                                        Homothet(Vector((0.0, 1.5)), 1.0)))
    assert check_both_routes(corner, (0.25, 0.75)) > 0
    assert build_frame(corner, 0, 1).f_normal == Vector((0, 1))
    assert build_frame(corner, 1, 0).f_normal == Vector((-1, 0))
    # the inverted wedge in floats: a negative width ratio, checked through
    # its absolute value on the tolerance route
    inverted = Arrangement(linf_ball(1), (Homothet(Vector((0.0,)), 1.0),
                                          Homothet(Vector((1.0,)), 3.0)))
    frame = build_frame(inverted, 0, 1)
    sd = shadow_with_x(shadow(inverted, frame), -1.0)
    rho = ratio(1.0, 3.0, sd.u_i, sd.u_j)
    assert rho < 0
    slab = slab_pair(inverted, frame, sd)
    y = lift(inverted).points
    assert verify_ratio_identity(slab, y[0], y[1], rho) is True
    assert fraction_ratio_identity(slab, y[0], y[1], rho) is True
    # the tolerance loop accepts a point a hair outside; exact input does not
    normal = Vector((F(1), F(0), F(0)))
    exact = [Vector((F(0), F(0), F(1))), Vector((1 + F(1, 10 ** 12), 0, 1))]
    floats = [Vector(float(c) for c in p) for p in exact]
    assert slab_offender(exact, normal, -1, 1) == 1
    assert slab_offender(floats, normal, -1, 1) is None
    assert fraction_slab_offender(floats, normal, -1, 1) is None
    # a float point beyond the margin, on either side, is an offender
    for far in (1.5, -1.5):
        points = floats + [Vector((far, 0.0, 1.0))]
        assert slab_offender(points, normal, -1, 1) == 2
        assert fraction_slab_offender(points, normal, -1, 1) == 2
    assert verify_slab(LiftedConfig(tuple(floats)),
                       SlabPair(0, 1, normal, -1, 1, 0, 1)) == (True, None)
    assert LiftedConfig(tuple(floats)).forms is None
    assert verify_ratio_identity(SlabPair(0, 1, normal, -1, 1, 0.0, 1.0),
                                 floats[0], floats[1], 2 + 1e-12)


def test_hull_rank_against_affine_coordinates():
    rng = random.Random(8)
    for dim in (1, 2, 3):
        for rank in range(dim + 1):
            for _ in range(10):
                base = [Vector(F(rng.randint(-6, 6), rng.randint(1, 3))
                               for _ in range(dim)) for _ in range(rank)]
                origin = Vector(rng.randint(-3, 3) for _ in range(dim))
                pts = [origin]
                for _ in range(6):
                    p = origin
                    for b in base:
                        p = p + b * F(rng.randint(-4, 4), rng.randint(1, 4))
                    pts.append(p)
                adim = len(greedy_affine_coordinates(pts)[1])
                assert affine_rank(pts) == adim
                if adim < dim:
                    with pytest.raises(ValueError):
                        hull(pts)
                else:
                    assert isinstance(hull(pts), ConvexPolytope)


def lattice_points(rng, dim, rank, count):
    """Points on a small lattice of a random rank-r flat, so that hull
    facets carry coplanar extras and hull edges collinear ones, plus the
    midpoint of two of them and the centroid of three.  The lattice points
    are plain ints or Fractions."""
    base = [Vector(rng.randint(-6, 6) for _ in range(dim))
            for _ in range(rank)]
    origin = Vector(rng.randint(-6, 6) for _ in range(dim))
    step = rng.choice((1, F(1, 2)))
    pts = [origin]
    for _ in range(count):
        p = origin
        for b in base:
            p = p + b * (rng.randint(-2, 2) * step)
        pts.append(p)
    a, b, c = (rng.choice(pts) for _ in range(3))
    return pts + [(a + b) / 2, (a + b + c) / 3]


def same_planes(got, want):
    """Each facet list, scaled to a first nonzero entry of +-1, is the same
    set; a positive scale keeps each plane's outward side."""
    keys = [canonical_plane(a, c) for a, c in got]
    return len(set(keys)) == len(keys) and \
        set(keys) == set(canonical_plane(a, c) for a, c in want)


def test_hull_volume_and_coordinates_against_oracles():
    rng = random.Random(2024)
    for dim in (1, 2, 3, 4):
        for rank in range(dim + 1):
            for _ in range(30 if rank == 3 else 8):
                pts = lattice_points(rng, dim, rank, rng.randint(3, 8))
                got = affine_coordinates(pts)
                same(got, greedy_affine_coordinates(pts))
                assert affine_rank(pts) == len(got[1])
                # plain int input too comes out as Fraction coordinates
                assert all(type(c) is F for v in got[0] or () for c in v)
                if dim > 3:
                    continue
                if len(got[1]) < dim:
                    with pytest.raises(ValueError):
                        hull(pts)
                    continue
                h = hull(pts)
                if dim < 3:
                    assert volume(h) > 0
                    continue
                oracle = canonical_hull_3d(dedupe(pts))
                assert h.vertices == oracle.vertices
                assert same_planes(h.facets, oracle.facets)
                assert volume(h) == origin_fan_volume(oracle) \
                    == origin_fan_volume(h)


# The Fraction hull, volume and rank: the route the integer kernel of
# polytopes.hull, polytopes.volume and linalg.matrix_rank replaced.  Every
# sign test here is on the rational points themselves.

def fraction_rank(rows):
    """Rank by Fraction row reduction."""
    return len(_rref([list(r) for r in rows], len(rows[0]))) if rows else 0


def fraction_chain(pts):
    """Counterclockwise hull vertices of planar points, Fraction turns."""
    def turn(o, a, b):
        return scalars.sign((a[0] - o[0]) * (b[1] - o[1])
                            - (a[1] - o[1]) * (b[0] - o[0]))
    spts = sorted(pts, key=lambda p: (p[0], p[1]))
    lower, upper = [], []
    for chain, seq in ((lower, spts), (upper, spts[::-1])):
        for p in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
    return lower[:-1] + upper[:-1]


def fraction_area(verts):
    total = 0
    for i, v in enumerate(verts):
        w = verts[(i + 1) % len(verts)]
        total = total + (v[0] * w[1] - w[0] * v[1])
    return abs(scalars.div(total, 2))


def fraction_hull(points):
    """The hull of a full-dimensional set, which the rank of
    ``affine_coordinates`` decides; a 3D facet is the set of points its
    plane's sign test puts on it, with the plane of the first triple that
    finds it, and a vertex is on three facets."""
    pts = dedupe(points)
    dim = pts[0].dim
    if len(affine_coordinates(pts)[1]) < dim:
        raise ValueError("the points span a proper affine subspace")
    if dim == 1:
        lo, hi = min(pts, key=lambda p: p[0]), max(pts, key=lambda p: p[0])
        return ConvexPolytope(1, (lo, hi), ((Vector([1]), hi[0]),
                                            (Vector([-1]), -lo[0])))
    if dim == 2:
        verts = fraction_chain(pts)
        facets = []
        for v, w in zip(verts, verts[1:] + verts[:1]):
            normal = Vector((w[1] - v[1], v[0] - w[0]))
            facets.append((normal, normal.dot(v)))
        return ConvexPolytope(2, tuple(verts), tuple(facets))
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


def fraction_volume(poly):
    """Length, area, or a third of the sum over facets a.x <= c of
    (c - a.m) * area / |a_k|, the facet's vertices (a.p == c) projected
    along the axis k of the largest |a_k|, m the vertex centroid."""
    if poly.dim == 1:
        return poly.vertices[1][0] - poly.vertices[0][0]
    if poly.dim == 2:
        return fraction_area(poly.vertices)
    center = poly.vertices[0]
    for v in poly.vertices[1:]:
        center = center + v
    center = center / len(poly.vertices)
    total = 0
    for normal, offset in poly.facets:
        k = max(range(3), key=lambda i: abs(normal[i]))
        face = [Vector(p[i] for i in range(3) if i != k)
                for p in poly.vertices if scalars.eq(normal.dot(p), offset)]
        area = fraction_area(fraction_chain(face))
        total = total + scalars.div((offset - normal.dot(center)) * area,
                                    abs(normal[k]))
    return scalars.div(total, 3)


def integer_planes(poly, points):
    """The Fraction route's facets as the integer route stores them: on
    exact points, each plane times q (2D) or q^2 (3D), q the common
    denominator of the points, an integral entry as an int and the offset a
    Fraction; the plane itself on the line and on float points."""
    form = scalars.int_rows([p.coords for p in points])
    if form is None or poly.dim == 1:
        return poly.facets
    scale = form[1] ** (poly.dim - 1)

    def exact(x):
        x = F(x * scale)
        return x.numerator if x.denominator == 1 else x
    return tuple((Vector(map(exact, normal)), F(offset * scale))
                 for normal, offset in poly.facets)


def assert_same_hull(pts):
    """Both routes on pts: ``affine_rank`` is the rank of
    ``affine_coordinates``; below full dimension both hulls raise, and
    otherwise they give the same vertices and volume, in value and in type,
    and the same facets, exactly those of ``integer_planes`` (returns the
    hull, or None)."""
    rank = len(affine_coordinates(pts)[1])
    assert affine_rank(pts) == rank
    if rank < pts[0].dim:
        for route in (hull, fraction_hull):
            with pytest.raises(ValueError):
                route(pts)
        return None
    got, want = hull(pts), fraction_hull(pts)
    same(got.vertices, want.vertices)
    same(got.facets, integer_planes(want, pts))
    same(volume(got), fraction_volume(want))
    return got


def mixed_points(rng, dim, rank, count):
    """Points of a random flat of rank at most r: a lattice with steps of
    mixed denominators around a negative-or-positive fractional origin, so
    hull facets carry extra points and hull edges collinear ones."""
    base = [Vector(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                   for _ in range(dim)) for _ in range(rank)]
    origin = Vector(F(rng.randint(-9, 9), rng.choice((1, 2, 5, 7)))
                    for _ in range(dim))
    pts = [origin]
    for _ in range(count):
        p = origin
        for b in base:
            p = p + b * rng.randint(-2, 2)
        pts.append(p)
    return pts


def on_faces(rng, poly):
    """A point inside a facet (the centroid of its vertices) and, in 3D, a
    point on an edge (the midpoint of two vertices on two common facets)."""
    normal, offset = rng.choice(poly.facets)
    face = [p for p in poly.vertices if normal.dot(p) == offset]
    inside = face[0]
    for p in face[1:]:
        inside = inside + p
    if poly.dim < 3:
        return [inside / len(face)]
    edges = [(p, w) for p, w in itertools.combinations(poly.vertices, 2)
             if sum(a.dot(p) == c and a.dot(w) == c
                    for a, c in poly.facets) >= 2]
    p, w = rng.choice(edges)
    return [inside / len(face), (p + w) / 2]


def test_integer_rank_against_fraction_rank():
    rng = random.Random(4242)
    for dim in (1, 2, 3, 4):
        for rank in range(dim + 1):
            for _ in range(12):
                pts = mixed_points(rng, dim, rank, rng.randint(2, 7))
                rows = [(p - pts[0]).coords for p in pts[1:]]
                assert matrix_rank(rows) == fraction_rank(rows) \
                    == affine_rank(pts)
                # the points' own rows, one made zero, one column zeroed
                rows = [p.coords for p in pts] + [(0,) * dim]
                col = rng.randrange(dim)
                rows += [tuple(0 if c == col else x
                               for c, x in enumerate(p.coords)) for p in pts]
                assert matrix_rank(rows) == fraction_rank(rows)


def test_integer_hull_and_volume_against_fraction_route():
    rng = random.Random(4243)
    full = 0
    for dim in (1, 2, 3, 4):
        for rank in range(dim + 1):
            for _ in range(40 if rank == dim == 3 else 6):
                pts = mixed_points(rng, dim, rank, rng.randint(3, 9))
                if dim > 3:
                    assert affine_rank(pts) == fraction_rank(
                        [(p - pts[0]).coords for p in pts[1:]])
                    with pytest.raises(ValueError):
                        hull(pts)
                    continue
                h = assert_same_hull(pts)
                if h is not None:
                    full += dim == 3
                    assert_same_hull(pts + on_faces(rng, h))
    assert full >= 30


def test_integer_hull_on_criterion_4_lifts():
    """The lifted points of the criterion-4 corpus, exact and as floats;
    the float route keeps the tolerance sign tests bit for bit."""
    for arr in criterion_4_corpus():
        pts = lift(arr).points
        assert isinstance(assert_same_hull(pts), ConvexPolytope)
        assert_same_hull([Vector(float(c) for c in p) for p in pts])


def test_hull_drops_repeats_by_the_vector_test():
    """A point given as ints and again as equal Fractions counts once, the
    first one kept with its type; float points within the tolerance of one
    another count once, as ``Vector.__eq__`` says."""
    square = [Vector(c) for c in ((0, 0), (2, 0), (2, 2), (0, 2))]
    cube = [Vector((x, y, z)) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    for pts in (square, cube):
        again = [Vector(map(F, p)) for p in pts]
        for first, second in ((pts, again), (again, pts)):
            for given in (first + second,
                          [p for pair in zip(first, second) for p in pair]):
                h = assert_same_hull(given)
                assert len(h.vertices) == len(pts)
                assert {type(c) for v in h.vertices for c in v} \
                    == {type(first[0][0])}
        floats = [Vector(map(float, p)) for p in pts]
        near = [p + Vector([0.4 * scalars.TOLERANCE] * p.dim)
                for p in floats]
        h = assert_same_hull(floats + near)
        assert len(h.vertices) == len(pts)
        assert all(any(v is p for p in floats) for v in h.vertices)
        assert volume(h) == volume(hull(floats))
        # beyond the tolerance the copies are points of their own
        apart = [p + Vector([4 * scalars.TOLERANCE] * p.dim) for p in floats]
        assert len(dedupe(floats + apart)) == 2 * len(pts)
        assert_same_hull(floats + apart)


def test_hull_faces_of_four_or_more_vertices():
    """Faces of four and more vertices beside triangles: the square pyramid
    of tests/golden/pyramid.json lifted, a triangular prism, a hexagonal
    pyramid and a cube cut at one corner, exact, as floats and shifted by
    fractions, with points inside their faces."""
    pyramid = [(x, y, 1) for x in (-1, 1) for y in (-1, 1)] + [(0, 0, 2)]
    prism = [(0, 0, z) for z in (0, 3)] + [(4, 0, z) for z in (0, 3)] + \
        [(0, 4, z) for z in (0, 3)]
    hexagon = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]
    hexpyramid = [(x, y, 0) for x, y in hexagon] + [(0, 0, 3)]
    corner = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)
              if (x, y, z) != (2, 2, 2)] + [(1, 2, 2), (2, 1, 2), (2, 2, 1)]
    shift = Vector((F(1, 3), F(-2, 7), F(5, 2)))
    cases = ((pyramid, F(4, 3), (5, 5)), (prism, 24, (6, 5)),
             (hexpyramid, 12, (7, 7)), (corner, F(47, 6), (10, 7)))
    for coords, vol, (nv, nf) in cases:
        pts = [Vector(c) for c in coords]
        for given in (pts, [p + shift for p in pts],
                      [Vector(map(float, p)) for p in pts]):
            h = assert_same_hull(given + [(given[0] + given[1]) / 2])
            assert (len(h.vertices), len(h.facets)) == (nv, nf)
            sizes = sorted(map(len, h.incidence))
            assert sizes[0] == 3 and sizes[-1] >= 4
            assert volume(h) == vol if scalars.is_exact(*given[0]) \
                else abs(volume(h) - vol) < 1e-12
