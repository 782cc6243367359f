"""Dual-route checks: every production computation with an independent
derivation gets compared against it on random rational instances."""

import math
import random
from fractions import Fraction as F

import pytest

from minkarr import (Arrangement, BallBody, Homothet, SearchConfig,
                     arrangement_to_json, body_from_json, build_frame,
                     cross_ratio, cube_arrangement, l1_ball, linf_ball, ratio,
                     search_arrangement, shadow, shadow_with_x, slab_pair)
from minkarr.arrangement import _feasible, _feasible_ratio, _grid_fraction
from minkarr.instances import (corpus_body, random_intersecting_arrangement,
                               random_minkowski_arrangement,
                               random_symmetric_hexagon)
from minkarr.linalg import Vector, _rref, cross3, matrix_rank, zero_vector
from minkarr import lp, scalars
from minkarr.packing import family_from_arrangement, lifted_packing_pipeline
from minkarr.polytopes import ConvexPolytope, hull, volume


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
    x_emb = (vi + frame.r_vec * sd.x_coord).extended(0, 1)
    rows = [w.extended(0, 0).coords
            for w in hyperplane_directions(frame.f_normal)]

    def plane(line_dir):
        basis = nullspace(rows + [line_dir.coords, x_emb.coords], d + 2)
        assert len(basis) == 1, "wedge plane is not a hyperplane"
        n_full = basis[0]
        # N = (n, n_{d+1}, n_{d+2}) cuts {x_{d+1} = 1} in the hyperplane
        # (n, n_{d+2}) . y = -n_{d+1}
        return Vector(n_full.coords[:d] + (n_full.coords[d + 1],)), \
            -n_full.coords[d]

    normal, off_i = plane((-frame.r_vec).extended(1, 0))
    normal_j, off_j = plane(frame.r_vec.extended(1, 0))
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


def origin_fan_volume(poly: ConvexPolytope):
    """Signed origin-based tetrahedron sum over facet fans; independent of
    the interior-centroid fan used by the production volume."""
    from minkarr.polytopes import _facet_vertices, _order_facet
    total = F(0)
    for normal, offset in poly.facets:
        ring = _order_facet(_facet_vertices(poly, normal, offset), normal)
        for idx in range(1, len(ring) - 1):
            q0, q1, q2 = ring[0], ring[idx], ring[idx + 1]
            det = cross3(q1 - q0, q2 - q0).dot(-q0)
            total += F(det)
    return abs(total) / 6


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
    copy = ConvexPolytope(poly.dim, verts, facets)
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
    value, _ = lp.simplex_max(obj, lp_rows, lp_rhs)
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


def test_slab_witness_against_lp_and_copy_volumes():
    """The slab_ratio stage accepts a pair when its slab planes separate the
    pair's copies, and every copy volume is taken as vol(P)/27; the shrunken
    copies, their exact volumes and the LP separation test are the
    independent route."""
    rng = random.Random(101)
    for t in range(12):
        arr = random_minkowski_arrangement(rng, body=corpus_body(rng, t),
                                           full_lift=True)
        family, _ = family_from_arrangement(arr)
        body_hull = hull(family.points)
        hull_volume = volume(body_hull)
        copies = [shrink(body_hull, y, 2) for y in family.points]
        for c in copies:
            assert volume(c) == hull_volume / 27
        accepted = 0
        for p in family.pairs:
            gap = p.normal.dot(family.points[p.j]) \
                - p.normal.dot(family.points[p.i])
            if abs(p.c_k_ij - p.c_k_ji) <= 2 * abs(gap):
                accepted += 1
                assert interiors_disjoint(copies[p.i], copies[p.j])
        n = len(family.points)
        assert accepted == n * (n - 1) // 2
        cert = lifted_packing_pipeline(arr)
        detail = [s.detail for s in cert.stages if s.name == "disjointness"]
        assert detail == ["%d pairs separated by their slab planes" % accepted]


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
        bodies.append(hexa._hform)
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


def full_pass_search(body, dim, config, warm_start=None):
    """Search with every candidate checked by the full predicate pass: the
    route the cached gauge matrix replaced, with the same moves and rng
    stream."""
    rng = random.Random(config.seed)
    members = list(warm_start.members) if warm_start is not None \
        else [Homothet(zero_vector(dim), F(1))]
    assert _feasible(body, members)
    best = list(members)
    stagnation = 0
    for _ in range(config.iterations):
        max_ratio = max(float(h.ratio) for h in members)
        lo = [min(float(h.center[i]) for h in members) - 2 * max_ratio
              for i in range(dim)]
        hi = [max(float(h.center[i]) for h in members) + 2 * max_ratio
              for i in range(dim)]
        inserted = False
        for _attempt in range(config.insert_attempts):
            center = Vector([_grid_fraction(rng, lo[i], hi[i])
                             for i in range(dim)])
            found = _feasible_ratio(body, members, center, rng)
            if found is None:
                continue
            candidate = members + [Homothet(center, found[0])]
            if _feasible(body, candidate):
                members = candidate
                inserted = True
                break
        if inserted:
            stagnation = 0
        else:
            idx = rng.randrange(len(members))
            step = config.ratio_steps[rng.randrange(len(config.ratio_steps))]
            h = members[idx]
            candidate = list(members)
            candidate[idx] = Homothet(h.center, h.ratio * step)
            if _feasible(body, candidate):
                members = candidate
            stagnation += 1
            if stagnation >= config.stagnation_limit and len(members) > 1:
                drop = rng.randrange(len(members))
                members = members[:drop] + members[drop + 1:]
                stagnation = 0
        if len(members) > len(best):
            best = list(members)
    return Arrangement(body, tuple(best))


class SkewGauge:
    """Test double: the gauge of the square [-1, 1/2]^2, so gauge(x) and
    gauge(-x) differ and every orientation the search reads is visible."""

    dim = 2

    def gauge(self, x):
        return max(max(2 * c, -c) for c in x.coords)

    def to_json(self):
        return {"dim": 2, "type": "skew"}


def test_search_against_full_pass():
    rng = random.Random(77)
    float_body = body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1.0, 0.25], "offset": 1.5},
        {"normal": [-1.0, -0.25], "offset": 1.5},
        {"normal": [0.1, 1.0], "offset": 1.0},
        {"normal": [-0.1, -1.0], "offset": 1.0}]})
    assert not float_body.is_exact()
    cases = [(linf_ball(2), None), (l1_ball(2), None), (linf_ball(3), None),
             (linf_ball(2), cube_arrangement(2)), (BallBody(2), None),
             (float_body, None), (SkewGauge(), None)]
    cases += [(random_symmetric_hexagon(rng), None) for _ in range(3)]
    for body, warm in cases:
        for seed in range(3):
            cfg = SearchConfig(seed=seed, iterations=60, stagnation_limit=6)
            got = search_arrangement(body, body.dim, cfg, warm_start=warm)
            want = full_pass_search(body, body.dim, cfg, warm_start=warm)
            assert arrangement_to_json(got) == arrangement_to_json(want), \
                (body, seed)
