import math
import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkarr import bodies
from minkarr.bodies import (BallBody, BodyError, HPolytopeBody,
                            VPolytopeBody, body_from_json, body_to_json,
                            l1_ball, linf_ball)
from minkarr.instances import random_symmetric_hexagon
from minkarr.linalg import Vector, affine_rank
from minkarr.polytopes import hull

from lp_oracle import gauge_lp, polar_lp
from test_oracles import as_floats, boundary_frame, facet_rows, int_gauge

SQUARE = linf_ball(2)
DIAMOND = l1_ball(2)
BALL = BallBody(2)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=16)
vectors2 = st.tuples(rationals, rationals).map(Vector)


def test_gauge_known_values():
    assert SQUARE.gauge(Vector((3, 1))) == 3
    assert SQUARE.gauge(Vector((0, 0))) == 0
    assert DIAMOND.gauge(Vector((1, 1))) == 2
    assert BALL.gauge(Vector((3, 4))) == pytest.approx(5.0)


def test_ball_gauge_beyond_float_squares():
    # squares beyond the float range or below its normals take hypot
    assert BALL.gauge(Vector((10 ** 200, 0))) == 1e200
    assert BALL.gauge(Vector((1e200, -1e200))) == math.hypot(1e200, 1e200)
    assert BALL.gauge(Vector((F(1, 10 ** 200), 0))) == 1e-200
    assert BALL.gauge(Vector((3e-200, 4e-200))) == math.hypot(3e-200, 4e-200)
    # within the range the float square root stays, which the float
    # frames of the golden dumps were written with
    for x in (Vector((F(3, 7), F(5, 11))), Vector((0.1, 0.7)), Vector((1, 2))):
        assert BALL.gauge(x) == math.sqrt(float(x.norm_sq()))


def test_boundary_point_known_values():
    assert boundary_frame(SQUARE, Vector((2, 1)))[0] == Vector((1, F(1, 2)))
    assert boundary_frame(DIAMOND, Vector((1, 1)))[0] == \
        Vector((F(1, 2), F(1, 2)))
    b = boundary_frame(BALL, Vector((3, 4)))[0]
    assert as_floats(b) == pytest.approx((0.6, 0.8))
    for body in (SQUARE, DIAMOND, BALL):
        with pytest.raises(ValueError):
            boundary_frame(body, Vector((0, 0)))
        # a float direction within the tolerance of 0 has no frame either
        with pytest.raises(ValueError):
            boundary_frame(body, Vector((1e-12, 0.0)))


def test_supporting_hyperplane_facet_and_vertex():
    _, normal = boundary_frame(SQUARE, Vector((1, F(1, 2))))
    assert normal == Vector((1, 0))
    # at the corner both facets are admissible; the lexicographically
    # smaller normal wins, for exact and for float directions
    for corner in (Vector((1, 1)), Vector((1.0, 1.0)), Vector((2.5, 2.5))):
        r_vec, normal = boundary_frame(SQUARE, corner)
        assert r_vec == Vector((1, 1))
        assert normal == Vector((0, 1))
    _, normal = boundary_frame(BALL, Vector((0.6, 0.8)))
    assert as_floats(normal) == pytest.approx((0.6, 0.8))
    # a direction off the boundary is scaled onto it first
    assert boundary_frame(SQUARE, Vector((2, 0))) == \
        boundary_frame(SQUARE, Vector((1, 0)))


@given(x=vectors2, y=vectors2, t=rationals)
@settings(max_examples=150, deadline=None)
def test_gauge_axioms_exact(x, y, t):
    for body in (SQUARE, DIAMOND):
        gx = body.gauge(x)
        assert body.gauge(-x) == gx
        assert body.gauge(x * t) == abs(t) * gx
        assert body.gauge(x + y) <= gx + body.gauge(y)


@given(x=vectors2)
@settings(max_examples=60, deadline=None)
def test_gauge_support_duality(x):
    # a canonical facet a.z <= 1 has support value 1, so a.x <= gauge(x)
    for body in (SQUARE, DIAMOND):
        for a in body.facets:
            assert a.dot(x) <= body.gauge(x)


@given(u=vectors2)
@settings(max_examples=60, deadline=None)
def test_boundary_point_idempotent(u):
    if u.is_zero():
        return
    for body in (SQUARE, DIAMOND):
        frame = boundary_frame(body, u)
        assert body.gauge(frame[0]) == 1
        assert boundary_frame(body, frame[0]) == frame


def test_supporting_hyperplane_certificate():
    rng = random.Random(5)
    for trial in range(20):
        hexa = random_symmetric_hexagon(rng)
        u = Vector((F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 3)))
        if u.is_zero():
            continue
        p, normal = boundary_frame(hexa, u)
        assert hexa.gauge(p) == 1
        assert normal.dot(p) == 1
        for v in hexa.vertices:
            assert normal.dot(v) <= 1


def test_vpolytope_gauge_routes_agree():
    rng = random.Random(9)
    for trial in range(15):
        hexa = random_symmetric_hexagon(rng)
        x = Vector((F(rng.randint(-12, 12), 5), F(rng.randint(-12, 12), 5)))
        assert hexa.gauge(x) == gauge_lp(hexa, x)


def test_vpolytope_gauge_known_value():
    diamond_v = VPolytopeBody(2, (Vector((1, 0)), Vector((-1, 0)),
                                  Vector((0, 1)), Vector((0, -1))))
    assert diamond_v.gauge(Vector((1, 1))) == 2


def test_symmetry_validation_fails_loudly():
    with pytest.raises(BodyError):
        HPolytopeBody(2, [(Vector((1, 0)), 1), (Vector((0, 1)), 1),
                          (Vector((0, -1)), 1)])
    with pytest.raises(BodyError):
        VPolytopeBody(2, (Vector((1, 0)), Vector((0, 1)), Vector((0, -1))))
    with pytest.raises(BodyError):  # unbounded: normals do not span
        HPolytopeBody(2, [(Vector((1, 0)), 1), (Vector((-1, 0)), 1)])
    with pytest.raises(BodyError):  # origin not interior
        HPolytopeBody(2, [(Vector((1, 0)), 0), (Vector((-1, 0)), 0)])


def test_json_roundtrip():
    for body in (SQUARE, DIAMOND, BALL,
                 VPolytopeBody(2, (Vector((1, F(1, 2))), Vector((-1, F(-1, 2))),
                                   Vector((0, 1)), Vector((0, -1))))):
        obj = body_to_json(body)
        back = body_from_json(obj)
        assert type(back) is type(body)
        probe = Vector((F(5, 3), F(-2, 7)))
        if isinstance(body, BallBody):
            assert back.gauge(probe) == pytest.approx(body.gauge(probe))
        else:
            assert back.gauge(probe) == body.gauge(probe)


def test_json_load_failures():
    with pytest.raises(BodyError):
        body_from_json({"dim": 2, "type": "nope"})
    with pytest.raises(BodyError):
        body_from_json({"dim": 2})
    with pytest.raises(BodyError):
        body_from_json({"dim": 2, "type": "vpoly",
                        "vertices": [[1, 0], [0, 1]]})


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        SQUARE.gauge(Vector((1, 2, 3)))


def cross_vpoly(dim):
    """The cross-polytope as a vertex list, +-e_i."""
    return VPolytopeBody(dim, tuple(Vector([s if k == i else 0
                                            for k in range(dim)])
                                    for i in range(dim) for s in (1, -1)))


def cube_vpoly(dim):
    """The cube [-1, 1]^d as its 2^d vertices."""
    return VPolytopeBody(dim, tuple(map(Vector, product((1, -1), repeat=dim))))


def cell24():
    """The 24-cell: the 24 permutations of (+-1, +-1, 0, 0)."""
    return VPolytopeBody(4, tuple(map(Vector, sorted(
        {p for a, b in product((1, -1), repeat=2)
         for p in permutations((a, b, 0, 0))}))))


def seeded_vpoly(rng, dim):
    """Random integer points and their negations, plus non-extreme points
    (the origin, a midpoint, a point halfway to a vertex) and repeats."""
    while True:
        pts = [Vector(rng.randint(-3, 3) for _ in range(dim))
               for _ in range(dim + 2)]
        pts += [pts[0] * F(1, 2), (pts[1] + pts[2]) * F(1, 2),
                Vector([0] * dim), pts[3]]
        try:
            return VPolytopeBody(dim, tuple(pts) + tuple(-p for p in pts))
        except BodyError:
            continue


def is_facet(body, a):
    """a.v <= 1 on every vertex, with equality on an affine (d-1)-flat."""
    return all(a.dot(v) <= 1 for v in body.vertices) and affine_rank(
        [v for v in body.vertices if a.dot(v) == 1]) == body.dim - 1


def test_vpoly_frames_beyond_3d_are_facets():
    # the facet form answers the gauge and the frame in any dimension, and
    # every frame's plane is a facet of the body: the least active one
    rng = random.Random(22)
    cross4 = cross_vpoly(4)
    assert cross4.gauge(Vector((1, 1, 0, 0))) == 2
    r_vec, normal = boundary_frame(cross4, Vector((2, 0, 0, 0)))
    assert r_vec == Vector((1, 0, 0, 0))
    assert normal == Vector((1, -1, -1, -1))
    for body in (cross4, cross_vpoly(5), cube_vpoly(4), cube_vpoly(5),
                 cell24(), seeded_vpoly(rng, 4), seeded_vpoly(rng, 5)):
        assert all(is_facet(body, a) for a in body.facets)
        for _ in range(10):
            u = Vector(rng.randint(-5, 5) for _ in range(body.dim))
            if u.is_zero():
                continue
            r_vec, normal = boundary_frame(body, u)
            assert normal.dot(r_vec) == 1 and is_facet(body, normal)
            assert normal == min((a for a in body.facets
                                  if a.dot(r_vec) == 1),
                                 key=lambda a: a.coords)
    for body in (cross4, SQUARE):
        with pytest.raises(ValueError):
            boundary_frame(body, Vector((0,) * body.dim))


def test_float_facet_alone_in_its_pair_takes_the_negation():
    # a float facet within the tolerance of another, whose negation is
    # given once, stays a facet as given (the closure holds within the
    # tolerance); its half row pairs it with its exact negation
    body = body_from_json({"dim": 2, "type": "hpoly", "facets": [
        {"normal": [1.0, 0.0]}, {"normal": [1.0, 1e-12]},
        {"normal": [-1.0, 0.0]}, {"normal": [0.0, 1.0]},
        {"normal": [0.0, -1.0]}]})
    assert [a.coords for a in body.facets][1] == (1.0, 1e-12)
    assert [(a.coords, b.coords) for a, b in body.half_facets] == [
        ((1.0, 0.0), (-1.0, 0.0)), ((1.0, 1e-12), (-1.0, -1e-12)),
        ((0.0, 1.0), (0.0, -1.0))]


def test_vpoly_validates_its_vertex_list_once(monkeypatch):
    # the polar's normals are closed under negation and span by
    # construction, so only the vertex list is checked, and the normals'
    # integer rows come from the polar without a second int_rows
    calls = []
    check = bodies._symmetric_form
    monkeypatch.setattr(bodies, "_symmetric_form",
                        lambda *args: calls.append(args[2]) or check(*args))
    rng = random.Random(29)
    hexagons = [random_symmetric_hexagon(rng).vertices for _ in range(20)]
    cross4 = [Vector(s * (i == k) for i in range(4))
              for k in range(4) for s in (1, -1)]
    for dim, vertices in [(2, vs) for vs in hexagons] + [(4, cross4)] + [
            (2, [Vector(float(c) / 3 for c in v) for v in hexagons[0]])]:
        calls.clear()
        body = VPolytopeBody(dim, vertices)
        assert calls == ["vertices"]
        form = check(dim, body.facets, "facets", "")
        if form:
            assert body._den == form[1]
            assert {r for h in body.half_rows
                    for r in (h, tuple(-x for x in h))} == set(form[0])
        else:
            # float half rows: the float facets, closed under exact negation
            assert not body.exact and body._den is None
            assert {r for h in body.half_rows
                    for r in (h, tuple(-x for x in h))} == \
                {a.coords for a in body.facets}


def test_polar_facets_are_the_hull_facets_up_to_3d():
    # the double description and the hull give one facet set, offset 1
    rng = random.Random(23)
    bodies = [random_symmetric_hexagon(rng) for _ in range(40)]
    while len(bodies) < 60:
        pts = [Vector(F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                      for _ in range(3)) for _ in range(rng.randint(3, 7))]
        if affine_rank(pts + [-p for p in pts]) == 3:
            bodies.append(VPolytopeBody(3, tuple(pts) + tuple(-p for p in pts)))
    for body in bodies:
        want = {tuple(F(c) / F(offset) for c in normal)
                for normal, offset in hull(list(body.vertices)).facets}
        assert {a.coords for a in body.facets} == want
        assert len(body.facets) == len(want)


@pytest.mark.parametrize("dim", [4, 5])
def test_facet_gauges_and_frames_against_the_polar_lp(dim):
    # on seeded integer points the facet form's gauge is the LP's value and
    # its frame's plane is an LP maximiser
    rng = random.Random(dim)
    bodies = [cross_vpoly(dim), seeded_vpoly(rng, dim), seeded_vpoly(rng, dim)]
    if dim == 4:
        bodies += [cube_vpoly(4), cell24()]
    for body in bodies:
        for _ in range(6):
            x = Vector(rng.randint(-7, 7) for _ in range(dim))
            value, _ = polar_lp(body.vertices, x)
            assert body.gauge(x) == value
            assert F(*int_gauge(body, list(x))) == value
            proj, den = body.int_projections(list(x))
            assert F(max(map(abs, proj)), den) == value
            if value:
                r_vec, normal = boundary_frame(body, x)
                assert r_vec * value == x
                assert normal.dot(x) == value
                assert all(normal.dot(v) <= 1 for v in body.vertices)


def test_projection_gauge_is_the_all_rows_gauge():
    # one projection per +- facet pair: the largest absolute projection is
    # the all-rows integer gauge, and the largest absolute difference of
    # two projections is the gauge of the difference, which the distance
    # tables read
    def diff(p, r):
        return [x - y for x, y in zip(p, r)]
    rng = random.Random(24)
    big = 3 ** 50   # above 2^64
    e1, e2 = Vector((1, 0)), Vector((0, 1))
    twice = HPolytopeBody(2, [(e1, 1), (e1, 1), (e1 * 2, 2), (-e1, 1),
                              (e2, F(1, 3)), (-e2, F(1, 3)), (e2 * 3, 1)])
    wide = HPolytopeBody(2, [(Vector((big, 1)), 1), (Vector((-big, -1)), 1),
                             (Vector((1, -big)), 7), (Vector((-1, big)), 7)])
    shapes = [twice, wide, cell24(), random_symmetric_hexagon(rng)]
    shapes += [seeded_vpoly(rng, dim) for dim in range(2, 6)]
    for dim in range(1, 6):
        shapes += [linf_ball(dim), l1_ball(dim), cross_vpoly(dim)]
    assert len(twice.half_rows) == 2 and len(cell24().half_rows) == 12
    for body in shapes:
        assert body.exact
        assert len(body.half_rows) * 2 == len(set(facet_rows(body)[0]))
        for scale in (9, 2 ** 70):
            points = [[0] * body.dim] + [
                [rng.randint(-scale, scale) for _ in range(body.dim)]
                for _ in range(12)]
            projections = [body.int_projections(p) for p in points]
            for p, (proj, den) in zip(points, projections):
                assert all(type(x) is int for x in proj + (den,))
                assert (max(map(abs, proj)), den) == int_gauge(body, p)
            for (p, (a, _)), (r, (b, _)) in product(
                    zip(points, projections), repeat=2):
                top = max(map(abs, diff(a, b)))
                assert top == int_gauge(body, diff(p, r))[0]
            table = bodies.int_distance_table(body, points, 5)
            assert table == [[(int_gauge(body, diff(r, p))[0], body._den * 5)
                              if i != j else (0, 1)
                              for j, r in enumerate(points)]
                             for i, p in enumerate(points)]


def test_float_vertex_hexagon_agrees_with_its_exact_twin():
    # thirds of the vertices and of the edge midpoints: the float midpoints
    # sit off their edges by a rounding, which the tolerance absorbs
    rng = random.Random(24)
    for _ in range(30):
        ring = hull(list(random_symmetric_hexagon(rng).vertices)).vertices
        pts = [v * F(1, 3) for v in ring] + [
            (v + w) * F(1, 6) for v, w in zip(ring, ring[1:] + ring[:1])]
        hexa = VPolytopeBody(2, pts)
        twin = VPolytopeBody(2, tuple(Vector(map(float, v)) for v in pts))
        assert not twin.exact
        assert len(twin.facets) == len(hexa.facets)
        assert all(any(a == b for b in hexa.facets) for a in twin.facets)
        for _ in range(10):
            x = Vector((F(rng.randint(-12, 12), 5), F(rng.randint(-12, 12), 5)))
            if x.is_zero():
                continue
            xf = Vector(map(float, x))
            assert twin.gauge(xf) == pytest.approx(float(hexa.gauge(x)))
            r_vec, normal = boundary_frame(twin, xf)
            want = boundary_frame(hexa, x)
            assert as_floats(r_vec) == pytest.approx(as_floats(want[0]))
            assert normal.dot(r_vec) == pytest.approx(1.0)


def test_frame_contract_on_every_body():
    # (r, a) with a.r == 1 and gauge(r) == 1 exactly, a.v <= 1 on every
    # vertex v of the body, and the same frame on a repeated call; random
    # directions, and two vertices, where several planes support the body
    rng = random.Random(16)
    cases = [(linf_ball(d), [Vector(s) for s in product((1, -1), repeat=d)])
             for d in range(1, 5)]
    cases += [(l1_ball(d), cross_vpoly(d).vertices) for d in range(1, 5)]
    cases += [(hexa, hexa.vertices) for hexa in
              (random_symmetric_hexagon(rng) for _ in range(6))]
    cases += [(body, body.vertices) for body in
              (cross_vpoly(4), cross_vpoly(5), cube_vpoly(4), cell24())]
    checked = 0
    for body, vertices in cases:
        directions = [Vector(F(rng.randint(-9, 9), rng.randint(1, 4))
                             for _ in range(body.dim)) for _ in range(12)]
        for u in directions + [v * 3 for v in vertices[:2]]:
            if u.is_zero():
                continue
            r_vec, normal = frame = boundary_frame(body, u)
            assert normal.dot(r_vec) == 1 and body.gauge(r_vec) == 1
            assert r_vec * body.gauge(u) == u
            assert all(normal.dot(v) <= 1 for v in vertices)
            assert boundary_frame(body, u) == frame
            checked += 1
    assert checked > 200


def test_as_float_is_the_mixed_route_on_float_facets():
    # Fraction op float is float(Fraction) op float, so the float body's
    # gauges and frames on float vectors are those of the exact body, bit
    # for bit; the ball has no facets and is itself
    assert BALL.as_float() is BALL
    rng = random.Random(26)
    bodies_ = [SQUARE, DIAMOND, cross_vpoly(4), cell24()] + [
        random_symmetric_hexagon(rng) for _ in range(4)]
    for body in bodies_:
        twin = body.as_float()
        assert type(twin) is HPolytopeBody and not twin.exact
        assert [a.coords for a in twin.facets] == [
            tuple(map(float, a)) for a in body.facets]
        assert twin.as_float().facets == twin.facets
        for _ in range(20):
            x = Vector(rng.uniform(-3, 3) for _ in range(body.dim))
            assert twin.gauge(x) == body.gauge(x)
            r_vec, normal = boundary_frame(twin, x)
            want = boundary_frame(body, x)
            assert r_vec.coords == want[0].coords
            assert normal.coords == tuple(map(float, want[1]))

