import random
from fractions import Fraction as F

import pytest

from minkarr import Arrangement, Homothet, l1_ball, lift
from minkarr.linalg import Vector, affine_coordinates, affine_rank
from minkarr.polytopes import ConvexPolytope, hull, volume
from test_oracles import as_floats, contains, interiors_disjoint, shrink


def V(*coords):
    return Vector([F(c) for c in coords])


def square(a, b):
    """Axis box [a,b]^2 as a hull."""
    pts = [V(a, a), V(a, b), V(b, a), V(b, b)]
    h = hull(pts)
    assert isinstance(h, ConvexPolytope)
    return h


def test_hull_square():
    h = square(0, 1)
    assert len(h.vertices) == 4
    assert len(h.facets) == 4
    assert volume(h) == 1


def test_hull_interior_point_dropped():
    pts = [V(0, 0), V(0, 1), V(1, 0), V(1, 1), V(F(1, 2), F(1, 2))]
    h = hull(pts)
    assert len(h.vertices) == 4


def test_hull_collinear_flag():
    # the affine dimension is affine_rank's answer; the hull only hulls
    pts = [V(0, 0), V(1, 1), V(2, 2)]
    assert affine_rank(pts) == 1
    assert affine_coordinates(pts)[0] == [V(0), V(1), V(2)]
    with pytest.raises(ValueError, match="not an affine 1-flat"):
        hull(pts)
    assert affine_rank([V(1, 2)] * 3) == 0
    with pytest.raises(ValueError, match="empty"):
        affine_rank([])


def test_hull_cube_and_simplex_volumes():
    cube_pts = [V(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    h = hull(cube_pts)
    assert len(h.vertices) == 8
    assert len(h.facets) == 6
    assert volume(h) == 1
    simplex = hull([V(0, 0, 0), V(1, 0, 0), V(0, 1, 0), V(0, 0, 1)])
    assert volume(simplex) == F(1, 6)


def test_hull_1d():
    h = hull([Vector([F(3)]), Vector([F(-1)]), Vector([F(2)])])
    assert volume(h) == 4


def test_hull_octahedron_with_coplanar_extra():
    pts = [V(1, 0, 0), V(-1, 0, 0), V(0, 1, 0), V(0, -1, 0),
           V(0, 0, 1), V(0, 0, -1)]
    h = hull(pts)
    assert len(h.facets) == 8
    assert volume(h) == F(4, 3)
    # a point on a facet plane must not become a vertex
    pts2 = pts + [V(F(1, 3), F(1, 3), F(1, 3))]
    h2 = hull(pts2)
    assert len(h2.vertices) == 6
    assert volume(h2) == F(4, 3)


def test_float_hull_of_a_lift_has_one_facet_per_plane():
    # in floats, the triples of one facet give planes that differ in the
    # last bits; keyed by those planes, facets were counted twice and the
    # volume came out as 1/60
    members = [((-1.5, -1.0), 1.0), ((0.5, 2.0), 4.0), ((1.5, -1.0), 3.0),
               ((-2.0, -0.5), 1.0), ((-1.0, -1.5), 1.0)]
    arr = Arrangement(l1_ball(2), tuple(Homothet(Vector(c), r)
                                        for c, r in members))
    h = hull(lift(arr).points)
    assert (len(h.vertices), len(h.facets)) == (4, 4)
    assert abs(volume(h) - 1 / 72) <= 1e-12 / 72


def overlap_probe(p1: ConvexPolytope, p2: ConvexPolytope,
                  samples: int = 100_000, seed: int = 0) -> int:
    """Monte Carlo cross-check: count random points interior to both.

    Samples the bounding box of p1; used only to corroborate the exact test.
    """
    rng = random.Random(seed)
    lo = [min(float(v[i]) for v in p1.vertices) for i in range(p1.dim)]
    hi = [max(float(v[i]) for v in p1.vertices) for i in range(p1.dim)]
    f1 = [(as_floats(a), float(c)) for a, c in p1.facets]
    f2 = [(as_floats(a), float(c)) for a, c in p2.facets]
    hits = 0
    for _ in range(samples):
        pt = [rng.uniform(lo[i], hi[i]) for i in range(p1.dim)]
        if all(sum(ai * xi for ai, xi in zip(a, pt)) < c for a, c in f1) and \
           all(sum(ai * xi for ai, xi in zip(a, pt)) < c for a, c in f2):
            hits += 1
    return hits


def test_disjointness_symmetric_and_probe_consistent():
    rng = random.Random(77)
    base = square(0, 2)
    for _ in range(12):
        cx = F(rng.randint(0, 4), 2)
        cy = F(rng.randint(0, 4), 2)
        lam = F(rng.randint(2, 4), 2)
        c = V(cx, cy)
        p1 = shrink(base, c, lam) if contains(base, c) else base
        p2 = shrink(base, V(0, 0), lam)
        d12 = interiors_disjoint(p1, p2)
        assert d12 == interiors_disjoint(p2, p1)
        hits = overlap_probe(p1, p2, samples=20_000, seed=3)
        if d12:
            assert hits == 0
        else:
            assert hits > 0


def test_monte_carlo_probe_contract():
    a = square(0, 1)
    b = square(1, 2)
    assert overlap_probe(a, b, samples=100_000, seed=0) == 0
