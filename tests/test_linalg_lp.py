import random
from fractions import Fraction as F

import pytest

from minkarr import scalars
from minkarr.linalg import Vector, affine_coordinates

from lp_oracle import UnboundedLP, simplex_max


def test_vector_arithmetic_preserves_dim():
    a = Vector((1, 2, 3))
    b = Vector((F(1, 2), 0, -1))
    assert (a + b).coords == (F(3, 2), 2, 2)
    assert (a - b).dim == 3
    assert (2 * a).coords == (2, 4, 6)
    assert a.dot(b) == F(1, 2) - 3
    with pytest.raises(ValueError):
        a + Vector((1, 2))


def test_vector_equality_exact_or_within_the_tolerance():
    # exact coordinates are equal only when equal; a float among them
    # makes every entry a tolerance comparison, mixed int/float included
    third = F(1, 3)
    assert Vector((1, third)) == Vector((F(1), F(2, 6)))
    assert Vector((1, third)) != Vector((1, third + F(1, 10 ** 30)))
    assert Vector((0.1 + 0.2, 1.0)) == Vector((0.3, 1.0))
    assert Vector((1.0, 0.5)) == Vector((1.0, 0.5 + 1e-12))
    assert Vector((1, 2)) == Vector((1.0, 2.0 + 1e-10))
    assert Vector((1, third)) == Vector((1.0, 1 / 3 + 1e-12))
    assert Vector((1, 2)) != Vector((1.0, 2.0 + 1e-6))
    assert Vector((1, 2)) != Vector((1, 2, 0))
    # against the entry-by-entry comparison on seeded exact, float and
    # mixed vectors, some equal and some a step apart
    rng = random.Random(77)
    steps = (0, F(1, 10 ** 12), 1e-12, 1e-8, 1)
    for _ in range(2000):
        a = [rng.choice((rng.randint(-3, 3), F(rng.randint(-9, 9), 7),
                         rng.uniform(-3, 3))) for _ in range(3)]
        b = list(a)
        k = rng.randrange(3)
        b[k] = b[k] + rng.choice(steps)
        if rng.random() < 0.3:
            b[k] = float(b[k])
        want = all(scalars.eq(x, y) for x, y in zip(a, b))
        assert (Vector(a) == Vector(b)) is want, (a, b)


def test_affine_coordinates_of_planar_points_in_3d():
    pts = [Vector((x, y, 1)) for x, y in [(0, 0), (1, 0), (0, 1), (2, 3)]]
    coords, basis, origin = affine_coordinates(pts)
    assert len(basis) == 2
    assert origin == pts[0]
    # reconstruct each point from its coordinates
    for p, c in zip(pts, coords):
        rebuilt = origin
        for coeff, b in zip(c, basis):
            rebuilt = rebuilt + b * coeff
        assert rebuilt == p


def test_simplex_box_support():
    # max x + y over the square [-1,1]^2
    value, x = simplex_max([1, 1],
                           [(1, 0), (-1, 0), (0, 1), (0, -1)],
                           [1, 1, 1, 1])
    assert value == 2
    assert x == [1, 1]


def test_simplex_exact_fractions():
    value, _ = simplex_max([F(1, 3), 1],
                           [(1, 1), (-1, -1), (1, -1), (-1, 1)],
                           [F(3, 2), F(3, 2), F(3, 2), F(3, 2)])
    # diamond of radius 3/2 in the 1-norm: optimum at vertex (0, 3/2)
    assert value == F(3, 2)


def test_simplex_unbounded():
    with pytest.raises(UnboundedLP):
        simplex_max([1, 0], [(0, 1)], [1])


def test_simplex_rejects_negative_rhs():
    with pytest.raises(ValueError):
        simplex_max([1], [(1,)], [-1])
