from fractions import Fraction as F

import pytest

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
