"""Vectors and small exact linear algebra: rank, solving inside a span, and
coordinates of points inside their affine hull.

Everything here is dimension-generic and works on exact scalars; floating
inputs degrade gracefully to tolerance-based pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence

from . import scalars
from .scalars import Scalar, div


class Vector:
    """Immutable coordinate vector over Scalar entries."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[Scalar]):
        self.coords = tuple(coords)
        if not self.coords:
            raise ValueError("vectors must have positive dimension")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Vector") -> "Vector":
        self._check(other)
        return Vector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Vector":
        return Vector(-a for a in self.coords)

    def __mul__(self, s: Scalar) -> "Vector":
        return Vector(a * s for a in self.coords)

    __rmul__ = __mul__

    def __truediv__(self, s: Scalar) -> "Vector":
        return Vector(div(a, s) for a in self.coords)

    def dot(self, other: "Vector") -> Scalar:
        self._check(other)
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def norm_sq(self) -> Scalar:
        return sum(a * a for a in self.coords)

    def is_zero(self) -> bool:
        return all(scalars.eq(a, 0) for a in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector) or other.dim != self.dim:
            return NotImplemented
        return all(scalars.eq(a, b) for a, b in zip(self.coords, other.coords))

    def __repr__(self) -> str:
        return "Vector(%s)" % (", ".join(repr(c) for c in self.coords))

    def as_floats(self) -> tuple:
        return tuple(float(c) for c in self.coords)

    def extended(self, *extra: Scalar) -> "Vector":
        return Vector(self.coords + tuple(extra))

    def _check(self, other: "Vector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch: %d vs %d"
                             % (len(self.coords), len(other.coords)))


def zero_vector(dim: int) -> Vector:
    return Vector([0] * dim)


def cross3(a: Vector, b: Vector) -> Vector:
    if a.dim != 3 or b.dim != 3:
        raise ValueError("cross3 needs 3-dimensional vectors")
    return Vector((a[1] * b[2] - a[2] * b[1],
                   a[2] * b[0] - a[0] * b[2],
                   a[0] * b[1] - a[1] * b[0]))


def _wrap(v: Scalar) -> Scalar:
    # ints become Fractions so that elimination divides exactly
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    return v


def _rref(rows: List[List[Scalar]], ncols: int):
    """In-place reduced row echelon form; returns the pivot column list."""
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for rr in range(r, len(rows)):
            if not scalars.eq(rows[rr][c], 0):
                pivot_row = rr
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [div(x, pv) for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and not scalars.eq(rows[rr][c], 0):
                f = rows[rr][c]
                rows[rr] = [x - f * y for x, y in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(rows: Sequence[Sequence[Scalar]]) -> int:
    if not rows:
        return 0
    work = [[_wrap(v) for v in row] for row in rows]
    return len(_rref(work, len(work[0])))


def solve_in_span(basis: Sequence[Vector], target: Vector) -> Optional[List[Scalar]]:
    """Coefficients c with sum(c_i * basis_i) == target, or None if outside
    the span.  The basis need not be independent; any valid witness is fine."""
    if not basis:
        return [] if target.is_zero() else None
    m = len(basis)
    rows = [[_wrap(b[r]) for b in basis] + [_wrap(target[r])]
            for r in range(target.dim)]
    pivots = _rref(rows, m)
    for row in rows:
        if all(scalars.eq(x, 0) for x in row[:m]) and not scalars.eq(row[m], 0):
            return None
    coeffs: List[Scalar] = [Fraction(0)] * m
    for prow, pcol in enumerate(pivots):
        coeffs[pcol] = rows[prow][m]
    return coeffs


def affine_coordinates(points: Sequence[Vector]):
    """Exact coordinates of the points inside their own affine hull.

    Returns (coords, basis, origin): origin is points[0], basis is an
    independent list of difference vectors, and coords[i] are the coefficients
    of points[i] - origin in that basis (a Vector of length len(basis), or an
    empty tuple list when all points coincide).
    """
    origin = points[0]
    basis: List[Vector] = []
    for p in points[1:]:
        d = p - origin
        if d.is_zero():
            continue
        if solve_in_span(basis, d) is None:
            basis.append(d)
    if not basis:  # every point coincides with the origin
        return None, [], origin
    coords = []
    for p in points:
        c = solve_in_span(basis, p - origin)
        if c is None:  # cannot happen: basis spans all differences
            raise AssertionError("affine basis does not span input differences")
        coords.append(Vector(c))
    return coords, basis, origin
